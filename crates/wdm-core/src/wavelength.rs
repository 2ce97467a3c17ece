//! Wavelengths and wavelength sets.
//!
//! The paper's `Λ = {λ_1, …, λ_W}` is a small global set (wide-area WDM
//! systems of the paper's era carried 8–40 channels; modern DWDM up to ~96).
//! Per-link availability `Λ(e)` / `Λ_avail(e)` is therefore a bitset: one
//! `u64` covers every realistic deployment, keeps set algebra branch-free,
//! and makes the residual-network updates of the simulator O(1).

use std::fmt;

/// Maximum number of wavelengths supported by [`WavelengthSet`].
pub const MAX_WAVELENGTHS: usize = 64;

/// A single wavelength channel `λ_i` (0-based index into `Λ`).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Wavelength(pub u8);

impl Wavelength {
    /// The channel index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

/// A set of wavelength channels, backed by a `u64` bitmask
/// (capacity [`MAX_WAVELENGTHS`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub struct WavelengthSet(u64);

impl WavelengthSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        Self(0)
    }

    /// The full set `{λ_0, …, λ_{w-1}}`.
    ///
    /// # Panics
    /// Panics if `w > MAX_WAVELENGTHS`.
    #[inline]
    pub fn full(w: usize) -> Self {
        assert!(
            w <= MAX_WAVELENGTHS,
            "at most {MAX_WAVELENGTHS} wavelengths"
        );
        if w == 64 {
            Self(u64::MAX)
        } else {
            Self((1u64 << w) - 1)
        }
    }

    /// Builds a set from explicit channel indices.
    pub fn from_indices(indices: &[u8]) -> Self {
        let mut s = Self::empty();
        for &i in indices {
            s.insert(Wavelength(i));
        }
        s
    }

    /// Whether the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of wavelengths in the set (`|Λ|`).
    #[inline]
    pub const fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `λ` is in the set.
    #[inline]
    pub fn contains(self, l: Wavelength) -> bool {
        debug_assert!(l.index() < MAX_WAVELENGTHS);
        self.0 & (1u64 << l.0) != 0
    }

    /// Inserts `λ`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, l: Wavelength) -> bool {
        debug_assert!(l.index() < MAX_WAVELENGTHS);
        let bit = 1u64 << l.0;
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes `λ`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, l: Wavelength) -> bool {
        let bit = 1u64 << l.0;
        let had = self.0 & bit != 0;
        self.0 &= !bit;
        had
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Set intersection (`Λ_avail(e) ∩ Λ_avail(e')` in Theorem 2's proof).
    #[inline]
    pub const fn intersect(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// Set difference `self \ other` (e.g. `Λ(e) \ U(e)` = available).
    #[inline]
    pub const fn minus(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub const fn is_subset_of(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// The raw backing bitmask (bit `i` set ⇔ `λ_i` present). Stable across
    /// serde round trips; the state hashes feed on this.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The set whose backing bitmask is `bits` (the inverse of
    /// [`bits`](Self::bits)).
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// The lowest-index wavelength, if any (first-fit assignment order).
    #[inline]
    pub fn first(self) -> Option<Wavelength> {
        if self.0 == 0 {
            None
        } else {
            Some(Wavelength(self.0.trailing_zeros() as u8))
        }
    }

    /// Iterates the wavelengths in ascending channel order.
    pub fn iter(self) -> impl Iterator<Item = Wavelength> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some(Wavelength(i))
            }
        })
    }
}

impl fmt::Debug for WavelengthSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Wavelength> for WavelengthSet {
    fn from_iter<T: IntoIterator<Item = Wavelength>>(iter: T) -> Self {
        let mut s = Self::empty();
        for l in iter {
            s.insert(l);
        }
        s
    }
}

/// Maximum number of wavelengths supported by [`WideWavelengthSet`].
pub const MAX_WIDE_WAVELENGTHS: usize = 256;

/// A wavelength set for dense-DWDM systems with up to
/// [`MAX_WIDE_WAVELENGTHS`] channels, backed by four `u64` words.
///
/// The routing algorithms use the single-word [`WavelengthSet`] (64 channels
/// cover the paper's era and typical C-band DWDM); this type exists for
/// planning tools that model wider systems and mirrors the same API.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub struct WideWavelengthSet([u64; 4]);

impl WideWavelengthSet {
    /// The empty set.
    pub const fn empty() -> Self {
        Self([0; 4])
    }

    /// The full set `{λ_0, …, λ_{w-1}}`.
    pub fn full(w: usize) -> Self {
        assert!(w <= MAX_WIDE_WAVELENGTHS);
        let mut words = [0u64; 4];
        for (i, word) in words.iter_mut().enumerate() {
            let lo = i * 64;
            if w >= lo + 64 {
                *word = u64::MAX;
            } else if w > lo {
                *word = (1u64 << (w - lo)) - 1;
            }
        }
        Self(words)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Number of channels in the set.
    pub fn count(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether channel `i` is present.
    pub fn contains(self, i: usize) -> bool {
        debug_assert!(i < MAX_WIDE_WAVELENGTHS);
        self.0[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Inserts channel `i`; returns whether it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < MAX_WIDE_WAVELENGTHS);
        let bit = 1u64 << (i % 64);
        let fresh = self.0[i / 64] & bit == 0;
        self.0[i / 64] |= bit;
        fresh
    }

    /// Removes channel `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let bit = 1u64 << (i % 64);
        let had = self.0[i / 64] & bit != 0;
        self.0[i / 64] &= !bit;
        had
    }

    /// Set union.
    pub fn union(self, o: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] | o.0[i]))
    }

    /// Set intersection.
    pub fn intersect(self, o: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] & o.0[i]))
    }

    /// Set difference `self \ o`.
    pub fn minus(self, o: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] & !o.0[i]))
    }

    /// Iterates channel indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..4).flat_map(move |wi| {
            let mut bits = self.0[wi];
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl std::fmt::Debug for WideWavelengthSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "λ{l}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_count() {
        assert_eq!(WavelengthSet::full(0).count(), 0);
        assert_eq!(WavelengthSet::full(8).count(), 8);
        assert_eq!(WavelengthSet::full(64).count(), 64);
        assert!(WavelengthSet::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn full_rejects_oversize() {
        WavelengthSet::full(65);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = WavelengthSet::empty();
        assert!(s.insert(Wavelength(3)));
        assert!(!s.insert(Wavelength(3)));
        assert!(s.contains(Wavelength(3)));
        assert!(!s.contains(Wavelength(4)));
        assert!(s.remove(Wavelength(3)));
        assert!(!s.remove(Wavelength(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = WavelengthSet::from_indices(&[0, 1, 2]);
        let b = WavelengthSet::from_indices(&[2, 3]);
        assert_eq!(a.union(b), WavelengthSet::from_indices(&[0, 1, 2, 3]));
        assert_eq!(a.intersect(b), WavelengthSet::from_indices(&[2]));
        assert_eq!(a.minus(b), WavelengthSet::from_indices(&[0, 1]));
        assert!(WavelengthSet::from_indices(&[1]).is_subset_of(a));
        assert!(!b.is_subset_of(a));
    }

    #[test]
    fn iteration_order_and_first() {
        let s = WavelengthSet::from_indices(&[5, 1, 63]);
        let v: Vec<u8> = s.iter().map(|l| l.0).collect();
        assert_eq!(v, vec![1, 5, 63]);
        assert_eq!(s.first(), Some(Wavelength(1)));
        assert_eq!(WavelengthSet::empty().first(), None);
    }

    #[test]
    fn from_iterator() {
        let s: WavelengthSet = [Wavelength(2), Wavelength(4)].into_iter().collect();
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn debug_format() {
        let s = WavelengthSet::from_indices(&[0, 2]);
        assert_eq!(format!("{s:?}"), "{λ0,λ2}");
    }

    #[test]
    fn wide_full_and_count() {
        assert_eq!(WideWavelengthSet::full(0).count(), 0);
        assert_eq!(WideWavelengthSet::full(64).count(), 64);
        assert_eq!(WideWavelengthSet::full(100).count(), 100);
        assert_eq!(WideWavelengthSet::full(256).count(), 256);
        assert!(WideWavelengthSet::empty().is_empty());
    }

    #[test]
    fn wide_cross_word_operations() {
        let mut s = WideWavelengthSet::empty();
        assert!(s.insert(3));
        assert!(s.insert(70));
        assert!(s.insert(255));
        assert!(!s.insert(70));
        assert!(s.contains(70));
        assert!(!s.contains(71));
        assert_eq!(s.count(), 3);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![3, 70, 255]);
        assert!(s.remove(70));
        assert!(!s.remove(70));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn wide_set_algebra() {
        let mut a = WideWavelengthSet::empty();
        a.insert(1);
        a.insert(100);
        let mut b = WideWavelengthSet::empty();
        b.insert(100);
        b.insert(200);
        assert_eq!(a.union(b).count(), 3);
        assert_eq!(a.intersect(b).iter().collect::<Vec<_>>(), vec![100]);
        assert_eq!(a.minus(b).iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn wide_debug_format() {
        let mut s = WideWavelengthSet::empty();
        s.insert(0);
        s.insert(128);
        assert_eq!(format!("{s:?}"), "{λ0,λ128}");
    }
}
