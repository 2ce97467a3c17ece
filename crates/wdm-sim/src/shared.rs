//! Shared backup protection (extension).
//!
//! The paper reserves a *dedicated* backup semilightpath per connection —
//! simple, but it doubles the capacity bill. Under the single-link-failure
//! model the paper assumes, two connections whose **primaries are
//! edge-disjoint** can never need their backups at the same time, so their
//! backups may share wavelength channels. This module implements that
//! 1:N shared protection on top of the §3.3 route finder:
//!
//! * [`SharedBackupPool`] tracks, per `(link, wavelength)` backup channel,
//!   which connections share it and the union of primary links they
//!   protect; a new connection may join iff its primary is edge-disjoint
//!   from every current sharer's primary.
//! * [`SharedProvisioner`] provisions connections end to end: the §3.3
//!   pipeline chooses the two paths, the primary takes dedicated channels,
//!   and the backup's wavelengths are re-assigned by a sharing-aware DP
//!   that prefers joinable channels (zero marginal capacity) over fresh
//!   ones.
//!
//! The `exp_shared_backup` binary measures the capacity savings against
//! dedicated protection on batch workloads.

use std::collections::HashMap;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::disjoint::robust_route_ctx;
use wdm_core::error::RoutingError;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::semilightpath::{Hop, Semilightpath};
use wdm_core::wavelength::{Wavelength, WavelengthSet};
use wdm_graph::{EdgeId, NodeId};

/// One shared backup channel: the connections using it and the union of
/// the primary links it protects.
#[derive(Debug, Clone, Default)]
struct ChannelSharers {
    /// Connection ids sharing this channel.
    conns: Vec<u64>,
    /// Union of all sharers' primary links (failure of any of these claims
    /// the channel).
    protected: Vec<EdgeId>,
}

/// Registry of backup-channel reservations with sharing.
#[derive(Debug, Clone, Default)]
pub struct SharedBackupPool {
    /// `(link, λ)` → sharers.
    channels: HashMap<(EdgeId, u8), ChannelSharers>,
    /// Per connection: the backup hops it reserved (for release).
    by_conn: HashMap<u64, Vec<Hop>>,
}

impl SharedBackupPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `(e, λ)` is reserved by any backup.
    pub fn is_reserved(&self, e: EdgeId, l: Wavelength) -> bool {
        self.channels.contains_key(&(e, l.0))
    }

    /// Whether a connection with `primary_edges` may join `(e, λ)`:
    /// unreserved, or reserved only by sharers whose primaries are disjoint
    /// from this one.
    pub fn can_use(&self, e: EdgeId, l: Wavelength, primary_edges: &[EdgeId]) -> bool {
        match self.channels.get(&(e, l.0)) {
            None => true,
            Some(sh) => !sh.protected.iter().any(|pe| primary_edges.contains(pe)),
        }
    }

    /// Whether joining `(e, λ)` consumes no new capacity (already reserved).
    pub fn is_shareable(&self, e: EdgeId, l: Wavelength, primary_edges: &[EdgeId]) -> bool {
        match self.channels.get(&(e, l.0)) {
            None => false,
            Some(sh) => !sh.protected.iter().any(|pe| primary_edges.contains(pe)),
        }
    }

    /// Registers `conn`'s backup hops, protecting `primary_edges`.
    pub fn reserve(&mut self, conn: u64, hops: &[Hop], primary_edges: &[EdgeId]) {
        for h in hops {
            let sh = self.channels.entry((h.edge, h.wavelength.0)).or_default();
            debug_assert!(
                !sh.protected.iter().any(|pe| primary_edges.contains(pe)),
                "sharing violation: joint primary link"
            );
            sh.conns.push(conn);
            sh.protected.extend_from_slice(primary_edges);
        }
        self.by_conn.insert(conn, hops.to_vec());
    }

    /// Releases all backup reservations of `conn` (rebuilding the protected
    /// unions of channels it shared). Returns the hops it held.
    pub fn release(&mut self, conn: u64, primaries: &HashMap<u64, Vec<EdgeId>>) -> Vec<Hop> {
        let hops = self.by_conn.remove(&conn).unwrap_or_default();
        for h in &hops {
            let key = (h.edge, h.wavelength.0);
            if let Some(sh) = self.channels.get_mut(&key) {
                sh.conns.retain(|&c| c != conn);
                if sh.conns.is_empty() {
                    self.channels.remove(&key);
                } else {
                    // Rebuild the protected union from the remaining sharers.
                    let mut protected = Vec::new();
                    for c in &sh.conns {
                        if let Some(p) = primaries.get(c) {
                            protected.extend_from_slice(p);
                        }
                    }
                    sh.protected = protected;
                }
            }
        }
        hops
    }

    /// Number of distinct backup channels currently reserved.
    pub fn reserved_channels(&self) -> usize {
        self.channels.len()
    }

    /// Total backup hops across connections (≥ reserved channels; the gap
    /// is the sharing win).
    pub fn total_backup_hops(&self) -> usize {
        self.by_conn.values().map(|h| h.len()).sum()
    }

    /// Checks the sharing invariant: on every reserved channel, the sharers'
    /// primaries are pairwise edge-disjoint (no single link failure can
    /// claim the channel twice). Returns the number of channels checked.
    ///
    /// `primaries` maps live connection ids to their primary edge sets.
    pub fn validate(&self, primaries: &HashMap<u64, Vec<EdgeId>>) -> Result<usize, String> {
        // HashMap iteration order is random per instance; check channels in
        // sorted order so the *first* reported violation is deterministic.
        let mut keys: Vec<(EdgeId, u8)> = self.channels.keys().copied().collect();
        keys.sort_unstable_by_key(|&(e, l)| (e.index(), l));
        for (e, l) in keys {
            let sh = &self.channels[&(e, l)];
            for (i, a) in sh.conns.iter().enumerate() {
                let pa = primaries
                    .get(a)
                    .ok_or_else(|| format!("sharer {a} has no primary registered"))?;
                for b in &sh.conns[i + 1..] {
                    let pb = primaries
                        .get(b)
                        .ok_or_else(|| format!("sharer {b} has no primary registered"))?;
                    if pa.iter().any(|x| pb.contains(x)) {
                        return Err(format!(
                            "channel ({e:?}, λ{l}) shared by {a} and {b} with overlapping primaries"
                        ));
                    }
                }
            }
        }
        Ok(self.channels.len())
    }
}

/// A provisioned shared-protection connection.
#[derive(Debug, Clone)]
pub struct SharedConnection {
    /// Connection id.
    pub id: u64,
    /// The working path (dedicated channels).
    pub primary: Semilightpath,
    /// The protection path (channels possibly shared).
    pub backup: Semilightpath,
    /// How many of the backup's hops joined an existing reservation.
    pub shared_hops: usize,
}

/// End-to-end provisioner with shared backups.
///
/// Working channels live in the usual [`ResidualState`]; backup
/// reservations live in the [`SharedBackupPool`]. A channel is available to
/// a *primary* only if it is both unused and unreserved; a *backup* may
/// additionally join compatible reservations.
pub struct SharedProvisioner<'a> {
    net: &'a WdmNetwork,
    /// Channels taken by primaries (dedicated).
    pub working: ResidualState,
    /// Backup reservations.
    pub pool: SharedBackupPool,
    /// Primary edge sets per live connection (for release-time rebuilds).
    primaries: HashMap<u64, Vec<EdgeId>>,
    next_id: u64,
}

impl<'a> SharedProvisioner<'a> {
    /// A fresh provisioner over `net`.
    pub fn new(net: &'a WdmNetwork) -> Self {
        Self {
            net,
            working: ResidualState::fresh(net),
            pool: SharedBackupPool::new(),
            primaries: HashMap::new(),
            next_id: 0,
        }
    }

    /// Checks the pool's sharing invariant against the live primaries.
    pub fn validate(&self) -> Result<usize, String> {
        self.pool.validate(&self.primaries)
    }

    /// The state a *routing* decision must see: working channels plus all
    /// backup reservations marked used (so primaries avoid both).
    fn routing_state(&self) -> ResidualState {
        let mut st = self.working.clone();
        // Sorted so the clone's per-link change clocks are stamped in a
        // deterministic order (HashMap key order is random per instance).
        let mut reserved: Vec<(EdgeId, u8)> = self.pool.channels.keys().copied().collect();
        reserved.sort_unstable_by_key(|&(e, l)| (e.index(), l));
        for (e, l) in reserved {
            // Reserved backup channels may already coincide with working
            // occupation only transiently; ignore double-set errors.
            let _ = st.occupy(self.net, e, Wavelength(l));
        }
        st
    }

    /// Provisions a protected connection `s → t`. The §3.3 finder chooses
    /// the two edge-disjoint paths on the fully-reserved view; the backup's
    /// wavelengths are then re-assigned by the sharing-aware DP.
    pub fn provision(&mut self, s: NodeId, t: NodeId) -> Result<SharedConnection, RoutingError> {
        let routing_view = self.routing_state();
        let (route, _) = robust_route_ctx(&mut RouterCtx::new(), self.net, &routing_view, s, t)?;
        let primary = route.primary;
        let primary_edges: Vec<EdgeId> = primary.edges().collect();

        // Re-assign backup wavelengths: a channel is usable if it is free of
        // working traffic AND (unreserved OR joinable); joinable channels
        // cost 0 capacity, fresh ones cost 1. Minimise capacity, then count
        // shared hops.
        let backup_edges: Vec<EdgeId> = route.backup.edges().collect();
        let backup = self
            .assign_backup(&backup_edges, s, &primary_edges)
            .ok_or(RoutingError::RefinementInfeasible)?;

        // Commit: the primary occupies working channels, the backup
        // reserves (possibly shared) pool channels.
        primary
            .occupy(self.net, &mut self.working)
            .map_err(|_| RoutingError::RefinementInfeasible)?;
        let shared_hops = backup
            .hops
            .iter()
            .filter(|h| self.pool.is_shareable(h.edge, h.wavelength, &primary_edges))
            .count();
        self.pool
            .reserve(self.next_id, &backup.hops, &primary_edges);
        self.primaries.insert(self.next_id, primary_edges);
        let conn = SharedConnection {
            id: self.next_id,
            primary,
            backup,
            shared_hops,
        };
        self.next_id += 1;
        Ok(conn)
    }

    /// Sharing-aware wavelength DP along the backup's edges: minimise
    /// (fresh channels used, then conversion-feasible Eq. 1 cost is
    /// delegated to hop order). Returns `None` if some hop has no usable
    /// channel.
    #[allow(clippy::needless_range_loop)] // dp indexed by wavelength
    fn assign_backup(
        &self,
        edges: &[EdgeId],
        src: NodeId,
        primary_edges: &[EdgeId],
    ) -> Option<Semilightpath> {
        if edges.is_empty() {
            return None;
        }
        let w = self.net.num_wavelengths();
        let usable = |e: EdgeId| -> WavelengthSet {
            let mut set = WavelengthSet::empty();
            for l in self.net.lambda(e).iter() {
                // Free of working traffic...
                if !self.working.avail(self.net, e).contains(l) {
                    continue;
                }
                // ...and unreserved or joinable.
                if self.pool.can_use(e, l, primary_edges) {
                    set.insert(l);
                }
            }
            set
        };
        let hop_capacity_cost = |e: EdgeId, l: Wavelength| -> f64 {
            if self.pool.is_shareable(e, l, primary_edges) {
                0.0
            } else {
                1.0
            }
        };

        // DP over (hop, wavelength) minimising fresh-channel count, with
        // conversion feasibility from the node tables.
        let mut dp = vec![f64::INFINITY; w];
        let mut choice: Vec<Vec<u8>> = Vec::with_capacity(edges.len());
        for l in usable(edges[0]).iter() {
            dp[l.index()] = hop_capacity_cost(edges[0], l);
        }
        choice.push(vec![u8::MAX; w]);
        let mut at = self.net.endpoints(edges[0]).1;
        for &e in edges.iter().skip(1) {
            let (u, v) = self.net.endpoints(e);
            debug_assert_eq!(u, at);
            let conv = self.net.conversion(u);
            let mut next = vec![f64::INFINITY; w];
            let mut ch = vec![u8::MAX; w];
            for l2 in usable(e).iter() {
                let step = hop_capacity_cost(e, l2);
                for l1 in 0..w {
                    if dp[l1].is_finite() && conv.allows(Wavelength(l1 as u8), l2) {
                        let cand = dp[l1] + step;
                        if cand < next[l2.index()] {
                            next[l2.index()] = cand;
                            ch[l2.index()] = l1 as u8;
                        }
                    }
                }
            }
            dp = next;
            choice.push(ch);
            at = v;
        }
        let best = dp
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_finite())
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(l, _)| l)?;
        let mut lambdas = vec![0u8; edges.len()];
        let mut l = best as u8;
        for i in (0..edges.len()).rev() {
            lambdas[i] = l;
            if i > 0 {
                l = choice[i][l as usize];
            }
        }
        let hops: Vec<Hop> = edges
            .iter()
            .zip(&lambdas)
            .map(|(&e, &l)| Hop {
                edge: e,
                wavelength: Wavelength(l),
            })
            .collect();
        Semilightpath::new(self.net, src, hops).ok()
    }

    /// Tears down a connection, freeing its working channels and backup
    /// reservations.
    pub fn release(&mut self, conn: &SharedConnection) {
        conn.primary.release(&mut self.working);
        self.primaries.remove(&conn.id);
        let _ = self.pool.release(conn.id, &self.primaries);
    }

    /// Total channels consumed right now: working + distinct backup
    /// reservations. The comparable dedicated-protection figure is
    /// working + total backup hops.
    pub fn channels_in_use(&self) -> usize {
        let working: usize = (0..self.net.link_count())
            .map(|i| self.working.used_count(EdgeId::from(i)))
            .sum();
        working + self.pool.reserved_channels()
    }

    /// Channels dedicated protection would have consumed for the same
    /// connection set.
    pub fn dedicated_equivalent(&self) -> usize {
        let working: usize = (0..self.net.link_count())
            .map(|i| self.working.used_count(EdgeId::from(i)))
            .sum();
        working + self.pool.total_backup_hops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::conversion::ConversionTable;
    use wdm_core::network::NetworkBuilder;

    /// Two parallel corridors between a shared pair of hubs, plus separate
    /// sources whose primaries are edge-disjoint.
    fn net() -> WdmNetwork {
        NetworkBuilder::nsfnet(8).build()
    }

    #[test]
    fn disjoint_primaries_share_backup_channels() {
        let net = net();
        let mut p = SharedProvisioner::new(&net);
        // Two connections with the same endpoints: their §3.3 primaries and
        // backups use the same physical routes; primaries occupy different
        // wavelengths on the same links (NOT edge-disjoint) → cannot share.
        let a = p.provision(NodeId(0), NodeId(13)).unwrap();
        let b = p.provision(NodeId(0), NodeId(13)).unwrap();
        assert_eq!(a.shared_hops, 0);
        assert_eq!(
            b.shared_hops, 0,
            "same-route primaries must not share backups"
        );

        // A third connection whose primary is far away CAN share whatever
        // backup channels coincide.
        let c = p.provision(NodeId(4), NodeId(5)).unwrap();
        // Not guaranteed to overlap, but the accounting must be consistent:
        assert!(p.channels_in_use() <= p.dedicated_equivalent());
        let _ = c;
    }

    #[test]
    fn sharing_saves_capacity_on_many_disjoint_pairs() {
        let net = net();
        let mut p = SharedProvisioner::new(&net);
        // Provision many connections across scattered pairs; with sharing
        // the backup bill must come in under the dedicated equivalent.
        let pairs = [
            (0u32, 13u32),
            (1, 12),
            (2, 11),
            (3, 9),
            (5, 10),
            (6, 8),
            (7, 0),
            (13, 1),
        ];
        let mut ok = 0;
        for &(s, t) in &pairs {
            if p.provision(NodeId(s), NodeId(t)).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 6, "most pairs should fit ({ok})");
        assert!(
            p.channels_in_use() < p.dedicated_equivalent(),
            "sharing must save something: {} vs {}",
            p.channels_in_use(),
            p.dedicated_equivalent()
        );
    }

    #[test]
    fn release_returns_channels_and_rebuilds_unions() {
        let net = net();
        let mut p = SharedProvisioner::new(&net);
        let a = p.provision(NodeId(0), NodeId(13)).unwrap();
        let b = p.provision(NodeId(2), NodeId(11)).unwrap();
        let before = p.channels_in_use();
        p.release(&a);
        assert!(p.channels_in_use() < before);
        p.release(&b);
        assert_eq!(p.channels_in_use(), 0);
        assert_eq!(p.pool.reserved_channels(), 0);
    }

    #[test]
    fn primary_never_lands_on_reserved_backup_channel() {
        let net = net();
        let mut p = SharedProvisioner::new(&net);
        let mut conns = Vec::new();
        for i in 0..10 {
            if let Ok(c) = p.provision(NodeId(i % 14), NodeId((i * 5 + 7) % 14)) {
                conns.push(c);
            }
        }
        // Invariant: no primary hop coincides with a reserved backup channel
        // of a *different* connection, and no two primaries share a channel.
        let mut seen: std::collections::HashSet<(EdgeId, u8)> = Default::default();
        for c in &conns {
            for h in &c.primary.hops {
                assert!(
                    seen.insert((h.edge, h.wavelength.0)),
                    "primary channel collision"
                );
            }
        }
        for c in &conns {
            for h in &c.primary.hops {
                // A channel can appear in the pool only for this conn's own
                // backup (impossible: backup is edge-disjoint from primary).
                assert!(
                    !p.pool.is_reserved(h.edge, h.wavelength),
                    "primary sits on a backup reservation"
                );
            }
        }
    }

    #[test]
    fn stress_many_connections_keep_sharing_invariant() {
        use rand::{Rng, SeedableRng};
        let net = net();
        let mut p = SharedProvisioner::new(&net);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let mut live: Vec<SharedConnection> = Vec::new();
        for step in 0..120 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let i = rng.gen_range(0..live.len());
                let c = live.swap_remove(i);
                p.release(&c);
            } else {
                let s = rng.gen_range(0..14u32);
                let mut t = rng.gen_range(0..14u32);
                if s == t {
                    t = (t + 1) % 14;
                }
                if let Ok(c) = p.provision(NodeId(s), NodeId(t)) {
                    live.push(c);
                }
            }
            p.validate().unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert!(p.channels_in_use() <= p.dedicated_equivalent());
        }
        for c in &live {
            p.release(c);
        }
        assert_eq!(p.channels_in_use(), 0);
    }

    #[test]
    fn provisioner_records_shared_vs_fresh_channels() {
        let net = net();
        let mut p = SharedProvisioner::new(&net);
        let pairs = [(0u32, 13u32), (1, 12), (2, 11), (3, 9), (5, 10), (6, 8)];
        let conns: Vec<SharedConnection> = pairs
            .iter()
            .filter_map(|&(s, t)| p.provision(NodeId(s), NodeId(t)).ok())
            .collect();
        let hops: usize = conns.iter().map(|c| c.backup.hops.len()).sum();
        let shared: usize = conns.iter().map(|c| c.shared_hops).sum();
        // Without releases, every fresh hop opened a distinct channel and
        // every hop (shared or fresh) is registered in the pool.
        assert_eq!(hops - shared, p.pool.reserved_channels());
        assert_eq!(hops, p.pool.total_backup_hops());
    }

    #[test]
    fn validate_first_error_is_deterministic() {
        // Two channels whose sharers' primaries overlap (per the map given
        // to validate); whatever the HashMap's internal order, the sorted
        // scan must report the lower-indexed channel first.
        let hop = |e: u32, l: u8| Hop {
            edge: EdgeId(e),
            wavelength: Wavelength(l),
        };
        let build = |reversed: bool| {
            let mut pool = SharedBackupPool::new();
            // Two channel groups, inserted in either order (the order of
            // sharers *within* a channel is part of its history and kept).
            let mut groups: Vec<[(u64, Hop, EdgeId); 2]> = vec![
                [(1, hop(2, 0), EdgeId(20)), (2, hop(2, 0), EdgeId(21))],
                [(3, hop(9, 1), EdgeId(22)), (4, hop(9, 1), EdgeId(23))],
            ];
            if reversed {
                groups.reverse();
            }
            for group in groups {
                for (conn, h, p) in group {
                    pool.reserve(conn, &[h], &[p]);
                }
            }
            pool
        };
        // At validate time, both sharer pairs claim a common primary link.
        let mut primaries = HashMap::new();
        primaries.insert(1u64, vec![EdgeId(7)]);
        primaries.insert(2u64, vec![EdgeId(7)]);
        primaries.insert(3u64, vec![EdgeId(8)]);
        primaries.insert(4u64, vec![EdgeId(8)]);
        let a = build(false).validate(&primaries).unwrap_err();
        let b = build(true).validate(&primaries).unwrap_err();
        assert_eq!(a, b);
        assert!(a.contains("λ0"), "lowest channel first: {a}");
    }

    #[test]
    fn routing_state_clock_stamping_is_deterministic() {
        let net = net();
        let mk = || {
            let mut p = SharedProvisioner::new(&net);
            for &(s, t) in &[(0u32, 13u32), (2, 11), (5, 10)] {
                p.provision(NodeId(s), NodeId(t)).unwrap();
            }
            p.routing_state()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b);
        // The pool-overlay occupies are applied in sorted channel order, so
        // even the per-link change clocks agree across instances.
        for ei in 0..net.link_count() {
            let e = EdgeId::from(ei);
            assert_eq!(a.link_change_clock(e), b.link_change_clock(e), "{e:?}");
        }
    }

    #[test]
    fn pool_can_use_logic() {
        let mut pool = SharedBackupPool::new();
        let e = EdgeId(3);
        let l = Wavelength(1);
        assert!(pool.can_use(e, l, &[EdgeId(0)]));
        assert!(!pool.is_shareable(e, l, &[EdgeId(0)]));
        pool.reserve(
            7,
            &[Hop {
                edge: e,
                wavelength: l,
            }],
            &[EdgeId(0), EdgeId(1)],
        );
        // Disjoint primary may join; overlapping primary may not.
        assert!(pool.can_use(e, l, &[EdgeId(2)]));
        assert!(pool.is_shareable(e, l, &[EdgeId(2)]));
        assert!(!pool.can_use(e, l, &[EdgeId(1)]));
        // Release restores.
        let mut primaries = HashMap::new();
        primaries.insert(7u64, vec![EdgeId(0), EdgeId(1)]);
        let hops = pool.release(7, &HashMap::new());
        assert_eq!(hops.len(), 1);
        assert!(!pool.is_reserved(e, l));
        let _ = primaries;
        let _ = ConversionTable::None;
    }
}
