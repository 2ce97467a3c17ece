//! The typed line codec for the WAL's event, checkpoint-anchor and
//! graceful-close lines (the header stays on serde; see the parent
//! module).
//!
//! The writer encodes straight from a [`NetEvent`], a `&ResidualState` or
//! a hash into a caller-owned byte buffer. The reader is a strict
//! byte-level decoder: it accepts exactly the compact JSON
//! `serde_json::to_string` writes for the same records (keys in
//! declaration order, no whitespace, canonical unsigned integers) and
//! rejects everything else, so every line it accepts also parses, to the
//! same value, with the generic serde parser. The grammar, with `N` a
//! canonical decimal `u64` (`0` or no leading zero), `E` an `N` that fits
//! a `u32`, `W` one that fits a `u8` and `B` `true` or `false`:
//!
//! ```text
//! event   {"seq":N,"event":{"Provision":{"id":N,"channels":HOPS}}}
//!         {"seq":N,"event":{"Teardown":{"id":N,"channels":HOPS}}}
//!         {"seq":N,"event":{"FailLink":{"link":E}}}
//!         {"seq":N,"event":{"RepairLink":{"link":E}}}
//!         {"seq":N,"event":{"Reconfigure":{"id":N,"released":HOPS,"occupied":HOPS}}}
//! HOPS    [] | [HOP] | [HOP,HOP] | …     HOP = {"edge":E,"wavelength":W}
//! anchor  {"checkpoint_seq":N,"state":{"used":[N,…],"failed":[B,…]},"semantic_hash":N}
//! close   {"final_seq":N,"semantic_hash":N}
//! ```

use wdm_core::journal::NetEvent;
use wdm_core::network::ResidualState;
use wdm_core::semilightpath::Hop;
use wdm_core::wavelength::{Wavelength, WavelengthSet};
use wdm_graph::EdgeId;

// The grammar's fixed text, shared by the encoder and the decoder.
const SEQ: &str = "{\"seq\":";
const PROVISION: &str = ",\"event\":{\"Provision\":{\"id\":";
const TEARDOWN: &str = ",\"event\":{\"Teardown\":{\"id\":";
const FAIL_LINK: &str = ",\"event\":{\"FailLink\":{\"link\":";
const REPAIR_LINK: &str = ",\"event\":{\"RepairLink\":{\"link\":";
const RECONFIGURE: &str = ",\"event\":{\"Reconfigure\":{\"id\":";
const CHANNELS: &str = ",\"channels\":";
const RELEASED: &str = ",\"released\":";
const OCCUPIED: &str = ",\"occupied\":";
const EVENT_END: &str = "}}}";
const EDGE: &str = "{\"edge\":";
const WAVELENGTH: &str = ",\"wavelength\":";
const ANCHOR: &str = "{\"checkpoint_seq\":";
const USED: &str = ",\"state\":{\"used\":";
const FAILED: &str = ",\"failed\":";
const STATE_END_HASH: &str = "},\"semantic_hash\":";
const CLOSE: &str = "{\"final_seq\":";
const HASH: &str = ",\"semantic_hash\":";

/// One decoded line after the header.
#[derive(Debug, PartialEq)]
pub(super) enum Line {
    /// `{"seq":…,"event":…}`.
    Event { seq: u64, event: NetEvent },
    /// `{"checkpoint_seq":…,"state":…,"semantic_hash":…}`.
    Anchor {
        seq: u64,
        state: ResidualState,
        hash: u64,
    },
    /// `{"final_seq":…,"semantic_hash":…}`.
    Close { seq: u64, hash: u64 },
}

/// Appends the event line for `event` at `seq` (no newline).
pub(super) fn encode_event(out: &mut Vec<u8>, seq: u64, event: &NetEvent) {
    put_num(out, SEQ, seq);
    match event {
        NetEvent::Provision { id, channels } => {
            put_num(out, PROVISION, *id);
            put_hops(out, CHANNELS, channels);
        }
        NetEvent::Teardown { id, channels } => {
            put_num(out, TEARDOWN, *id);
            put_hops(out, CHANNELS, channels);
        }
        NetEvent::FailLink { link } => put_num(out, FAIL_LINK, link.0.into()),
        NetEvent::RepairLink { link } => put_num(out, REPAIR_LINK, link.0.into()),
        NetEvent::Reconfigure {
            id,
            released,
            occupied,
        } => {
            put_num(out, RECONFIGURE, *id);
            put_hops(out, RELEASED, released);
            put_hops(out, OCCUPIED, occupied);
        }
    }
    out.extend_from_slice(EVENT_END.as_bytes());
}

/// Appends the checkpoint-anchor line for `state` at `seq` (no newline).
pub(super) fn encode_anchor(out: &mut Vec<u8>, seq: u64, state: &ResidualState, hash: u64) {
    let links = || (0..state.link_count()).map(EdgeId::from);
    put_num(out, ANCHOR, seq);
    put_list(out, USED, links(), |out, e| {
        put_num(out, "", state.used(e).bits())
    });
    put_list(out, FAILED, links(), |out, e| {
        let text = if state.is_failed(e) { "true" } else { "false" };
        out.extend_from_slice(text.as_bytes());
    });
    put_num(out, STATE_END_HASH, hash);
    out.push(b'}');
}

/// Appends the graceful-close line (no newline).
pub(super) fn encode_close(out: &mut Vec<u8>, seq: u64, hash: u64) {
    put_num(out, CLOSE, seq);
    put_num(out, HASH, hash);
    out.push(b'}');
}

/// Appends `text`, then `v` in decimal.
fn put_num(out: &mut Vec<u8>, text: &str, mut v: u64) {
    out.extend_from_slice(text.as_bytes());
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `text`, then the items as a JSON array.
fn put_list<T>(
    out: &mut Vec<u8>,
    text: &str,
    items: impl Iterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) {
    out.extend_from_slice(text.as_bytes());
    out.push(b'[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        put(out, item);
    }
    out.push(b']');
}

fn put_hops(out: &mut Vec<u8>, text: &str, hops: &[Hop]) {
    put_list(out, text, hops.iter(), |out, h| {
        put_num(out, EDGE, h.edge.0.into());
        put_num(out, WAVELENGTH, h.wavelength.0.into());
        out.push(b'}');
    });
}

/// Decodes the line at the start of `bytes`, which must end at a newline
/// or at the end of `bytes`, and returns it with its length (newline
/// excluded). An error names the byte offset and what the grammar wanted
/// there: a literal piece of the line, or a kind of value.
pub(super) fn decode(bytes: &[u8]) -> Result<(Line, usize), String> {
    let mut c = Cursor { line: bytes, at: 0 };
    let decoded = if c.eat(SEQ) {
        let seq = c.uint()?;
        let event = if c.eat(PROVISION) {
            NetEvent::Provision {
                id: c.uint()?,
                channels: c.hops(CHANNELS)?,
            }
        } else if c.eat(TEARDOWN) {
            NetEvent::Teardown {
                id: c.uint()?,
                channels: c.hops(CHANNELS)?,
            }
        } else if c.eat(FAIL_LINK) {
            NetEvent::FailLink {
                link: EdgeId(c.uint()?),
            }
        } else if c.eat(REPAIR_LINK) {
            NetEvent::RepairLink {
                link: EdgeId(c.uint()?),
            }
        } else if c.eat(RECONFIGURE) {
            NetEvent::Reconfigure {
                id: c.uint()?,
                released: c.hops(RELEASED)?,
                occupied: c.hops(OCCUPIED)?,
            }
        } else {
            return Err(c.error("an event"));
        };
        c.expect(EVENT_END)?;
        Line::Event { seq, event }
    } else if c.eat(ANCHOR) {
        let seq = c.uint()?;
        let used = c.list(USED, |c| c.uint().map(WavelengthSet::from_bits))?;
        let failed = c.list(FAILED, Cursor::bool)?;
        let hash = c.num(STATE_END_HASH)?;
        c.expect("}")?;
        Line::Anchor {
            seq,
            state: ResidualState::from_parts(used, failed),
            hash,
        }
    } else if c.eat(CLOSE) {
        let seq = c.uint()?;
        let hash = c.num(HASH)?;
        c.expect("}")?;
        Line::Close { seq, hash }
    } else {
        return Err(c.error("an event, anchor or close record"));
    };
    if bytes.get(c.at).is_some_and(|&b| b != b'\n') {
        return Err(c.error("the end of the line"));
    }
    Ok((decoded, c.at))
}

struct Cursor<'a> {
    line: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn error(&self, expected: &str) -> String {
        format!("expected {expected} at byte {}", self.at)
    }

    /// Consumes `text` if the line continues with it.
    fn eat(&mut self, text: &str) -> bool {
        let hit = self.line[self.at..].starts_with(text.as_bytes());
        if hit {
            self.at += text.len();
        }
        hit
    }

    fn expect(&mut self, text: &str) -> Result<(), String> {
        if self.eat(text) {
            Ok(())
        } else {
            Err(self.error(text))
        }
    }

    /// A canonical decimal (`0`, or no leading zero) that fits `T`.
    fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        let start = self.at;
        let mut value = Some(0u64);
        while let Some(&d) = self.line.get(self.at).filter(|d| d.is_ascii_digit()) {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.at += 1;
        }
        let digits = self.at - start;
        if digits == 0 || (digits > 1 && self.line[start] == b'0') {
            value = None;
        }
        match value.and_then(|v| T::try_from(v).ok()) {
            Some(v) => Ok(v),
            None => {
                self.at = start;
                Err(self.error(std::any::type_name::<T>()))
            }
        }
    }

    /// `text`, then [`uint`](Self::uint).
    fn num<T: TryFrom<u64>>(&mut self, text: &str) -> Result<T, String> {
        self.expect(text)?;
        self.uint()
    }

    fn bool(&mut self) -> Result<bool, String> {
        if self.eat("true") {
            Ok(true)
        } else if self.eat("false") {
            Ok(false)
        } else {
            Err(self.error("true or false"))
        }
    }

    /// `text`, then a JSON array of `item`s.
    fn list<T>(
        &mut self,
        text: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(text)?;
        self.expect("[")?;
        if self.eat("]") {
            return Ok(Vec::new());
        }
        // Room for a typical protected route's hops without regrowing.
        let mut items = Vec::with_capacity(8);
        loop {
            items.push(item(self)?);
            if !self.eat(",") {
                self.expect("]")?;
                return Ok(items);
            }
        }
    }

    fn hops(&mut self, text: &str) -> Result<Vec<Hop>, String> {
        self.list(text, |c| {
            let edge = EdgeId(c.num(EDGE)?);
            let wavelength = Wavelength(c.num(WAVELENGTH)?);
            c.expect("}")?;
            Ok(Hop { edge, wavelength })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    // The three non-header line structs the WAL wrote through serde before
    // this codec, kept here as the byte-for-byte reference.
    #[derive(serde::Serialize, serde::Deserialize)]
    struct EventLine {
        seq: u64,
        event: NetEvent,
    }

    #[derive(serde::Serialize, serde::Deserialize)]
    struct AnchorLine {
        checkpoint_seq: u64,
        state: ResidualState,
        semantic_hash: u64,
    }

    #[derive(serde::Serialize, serde::Deserialize)]
    struct CloseLine {
        final_seq: u64,
        semantic_hash: u64,
    }

    fn encode(line: &Line) -> Vec<u8> {
        let mut out = Vec::new();
        match line {
            Line::Event { seq, event } => encode_event(&mut out, *seq, event),
            Line::Anchor { seq, state, hash } => encode_anchor(&mut out, *seq, state, *hash),
            Line::Close { seq, hash } => encode_close(&mut out, *seq, *hash),
        }
        out
    }

    /// `serde_json::to_string` of the old serde struct for `line`.
    fn serde_text(line: &Line) -> String {
        let text = match line {
            Line::Event { seq, event } => serde_json::to_string(&EventLine {
                seq: *seq,
                event: event.clone(),
            }),
            Line::Anchor { seq, state, hash } => serde_json::to_string(&AnchorLine {
                checkpoint_seq: *seq,
                state: state.clone(),
                semantic_hash: *hash,
            }),
            Line::Close { seq, hash } => serde_json::to_string(&CloseLine {
                final_seq: *seq,
                semantic_hash: *hash,
            }),
        };
        text.expect("serde serializes")
    }

    /// The generic serde parse of `bytes` as the same kind of line as
    /// `like`.
    fn serde_parse(bytes: &[u8], like: &Line) -> Result<Line, serde_json::Error> {
        Ok(match like {
            Line::Event { .. } => {
                let l: EventLine = serde_json::from_slice(bytes)?;
                Line::Event {
                    seq: l.seq,
                    event: l.event,
                }
            }
            Line::Anchor { .. } => {
                let l: AnchorLine = serde_json::from_slice(bytes)?;
                Line::Anchor {
                    seq: l.checkpoint_seq,
                    state: l.state,
                    hash: l.semantic_hash,
                }
            }
            Line::Close { .. } => {
                let l: CloseLine = serde_json::from_slice(bytes)?;
                Line::Close {
                    seq: l.final_seq,
                    hash: l.semantic_hash,
                }
            }
        })
    }

    fn u64s() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1000, any::<u64>()]
    }

    fn u32s() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(u32::MAX), 0u32..64, any::<u32>()]
    }

    fn hops() -> impl Strategy<Value = Vec<Hop>> {
        let wavelength = prop_oneof![Just(0u8), Just(255u8), 0u8..16, any::<u8>()];
        let hop = (u32s(), wavelength).prop_map(|(e, w)| Hop {
            edge: EdgeId(e),
            wavelength: Wavelength(w),
        });
        vec(hop, 0..6)
    }

    fn events() -> impl Strategy<Value = NetEvent> {
        prop_oneof![
            (u64s(), hops()).prop_map(|(id, channels)| NetEvent::Provision { id, channels }),
            (u64s(), hops()).prop_map(|(id, channels)| NetEvent::Teardown { id, channels }),
            u32s().prop_map(|e| NetEvent::FailLink { link: EdgeId(e) }),
            u32s().prop_map(|e| NetEvent::RepairLink { link: EdgeId(e) }),
            (u64s(), hops(), hops()).prop_map(|(id, released, occupied)| {
                NetEvent::Reconfigure {
                    id,
                    released,
                    occupied,
                }
            }),
        ]
    }

    fn states() -> impl Strategy<Value = ResidualState> {
        vec((u64s(), any::<bool>()), 0..40).prop_map(|links| {
            let (used, failed) = links
                .into_iter()
                .map(|(bits, failed)| (WavelengthSet::from_bits(bits), failed))
                .unzip();
            ResidualState::from_parts(used, failed)
        })
    }

    fn lines() -> impl Strategy<Value = Line> {
        prop_oneof![
            (u64s(), events()).prop_map(|(seq, event)| Line::Event { seq, event }),
            (u64s(), states(), u64s()).prop_map(|(seq, state, hash)| Line::Anchor {
                seq,
                state,
                hash
            }),
            (u64s(), u64s()).prop_map(|(seq, hash)| Line::Close { seq, hash }),
        ]
    }

    /// One byte edit: replace, insert or delete at a position drawn as a
    /// fraction of the line's length. Replacement bytes lean towards the
    /// grammar's own alphabet so some edits still decode.
    fn edits() -> impl Strategy<Value = Vec<(u8, f64, u8)>> {
        const ALPHABET: &[u8] = b"0123456789{}[],:\"aeflrstu -.\\";
        let byte = prop_oneof![(0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), any::<u8>()];
        vec((0u8..3, 0.0f64..1.0, byte), 1..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn encoder_matches_serde_byte_for_byte(line in lines()) {
            prop_assert_eq!(
                String::from_utf8(encode(&line)).expect("ASCII"),
                serde_text(&line)
            );
        }

        #[test]
        fn decode_inverts_encode(line in lines()) {
            let bytes = encode(&line);
            prop_assert_eq!(decode(&bytes).expect("decodes"), (line, bytes.len()));
        }

        #[test]
        fn every_strict_prefix_fails_to_decode(line in lines()) {
            let bytes = encode(&line);
            for cut in 0..bytes.len() {
                prop_assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
            }
        }

        #[test]
        fn accepted_mutations_agree_with_serde(line in lines(), edits in edits()) {
            let mut bytes = encode(&line);
            for (op, at, byte) in edits {
                let i = ((bytes.len() as f64) * at) as usize;
                match op {
                    0 if i < bytes.len() => bytes[i] = byte,
                    1 => bytes.insert(i.min(bytes.len()), byte),
                    _ if i < bytes.len() => {
                        bytes.remove(i);
                    }
                    _ => {}
                }
            }
            if let Ok((decoded, len)) = decode(&bytes) {
                let generic = serde_parse(&bytes[..len], &decoded);
                prop_assert!(generic.is_ok(), "serde rejects an accepted line");
                prop_assert_eq!(generic.expect("checked"), decoded);
            }
        }
    }

    #[test]
    fn rejects_non_canonical_and_out_of_range_numbers() {
        for bad in [
            "{\"final_seq\":01,\"semantic_hash\":2}",
            "{\"final_seq\":1,\"semantic_hash\":18446744073709551616}",
            "{\"final_seq\":-1,\"semantic_hash\":2}",
            "{\"final_seq\":1.0,\"semantic_hash\":2}",
            "{\"final_seq\": 1,\"semantic_hash\":2}",
            "{\"final_seq\":1,\"semantic_hash\":2} ",
            "{\"seq\":1,\"event\":{\"FailLink\":{\"link\":4294967296}}}",
            "{\"seq\":1,\"event\":{\"Provision\":{\"id\":1,\"channels\":[{\"edge\":1,\"wavelength\":256}]}}}",
            "{\"seq\":1,\"event\":{\"Provision\":{\"id\":1,\"channels\":[,]}}}",
        ] {
            assert!(decode(bad.as_bytes()).is_err(), "accepted {bad}");
        }
        assert_eq!(
            decode(b"{\"final_seq\":0,\"semantic_hash\":18446744073709551615}\n{").unwrap(),
            (
                Line::Close {
                    seq: 0,
                    hash: u64::MAX
                },
                52
            )
        );
    }
}
