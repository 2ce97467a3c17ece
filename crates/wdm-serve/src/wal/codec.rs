//! The typed codec for every WAL line: the header, events, checkpoint
//! anchors and the graceful-close line.
//!
//! The writer encodes straight from a `&WdmNetwork`, a [`NetEvent`], a
//! `&ResidualState` or a hash into a caller-owned byte buffer. The reader is
//! a strict byte-level decoder: it accepts exactly the compact JSON
//! `serde_json::to_string` writes for the same records (keys in
//! declaration order, no whitespace, canonical numbers) and rejects
//! everything else, so every line it accepts also parses, to the same
//! value, with the generic serde parser. The grammar, with `N` a canonical
//! decimal `u64` (`0` or no leading zero), `E` an `N` that fits a `u32`,
//! `W` one that fits a `u8`, `B` `true` or `false`, and `F` an `f64` as
//! serde writes it (`NaN`, `Infinity`, `-Infinity`; an integral value
//! below 1e15 in magnitude with `.0`, as `3.0`; any other finite value in
//! Rust's shortest round-trip form, never with an exponent):
//!
//! ```text
//! header  {"wal":1,"policy":POLICY,"network":NET,"checkpoint":STATE,"semantic_hash":N}
//! POLICY  "CostOnly" | "TwoStep" | "Unrefined" | "NodeDisjoint" | "PrimaryOnly"
//!         {"LoadOnly":{"a":F}} | {"Joint":{"a":F}} | {"JointAsPrinted":{"a":F}}
//!         {"Ksp":{"k":N}}
//! NET     {"graph":GRAPH,"num_wavelengths":N}
//! GRAPH   {"nodes":[NODE,…],"edges":[LINK,…],"out_adj":[IDS,…],"in_adj":[IDS,…]}
//! NODE    {"conversion":"None"}
//!         {"conversion":{"Full":{"cost":F}}}
//!         {"conversion":{"Range":{"range":W,"cost":F}}}
//!         {"conversion":{"Matrix":{"w":W,"costs":[F,…]}}}
//! LINK    {"src":E,"dst":E,"data":{"lambda":N,"base_cost":F,"per_lambda":null}}
//!         {"src":E,"dst":E,"data":{"lambda":N,"base_cost":F,"per_lambda":[F,…]}}
//! IDS     [E,…]       one node's out- (in-) links, in the order `DiGraph` keeps them
//! STATE   {"used":[N,…],"failed":[B,…]}                         one entry per link
//! event   {"seq":N,"event":{"Provision":{"id":N,"channels":HOPS}}}
//!         {"seq":N,"event":{"Teardown":{"id":N,"channels":HOPS}}}
//!         {"seq":N,"event":{"FailLink":{"link":E}}}
//!         {"seq":N,"event":{"RepairLink":{"link":E}}}
//!         {"seq":N,"event":{"Reconfigure":{"id":N,"released":HOPS,"occupied":HOPS}}}
//! HOPS    [] | [HOP] | [HOP,HOP] | …     HOP = {"edge":E,"wavelength":W}
//! anchor  {"checkpoint_seq":N,"state":STATE,"semantic_hash":N}
//! close   {"final_seq":N,"semantic_hash":N}
//! ```
//!
//! `[X,…]` is a list of zero or more `X`. The header decoder checks more
//! than the grammar: it rebuilds the graph with `DiGraph::add_edge` (every
//! endpoint a declared node) and requires each `IDS` list to equal the
//! rebuilt one, builds the network with [`WdmNetwork::from_parts`], and
//! requires the checkpoint to cover exactly the network's links. An `F` is
//! accepted only if writing its value again gives back the same bytes.

use wdm_core::conversion::ConversionTable;
use wdm_core::journal::NetEvent;
use wdm_core::network::{LinkData, NodeData, ResidualState, WdmNetwork};
use wdm_core::semilightpath::Hop;
use wdm_core::wavelength::{Wavelength, WavelengthSet};
use wdm_graph::{DiGraph, EdgeId, NodeId};
use wdm_sim::policy::Policy;

// The grammar's fixed text, shared by the encoder and the decoder.
const HEADER: &str = "{\"wal\":";
const POLICY: &str = ",\"policy\":";
const COST_ONLY: &str = "\"CostOnly\"";
const TWO_STEP: &str = "\"TwoStep\"";
const UNREFINED: &str = "\"Unrefined\"";
const NODE_DISJOINT: &str = "\"NodeDisjoint\"";
const PRIMARY_ONLY: &str = "\"PrimaryOnly\"";
const LOAD_ONLY: &str = "{\"LoadOnly\":{\"a\":";
const JOINT: &str = "{\"Joint\":{\"a\":";
const JOINT_AS_PRINTED: &str = "{\"JointAsPrinted\":{\"a\":";
const KSP: &str = "{\"Ksp\":{\"k\":";
const VARIANT_END: &str = "}}";
const NODES: &str = ",\"network\":{\"graph\":{\"nodes\":";
const CONVERSION: &str = "{\"conversion\":";
const NO_CONVERSION: &str = "\"None\"";
const FULL: &str = "{\"Full\":{\"cost\":";
const RANGE: &str = "{\"Range\":{\"range\":";
const COST: &str = ",\"cost\":";
const MATRIX: &str = "{\"Matrix\":{\"w\":";
const COSTS: &str = ",\"costs\":";
const EDGES: &str = ",\"edges\":";
const SRC: &str = "{\"src\":";
const DST: &str = ",\"dst\":";
const LAMBDA: &str = ",\"data\":{\"lambda\":";
const BASE_COST: &str = ",\"base_cost\":";
const PER_LAMBDA: &str = ",\"per_lambda\":";
const UNIFORM: &str = "null";
const OUT_ADJ: &str = ",\"out_adj\":";
const IN_ADJ: &str = ",\"in_adj\":";
const NUM_WAVELENGTHS: &str = "},\"num_wavelengths\":";
const CHECKPOINT: &str = "},\"checkpoint\":";
const USED: &str = "{\"used\":";
const FAILED: &str = ",\"failed\":";
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
const STATE: &str = ",\"state\":";
const CLOSE: &str = "{\"final_seq\":";
const HASH: &str = ",\"semantic_hash\":";

/// The one format version this codec reads and writes (`"wal":1`).
const VERSION: u32 = 1;

/// The decoded header line.
#[derive(Debug)]
pub(super) struct Header {
    pub(super) policy: Policy,
    pub(super) network: WdmNetwork,
    pub(super) checkpoint: ResidualState,
    /// The hash the writer recorded for `checkpoint`.
    pub(super) hash: u64,
}

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

/// Appends the header line for a log of `net` under `policy` that starts
/// from `checkpoint`, whose hash is `hash` (no newline).
pub(super) fn encode_header(
    out: &mut Vec<u8>,
    net: &WdmNetwork,
    policy: Policy,
    checkpoint: &ResidualState,
    hash: u64,
) {
    let g = net.graph();
    put_num(out, HEADER, VERSION.into());
    put(out, POLICY);
    match policy {
        Policy::CostOnly => put(out, COST_ONLY),
        Policy::TwoStep => put(out, TWO_STEP),
        Policy::Unrefined => put(out, UNREFINED),
        Policy::NodeDisjoint => put(out, NODE_DISJOINT),
        Policy::PrimaryOnly => put(out, PRIMARY_ONLY),
        Policy::LoadOnly { a } => put_variant(out, |out| put_f64(out, LOAD_ONLY, a)),
        Policy::Joint { a } => put_variant(out, |out| put_f64(out, JOINT, a)),
        Policy::JointAsPrinted { a } => put_variant(out, |out| put_f64(out, JOINT_AS_PRINTED, a)),
        Policy::Ksp { k } => put_variant(out, |out| put_num(out, KSP, k as u64)),
    }
    put_list(out, NODES, g.node_ids(), |out, v| {
        put(out, CONVERSION);
        match &g.node(v).conversion {
            ConversionTable::None => put(out, NO_CONVERSION),
            ConversionTable::Full { cost } => put_variant(out, |out| put_f64(out, FULL, *cost)),
            ConversionTable::Range { range, cost } => put_variant(out, |out| {
                put_num(out, RANGE, (*range).into());
                put_f64(out, COST, *cost);
            }),
            ConversionTable::Matrix { w, costs } => put_variant(out, |out| {
                put_num(out, MATRIX, (*w).into());
                put_f64s(out, COSTS, costs);
            }),
        }
        out.push(b'}');
    });
    put_list(out, EDGES, g.edges_iter(), |out, (_, src, dst, link)| {
        put_num(out, SRC, src.0.into());
        put_num(out, DST, dst.0.into());
        put_num(out, LAMBDA, link.lambda.bits());
        put_f64(out, BASE_COST, link.base_cost);
        match &link.per_lambda {
            None => {
                put(out, PER_LAMBDA);
                put(out, UNIFORM);
            }
            Some(costs) => put_f64s(out, PER_LAMBDA, costs),
        }
        put(out, "}}");
    });
    put_list(out, OUT_ADJ, g.node_ids(), |out, v| {
        put_ids(out, g.out_edges(v))
    });
    put_list(out, IN_ADJ, g.node_ids(), |out, v| {
        put_ids(out, g.in_edges(v))
    });
    put_num(out, NUM_WAVELENGTHS, net.num_wavelengths() as u64);
    put(out, CHECKPOINT);
    put_state(out, checkpoint);
    put_num(out, HASH, hash);
    out.push(b'}');
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
    put(out, EVENT_END);
}

/// Appends the checkpoint-anchor line for `state` at `seq` (no newline).
pub(super) fn encode_anchor(out: &mut Vec<u8>, seq: u64, state: &ResidualState, hash: u64) {
    put_num(out, ANCHOR, seq);
    put(out, STATE);
    put_state(out, state);
    put_num(out, HASH, hash);
    out.push(b'}');
}

/// Appends the graceful-close line (no newline).
pub(super) fn encode_close(out: &mut Vec<u8>, seq: u64, hash: u64) {
    put_num(out, CLOSE, seq);
    put_num(out, HASH, hash);
    out.push(b'}');
}

fn put(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(text.as_bytes());
}

/// Appends what `body` writes, then the `}}` that closes an externally
/// tagged enum variant with fields.
fn put_variant(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    body(out);
    put(out, VARIANT_END);
}

/// Appends `text`, then `v` in decimal.
fn put_num(out: &mut Vec<u8>, text: &str, mut v: u64) {
    put(out, text);
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

/// Appends `text`, then `v` exactly as serde writes an `f64`.
fn put_f64(out: &mut Vec<u8>, text: &str, v: f64) {
    use std::io::Write;
    put(out, text);
    // Writing into a `Vec` cannot fail.
    if v.is_nan() {
        put(out, "NaN");
    } else if v.is_infinite() {
        put(out, if v > 0.0 { "Infinity" } else { "-Infinity" });
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
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

fn put_f64s(out: &mut Vec<u8>, text: &str, values: &[f64]) {
    put_list(out, text, values.iter(), |out, &v| put_f64(out, "", v));
}

fn put_ids(out: &mut Vec<u8>, ids: &[EdgeId]) {
    put_list(out, "", ids.iter(), |out, e| put_num(out, "", e.0.into()));
}

fn put_hops(out: &mut Vec<u8>, text: &str, hops: &[Hop]) {
    put_list(out, text, hops.iter(), |out, h| {
        put_num(out, EDGE, h.edge.0.into());
        put_num(out, WAVELENGTH, h.wavelength.0.into());
        out.push(b'}');
    });
}

/// `STATE`: `{"used":[…],"failed":[…]}`.
fn put_state(out: &mut Vec<u8>, state: &ResidualState) {
    let links = || (0..state.link_count()).map(EdgeId::from);
    put_list(out, USED, links(), |out, e| {
        put_num(out, "", state.used(e).bits())
    });
    put_list(out, FAILED, links(), |out, e| {
        put(out, if state.is_failed(e) { "true" } else { "false" })
    });
    out.push(b'}');
}

/// Decodes the header line at the start of `bytes`, which must end at a
/// newline or at the end of `bytes`, and returns it with its length
/// (newline excluded). Errors read as [`decode`]'s do.
pub(super) fn decode_header(bytes: &[u8]) -> Result<(Header, usize), String> {
    let mut c = Cursor::new(bytes);
    let version: u32 = c.num(HEADER)?;
    if version != VERSION {
        return Err(format!("unsupported wal version {version}"));
    }
    c.expect(POLICY)?;
    let policy = c.policy()?;
    let mut graph = DiGraph::new();
    c.each(NODES, |c| {
        c.expect(CONVERSION)?;
        let conversion = c.conversion()?;
        c.expect("}")?;
        graph.add_node(NodeData { conversion });
        Ok(())
    })?;
    let nodes = graph.node_count();
    c.each(EDGES, |c| {
        let src = c.node(SRC, nodes)?;
        let dst = c.node(DST, nodes)?;
        let lambda = WavelengthSet::from_bits(c.num(LAMBDA)?);
        let base_cost = c.f64(BASE_COST)?;
        c.expect(PER_LAMBDA)?;
        let per_lambda = if c.eat(UNIFORM) {
            None
        } else {
            Some(c.list("", |c| c.f64(""))?)
        };
        c.expect("}}")?;
        let data = LinkData {
            lambda,
            base_cost,
            per_lambda,
        };
        graph.add_edge(src, dst, data);
        Ok(())
    })?;
    c.adjacency(OUT_ADJ, graph.node_ids().map(|v| graph.out_edges(v)))?;
    c.adjacency(IN_ADJ, graph.node_ids().map(|v| graph.in_edges(v)))?;
    let w = c.num(NUM_WAVELENGTHS)?;
    let network =
        WdmNetwork::from_parts(graph, w).map_err(|e| format!("{e} (before byte {})", c.at))?;
    c.expect(CHECKPOINT)?;
    let checkpoint = c.state()?;
    if checkpoint.link_count() != network.link_count() {
        return Err(c.error("a checkpoint of one entry per link"));
    }
    let hash = c.num(HASH)?;
    c.expect("}")?;
    let len = c.end()?;
    let header = Header {
        policy,
        network,
        checkpoint,
        hash,
    };
    Ok((header, len))
}

/// Decodes the line at the start of `bytes`, which must end at a newline
/// or at the end of `bytes`, and returns it with its length (newline
/// excluded). An error names the byte offset and what the grammar wanted
/// there: a literal piece of the line, or a kind of value.
pub(super) fn decode(bytes: &[u8]) -> Result<(Line, usize), String> {
    let mut c = Cursor::new(bytes);
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
        c.expect(STATE)?;
        let state = c.state()?;
        let hash = c.num(HASH)?;
        c.expect("}")?;
        Line::Anchor { seq, state, hash }
    } else if c.eat(CLOSE) {
        let seq = c.uint()?;
        let hash = c.num(HASH)?;
        c.expect("}")?;
        Line::Close { seq, hash }
    } else {
        return Err(c.error("an event, anchor or close record"));
    };
    Ok((decoded, c.end()?))
}

struct Cursor<'a> {
    line: &'a [u8],
    at: usize,
    /// The re-encoding of the last `F` read, reused across reads.
    scratch: Vec<u8>,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a [u8]) -> Self {
        Cursor {
            line,
            at: 0,
            scratch: Vec::new(),
        }
    }

    fn error(&self, expected: &str) -> String {
        format!("expected {expected} at byte {}", self.at)
    }

    /// The length of the line if it ends here, at a newline or at the end
    /// of the input.
    fn end(&self) -> Result<usize, String> {
        match self.line.get(self.at) {
            Some(&b) if b != b'\n' => Err(self.error("the end of the line")),
            _ => Ok(self.at),
        }
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

    /// `text`, then the id of one of the first `nodes` nodes.
    fn node(&mut self, text: &str, nodes: usize) -> Result<NodeId, String> {
        self.expect(text)?;
        let start = self.at;
        let v: u32 = self.uint()?;
        if v as usize >= nodes {
            self.at = start;
            return Err(self.error("a declared node"));
        }
        Ok(NodeId(v))
    }

    /// `text`, then an `F`: the text up to the next delimiter, accepted
    /// only if it parses and [`put_f64`] writes the value back to the same
    /// bytes.
    fn f64(&mut self, text: &str) -> Result<f64, String> {
        self.expect(text)?;
        let rest = &self.line[self.at..];
        let len = rest
            .iter()
            .position(|b| matches!(b, b',' | b']' | b'}' | b'\n'))
            .unwrap_or(rest.len());
        let token = &rest[..len];
        if let Some(v) = std::str::from_utf8(token)
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
        {
            self.scratch.clear();
            put_f64(&mut self.scratch, "", v);
            if self.scratch == token {
                self.at += len;
                return Ok(v);
            }
        }
        Err(self.error("an f64 as serde writes it"))
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

    /// `text`, then a JSON array, each item read by `item`.
    fn each(
        &mut self,
        text: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(text)?;
        self.expect("[")?;
        if self.eat("]") {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(",") {
                return self.expect("]");
            }
        }
    }

    /// `text`, then a JSON array of `item`s.
    fn list<T>(
        &mut self,
        text: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        // Room for a typical protected route's hops without regrowing.
        let mut items = Vec::with_capacity(8);
        self.each(text, |c| {
            items.push(item(c)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// `text`, then one `IDS` list per entry of `rebuilt`, each equal to
    /// it.
    fn adjacency<'g>(
        &mut self,
        text: &str,
        mut rebuilt: impl Iterator<Item = &'g [EdgeId]>,
    ) -> Result<(), String> {
        self.each(text, |c| {
            let mut ids = rebuilt
                .next()
                .ok_or_else(|| c.error("one list per node"))?
                .iter();
            c.each("", |c| {
                let start = c.at;
                if ids.next() != Some(&EdgeId(c.uint()?)) {
                    c.at = start;
                    return Err(c.error("the rebuilt graph's next link"));
                }
                Ok(())
            })?;
            match ids.next() {
                Some(_) => Err(c.error("the rebuilt graph's remaining links")),
                None => Ok(()),
            }
        })?;
        match rebuilt.next() {
            Some(_) => Err(self.error("one list per node")),
            None => Ok(()),
        }
    }

    fn policy(&mut self) -> Result<Policy, String> {
        let units = [
            (COST_ONLY, Policy::CostOnly),
            (TWO_STEP, Policy::TwoStep),
            (UNREFINED, Policy::Unrefined),
            (NODE_DISJOINT, Policy::NodeDisjoint),
            (PRIMARY_ONLY, Policy::PrimaryOnly),
        ];
        if let Some(&(_, policy)) = units.iter().find(|(text, _)| self.eat(text)) {
            return Ok(policy);
        }
        let policy = if self.eat(LOAD_ONLY) {
            Policy::LoadOnly { a: self.f64("")? }
        } else if self.eat(JOINT) {
            Policy::Joint { a: self.f64("")? }
        } else if self.eat(JOINT_AS_PRINTED) {
            Policy::JointAsPrinted { a: self.f64("")? }
        } else if self.eat(KSP) {
            Policy::Ksp { k: self.uint()? }
        } else {
            return Err(self.error("a policy"));
        };
        self.expect(VARIANT_END)?;
        Ok(policy)
    }

    fn conversion(&mut self) -> Result<ConversionTable, String> {
        if self.eat(NO_CONVERSION) {
            return Ok(ConversionTable::None);
        }
        let table = if self.eat(FULL) {
            ConversionTable::Full {
                cost: self.f64("")?,
            }
        } else if self.eat(RANGE) {
            ConversionTable::Range {
                range: self.uint()?,
                cost: self.f64(COST)?,
            }
        } else if self.eat(MATRIX) {
            ConversionTable::Matrix {
                w: self.uint()?,
                costs: self.list(COSTS, |c| c.f64(""))?,
            }
        } else {
            return Err(self.error("a conversion table"));
        };
        self.expect(VARIANT_END)?;
        Ok(table)
    }

    /// `STATE`, with as many failed flags as `used` masks.
    fn state(&mut self) -> Result<ResidualState, String> {
        let used = self.list(USED, |c| c.uint().map(WavelengthSet::from_bits))?;
        let failed = self.list(FAILED, Cursor::bool)?;
        if failed.len() != used.len() {
            return Err(self.error("one failed flag per used mask"));
        }
        self.expect("}")?;
        Ok(ResidualState::from_parts(used, failed))
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
    use proptest::collection::{vec, SizeRange};
    use proptest::prelude::*;

    // The line structs the WAL wrote through serde before this codec, kept
    // here as the byte-for-byte reference.
    #[derive(serde::Serialize, serde::Deserialize)]
    struct WalHeader {
        wal: u32,
        policy: Policy,
        network: WdmNetwork,
        checkpoint: ResidualState,
        semantic_hash: u64,
    }

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

    fn encode_head(header: &Header) -> Vec<u8> {
        let mut out = Vec::new();
        let Header {
            policy,
            network,
            checkpoint,
            hash,
        } = header;
        encode_header(&mut out, network, *policy, checkpoint, *hash);
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

    /// `serde_json::to_string` of the old `WalHeader` for `header`. Two
    /// headers are the same value when these texts are equal: serde writes
    /// every field, and every `f64` in a form that reads back to it (a
    /// `NaN` has no other value to compare by).
    fn serde_header_text(header: &Header) -> String {
        serde_json::to_string(&WalHeader {
            wal: VERSION,
            policy: header.policy,
            network: header.network.clone(),
            checkpoint: header.checkpoint.clone(),
            semantic_hash: header.hash,
        })
        .expect("serde serializes")
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

    /// Values that reach every branch of serde's `f64` text.
    fn f64s() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..1000).prop_map(f64::from),
            0.0f64..100.0,
            (1.0f64..10.0, 15i32..300).prop_map(|(m, e)| m * 10f64.powi(e)),
            Just(1e15),
            Just(1e15 - 1.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            any::<u64>().prop_map(f64::from_bits),
        ]
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

    fn states(links: impl Into<SizeRange>) -> impl Strategy<Value = ResidualState> {
        vec((u64s(), any::<bool>()), links).prop_map(|links| {
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
            (u64s(), states(0..40), u64s()).prop_map(|(seq, state, hash)| Line::Anchor {
                seq,
                state,
                hash
            }),
            (u64s(), u64s()).prop_map(|(seq, hash)| Line::Close { seq, hash }),
        ]
    }

    fn policies() -> impl Strategy<Value = Policy> {
        prop_oneof![
            Just(Policy::CostOnly),
            Just(Policy::TwoStep),
            Just(Policy::Unrefined),
            Just(Policy::NodeDisjoint),
            Just(Policy::PrimaryOnly),
            f64s().prop_map(|a| Policy::LoadOnly { a }),
            f64s().prop_map(|a| Policy::Joint { a }),
            f64s().prop_map(|a| Policy::JointAsPrinted { a }),
            any::<usize>().prop_map(|k| Policy::Ksp { k }),
        ]
    }

    /// Every table kind; a `w × w` matrix marks some conversions forbidden.
    fn conversions(w: usize) -> impl Strategy<Value = ConversionTable> {
        let entry = prop_oneof![Just(f64::INFINITY), f64s()];
        prop_oneof![
            Just(ConversionTable::None),
            f64s().prop_map(|cost| ConversionTable::Full { cost }),
            (any::<u8>(), f64s()).prop_map(|(range, cost)| ConversionTable::Range { range, cost }),
            vec(entry, w * w).prop_map(move |costs| ConversionTable::Matrix { w: w as u8, costs }),
        ]
    }

    /// A link between two of `nodes` nodes: any channels of `0..w`,
    /// uniform or per-wavelength costs.
    fn links(nodes: u32, w: usize) -> impl Strategy<Value = (u32, u32, LinkData)> {
        let per_lambda = prop_oneof![Just(None), vec(f64s(), w).prop_map(Some)];
        (0..nodes, 0..nodes, any::<u64>(), f64s(), per_lambda).prop_map(
            move |(src, dst, bits, base_cost, per_lambda)| {
                let data = LinkData {
                    lambda: WavelengthSet::from_bits(bits).intersect(WavelengthSet::full(w)),
                    base_cost,
                    per_lambda,
                };
                (src, dst, data)
            },
        )
    }

    /// Networks of 1 to `max_nodes` nodes, up to two links per node on
    /// average, and 1 to `max_w` wavelengths.
    fn networks(max_nodes: u32, max_w: usize) -> impl Strategy<Value = WdmNetwork> {
        (1..max_nodes + 1, 1..max_w + 1).prop_flat_map(|(nodes, w)| {
            let tables = vec(conversions(w), nodes as usize);
            let links = vec(links(nodes, w), 0..2 * nodes as usize + 1);
            (tables, links).prop_map(move |(tables, links)| {
                let mut g = DiGraph::new();
                for conversion in tables {
                    g.add_node(NodeData { conversion });
                }
                for (src, dst, data) in links {
                    g.add_edge(NodeId(src), NodeId(dst), data);
                }
                WdmNetwork::from_parts(g, w).expect("a network within the rules")
            })
        })
    }

    /// Headers over [`networks`], with any policy, a random checkpoint of
    /// one entry per link and a random hash.
    fn headers(max_nodes: u32, max_w: usize) -> impl Strategy<Value = Header> {
        (networks(max_nodes, max_w), policies(), u64s()).prop_flat_map(|(network, policy, hash)| {
            states(network.link_count()).prop_map(move |checkpoint| Header {
                policy,
                network: network.clone(),
                checkpoint,
                hash,
            })
        })
    }

    /// One byte edit: replace, insert or delete at a position drawn as a
    /// fraction of the line's length. Replacement bytes lean towards the
    /// grammar's own alphabet so some edits still decode.
    fn edits() -> impl Strategy<Value = Vec<(u8, f64, u8)>> {
        const ALPHABET: &[u8] = b"0123456789{}[],:\"aeflrstu -.\\INy";
        let byte = prop_oneof![(0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), any::<u8>()];
        vec((0u8..3, 0.0f64..1.0, byte), 1..4)
    }

    fn mutate(bytes: &mut Vec<u8>, edits: Vec<(u8, f64, u8)>) {
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
            mutate(&mut bytes, edits);
            if let Ok((decoded, len)) = decode(&bytes) {
                let generic = serde_parse(&bytes[..len], &decoded);
                prop_assert!(generic.is_ok(), "serde rejects an accepted line");
                prop_assert_eq!(generic.expect("checked"), decoded);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn header_encoder_matches_serde_byte_for_byte(header in headers(40, 64)) {
            prop_assert_eq!(
                String::from_utf8(encode_head(&header)).expect("ASCII"),
                serde_header_text(&header)
            );
        }

        #[test]
        fn header_decode_inverts_encode(header in headers(40, 64)) {
            let bytes = encode_head(&header);
            let (decoded, len) = decode_header(&bytes).expect("decodes");
            prop_assert_eq!(len, bytes.len());
            prop_assert_eq!(serde_header_text(&decoded), serde_header_text(&header));
        }

        /// Small networks keep the quadratic walk over every prefix short;
        /// they still reach every production of the grammar.
        #[test]
        fn every_strict_prefix_of_a_header_fails_to_decode(header in headers(4, 4)) {
            let bytes = encode_head(&header);
            for cut in 0..bytes.len() {
                prop_assert!(
                    decode_header(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded"
                );
            }
        }

        #[test]
        fn accepted_header_mutations_agree_with_serde(
            header in headers(40, 64),
            edits in edits()
        ) {
            let mut bytes = encode_head(&header);
            mutate(&mut bytes, edits);
            if let Ok((decoded, len)) = decode_header(&bytes) {
                let generic = serde_json::from_slice::<WalHeader>(&bytes[..len]);
                prop_assert!(generic.is_ok(), "serde rejects an accepted header");
                prop_assert_eq!(
                    serde_json::to_string(&generic.expect("checked")).expect("serializes"),
                    serde_header_text(&decoded)
                );
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

    /// Headers serde would read, to a network nothing else could build:
    /// the decoder refuses each one with an error, never a panic.
    #[test]
    fn rejects_a_header_inconsistent_with_its_own_graph() {
        let net = wdm_core::network::NetworkBuilder::nsfnet(8).build();
        let state = ResidualState::fresh(&net);
        let mut out = Vec::new();
        encode_header(&mut out, &net, Policy::Joint { a: 2.0 }, &state, 7);
        let text = String::from_utf8(out).expect("ASCII");
        assert!(decode_header(text.as_bytes()).is_ok());
        // Each edit: the text it replaces (first match), its replacement,
        // and a piece of the error.
        let out_adj = |text: &str| {
            let at = text.find("\"out_adj\":[[").expect("out_adj") + "\"out_adj\":[[".len();
            let first = &text[at..at + text[at..].find(']').expect("a list end")];
            let reversed: Vec<&str> = first.split(',').rev().collect();
            (
                format!("\"out_adj\":[[{first}]"),
                format!("\"out_adj\":[[{}]", reversed.join(",")),
            )
        };
        let (adj, reversed_adj) = out_adj(&text);
        let cases: [(&str, &str, &str); 10] = [
            ("{\"wal\":1,", "{\"wal\":2,", "unsupported wal version 2"),
            ("{\"src\":0,", "{\"src\":14,", "a declared node"),
            ("\"dst\":1,", "\"dst\":4294967296,", "u32"),
            (&adj, &reversed_adj, "rebuilt graph"),
            (",\"in_adj\":[[", ",\"in_adj\":[[],[", "rebuilt graph"),
            (
                "\"num_wavelengths\":8",
                "\"num_wavelengths\":0",
                "wavelengths",
            ),
            (
                "\"per_lambda\":null",
                "\"per_lambda\":[1.0]",
                "one cost per channel",
            ),
            ("\"base_cost\":11.0", "\"base_cost\":11", "f64"),
            ("\"cost\":3.0", "\"cost\":3.00", "f64"),
            (
                "\"checkpoint\":{\"used\":[0,",
                "\"checkpoint\":{\"used\":[",
                "failed flag",
            ),
        ];
        for (from, to, why) in cases {
            assert!(text.contains(from), "{from} is in the header");
            let forged = text.replacen(from, to, 1);
            let err = decode_header(forged.as_bytes()).expect_err(to);
            assert!(err.contains(why), "{to}: {err}");
        }
        // A checkpoint of one link too few, both lists shortened.
        let at = text.find("\"checkpoint\":").expect("checkpoint");
        let (head, tail) = text.split_at(at);
        let shorter = tail.replacen("[0,", "[", 1).replacen("[false,", "[", 1);
        let err = decode_header(format!("{head}{shorter}").as_bytes()).expect_err("short");
        assert!(err.contains("one entry per link"), "{err}");
    }
}
