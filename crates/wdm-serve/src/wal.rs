//! The daemon's write-ahead log: a line-oriented JSON journal on disk.
//!
//! The in-memory [`StateJournal`](wdm_core::journal::StateJournal) keeps
//! the whole event log and serializes once at the end of a run — fine for
//! a simulation, useless for a daemon that must survive being killed
//! mid-load. [`WalSink`] is the streaming counterpart: an [`EventSink`]
//! whose every [`record`](EventSink::record) hands one JSON line to the
//! operating system in a single `write` before it returns, so the file
//! never trails the live state by more than the in-flight event.
//!
//! # Durability
//!
//! The log is written, not synced: nothing calls `fsync`/`sync_data`. A
//! line that `record` has returned from sits in the kernel's page cache,
//! so it survives the daemon being killed (`kill -9`, a panic) but not a
//! power loss or kernel crash before the kernel writes it back. Syncing
//! (`sync_data`, with group commit so concurrent commits share one sync)
//! is not done yet.
//!
//! # File format (JSONL)
//!
//! ```text
//! {"wal":1,"policy":…,"network":…,"checkpoint":…,"semantic_hash":H0}   header
//! {"seq":1,"event":{"Provision":{…}}}                                  event
//! {"seq":2,"event":{"FailLink":{…}}}                                   event
//! {"checkpoint_seq":2,"state":…,"semantic_hash":H2}                    checkpoint
//! {"seq":3,"event":…}                                                  event
//! {"final_seq":3,"semantic_hash":H3}                                   graceful close
//! ```
//!
//! * the **header** is self-contained: network, policy, initial state —
//!   recovery needs no other inputs (same property as `wdm simulate
//!   --journal` files);
//! * **event** lines carry a strictly `+1`-increasing sequence number;
//! * **checkpoint** lines are *verification anchors*: recovery replays
//!   events from the header and checks every anchor's sequence number,
//!   its [`semantic_hash`](wdm_core::network::ResidualState::semantic_hash)
//!   and its state, link by link, against the replayed state, so
//!   divergence is pinned to the first bad window rather than discovered
//!   at the end;
//! * the **final** line only exists after a graceful shutdown; its absence
//!   means the process died mid-stream and [`recover`] is reconstructing
//!   from events alone.
//!
//! # Codec
//!
//! Every line, the header included, goes through one private typed codec
//! (`codec.rs`), which holds the full grammar. The header is the network
//! in its JSON form, the policy, the initial state and that state's hash.
//! The writer encodes straight from the `&WdmNetwork`, the [`NetEvent`],
//! the `&ResidualState` or the hash into one buffer the sink reuses. The
//! reader decodes each line with a strict byte-level parser that accepts
//! exactly the compact form `serde_json::to_string` writes for these
//! records and nothing else: keys in order, no whitespace, canonical
//! numbers. So every line it accepts is also valid JSON of the same value,
//! and logs written before the codec (`"wal":1`) read back unchanged. The
//! header decoder also rebuilds the graph and checks its adjacency lists
//! and the checkpoint's size against it, and [`recover`] checks the
//! header's hash against its checkpoint.
//!
//! [`recover`] tolerates exactly one torn line: a last line that does not
//! decode, the signature of a kill mid-append. A line that does not decode
//! anywhere else is corruption, reported with its line number.

mod codec;

use std::fs::File;
use std::io::Write;
use std::path::Path;

use wdm_core::journal::{apply_event, EventSink, NetEvent};
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_sim::policy::Policy;

use codec::Line;

/// Why a WAL could not be written or recovered.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The first line is not a valid header.
    BadHeader(String),
    /// A non-tail line failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        detail: String,
    },
    /// An event line's sequence number broke the `+1` chain.
    SeqGap {
        /// Expected next sequence number.
        expected: u64,
        /// Number actually found.
        got: u64,
    },
    /// Replaying an event was rejected by the state (journal/state
    /// divergence).
    Replay {
        /// The offending event's sequence number.
        seq: u64,
        /// The mutation error.
        detail: String,
    },
    /// A checkpoint anchor's sequence number, hash or state does not match
    /// the replayed state.
    CheckpointMismatch {
        /// The anchor's sequence number.
        seq: u64,
    },
    /// The graceful-close line's hash does not match the replayed state.
    FinalHashMismatch {
        /// Hash recorded at shutdown.
        recorded: u64,
        /// Hash of the recovered state.
        replayed: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BadHeader(d) => write!(f, "wal header invalid: {d}"),
            WalError::Corrupt { line, detail } => {
                write!(f, "wal corrupt at line {line}: {detail}")
            }
            WalError::SeqGap { expected, got } => {
                write!(f, "wal sequence gap: expected {expected}, got {got}")
            }
            WalError::Replay { seq, detail } => {
                write!(f, "wal replay diverged at seq {seq}: {detail}")
            }
            WalError::CheckpointMismatch { seq } => {
                write!(
                    f,
                    "wal checkpoint anchor at seq {seq} does not match replayed state"
                )
            }
            WalError::FinalHashMismatch { recorded, replayed } => write!(
                f,
                "wal final hash {recorded:#x} does not match replayed {replayed:#x}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The streaming [`EventSink`]: one JSON line per event, each handed to
/// the operating system in one `write` (not synced; see the module docs).
///
/// I/O errors cannot surface through [`EventSink::record`]'s signature, so
/// they are stashed; callers poll [`WalSink::take_error`] at their
/// convenience (the daemon checks once per mutation batch).
pub struct WalSink {
    out: File,
    /// The line being written, reused across lines.
    line: Vec<u8>,
    seq: u64,
    io_error: Option<std::io::Error>,
    last_write_ns: u64,
}

impl WalSink {
    /// Creates the log at `path` and writes the self-contained header.
    pub fn create(
        path: &Path,
        net: &WdmNetwork,
        policy: Policy,
        checkpoint: &ResidualState,
    ) -> Result<Self, WalError> {
        let mut sink = Self {
            out: File::create(path)?,
            line: Vec::new(),
            seq: 0,
            io_error: None,
            last_write_ns: 0,
        };
        let hash = checkpoint.semantic_hash();
        sink.write_line(|out| codec::encode_header(out, net, policy, checkpoint, hash));
        match sink.io_error.take() {
            Some(e) => Err(WalError::Io(e)),
            None => Ok(sink),
        }
    }

    /// Events written so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Takes the first stashed write error, if any.
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.io_error.take()
    }

    /// Takes (and clears) the wall time the last [`EventSink::record`]
    /// spent encoding its journal line and writing it to the operating
    /// system (a `write`, not a sync). The daemon reads this right after a
    /// commit to carve the WAL slice out of the commit span and feed the
    /// histogram that the trace format calls `wal_fsync`.
    pub fn take_last_write_ns(&mut self) -> u64 {
        std::mem::take(&mut self.last_write_ns)
    }

    /// Encodes one line into the reused buffer and writes it, newline
    /// included, in one call.
    fn write_line(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.io_error.is_some() {
            return; // The log is already broken; don't mask the first error.
        }
        self.line.clear();
        encode(&mut self.line);
        self.line.push(b'\n');
        if let Err(e) = self.out.write_all(&self.line) {
            self.io_error = Some(e);
        }
    }

    /// Writes a checkpoint anchor for the current state.
    pub fn checkpoint(&mut self, state: &ResidualState) {
        let seq = self.seq;
        self.write_line(|out| codec::encode_anchor(out, seq, state, state.semantic_hash()));
    }

    /// Writes the graceful-close line. The log is complete after this;
    /// further records would corrupt it.
    pub fn finalize(&mut self, state: &ResidualState) -> Result<(), WalError> {
        let seq = self.seq;
        self.write_line(|out| codec::encode_close(out, seq, state.semantic_hash()));
        if let Some(e) = self.io_error.take() {
            return Err(WalError::Io(e));
        }
        Ok(())
    }
}

impl EventSink for WalSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: NetEvent) {
        let t0 = std::time::Instant::now();
        self.seq += 1;
        let seq = self.seq;
        self.write_line(|out| codec::encode_event(out, seq, &event));
        self.last_write_ns = t0.elapsed().as_nanos() as u64;
    }
}

/// What [`recover`] reconstructed from a log file.
pub struct WalRecovery {
    /// The network the log was recorded on.
    pub network: WdmNetwork,
    /// The provisioning policy in force.
    pub policy: Policy,
    /// The state after replaying every intact event.
    pub state: ResidualState,
    /// Sequence number of the last applied event.
    pub seq: u64,
    /// Hash from the graceful-close line (`None`: the process died
    /// mid-stream).
    pub final_hash: Option<u64>,
    /// Whether a torn (partially written) last line was discarded.
    pub torn_tail: bool,
    /// Checkpoint anchors verified during replay.
    pub anchors_verified: usize,
}

impl WalRecovery {
    /// Hash of the recovered state.
    pub fn semantic_hash(&self) -> u64 {
        self.state.semantic_hash()
    }

    /// Whether the log ended with a matching graceful-close line.
    pub fn clean_shutdown(&self) -> bool {
        self.final_hash == Some(self.state.semantic_hash())
    }
}

/// Recovers a WAL: replays every event over the header checkpoint,
/// verifying each checkpoint anchor and (if present) the graceful-close
/// hash. Tolerates one torn line at the very end of the file.
pub fn recover(path: &Path) -> Result<WalRecovery, WalError> {
    let bytes = std::fs::read(path)?;
    let blank = |b: &[u8]| b.iter().all(u8::is_ascii_whitespace);
    if blank(&bytes) {
        return Err(WalError::BadHeader("empty file".into()));
    }
    let (header, len) = codec::decode_header(&bytes).map_err(WalError::BadHeader)?;
    if header.hash != header.checkpoint.semantic_hash() {
        return Err(WalError::BadHeader(format!(
            "hash {:#x} does not match the header's checkpoint ({:#x})",
            header.hash,
            header.checkpoint.semantic_hash()
        )));
    }
    let mut rest = bytes.get(len + 1..).unwrap_or_default();

    let net = header.network;
    let mut state = header.checkpoint;
    let mut seq = 0u64;
    let mut final_hash = None;
    let mut torn_tail = false;
    let mut anchors_verified = 0usize;

    let mut lineno = 1; // 1-based; the header is line 1
    while !rest.is_empty() {
        lineno += 1;
        let line = match codec::decode(rest) {
            Ok((line, len)) => {
                rest = rest.get(len + 1..).unwrap_or_default();
                line
            }
            // Trailing blank lines are not torn lines.
            Err(_) if blank(rest) => break,
            Err(detail) => {
                let end = rest.iter().position(|&b| b == b'\n');
                if end.is_none_or(|end| blank(&rest[end..])) {
                    // A partial append from a kill mid-write: discard.
                    torn_tail = true;
                    break;
                }
                return Err(WalError::Corrupt {
                    line: lineno,
                    detail,
                });
            }
        };
        if final_hash.is_some() {
            return Err(WalError::Corrupt {
                line: lineno,
                detail: "records after the graceful-close line".into(),
            });
        }
        match line {
            Line::Event { seq: got, event } => {
                if got != seq + 1 {
                    return Err(WalError::SeqGap {
                        expected: seq + 1,
                        got,
                    });
                }
                apply_event(&mut state, &net, &event).map_err(|e| WalError::Replay {
                    seq: got,
                    detail: e.to_string(),
                })?;
                seq = got;
            }
            Line::Anchor {
                seq: at,
                state: anchored,
                hash,
            } => {
                if at != seq || hash != state.semantic_hash() || anchored != state {
                    return Err(WalError::CheckpointMismatch { seq: at });
                }
                anchors_verified += 1;
            }
            Line::Close { seq: at, hash } => {
                if at != seq {
                    return Err(WalError::SeqGap {
                        expected: seq,
                        got: at,
                    });
                }
                if hash != state.semantic_hash() {
                    return Err(WalError::FinalHashMismatch {
                        recorded: hash,
                        replayed: state.semantic_hash(),
                    });
                }
                final_hash = Some(hash);
            }
        }
    }

    Ok(WalRecovery {
        network: net,
        policy: header.policy,
        state,
        seq,
        final_hash,
        torn_tail,
        anchors_verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wdm_core::network::NetworkBuilder;
    use wdm_graph::NodeId;
    use wdm_sim::provisioner::{NetProvisioner, Provisioner};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "wdm-wal-{}-{}-{}.jsonl",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Drives a journaled provisioner lifecycle through a WalSink; returns
    /// (path, live hash, live seq).
    fn record_lifecycle(tag: &str, finalize: bool) -> (std::path::PathBuf, u64, u64) {
        let net = NetworkBuilder::nsfnet(8).build();
        let path = temp_path(tag);
        let state = wdm_core::network::ResidualState::fresh(&net);
        let wal = WalSink::create(&path, &net, Policy::CostOnly, &state).expect("create");
        let mut p = NetProvisioner::with_parts(
            &net,
            Policy::CostOnly,
            state,
            wdm_core::aux_engine::RouterCtx::new(),
            wal,
        );
        let a = p.provision(NodeId(0), NodeId(9)).unwrap();
        let _b = p.provision(NodeId(3), NodeId(11)).unwrap();
        // Mid-stream checkpoint anchor.
        let snapshot = p.state().clone();
        p.journal_mut().checkpoint(&snapshot);
        p.fail_link(wdm_graph::EdgeId(0));
        p.teardown(a);
        p.repair_link(wdm_graph::EdgeId(0));
        let seq = p.journal_seq();
        let hash = p.semantic_hash();
        if finalize {
            let fin = p.state().clone();
            p.journal_mut().finalize(&fin).expect("finalize");
        }
        assert!(
            p.journal_mut().take_error().is_none(),
            "no stashed io error"
        );
        (path, hash, seq)
    }

    #[test]
    fn graceful_log_recovers_to_live_hash() {
        let (path, live_hash, live_seq) = record_lifecycle("graceful", true);
        let rec = recover(&path).expect("recover");
        assert_eq!(rec.seq, live_seq);
        assert_eq!(rec.semantic_hash(), live_hash);
        assert_eq!(rec.final_hash, Some(live_hash));
        assert!(rec.clean_shutdown());
        assert!(!rec.torn_tail);
        assert_eq!(rec.anchors_verified, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crashed_log_without_final_line_still_recovers() {
        let (path, live_hash, live_seq) = record_lifecycle("crash", false);
        let rec = recover(&path).expect("recover");
        assert_eq!(rec.seq, live_seq);
        assert_eq!(rec.semantic_hash(), live_hash);
        assert_eq!(rec.final_hash, None);
        assert!(!rec.clean_shutdown());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_but_earlier_corruption_is_fatal() {
        let (path, _, live_seq) = record_lifecycle("torn", false);
        // Tear the last line in half — a kill mid-append.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 20;
        std::fs::write(&path, &text.as_bytes()[..keep]).unwrap();
        let rec = recover(&path).expect("torn tail tolerated");
        assert!(rec.torn_tail);
        assert_eq!(rec.seq, live_seq - 1, "the torn event is discarded");

        // The same damage mid-file is corruption, not a torn tail.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let mid = lines.len() / 2;
        let half = lines[mid].len() / 2;
        lines[mid].truncate(half);
        std::fs::write(&path, lines.join("\n")).unwrap();
        match recover(&path) {
            Err(WalError::Corrupt { line, .. }) => assert_eq!(line, mid + 1),
            other => panic!("expected Corrupt, got {:?}", other.map(|r| r.seq)),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_event_stream_fails_the_anchor_check() {
        let (path, _, _) = record_lifecycle("tamper", true);
        // Drop the first event line (a Provision): the checkpoint anchor
        // that follows must catch the divergence.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        match recover(&path) {
            Err(WalError::SeqGap {
                expected: 1,
                got: 2,
            }) => {}
            other => panic!(
                "expected the seq chain to break, got {:?}",
                other.map(|r| r.seq)
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_headerless_files_are_rejected() {
        let path = temp_path("empty");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(recover(&path), Err(WalError::BadHeader(_))));
        std::fs::write(&path, "{\"seq\":1}\n").unwrap();
        assert!(matches!(recover(&path), Err(WalError::BadHeader(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn anchor_state_must_equal_the_replayed_state() {
        let (path, _, _) = record_lifecycle("anchor-state", true);
        // Rewrite the mid-stream anchor's first `used` entry and keep its
        // hash: only the link-by-link comparison can catch the lie.
        let text = std::fs::read_to_string(&path).unwrap();
        let anchor = text
            .lines()
            .position(|l| l.starts_with("{\"checkpoint_seq\":"))
            .expect("an anchor line");
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let at = lines[anchor].find("\"used\":[").unwrap() + "\"used\":[".len();
        let end = at + lines[anchor][at..].find([',', ']']).unwrap();
        let forged = if &lines[anchor][at..end] == "1" {
            "2"
        } else {
            "1"
        };
        lines[anchor].replace_range(at..end, forged);
        std::fs::write(&path, lines.join("\n")).unwrap();
        match recover(&path) {
            Err(WalError::CheckpointMismatch { seq: 2 }) => {}
            other => panic!(
                "expected CheckpointMismatch, got {:?}",
                other.map(|r| r.seq)
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    /// The one-torn-tail rule at every cut: a log truncated at any byte
    /// offset is either a bad header (cut inside the header) or recovers
    /// exactly the whole lines it kept, torn only when the cut falls
    /// strictly inside a later line.
    #[test]
    fn a_log_cut_at_any_byte_recovers_its_whole_lines() {
        let (path, _, _) = record_lifecycle("cuts", true);
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Each line: (first byte, end of its content, content).
        let mut lines = Vec::new();
        let mut start = 0;
        for (i, &b) in full.iter().enumerate() {
            if b == b'\n' {
                lines.push((start, i, &full[start..i]));
                start = i + 1;
            }
        }
        let header_end = lines.remove(0).1;
        assert!(lines
            .iter()
            .any(|l| l.2.starts_with(b"{\"checkpoint_seq\":")));
        assert!(lines.last().unwrap().2.starts_with(b"{\"final_seq\":"));

        let cut_path = temp_path("cut");
        let cuts = (0..header_end).step_by(61).chain(header_end..=full.len());
        for cut in cuts {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let kept = lines.iter().filter(|l| l.1 <= cut);
            let events = kept
                .clone()
                .filter(|l| l.2.starts_with(b"{\"seq\":"))
                .count();
            let anchors = kept
                .clone()
                .filter(|l| l.2.starts_with(b"{\"checkpoint"))
                .count();
            let closed = kept.clone().any(|l| l.2.starts_with(b"{\"final_seq\":"));
            let torn = lines.iter().any(|l| l.0 < cut && cut < l.1);
            match recover(&cut_path) {
                Err(WalError::BadHeader(_)) if cut < header_end => {}
                Ok(rec) if cut >= header_end => {
                    assert_eq!(rec.torn_tail, torn, "cut at byte {cut}");
                    assert_eq!(rec.seq, events as u64, "cut at byte {cut}");
                    assert_eq!(rec.anchors_verified, anchors, "cut at byte {cut}");
                    assert_eq!(rec.final_hash.is_some(), closed, "cut at byte {cut}");
                }
                other => panic!("cut at byte {cut}: got {:?}", other.map(|r| r.seq)),
            }
        }
        std::fs::remove_file(&cut_path).ok();
    }
}
