//! The daemon's write-ahead log: a line-oriented JSON journal on disk.
//!
//! The in-memory [`StateJournal`](wdm_core::journal::StateJournal) keeps
//! the whole event log and serializes once at the end of a run — fine for
//! a simulation, useless for a daemon that must survive being killed
//! mid-load. [`WalSink`] is the streaming counterpart: an [`EventSink`]
//! whose every [`record`](EventSink::record) appends one JSON line to the
//! log file and flushes it, so the log on disk is never more than the
//! in-flight event behind the live state.
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
//!   events from the header and asserts its reconstructed
//!   [`semantic_hash`](wdm_core::network::ResidualState::semantic_hash)
//!   against every anchor, so divergence is pinned to the first bad
//!   window rather than discovered at the end;
//! * the **final** line only exists after a graceful shutdown; its absence
//!   means the process died mid-stream and [`recover`] is reconstructing
//!   from events alone.
//!
//! [`recover`] tolerates exactly one torn line — a partial write at the
//! very end of the file, the signature of a kill mid-append. Corruption
//! anywhere else is an error.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use wdm_core::journal::{apply_event, EventSink, NetEvent};
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_sim::policy::Policy;

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
    /// A checkpoint anchor's hash does not match the replayed state.
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

#[derive(serde::Serialize, serde::Deserialize)]
struct WalHeader {
    wal: u32,
    policy: Policy,
    network: WdmNetwork,
    checkpoint: ResidualState,
    semantic_hash: u64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct WalEventLine {
    seq: u64,
    event: NetEvent,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct WalCheckpointLine {
    checkpoint_seq: u64,
    state: ResidualState,
    semantic_hash: u64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct WalFinalLine {
    final_seq: u64,
    semantic_hash: u64,
}

/// The streaming [`EventSink`]: one flushed JSON line per event.
///
/// I/O errors cannot surface through [`EventSink::record`]'s signature, so
/// they are stashed; callers poll [`WalSink::take_error`] at their
/// convenience (the daemon checks once per mutation batch).
pub struct WalSink {
    out: BufWriter<File>,
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
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        let header = WalHeader {
            wal: 1,
            policy,
            network: net.clone(),
            checkpoint: checkpoint.clone(),
            semantic_hash: checkpoint.semantic_hash(),
        };
        let line =
            serde_json::to_string(&header).map_err(|e| WalError::BadHeader(e.to_string()))?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        Ok(Self {
            out,
            seq: 0,
            io_error: None,
            last_write_ns: 0,
        })
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
    /// spent serializing, appending and flushing its journal line. The
    /// daemon reads this right after a commit to carve the WAL-fsync
    /// slice out of the commit span and feed the fsync-latency histogram.
    pub fn take_last_write_ns(&mut self) -> u64 {
        std::mem::take(&mut self.last_write_ns)
    }

    fn write_line(&mut self, line: &str) {
        if self.io_error.is_some() {
            return; // The log is already broken; don't mask the first error.
        }
        let r = self
            .out
            .write_all(line.as_bytes())
            .and_then(|_| self.out.write_all(b"\n"))
            .and_then(|_| self.out.flush());
        if let Err(e) = r {
            self.io_error = Some(e);
        }
    }

    /// Writes a checkpoint anchor for the current state.
    pub fn checkpoint(&mut self, state: &ResidualState) {
        let line = serde_json::to_string(&WalCheckpointLine {
            checkpoint_seq: self.seq,
            state: state.clone(),
            semantic_hash: state.semantic_hash(),
        });
        match line {
            Ok(line) => self.write_line(&line),
            Err(e) => {
                self.io_error
                    .get_or_insert(std::io::Error::other(e.to_string()));
            }
        }
    }

    /// Writes the graceful-close line and flushes. The log is complete
    /// after this; further records would corrupt it.
    pub fn finalize(&mut self, state: &ResidualState) -> Result<(), WalError> {
        let line = serde_json::to_string(&WalFinalLine {
            final_seq: self.seq,
            semantic_hash: state.semantic_hash(),
        })
        .map_err(|e| WalError::BadHeader(e.to_string()))?;
        self.write_line(&line);
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
        match serde_json::to_string(&WalEventLine {
            seq: self.seq,
            event,
        }) {
            Ok(line) => self.write_line(&line),
            Err(e) => {
                self.io_error
                    .get_or_insert(std::io::Error::other(e.to_string()));
            }
        }
        self.last_write_ns = t0.elapsed().as_nanos() as u64;
    }
}

/// What the daemon needs from its journal beyond [`EventSink`]: sequence
/// numbers for correlation, checkpoint anchors, the graceful close, and
/// the stashed-error / write-latency side channels. Abstracting it (rather
/// than naming [`WalSink`] in every signature) keeps the daemon's worker
/// and dispatch paths generic, so tests can substitute an in-memory log.
pub trait ServeLog: EventSink {
    /// Events written so far (the WAL sequence number of the last event).
    fn seq(&self) -> u64;
    /// Writes a checkpoint anchor for `state`.
    fn checkpoint(&mut self, state: &ResidualState);
    /// Writes the graceful-close line; the log is complete afterwards.
    fn finalize(&mut self, state: &ResidualState) -> Result<(), WalError>;
    /// Takes the first stashed write error, if any.
    fn take_error(&mut self) -> Option<std::io::Error>;
    /// Takes (and clears) the last event append's wall time.
    fn take_last_write_ns(&mut self) -> u64;
}

impl ServeLog for WalSink {
    fn seq(&self) -> u64 {
        WalSink::seq(self)
    }

    fn checkpoint(&mut self, state: &ResidualState) {
        WalSink::checkpoint(self, state);
    }

    fn finalize(&mut self, state: &ResidualState) -> Result<(), WalError> {
        WalSink::finalize(self, state)
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        WalSink::take_error(self)
    }

    fn take_last_write_ns(&mut self) -> u64 {
        WalSink::take_last_write_ns(self)
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
    let text = std::fs::read_to_string(path)?;
    let mut lines: Vec<&str> = text.lines().collect();
    // A trailing blank (from the final "\n") is not a torn line.
    while lines.last().is_some_and(|l| l.trim().is_empty()) {
        lines.pop();
    }
    let Some((&head, tail)) = lines.split_first() else {
        return Err(WalError::BadHeader("empty file".into()));
    };

    let header: WalHeader =
        serde_json::from_str(head).map_err(|e| WalError::BadHeader(e.to_string()))?;
    if header.wal != 1 {
        return Err(WalError::BadHeader(format!(
            "unsupported wal version {}",
            header.wal
        )));
    }

    let net = header.network;
    let mut state = header.checkpoint;
    let mut seq = 0u64;
    let mut final_hash = None;
    let mut torn_tail = false;
    let mut anchors_verified = 0usize;

    for (i, raw) in tail.iter().enumerate() {
        let lineno = i + 2; // 1-based, after the header
        let last = i + 1 == tail.len();
        let value = match serde_json::from_str::<serde_json::Value>(raw) {
            Ok(v) => v,
            Err(e) if last => {
                // A partial append from a kill mid-write: discard.
                let _ = e;
                torn_tail = true;
                break;
            }
            Err(e) => {
                return Err(WalError::Corrupt {
                    line: lineno,
                    detail: e.to_string(),
                })
            }
        };
        if final_hash.is_some() {
            return Err(WalError::Corrupt {
                line: lineno,
                detail: "records after the graceful-close line".into(),
            });
        }
        if value.get("seq").is_some() {
            let ev: WalEventLine =
                serde::Deserialize::from_value(&value).map_err(|e| WalError::Corrupt {
                    line: lineno,
                    detail: e.to_string(),
                })?;
            if ev.seq != seq + 1 {
                return Err(WalError::SeqGap {
                    expected: seq + 1,
                    got: ev.seq,
                });
            }
            apply_event(&mut state, &net, &ev.event).map_err(|e| WalError::Replay {
                seq: ev.seq,
                detail: e.to_string(),
            })?;
            seq = ev.seq;
        } else if value.get("checkpoint_seq").is_some() {
            let cp: WalCheckpointLine =
                serde::Deserialize::from_value(&value).map_err(|e| WalError::Corrupt {
                    line: lineno,
                    detail: e.to_string(),
                })?;
            if cp.checkpoint_seq != seq || cp.semantic_hash != state.semantic_hash() {
                return Err(WalError::CheckpointMismatch {
                    seq: cp.checkpoint_seq,
                });
            }
            anchors_verified += 1;
        } else if value.get("final_seq").is_some() {
            let fin: WalFinalLine =
                serde::Deserialize::from_value(&value).map_err(|e| WalError::Corrupt {
                    line: lineno,
                    detail: e.to_string(),
                })?;
            if fin.final_seq != seq {
                return Err(WalError::SeqGap {
                    expected: seq,
                    got: fin.final_seq,
                });
            }
            if fin.semantic_hash != state.semantic_hash() {
                return Err(WalError::FinalHashMismatch {
                    recorded: fin.semantic_hash,
                    replayed: state.semantic_hash(),
                });
            }
            final_hash = Some(fin.semantic_hash);
        } else {
            return Err(WalError::Corrupt {
                line: lineno,
                detail: "unrecognized record shape".into(),
            });
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
}
