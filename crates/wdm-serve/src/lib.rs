//! Long-lived routing daemon for wide-area WDM networks.
//!
//! The library crates compute routes; this crate keeps them *running*:
//! `wdm serve` holds one live [`ResidualState`] behind a writer lock with
//! a pool of warm-context workers, accepts provision / teardown /
//! fail-link / repair-link / query requests over HTTP/JSON, streams every
//! mutation into a write-ahead log, and sheds load instead of collapsing
//! under it. `wdm loadgen` is the matching open-loop Poisson client.
//!
//! Module map:
//!
//! * [`http`] — the hardened dependency-free HTTP/1.1 listener core;
//! * [`admission`] — bounded work queue: shed-on-full, per-request
//!   deadlines;
//! * [`daemon`] — the serving loop: read-lock routing on warm contexts,
//!   write-lock commits that re-route in place when a stale route is
//!   refused;
//! * [`diag`] — live diagnostics shared across threads: the flight ring
//!   behind `/debug/flight`, the span ring behind `/debug/trace`, the
//!   checkpoint gauge (DESIGN.md §5j);
//! * [`wal`] — the streaming JSONL write-ahead log and its recovery
//!   (checkpoint anchors, torn-tail tolerance);
//! * [`signal`] — SIGINT/SIGTERM flags for graceful shutdown;
//! * [`loadgen`] — the Poisson load generator and tiny HTTP client.
//!
//! [`ResidualState`]: wdm_core::network::ResidualState

pub mod admission;
pub mod daemon;
pub mod diag;
pub mod http;
pub mod loadgen;
pub mod signal;
pub mod wal;

pub use daemon::{run, Control, ServeConfig, ServeReport};
pub use diag::Diag;
pub use loadgen::{LoadgenConfig, LoadgenReport, PhaseLatency};
pub use wal::{recover, WalRecovery, WalSink};
