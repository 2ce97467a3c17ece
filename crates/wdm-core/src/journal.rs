//! Event-sourced state: the append-only [`StateJournal`] over
//! [`ResidualState`].
//!
//! The paper's dynamic model (§4) is a stream of lifecycle events —
//! connection setup with primary+backup semilightpaths, teardown, link
//! failure and repair. This module captures that stream explicitly:
//!
//! * [`NetEvent`] — one typed record per state mutation the simulator,
//!   batch provisioners or shared-backup pool perform;
//! * [`StateJournal`] — a checkpoint plus the ordered event log, with
//!   [`StateJournal::replay`] reconstructing the live state by driving the
//!   *same* [`ResidualState`] mutators in the same order. Replay from the
//!   in-memory checkpoint is therefore bit-identical to the live state,
//!   change clocks included;
//! * [`EventSink`] — the `Recorder`-style zero-cost hook: call sites guard
//!   payload construction on [`EventSink::enabled`], so the disabled
//!   [`NoopSink`] compiles to nothing.
//!
//! # Journal invariants
//!
//! Events are appended only at *successful* mutation sites. The mutators
//! tick the change clock once per success and not at all on failure, so a
//! journal replayed over its own checkpoint reproduces the clock lineage
//! tick-for-tick. Teardown and the release half of a reconfiguration use
//! the same ignore-errors semantics as [`Semilightpath::release`]
//! (releasing an unused channel is a no-op without a tick on both sides).
//!
//! [`Semilightpath::release`]: crate::semilightpath::Semilightpath::release

use crate::network::{ResidualState, StateError, WdmNetwork};
use crate::semilightpath::Hop;
use wdm_graph::EdgeId;

/// One lifecycle event in the network's mutation stream.
///
/// Channel lists are in *mutation order* (for a protected route: primary
/// hops then backup hops), so replay touches links in exactly the order the
/// live run did.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NetEvent {
    /// A connection was provisioned: every listed channel was occupied.
    Provision {
        /// Caller-assigned connection id (sim connection id, batch demand
        /// index, or shared-provisioner id).
        id: u64,
        /// Occupied channels in occupation order.
        channels: Vec<Hop>,
    },
    /// A connection was torn down: every listed channel was released.
    Teardown {
        /// The id the matching [`NetEvent::Provision`] carried.
        id: u64,
        /// Released channels in release order.
        channels: Vec<Hop>,
    },
    /// A physical link failed.
    FailLink {
        /// The failed link.
        link: EdgeId,
    },
    /// A failed link was repaired.
    RepairLink {
        /// The repaired link.
        link: EdgeId,
    },
    /// A connection's channels moved: `released` were freed, then
    /// `occupied` were taken. Covers both load-driven reconfiguration and
    /// every failure-recovery branch (backup switchover, backup
    /// reprovisioning, passive re-route; `occupied` is empty when the
    /// connection was dropped).
    Reconfigure {
        /// The affected connection id.
        id: u64,
        /// Channels released, in release order.
        released: Vec<Hop>,
        /// Channels occupied afterwards, in occupation order.
        occupied: Vec<Hop>,
    },
}

impl NetEvent {
    /// Stable per-variant label (the replay telemetry keys on this).
    pub fn kind(&self) -> &'static str {
        match self {
            NetEvent::Provision { .. } => "provision",
            NetEvent::Teardown { .. } => "teardown",
            NetEvent::FailLink { .. } => "fail_link",
            NetEvent::RepairLink { .. } => "repair_link",
            NetEvent::Reconfigure { .. } => "reconfigure",
        }
    }
}

/// Where lifecycle events go. Mirrors the telemetry `Recorder` pattern:
/// generic call sites take `J: EventSink`, the default [`NoopSink`] is a
/// zero-sized no-op the optimizer erases, and payload construction is
/// guarded on [`enabled`](Self::enabled) so disabled journalling costs
/// nothing in the hot paths.
pub trait EventSink {
    /// Whether events are actually kept. Call sites skip building channel
    /// lists when this is `false`.
    fn enabled(&self) -> bool;

    /// Appends one event.
    fn record(&mut self, event: NetEvent);
}

/// The disabled sink: [`EventSink::enabled`] is `false`, records vanish.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _event: NetEvent) {}
}

impl<S: EventSink> EventSink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        S::enabled(self)
    }

    #[inline]
    fn record(&mut self, event: NetEvent) {
        S::record(self, event);
    }
}

/// Replay failed: an event's mutation was rejected by the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending event in the journal.
    pub index: usize,
    /// The offending event's [`NetEvent::kind`].
    pub kind: &'static str,
    /// The mutation error.
    pub source: StateError,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at event {} ({}): {}",
            self.index, self.kind, self.source
        )
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// An append-only event log over a checkpoint state.
///
/// `replay(checkpoint, events) ≡ live state`: replay drives the same
/// mutators in the same order, so from the in-memory checkpoint the result
/// is bit-identical, change clocks included. From a checkpoint that went
/// through the serialized form (which drops clocks) the payload is still
/// identical — [`ResidualState::semantic_hash`] is the cross-lineage check.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StateJournal {
    checkpoint: ResidualState,
    events: Vec<NetEvent>,
}

impl StateJournal {
    /// Starts an empty journal over `checkpoint`.
    pub fn new(checkpoint: ResidualState) -> Self {
        Self {
            checkpoint,
            events: Vec::new(),
        }
    }

    /// Reassembles a journal from a checkpoint and a recorded event log
    /// (the CLI uses this after reading a journal file).
    pub fn from_parts(checkpoint: ResidualState, events: Vec<NetEvent>) -> Self {
        Self { checkpoint, events }
    }

    /// The checkpoint state replay starts from.
    pub fn checkpoint(&self) -> &ResidualState {
        &self.checkpoint
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[NetEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Reconstructs the state by applying every event to a copy of the
    /// checkpoint through the ordinary mutators.
    pub fn replay(&self, net: &WdmNetwork) -> Result<ResidualState, ReplayError> {
        let mut st = self.checkpoint.clone();
        for (index, event) in self.events.iter().enumerate() {
            apply_event(&mut st, net, event).map_err(|source| ReplayError {
                index,
                kind: event.kind(),
                source,
            })?;
        }
        Ok(st)
    }
}

impl EventSink for StateJournal {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, event: NetEvent) {
        self.events.push(event);
    }
}

/// Applies one event. Occupations are strict (the live run's succeeded, so
/// a rejection means the journal and state diverged); releases ignore
/// errors exactly like the live teardown path does. An event naming a link
/// outside the network or the state, or a wavelength outside the network's
/// `W`, is refused before anything is applied: the mutators index by these
/// ids unchecked, and a log read from disk can hold any id.
///
/// Public so streaming replays (the daemon's write-ahead log, which
/// interleaves events with checkpoint records) apply events one at a time
/// with exactly [`StateJournal::replay`]'s semantics.
pub fn apply_event(
    st: &mut ResidualState,
    net: &WdmNetwork,
    event: &NetEvent,
) -> Result<(), StateError> {
    let links = net.link_count().min(st.link_count());
    let link = |e: &EdgeId| {
        if e.index() < links {
            Ok(())
        } else {
            Err(StateError::UnknownLink)
        }
    };
    let hop = |h: &Hop| {
        link(&h.edge)?;
        if h.wavelength.index() < net.num_wavelengths() {
            Ok(())
        } else {
            Err(StateError::UnknownWavelength)
        }
    };
    match event {
        NetEvent::Provision { channels, .. } | NetEvent::Teardown { channels, .. } => {
            channels.iter().try_for_each(hop)?
        }
        NetEvent::FailLink { link: e } | NetEvent::RepairLink { link: e } => link(e)?,
        NetEvent::Reconfigure {
            released, occupied, ..
        } => released.iter().chain(occupied).try_for_each(hop)?,
    }
    match event {
        NetEvent::Provision { channels, .. } => {
            for h in channels {
                st.occupy(net, h.edge, h.wavelength)?;
            }
        }
        NetEvent::Teardown { channels, .. } => {
            for h in channels {
                let _ = st.release(h.edge, h.wavelength);
            }
        }
        NetEvent::FailLink { link } => st.fail_link(*link),
        NetEvent::RepairLink { link } => st.repair_link(*link),
        NetEvent::Reconfigure {
            released, occupied, ..
        } => {
            for h in released {
                let _ = st.release(h.edge, h.wavelength);
            }
            for h in occupied {
                st.occupy(net, h.edge, h.wavelength)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::ConversionTable;
    use crate::network::NetworkBuilder;
    use crate::wavelength::Wavelength;

    fn square() -> WdmNetwork {
        let mut b = NetworkBuilder::new(4);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.5 }))
            .collect();
        for i in 0..4 {
            b.add_link(n[i], n[(i + 1) % 4], 1.0 + i as f64);
            b.add_link(n[(i + 1) % 4], n[i], 5.0 + i as f64);
        }
        b.build()
    }

    fn assert_bit_identical(a: &ResidualState, b: &ResidualState, net: &WdmNetwork) {
        assert_eq!(a, b, "payload");
        assert_eq!(a.change_clock(), b.change_clock(), "global clock");
        for i in 0..net.link_count() {
            let e = EdgeId::from(i);
            assert_eq!(
                a.link_change_clock(e),
                b.link_change_clock(e),
                "link clock {i}"
            );
        }
    }

    #[test]
    fn journal_replay_is_bit_identical_to_live() {
        let net = square();
        let mut live = ResidualState::fresh(&net);
        let mut journal = StateJournal::new(live.clone());

        let hops = |pairs: &[(u32, u8)]| -> Vec<Hop> {
            pairs
                .iter()
                .map(|&(e, l)| Hop {
                    edge: EdgeId(e),
                    wavelength: Wavelength(l),
                })
                .collect()
        };

        let p = hops(&[(0, 0), (2, 1)]);
        for h in &p {
            live.occupy(&net, h.edge, h.wavelength).unwrap();
        }
        journal.record(NetEvent::Provision {
            id: 1,
            channels: p.clone(),
        });

        live.fail_link(EdgeId(2));
        journal.record(NetEvent::FailLink { link: EdgeId(2) });

        // Move connection 1 off the failed link.
        let moved = hops(&[(4, 0)]);
        for h in &p {
            let _ = live.release(h.edge, h.wavelength);
        }
        for h in &moved {
            live.occupy(&net, h.edge, h.wavelength).unwrap();
        }
        journal.record(NetEvent::Reconfigure {
            id: 1,
            released: p,
            occupied: moved.clone(),
        });

        live.repair_link(EdgeId(2));
        journal.record(NetEvent::RepairLink { link: EdgeId(2) });

        for h in &moved {
            let _ = live.release(h.edge, h.wavelength);
        }
        journal.record(NetEvent::Teardown {
            id: 1,
            channels: moved,
        });

        let replayed = journal.replay(&net).expect("replay succeeds");
        assert_bit_identical(&replayed, &live, &net);
        assert_eq!(replayed.semantic_hash(), live.semantic_hash());
    }

    #[test]
    fn journal_replay_rejects_divergence() {
        let net = square();
        let st = ResidualState::fresh(&net);
        let mut journal = StateJournal::new(st);
        let ch = vec![Hop {
            edge: EdgeId(0),
            wavelength: Wavelength(0),
        }];
        journal.record(NetEvent::Provision {
            id: 0,
            channels: ch.clone(),
        });
        journal.record(NetEvent::Provision {
            id: 1,
            channels: ch,
        });
        let err = journal.replay(&net).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.kind, "provision");
        assert_eq!(err.source, StateError::AlreadyUsed);
    }

    #[test]
    fn events_naming_ids_outside_the_network_apply_nothing() {
        let net = square();
        let hop = |edge, wavelength| Hop {
            edge: EdgeId(edge),
            wavelength: Wavelength(wavelength),
        };
        for (event, refusal) in [
            (
                NetEvent::FailLink { link: EdgeId(8) },
                StateError::UnknownLink,
            ),
            (
                NetEvent::Provision {
                    id: 0,
                    channels: vec![hop(0, 0), hop(1, 4)],
                },
                StateError::UnknownWavelength,
            ),
            (
                NetEvent::Reconfigure {
                    id: 0,
                    released: vec![hop(0, 0)],
                    occupied: vec![hop(1, 0), hop(9, 0)],
                },
                StateError::UnknownLink,
            ),
        ] {
            let mut st = ResidualState::fresh(&net);
            st.occupy(&net, EdgeId(0), Wavelength(0)).unwrap();
            let before = st.clone();
            assert_eq!(apply_event(&mut st, &net, &event), Err(refusal));
            assert_bit_identical(&st, &before, &net);
        }
    }

    #[test]
    fn journal_survives_serde_round_trip() {
        let net = square();
        let mut journal = StateJournal::new(ResidualState::fresh(&net));
        journal.record(NetEvent::Provision {
            id: 7,
            channels: vec![Hop {
                edge: EdgeId(1),
                wavelength: Wavelength(3),
            }],
        });
        journal.record(NetEvent::FailLink { link: EdgeId(0) });
        let v = serde::Serialize::to_value(&journal);
        let back: StateJournal = serde::Deserialize::from_value(&v).expect("round trip");
        assert_eq!(back.events(), journal.events());
        let a = journal.replay(&net).unwrap();
        let b = back.replay(&net).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.semantic_hash(), b.semantic_hash());
    }

    #[test]
    fn noop_sink_is_disabled() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        s.record(NetEvent::FailLink { link: EdgeId(0) });
        let mut j = StateJournal::new(ResidualState::fresh(&square()));
        // The `&mut S` blanket impl is what lets call sites thread a journal
        // down by reference; probe it through a generic consumer.
        fn probe<J: EventSink>(j: J) -> bool {
            j.enabled()
        }
        assert!(probe(&mut j));
        assert!(j.is_empty());
        assert_eq!(j.len(), 0);
    }
}
