//! The provisioning service: one mutation lineage — live [`ResidualState`],
//! warm [`RouterCtx`], journal, connection table — behind a narrow
//! interface both the discrete-event [`Simulator`] and the `wdm serve`
//! daemon consume.
//!
//! [`NetProvisioner`] owns everything a lightpath service mutates when a
//! request arrives or departs. The [`Provisioner`] trait is the service
//! contract: route computation ([`Provisioner::route`]) is separated from
//! the commit ([`Provisioner::commit`]) so callers can time, account or
//! reject between the two. Both commits go through
//! [`NetProvisioner::try_commit`], which checks every hop before it
//! touches the state: a route made stale by a mutation committed since it
//! was computed (the daemon routes and commits under different locks) is
//! refused with nothing changed, change clocks included, so every warm
//! [`RouterCtx`] that synced against the state stays valid. The
//! single-threaded [`Provisioner::commit`] is the same call plus an
//! `expect`.
//!
//! Every successful mutation is appended to the generic [`EventSink`]
//! journal in the same order the state saw it, so a journal replayed over
//! the initial checkpoint reproduces the live state bit-identically —
//! the invariant `wdm replay --verify` (and the daemon's write-ahead log)
//! is built on.
//!
//! [`Simulator`]: crate::sim::Simulator

use crate::policy::{Policy, ProvisionedRoute};
use std::collections::HashMap;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::error::RoutingError;
use wdm_core::journal::{EventSink, NetEvent, NoopSink};
use wdm_core::network::{ResidualState, StateError, WdmNetwork};
use wdm_graph::{EdgeId, NodeId};
use wdm_telemetry::{NoopRecorder, NoopTracer, Recorder, Tracer};

/// One live connection: endpoints plus the channels it holds.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The provisioned route (primary + backup, or unprotected).
    pub route: ProvisionedRoute,
}

/// The service contract of a lightpath provisioner: compute routes, commit
/// and tear down connections, mutate link health, and expose the audit
/// surface (journal sequence, semantic hash).
///
/// Implementors keep the journal invariant: every successful mutation is
/// recorded in state order, so replay over the initial state reproduces
/// the live state.
pub trait Provisioner {
    /// Computes a route for `(s, t)` against the current state without
    /// mutating anything.
    fn route(&mut self, s: NodeId, t: NodeId) -> Result<ProvisionedRoute, RoutingError>;

    /// Commits a route computed against the *current* state: occupies its
    /// channels, journals the provision and registers the connection.
    /// Returns the connection id.
    ///
    /// # Panics
    /// If the route no longer fits the state (single-lineage callers
    /// compute and commit back-to-back, so a misfit is a logic error; use
    /// [`NetProvisioner::try_commit`] when the state may have moved).
    fn commit(&mut self, s: NodeId, t: NodeId, route: ProvisionedRoute) -> u64;

    /// Routes and commits in one step.
    fn provision(&mut self, s: NodeId, t: NodeId) -> Result<u64, RoutingError> {
        let route = self.route(s, t)?;
        Ok(self.commit(s, t, route))
    }

    /// Tears down connection `id`, releasing its channels and journaling
    /// the teardown. Returns the released route, or `None` for an unknown
    /// id.
    fn teardown(&mut self, id: u64) -> Option<ProvisionedRoute>;

    /// Fails a link. Returns `false` (and journals nothing) when the link
    /// is already down.
    fn fail_link(&mut self, link: EdgeId) -> bool;

    /// Repairs a link, journaling unconditionally (repairing a healthy
    /// link is a recorded no-op, mirroring the state mutator). Returns
    /// whether the link had been failed.
    fn repair_link(&mut self, link: EdgeId) -> bool;

    /// Number of live connections.
    fn active_connections(&self) -> usize;

    /// Journal events recorded so far.
    fn journal_seq(&self) -> u64;

    /// Semantic hash of the current state (see
    /// [`ResidualState::semantic_hash`]).
    fn semantic_hash(&self) -> u64;
}

/// The concrete provisioning service over one network.
///
/// Generic exactly like [`Simulator`](crate::sim::Simulator): telemetry
/// [`Recorder`], lifecycle [`EventSink`] journal, span [`Tracer`] — all
/// defaulting to the zero-cost no-ops.
pub struct NetProvisioner<
    'a,
    R: Recorder = NoopRecorder,
    J: EventSink = NoopSink,
    T: Tracer = NoopTracer,
> {
    net: &'a WdmNetwork,
    policy: Policy,
    state: ResidualState,
    ctx: RouterCtx<R, T>,
    journal: J,
    journal_seq: u64,
    connections: HashMap<u64, Connection>,
    next_conn: u64,
}

impl<'a> NetProvisioner<'a> {
    /// A fresh un-instrumented provisioner over `net`.
    pub fn new(net: &'a WdmNetwork, policy: Policy) -> Self {
        Self::with_parts(
            net,
            policy,
            ResidualState::fresh(net),
            RouterCtx::new(),
            NoopSink,
        )
    }
}

impl<'a, R: Recorder, J: EventSink, T: Tracer> NetProvisioner<'a, R, J, T> {
    /// Assembles a provisioner from explicit parts (the simulator and the
    /// daemon both start from a non-default state/context/journal).
    pub fn with_parts(
        net: &'a WdmNetwork,
        policy: Policy,
        state: ResidualState,
        ctx: RouterCtx<R, T>,
        journal: J,
    ) -> Self {
        Self {
            net,
            policy,
            state,
            ctx,
            journal,
            journal_seq: 0,
            connections: HashMap::new(),
            next_conn: 0,
        }
    }

    /// The network this service provisions on.
    pub fn net(&self) -> &'a WdmNetwork {
        self.net
    }

    /// The provisioning policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The live residual state.
    pub fn state(&self) -> &ResidualState {
        &self.state
    }

    /// Consumes the service, returning the final state (the ground truth a
    /// journal replay is verified against).
    pub fn into_state(self) -> ResidualState {
        self.state
    }

    /// The router context (tracer/recorder access for callers timing their
    /// own commit spans).
    pub fn ctx(&self) -> &RouterCtx<R, T> {
        &self.ctx
    }

    /// Drops all warm engine state, so the next route runs cold. Nothing
    /// here regresses the change clocks, so provisioning never needs this;
    /// it is for callers that time cold routes.
    pub fn invalidate_ctx(&mut self) {
        self.ctx.invalidate();
    }

    /// Whether the journal actually records events.
    pub fn journal_enabled(&self) -> bool {
        self.journal.enabled()
    }

    /// Direct journal access — for sinks with out-of-band records beyond
    /// the [`NetEvent`] stream (the daemon's write-ahead log interleaves
    /// periodic state checkpoints between events).
    pub fn journal_mut(&mut self) -> &mut J {
        &mut self.journal
    }

    /// Read access to a live connection.
    pub fn connection(&self, id: u64) -> Option<&Connection> {
        self.connections.get(&id)
    }

    /// Splits the service into the pieces a direct routing call needs:
    /// mutable context + mutable state (the simulator's reconfiguration
    /// probe routes on a clone of the state and writes it back).
    pub(crate) fn ctx_and_state_mut(&mut self) -> (&mut RouterCtx<R, T>, &mut ResidualState) {
        (&mut self.ctx, &mut self.state)
    }

    /// Mutable state access for the simulator's recovery/reconfiguration
    /// sweeps (which journal through [`Self::journal_event`] themselves).
    pub(crate) fn state_mut(&mut self) -> &mut ResidualState {
        &mut self.state
    }

    /// Mutable connection-table access for the simulator's recovery paths.
    pub(crate) fn connections_mut(&mut self) -> &mut HashMap<u64, Connection> {
        &mut self.connections
    }

    /// Shared connection-table access.
    pub fn connections(&self) -> &HashMap<u64, Connection> {
        &self.connections
    }

    /// Appends one event to the journal, advancing the sequence counter.
    /// All journal writes go through here (call sites gate payload
    /// construction on [`Self::journal_enabled`]).
    pub(crate) fn journal_event(&mut self, event: NetEvent) {
        self.journal_seq += 1;
        self.journal.record(event);
    }

    /// Commits a route that may have been computed against an earlier
    /// state: checks every hop first, then occupies the channels, journals
    /// the provision and registers the connection. A conflict with a
    /// mutation that landed since the route was computed returns the
    /// error with the state (change clocks included), the journal and the
    /// connection table untouched, so warm contexts stay valid.
    pub fn try_commit(
        &mut self,
        s: NodeId,
        t: NodeId,
        route: ProvisionedRoute,
    ) -> Result<u64, StateError> {
        let hops = route.channels();
        for h in &hops {
            self.state.check_occupy(self.net, h.edge, h.wavelength)?;
        }
        for h in &hops {
            self.state
                .occupy(self.net, h.edge, h.wavelength)
                .expect("a route holds each channel once and every hop was checked");
        }
        let id = self.next_conn;
        self.next_conn += 1;
        if self.journal.enabled() {
            self.journal_event(NetEvent::Provision { id, channels: hops });
        }
        self.connections.insert(
            id,
            Connection {
                src: s,
                dst: t,
                route,
            },
        );
        Ok(id)
    }
}

impl<'a, R: Recorder, J: EventSink, T: Tracer> Provisioner for NetProvisioner<'a, R, J, T> {
    fn route(&mut self, s: NodeId, t: NodeId) -> Result<ProvisionedRoute, RoutingError> {
        self.policy
            .route_ctx(&mut self.ctx, self.net, &self.state, s, t)
    }

    fn commit(&mut self, s: NodeId, t: NodeId, route: ProvisionedRoute) -> u64 {
        self.try_commit(s, t, route)
            .expect("route computed against current state must occupy")
    }

    fn teardown(&mut self, id: u64) -> Option<ProvisionedRoute> {
        let c = self.connections.remove(&id)?;
        c.route.release(&mut self.state);
        if self.journal.enabled() {
            self.journal_event(NetEvent::Teardown {
                id,
                channels: c.route.channels(),
            });
        }
        Some(c.route)
    }

    fn fail_link(&mut self, link: EdgeId) -> bool {
        if self.state.is_failed(link) {
            return false;
        }
        self.state.fail_link(link);
        if self.journal.enabled() {
            self.journal_event(NetEvent::FailLink { link });
        }
        true
    }

    fn repair_link(&mut self, link: EdgeId) -> bool {
        let was_failed = self.state.is_failed(link);
        self.state.repair_link(link);
        if self.journal.enabled() {
            self.journal_event(NetEvent::RepairLink { link });
        }
        was_failed
    }

    fn active_connections(&self) -> usize {
        self.connections.len()
    }

    fn journal_seq(&self) -> u64 {
        self.journal_seq
    }

    fn semantic_hash(&self) -> u64 {
        self.state.semantic_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::journal::StateJournal;
    use wdm_core::network::NetworkBuilder;

    fn nsfnet() -> WdmNetwork {
        NetworkBuilder::nsfnet(8).build()
    }

    #[test]
    fn provision_teardown_roundtrip_restores_load() {
        let net = nsfnet();
        let mut p = NetProvisioner::new(&net, Policy::CostOnly);
        let id = p.provision(NodeId(0), NodeId(9)).expect("routable");
        assert_eq!(p.active_connections(), 1);
        assert!(p.state().network_load(&net) > 0.0);
        let conn = p.connection(id).expect("registered");
        assert_eq!((conn.src, conn.dst), (NodeId(0), NodeId(9)));
        assert!(p.teardown(id).is_some());
        assert!(p.teardown(id).is_none(), "double teardown is a miss");
        assert_eq!(p.state().network_load(&net), 0.0);
        assert_eq!(p.active_connections(), 0);
    }

    #[test]
    fn journaled_lifecycle_replays_bit_identically() {
        let net = nsfnet();
        let mut journal = StateJournal::new(ResidualState::fresh(&net));
        let final_hash;
        {
            let mut p = NetProvisioner::with_parts(
                &net,
                Policy::CostOnly,
                ResidualState::fresh(&net),
                RouterCtx::new(),
                &mut journal,
            );
            let a = p.provision(NodeId(0), NodeId(9)).unwrap();
            let _b = p.provision(NodeId(3), NodeId(11)).unwrap();
            assert!(p.fail_link(EdgeId(0)));
            assert!(!p.fail_link(EdgeId(0)), "second failure is a no-op");
            assert!(p.repair_link(EdgeId(0)));
            p.teardown(a);
            assert_eq!(p.journal_seq(), 5);
            final_hash = p.semantic_hash();
        }
        let replayed = journal.replay(&net).expect("replay");
        assert_eq!(replayed.semantic_hash(), final_hash);
    }

    /// Everything a refused commit must leave alone: the payload, the
    /// global and per-link change clocks, the journal and the table.
    fn untouched(
        p: &NetProvisioner<'_, NoopRecorder, &mut StateJournal, NoopTracer>,
    ) -> (ResidualState, u64, Vec<u64>, u64, usize) {
        let st = p.state();
        let links = (0..p.net().link_count())
            .map(|i| st.link_change_clock(EdgeId::from(i)))
            .collect();
        (
            st.clone(),
            st.change_clock(),
            links,
            p.journal_seq(),
            p.active_connections(),
        )
    }

    #[test]
    fn try_commit_conflicts_change_nothing() {
        let net = nsfnet();
        let mut journal = StateJournal::new(ResidualState::fresh(&net));
        let mut p = NetProvisioner::with_parts(
            &net,
            Policy::CostOnly,
            ResidualState::fresh(&net),
            RouterCtx::new(),
            &mut journal,
        );
        p.provision(NodeId(3), NodeId(11)).expect("routable");
        let route = p.route(NodeId(0), NodeId(9)).expect("routable");
        // Conflicts on the route's last hop: an occupy that went forward
        // and released on the way back would have ticked every hop before.
        let last = *route.channels().last().expect("route has hops");

        // The last channel is stolen behind the router's back.
        p.state_mut()
            .occupy(&net, last.edge, last.wavelength)
            .unwrap();
        let before = untouched(&p);
        let err = p.try_commit(NodeId(0), NodeId(9), route.clone());
        assert_eq!(err, Err(StateError::AlreadyUsed));
        assert_eq!(untouched(&p), before, "a taken channel changed something");
        p.state_mut().release(last.edge, last.wavelength).unwrap();

        // The last hop's link has failed.
        assert!(p.fail_link(last.edge));
        let before = untouched(&p);
        let err = p.try_commit(NodeId(0), NodeId(9), route.clone());
        assert_eq!(err, Err(StateError::LinkFailed));
        assert_eq!(untouched(&p), before, "a failed link changed something");
        assert!(p.repair_link(last.edge));

        // With both conflicts gone the same route commits.
        let id = p
            .try_commit(NodeId(0), NodeId(9), route)
            .expect("now conflict-free");
        assert_eq!(p.connection(id).map(|c| c.src), Some(NodeId(0)));
        assert_eq!(p.active_connections(), 2);
    }
}
