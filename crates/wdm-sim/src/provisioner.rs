//! The provisioning service: one mutation lineage — live [`ResidualState`],
//! warm [`RouterCtx`], journal, connection table — behind a narrow
//! interface both the discrete-event [`Simulator`] and the `wdm serve`
//! daemon consume.
//!
//! [`NetProvisioner`] owns everything a lightpath service mutates, and
//! every change to it goes through here: a request arriving or departing,
//! a link failing or being repaired, the recovery of the connections a
//! failure cuts ([`NetProvisioner::fail_and_recover`]) and the
//! load-driven reconfiguration sweep ([`NetProvisioner::reconfigure`]).
//! The [`Provisioner`] trait is the service contract: route computation
//! ([`Provisioner::route`]) is separated from the commit
//! ([`Provisioner::commit`]) so callers can time, account or reject
//! between the two. Both commits go through [`NetProvisioner::try_commit`],
//! which checks every hop before it touches the state: a route made stale
//! by a mutation committed since it was computed (the daemon routes and
//! commits under different locks) is refused with nothing changed, change
//! clocks included, so every warm [`RouterCtx`] that synced against the
//! state stays valid. The single-threaded [`Provisioner::commit`] is the
//! same call plus an `expect`.
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
use wdm_core::joint::find_two_paths_joint_ctx;
use wdm_core::journal::{EventSink, NetEvent, NoopSink};
use wdm_core::mincog::DEFAULT_CONGESTION_BASE;
use wdm_core::network::{ResidualState, StateError, WdmNetwork};
use wdm_core::optimal_slp::optimal_semilightpath_filtered;
use wdm_core::semilightpath::{Hop, RobustRoute, Semilightpath};
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

/// What [`NetProvisioner::fail_and_recover`] did to one connection that
/// crossed the failed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The primary was cut and the backup took over (active protection).
    /// `reprotected`: the new primary got a fresh backup; otherwise it
    /// runs unprotected.
    Switched {
        /// Whether a new edge-disjoint backup was found.
        reprotected: bool,
    },
    /// Only the backup was cut; it was released. `reprotected` as above.
    BackupLost {
        /// Whether a new edge-disjoint backup was found.
        reprotected: bool,
    },
    /// Nothing was left standing and the policy re-routed the connection
    /// (passive recovery) on a route of `hops` hops, backup included.
    Rerouted {
        /// Hops of the new route (the per-hop setup the re-route costs).
        hops: usize,
    },
    /// Nothing was left standing and no route was found: the connection
    /// was removed.
    Dropped,
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
    /// is already down. This only marks the link: connections crossing it
    /// keep their routes ([`NetProvisioner::fail_and_recover`] also
    /// recovers them).
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

    /// Appends one event to the journal, advancing the sequence counter.
    /// Every journal write goes through here; callers build the payload
    /// only when the sink records.
    fn journal_event(&mut self, event: NetEvent) {
        self.journal_seq += 1;
        self.journal.record(event);
    }

    /// Journals that connection `id` released and then occupied the two
    /// channel lists `moved` builds — only when the sink records.
    fn journal_move(&mut self, id: u64, moved: impl FnOnce() -> (Vec<Hop>, Vec<Hop>)) {
        if self.journal.enabled() {
            let (released, occupied) = moved();
            self.journal_event(NetEvent::Reconfigure {
                id,
                released,
                occupied,
            });
        }
    }

    /// Ids of the live connections holding a channel on `link`, oldest
    /// first: the table's iteration order is random per instance, and the
    /// order moves are made in decides routing outcomes.
    fn connections_on(&self, link: EdgeId) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .connections
            .iter()
            .filter(|(_, c)| c.route.crosses(link))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
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

    /// Fails `link` (through [`Provisioner::fail_link`]) and recovers every
    /// connection that crossed it, oldest id first:
    /// - one leg cut: the surviving leg becomes the primary (a switchover
    ///   if the primary was cut), and gets the cheapest edge-disjoint
    ///   backup or runs unprotected;
    /// - nothing left standing: the policy re-routes the connection on
    ///   this provisioner's context, or it is removed.
    ///
    /// Each move is journaled as one [`NetEvent::Reconfigure`]. Returns
    /// `None`, changing nothing, when the link is already down; otherwise
    /// one outcome per recovered connection, in processing order.
    pub fn fail_and_recover(&mut self, link: EdgeId) -> Option<Vec<(u64, Recovery)>> {
        if !self.fail_link(link) {
            return None;
        }
        let affected = self.connections_on(link);
        Some(
            affected
                .into_iter()
                .map(|id| (id, self.recover(id, link)))
                .collect(),
        )
    }

    /// Recovers connection `id`, which crossed the just-failed `link`.
    fn recover(&mut self, id: u64, link: EdgeId) -> Recovery {
        let c = self.connections[&id].clone();
        if let ProvisionedRoute::Protected(r) = &c.route {
            let primary_cut = r.primary.edges().any(|e| e == link);
            if primary_cut != r.backup.edges().any(|e| e == link) {
                // One leg survives: it carries the traffic (an instant
                // switchover if the primary was cut) and gets re-protected.
                let (cut, survivor) = if primary_cut {
                    (&r.primary, &r.backup)
                } else {
                    (&r.backup, &r.primary)
                };
                cut.release(&mut self.state);
                let backup = self.disjoint_backup(survivor);
                let reprotected = backup.is_some();
                self.journal_move(id, || {
                    let occupied = backup.as_ref().map_or_else(Vec::new, |b| b.hops.clone());
                    (cut.hops.clone(), occupied)
                });
                self.connections.get_mut(&id).expect("present").route = match backup {
                    Some(backup) => ProvisionedRoute::Protected(RobustRoute {
                        primary: survivor.clone(),
                        backup,
                    }),
                    None => ProvisionedRoute::Unprotected(survivor.clone()),
                };
                return if primary_cut {
                    Recovery::Switched { reprotected }
                } else {
                    Recovery::BackupLost { reprotected }
                };
            }
        }
        // Nothing left standing: passive recovery routes afresh.
        c.route.release(&mut self.state);
        match self
            .policy
            .route_ctx(&mut self.ctx, self.net, &self.state, c.src, c.dst)
        {
            Ok(route) => {
                route
                    .occupy(self.net, &mut self.state)
                    .expect("fresh route must occupy");
                self.journal_move(id, || (c.route.channels(), route.channels()));
                let hops = route.channels().len();
                self.connections.get_mut(&id).expect("present").route = route;
                Recovery::Rerouted { hops }
            }
            Err(_) => {
                self.journal_move(id, || (c.route.channels(), Vec::new()));
                self.connections.remove(&id);
                Recovery::Dropped
            }
        }
    }

    /// Occupies the cheapest semilightpath between `primary`'s endpoints
    /// that shares no link with it, if there is one.
    fn disjoint_backup(&mut self, primary: &Semilightpath) -> Option<Semilightpath> {
        let mut banned = vec![false; self.net.link_count()];
        for e in primary.edges() {
            banned[e.index()] = true;
        }
        let slp =
            optimal_semilightpath_filtered(self.net, &self.state, primary.src, primary.dst, |e| {
                !banned[e.index()]
            })?;
        slp.occupy(self.net, &mut self.state).ok()?;
        Some(slp)
    }

    /// Threshold-triggered reconfiguration (§4.2): moves connections off
    /// the most-loaded live link with the joint algorithm, oldest first,
    /// until the link cools below `threshold` or every connection on it
    /// has been tried. A failed link reads as fully loaded but carries
    /// nothing (recovery moved everything off it), so it is never the hot
    /// link.
    ///
    /// Each move is probed on a clone of the live state: the connection's
    /// channels are released there (ignoring unused ones, as a teardown
    /// does) and the joint policy routes on the clone with this
    /// provisioner's context. A route that avoids the hot link is occupied
    /// on the clone, which then replaces the live state, and the move is
    /// journaled as one [`NetEvent::Reconfigure`]: the same mutators from
    /// the same clocks as a direct move, so replay stays clock-exact.
    /// Otherwise the clone is dropped and the context invalidated: it
    /// synced against the clone's clocks, which run ahead of the live
    /// state's, and later mutations could carry the live clock past that
    /// mark and hide the difference from its regression detector.
    ///
    /// Returns `None` when the hot link is below `threshold` or no
    /// connection crosses it (not a reconfiguration), else the number of
    /// connections moved. `Err` is defensive (each occupy runs against the
    /// state its route was computed on): it cuts the sweep short with the
    /// state as the last completed move left it.
    pub fn reconfigure(&mut self, threshold: f64) -> Result<Option<usize>, StateError> {
        let hot = (0..self.net.link_count())
            .map(EdgeId::from)
            .filter(|&e| !self.state.is_failed(e))
            .max_by(|&a, &b| {
                self.state
                    .load(self.net, a)
                    .partial_cmp(&self.state.load(self.net, b))
                    .expect("loads are finite")
            });
        let Some(hot) = hot.filter(|&e| self.state.load(self.net, e) >= threshold) else {
            return Ok(None);
        };
        let users = self.connections_on(hot);
        if users.is_empty() {
            return Ok(None);
        }
        let mut moved = 0;
        for id in users {
            if self.state.load(self.net, hot) < threshold {
                break;
            }
            let c = self.connections[&id].clone();
            let mut probe = self.state.clone();
            c.route.release(&mut probe);
            // The hot link's congestion weight steers the joint policy
            // away from it; a route that still crosses it is no move.
            let route = find_two_paths_joint_ctx(
                &mut self.ctx,
                self.net,
                &probe,
                c.src,
                c.dst,
                DEFAULT_CONGESTION_BASE,
            )
            .ok()
            .map(|out| ProvisionedRoute::Protected(out.route))
            .filter(|r| !r.crosses(hot));
            let Some(route) = route else {
                self.ctx.invalidate();
                continue;
            };
            if let Err(err) = route.occupy(self.net, &mut probe) {
                self.ctx.invalidate();
                return Err(err);
            }
            self.state = probe;
            self.journal_move(id, || (c.route.channels(), route.channels()));
            self.connections.get_mut(&id).expect("present").route = route;
            moved += 1;
        }
        Ok(Some(moved))
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

    #[test]
    fn a_cut_primary_switches_to_the_backup_and_replays() {
        let net = nsfnet();
        let mut journal = StateJournal::new(ResidualState::fresh(&net));
        let final_state;
        {
            let mut p = NetProvisioner::with_parts(
                &net,
                Policy::CostOnly,
                ResidualState::fresh(&net),
                RouterCtx::new(),
                &mut journal,
            );
            let id = p.provision(NodeId(0), NodeId(9)).expect("routable");
            let ProvisionedRoute::Protected(before) = p.connection(id).unwrap().route.clone()
            else {
                panic!("cost-only provisions protected routes");
            };
            let cut = before.primary.hops[0].edge;
            let outcomes = p.fail_and_recover(cut).expect("link was up");
            assert_eq!(outcomes.len(), 1);
            let (moved, Recovery::Switched { reprotected }) = outcomes[0] else {
                panic!("a cut primary switches: {outcomes:?}");
            };
            assert_eq!(moved, id);
            let after = &p.connection(id).expect("still live").route;
            let primary = match after {
                ProvisionedRoute::Protected(r) => {
                    assert!(reprotected && r.is_edge_disjoint());
                    &r.primary
                }
                ProvisionedRoute::Unprotected(p) => {
                    assert!(!reprotected);
                    p
                }
            };
            assert_eq!(*primary, before.backup, "the backup took over");
            assert!(!after.crosses(cut));
            assert!(p.fail_and_recover(cut).is_none(), "already down");
            final_state = p.into_state();
        }
        assert_eq!(journal.replay(&net).expect("replay"), final_state);
    }

    #[test]
    fn reconfigure_picks_its_hot_link_among_live_links() {
        let net = nsfnet();
        let mut p = NetProvisioner::new(&net, Policy::CostOnly);
        for (s, t) in [(0, 9), (3, 11), (1, 12), (2, 13), (4, 10), (0, 13)] {
            p.provision(NodeId(s), NodeId(t)).expect("routable");
        }
        let failed = EdgeId(0);
        assert!(p.fail_and_recover(failed).is_some());
        // The failed link reads as fully loaded, above every live link.
        assert_eq!(p.state.load(&net, failed), 1.0);
        let hottest = (0..net.link_count())
            .map(EdgeId::from)
            .filter(|&e| e != failed)
            .map(|e| p.state.load(&net, e))
            .fold(0.0, f64::max);
        assert!(
            hottest > 0.0 && hottest < 1.0,
            "hottest live link {hottest}"
        );
        // Every live link is below the threshold: no sweep.
        assert_eq!(p.reconfigure(hottest + 0.01), Ok(None));
        // The hottest live link reaches it and carries connections, so the
        // sweep runs there.
        assert!(matches!(p.reconfigure(hottest), Ok(Some(_))));
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
        p.state.occupy(&net, last.edge, last.wavelength).unwrap();
        let before = untouched(&p);
        let err = p.try_commit(NodeId(0), NodeId(9), route.clone());
        assert_eq!(err, Err(StateError::AlreadyUsed));
        assert_eq!(untouched(&p), before, "a taken channel changed something");
        p.state.release(last.edge, last.wavelength).unwrap();

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
