//! Optimistic parallel batch provisioning — speculative routing with
//! serial-equivalent commit.
//!
//! [`crate::batch::provision_batch`] routes a demand set one request at a
//! time; each routing call sees every earlier reservation. That data
//! dependency looks fully serial, but most windows of consecutive demands
//! touch disjoint parts of the network, so their routing decisions would
//! come out the same even if they could not see each other. This module
//! exploits that: it routes a *window* of `K` pending demands concurrently
//! against a frozen view of the residual state (an immutable borrow — the
//! state cannot move while the window routes, so freezing costs nothing;
//! earlier revisions paid an O(m) clone per round), then **commits the
//! results in demand order** under a conflict rule that guarantees the
//! final [`BatchOutcome`] — routes, rejections, cost sums (in the same
//! floating-point accumulation order) and residual state — is
//! **bit-identical to the serial run**.
//!
//! The [`ScheduleMode`] decides *which* pending demands speculate each
//! round and what happens on a conflict:
//!
//! * [`ScheduleMode::ConflictGroups`] (default, this module): a
//!   [`ConflictPartitioner`] predicts per-demand footprints through a
//!   [`FootprintOracle`] and selects a link-disjoint conflict group out
//!   of a `2K` lookahead; only the group speculates. Demands the
//!   partitioner skipped are routed **inline at their exact serial
//!   position** during the commit sweep — at that point the live state
//!   *is* the serial state, so the inline result is serial-exact by
//!   construction. A group member whose revalidation fails (a
//!   misprediction) is likewise re-routed inline on the spot — a bounded
//!   retry of exactly one extra routing call — instead of poisoning the
//!   rest of the round. The footprint-stamped `touched` array acts as the
//!   reservation lock table: every committed route (speculated or inline)
//!   stamps its links, and a speculated route commits only if its links
//!   are unstamped since its snapshot.
//! * [`ScheduleMode::Sharded`]: a static topology partition with
//!   per-shard workers; see [`crate::sharded`].
//!
//! ## Commit rules
//!
//! Within a round, results are visited in processing order; a speculated
//! result commits iff one of:
//!
//! 1. **Frozen = live.** No committed route has occupied channels since
//!    the round's snapshot was taken (rejections do not mutate state).
//!    The speculated call then saw exactly the state the serial run would
//!    have seen, so *any* result — success or failure — is the serial
//!    result. The first pending demand of every round commits by this
//!    rule, so every round makes progress and the engine terminates.
//! 2. **Disjoint revalidation** (successful routes, guarded): the policy
//!    [`has link-local decisions`](Policy::has_link_local_decisions), the
//!    network has [`distinct_static_costs`] with free conversion
//!    everywhere ([`zero_conversion_costs`] — together,
//!    [`link_local_revalidation_sound`]), and none of the route's links
//!    were occupied since the snapshot. Under uniform-per-link costs the
//!    auxiliary-graph weight of a link is occupancy-invariant, so
//!    intervening commits only *remove* candidate routes (saturating
//!    links) without re-pricing any; the speculated optimum is still
//!    feasible (its links are untouched) and still cheapest, and with
//!    pairwise-distinct link costs it is almost surely the *unique*
//!    cheapest, hence exactly what the serial run would pick. The
//!    link-locality requirement is essential, not cosmetic: a policy such
//!    as `TwoStep` picks the serial-identical *physical* path but breaks
//!    equal-cost wavelength ties by the exploration order of a network-
//!    wide `(link, λ)` Dijkstra, so occupancy changes on links the route
//!    never touches still flip its λ assignment. (Distinctness of link
//!    costs does not rule out equal path *sums*;
//!    `tests/speculative_equivalence.rs` is the empirical backstop. The
//!    guard is evaluated once per batch.)
//!
//!    Failures also commit under the guard when they are resource-
//!    monotone: the batch only occupies channels, so live availability is
//!    a subset of frozen availability, and a request with no disjoint
//!    pair (or no route at all) on the frozen state has none on the live
//!    state either. [`RoutingError::DegenerateRequest`] commits always
//!    (it depends only on the endpoints). Load-dependent failures abort.
//! 3. **Conflict recovery.** A non-committable result alone aborts and is
//!    re-routed inline at its serial position (live = serial there, so the
//!    retry is exact); the rest of the round proceeds.
//!
//! With the rule-2 guard off (load-sensitive policy, non-distinct costs,
//! or nonzero conversion cost — the PR 8 caveat the guard now enforces),
//! conflict-groups mode does not burn speculation that rule 1
//! would discard: the plan degenerates to one demand per round — a warm
//! serial loop over persistent router contexts, which is exactly where
//! the measured single-core speedup comes from.
//!
//! Workers are [`RouterCtx::fork`] clones: auxiliary-graph skeletons stay
//! warm across rounds, and because each round's snapshot is a descendant
//! of the previous one's in a single mutation lineage, the engines'
//! incremental change-clock sync stays sound — no per-round invalidation,
//! no per-demand rebuild. On a single-core host the speedup over
//! [`crate::batch::provision_batch`] comes entirely from that engine
//! reuse (the serial path pays a full auxiliary-graph construction per
//! demand); with more cores the window also routes concurrently.

use crate::batch::{processing_order, BatchOrder, BatchOutcome, Demand};
use crate::policy::{Policy, ProvisionedRoute};
use crate::schedule::{ConflictPartitioner, GroupPlan, ScheduleMode};
use wdm_core::aux_engine::RouterCtx;
use wdm_core::error::RoutingError;
use wdm_core::journal::{EventSink, NetEvent};
use wdm_core::load::load_snapshot;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::predict::{FootprintOracle, LocalityPredictor};
use wdm_graph::{EdgeId, NodeId};
use wdm_telemetry::{Counter, Hist, NoopRecorder, Phase, Recorder, Tracer};

/// What the speculative engine did across one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SpeculationStats {
    /// Speculation rounds executed (snapshot + group fan-out + commit).
    pub rounds: u64,
    /// Speculated results committed (successes and monotone failures).
    pub commits: u64,
    /// Speculated results aborted by the conflict rules.
    pub aborts: u64,
    /// Demands routed again after their speculation aborted — one per
    /// abort, re-routed inline at their serial position.
    pub retries: u64,
    /// Demands the conflict-groups scheduler never speculated — skipped
    /// by the partitioner as predicted-conflicting and routed inline at
    /// their serial position. In sharded mode these are the cross-shard
    /// demands.
    pub inline_routes: u64,
    /// Demands the sharded scheduler classified as cross-shard (their
    /// predicted footprint leaves one shard). Each one routes inline and
    /// is counted in `inline_routes` too. Zero outside sharded mode.
    pub cut_demands: u64,
}

impl SpeculationStats {
    /// Aborted fraction of all speculated results.
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

/// Whether every link declares one uniform per-wavelength cost and no two
/// links share it — the static-cost premise of commit rule 2: under
/// uniform per-link costs the auxiliary weight of a link never moves with
/// occupancy, and pairwise-distinct costs make the cheapest route almost
/// surely unique. Links with an empty wavelength complement fail the
/// check (their minimum cost is not finite).
pub fn distinct_static_costs(net: &WdmNetwork) -> bool {
    let m = net.link_count();
    let mut costs = Vec::with_capacity(m);
    for ei in 0..m {
        let e = EdgeId::from(ei);
        if !net.graph().edge(e).is_uniform_cost() {
            return false;
        }
        let c = net.min_link_cost(e);
        if !c.is_finite() {
            return false;
        }
        costs.push(c);
    }
    costs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    costs.windows(2).all(|w| w[0] < w[1])
}

/// Whether wavelength conversion is free at every node. The §3.3 G′
/// conversion-arc weight is the *average* over the currently-available
/// λ_a → λ_b pair costs, so with a nonzero conversion cost that weight
/// moves whenever channel occupancy reshapes the two adjacent links'
/// availability sets — a shift commit rule 2's link-local check cannot
/// see (the PR 8 caveat, DESIGN.md §5h). Only when every conversion costs
/// exactly 0 does each pair average to 0 and the auxiliary weight stay
/// link-local under occupancy churn.
pub fn zero_conversion_costs(net: &WdmNetwork) -> bool {
    let w = net.num_wavelengths();
    (0..net.node_count())
        .map(NodeId::from)
        .all(|v| net.conversion(v).max_cost(w) == 0.0)
}

/// The complete premise of commit rule 2 (link-local revalidation): the
/// policy's decisions are link-local, the static costs are pairwise
/// distinct ([`distinct_static_costs`]) and conversion is free everywhere
/// ([`zero_conversion_costs`]). Every speculative engine gates rule 2 on
/// this predicate — when it is false only rule 1 (untouched links) can
/// commit a speculated route, which keeps commits bit-identical to the
/// serial fold regardless of how conversion costs bend the G′ averages.
pub fn link_local_revalidation_sound(policy: Policy, net: &WdmNetwork) -> bool {
    policy.has_link_local_decisions() && distinct_static_costs(net) && zero_conversion_costs(net)
}

/// Resolves an explicit `--threads` request against a per-round cap:
/// `0` means auto (the host's available parallelism); the result is
/// clamped to `1..=max(cap, 1)`. Worker count never changes any result —
/// it only bounds how many OS threads route concurrently.
pub(crate) fn worker_count(threads: usize, cap: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    t.clamp(1, cap.max(1))
}

/// Routes every item on one of the worker contexts and returns the
/// results in item order. Items are split into contiguous chunks, one per
/// worker; with a single worker (or a single item) everything runs inline
/// on the caller's thread. The result is a pure function of `f` — worker
/// count and chunk boundaries never change what any item computes,
/// because each context is synced from the same frozen state.
pub(crate) fn fan_out<R, TR, T, U>(
    ctxs: &mut [RouterCtx<R, TR>],
    items: &[T],
    f: impl Fn(&mut RouterCtx<R, TR>, &T) -> U + Sync,
) -> Vec<U>
where
    R: Recorder + Send,
    TR: Tracer + Send,
    T: Sync,
    U: Send,
{
    let n = items.len();
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let workers = ctxs.len().min(n).max(1);
    if workers <= 1 {
        let ctx = ctxs.first_mut().expect("at least one worker context");
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = Some(f(ctx, item));
        }
    } else {
        let chunk = n.div_ceil(workers);
        crossbeam::thread::scope(|scope| {
            for ((items_c, out_c), ctx) in items
                .chunks(chunk)
                .zip(out.chunks_mut(chunk))
                .zip(ctxs.iter_mut())
            {
                let f = &f;
                scope.spawn(move |_| {
                    for (slot, item) in out_c.iter_mut().zip(items_c) {
                        *slot = Some(f(ctx, item));
                    }
                });
            }
        })
        .expect("speculation worker panicked");
    }
    out.into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

/// As [`crate::batch::provision_batch`], but routing up to `window`
/// pending demands speculatively per round under `schedule` (see the
/// module docs for the commit protocol) on up to `threads` worker threads
/// (`0` means auto — the host's available parallelism). The returned
/// [`BatchOutcome`] is bit-identical to the serial run's for every
/// `window` and `threads`; `window <= 1` degenerates to serial processing
/// with a persistent router context.
///
/// `recorder` receives only the speculation counters
/// ([`Counter::SpeculativeCommits`] / [`Counter::SpeculativeAborts`] /
/// [`Counter::SpeculativeRetries`] /
/// [`Counter::SpeculativeInlineRoutes`]) and the per-round
/// [`Hist::WindowOccupancy`] / [`Hist::ConflictGroupSize`] histograms;
/// the routing calls themselves are unrecorded, matching the serial
/// path's contract.
///
/// `journal` receives one [`NetEvent::Provision`] per committed route
/// (`id` = the demand's index in `demands`), in commit order — replaying
/// them over `state` reproduces the outcome's final state. Event payloads
/// are only built when [`EventSink::enabled`].
///
/// `tracer` records spans: each worker routes on a [`Tracer::fork_worker`]
/// child, the children are folded back in worker order after every
/// round's fan-out (contiguous chunk assignment makes that the serial
/// record stream), and the commit sweep attaches [`Phase::Commit`] /
/// [`Phase::Abort`] spans to the round's attempts via
/// [`Tracer::record_earlier`]. A demand may own more than one span group —
/// one per routing attempt (an aborted speculation re-routes inline) —
/// so attempts, not demands, are the unit the span stream counts.
///
/// Conflict-groups and sharded modes predict footprints with a
/// [`LocalityPredictor`] at its default radius; use
/// [`provision_batch_speculative_with_oracle`] or
/// [`crate::sharded::provision_batch_sharded`] to supply another oracle.
#[allow(clippy::too_many_arguments)]
pub fn provision_batch_speculative_scheduled<R: Recorder, J: EventSink, T: Tracer + Send>(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
    window: usize,
    schedule: ScheduleMode,
    threads: usize,
    recorder: R,
    journal: J,
    tracer: &T,
) -> (BatchOutcome, SpeculationStats) {
    match schedule {
        ScheduleMode::ConflictGroups => {
            let mut oracle = LocalityPredictor::with_default_radius(net);
            run_conflict_groups(
                net,
                state,
                demands,
                policy,
                order,
                window,
                threads,
                recorder,
                journal,
                tracer,
                &mut oracle,
            )
        }
        ScheduleMode::Sharded { shards } => {
            let mut oracle = LocalityPredictor::with_default_radius(net);
            crate::sharded::run_sharded(
                net,
                state,
                demands,
                policy,
                order,
                window,
                shards,
                threads,
                recorder,
                journal,
                tracer,
                &mut oracle,
            )
        }
    }
}

/// Conflict-groups scheduling with a caller-supplied [`FootprintOracle`].
/// The oracle only shapes the schedule — any oracle, however wrong,
/// yields the same bit-identical [`BatchOutcome`]; mispredictions cost
/// retries (missed conflicts) or parallelism (spurious ones).
#[allow(clippy::too_many_arguments)]
pub fn provision_batch_speculative_with_oracle<
    R: Recorder,
    J: EventSink,
    T: Tracer + Send,
    O: FootprintOracle,
>(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
    window: usize,
    recorder: R,
    journal: J,
    tracer: &T,
    oracle: &mut O,
) -> (BatchOutcome, SpeculationStats) {
    run_conflict_groups(
        net, state, demands, policy, order, window, 0, recorder, journal, tracer, oracle,
    )
}

/// Routes demand `idx` on the live state and commits whatever comes back.
/// The live state equals the serial state at this point in processing
/// order — every earlier demand of the batch has already committed its
/// serial result — so this result is serial-exact by construction and
/// commits unconditionally. Used for demands the partitioner skipped and
/// for bounded retries of mispredicted group members.
#[allow(clippy::too_many_arguments)]
fn route_inline_serial<J: EventSink, T: Tracer + Send, O: FootprintOracle + ?Sized>(
    net: &WdmNetwork,
    st: &mut ResidualState,
    demand: Demand,
    id: usize,
    policy: Policy,
    ctx: &mut RouterCtx<NoopRecorder, T>,
    tracer: &T,
    tracing: bool,
    journal: &mut J,
    oracle: &mut O,
    touched: &mut [bool],
    committed_any: &mut bool,
    provisioned: &mut Vec<(usize, ProvisionedRoute)>,
    rejected: &mut Vec<usize>,
    total_cost: &mut f64,
) {
    let res = policy.route_ctx(ctx, net, &*st, demand.src, demand.dst);
    if tracing {
        // The inline attempt becomes the newest request in the span
        // stream; callers account for the shift when attributing spans to
        // earlier fan-out attempts.
        tracer.absorb_worker(ctx.tracer());
    }
    match res {
        Ok(route) => {
            let commit_t0 = tracer.now_ns();
            let fp = route.footprint();
            oracle.observe(demand.src, demand.dst, &fp);
            for e in &fp.links {
                touched[e.index()] = true;
            }
            route
                .occupy(net, st)
                .expect("inline route computed on the live state");
            if journal.enabled() {
                journal.record(NetEvent::Provision {
                    id: id as u64,
                    channels: route.channels(),
                });
            }
            *total_cost += route.total_cost();
            provisioned.push((id, route));
            *committed_any = true;
            if tracing {
                tracer.record_earlier(0, Phase::Commit, commit_t0);
            }
        }
        Err(_) => rejected.push(id),
    }
}

/// The conflict-groups engine: plan a link-disjoint group, speculate only
/// on it, sweep the round's whole range in processing order committing
/// members by rules 1–2 and routing everything else (skipped demands and
/// mispredicted members) inline at its serial position.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_conflict_groups<
    R: Recorder,
    J: EventSink,
    T: Tracer + Send,
    O: FootprintOracle,
>(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
    window: usize,
    threads: usize,
    recorder: R,
    mut journal: J,
    tracer: &T,
    oracle: &mut O,
) -> (BatchOutcome, SpeculationStats) {
    let window = window.max(1);
    let mut st = state.clone();
    let idx = processing_order(net, &st, demands, order);

    let mut ctxs: Vec<RouterCtx<NoopRecorder, T>> = (0..worker_count(threads, window))
        .map(|_| RouterCtx::with_recorder_and_tracer(NoopRecorder, tracer.fork_worker()))
        .collect();
    let tracing = tracer.enabled();

    let guard = link_local_revalidation_sound(policy, net);
    let mut partitioner = ConflictPartitioner::new(net.link_count());
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut member_ids: Vec<usize> = Vec::new();
    let mut touched = vec![false; net.link_count()];
    let mut provisioned = Vec::new();
    let mut rejected = Vec::new();
    let mut total_cost = 0.0;
    let mut stats = SpeculationStats::default();

    let mut pos = 0;
    while pos < idx.len() {
        stats.rounds += 1;
        // Plan the round. Without the rule-2 guard only rule 1 can commit
        // — exactly one demand per round — so speculating a whole group
        // would discard all but the head's work; degenerate to the warm
        // serial loop instead.
        let plan = if guard && window > 1 {
            pairs.clear();
            pairs.extend(idx[pos..].iter().take(window * 2).map(|&i| {
                let d = demands[i];
                (d.src, d.dst)
            }));
            partitioner.plan(oracle, &pairs, window)
        } else {
            GroupPlan {
                members: vec![0],
                range: 1,
            }
        };
        if recorder.enabled() {
            recorder.observe(Hist::WindowOccupancy, plan.range as u64);
            recorder.observe(Hist::ConflictGroupSize, plan.members.len() as u64);
        }

        // Speculate on the group against the frozen (= live, immutably
        // borrowed) state.
        member_ids.clear();
        member_ids.extend(plan.members.iter().map(|&k| idx[pos + k]));
        let frozen = &st;
        let results = fan_out(&mut ctxs, &member_ids, |ctx, &i| {
            let d = demands[i];
            policy.route_ctx(ctx, net, frozen, d.src, d.dst)
        });
        if tracing {
            for ctx in &ctxs {
                tracer.absorb_worker(ctx.tracer());
            }
        }

        // Sweep the whole range in processing order.
        let n_members = plan.members.len() as u64;
        let mut appended: u64 = 0; // inline requests absorbed since the fold
        let mut member_rank: usize = 0;
        let mut results = results.into_iter();
        let mut committed_any = false;
        touched.iter_mut().for_each(|t| *t = false);
        for k in 0..plan.range {
            let i = idx[pos + k];
            if plan.members.get(member_rank) != Some(&k) {
                // Skipped by the partitioner: predicted to conflict with
                // the scanned prefix; route it at its serial position.
                stats.inline_routes += 1;
                if recorder.enabled() {
                    recorder.add(Counter::SpeculativeInlineRoutes, 1);
                }
                route_inline_serial(
                    net,
                    &mut st,
                    demands[i],
                    i,
                    policy,
                    &mut ctxs[0],
                    tracer,
                    tracing,
                    &mut journal,
                    oracle,
                    &mut touched,
                    &mut committed_any,
                    &mut provisioned,
                    &mut rejected,
                    &mut total_cost,
                );
                appended += 1;
                continue;
            }
            let res = results.next().expect("one result per group member");
            let back = (n_members - 1 - member_rank as u64) + appended;
            member_rank += 1;
            let committable = match &res {
                // Rule 1 / rule 2.
                Ok(route) => {
                    !committed_any
                        || (guard && route.footprint().links.iter().all(|e| !touched[e.index()]))
                }
                Err(err) => {
                    !committed_any
                        || match err {
                            RoutingError::DegenerateRequest => true,
                            RoutingError::NoDisjointPair | RoutingError::Unreachable { .. } => {
                                guard
                            }
                            _ => false,
                        }
                }
            };
            if committable {
                stats.commits += 1;
                if recorder.enabled() {
                    recorder.add(Counter::SpeculativeCommits, 1);
                }
                match res {
                    Ok(route) => {
                        let commit_t0 = tracer.now_ns();
                        let fp = route.footprint();
                        oracle.observe(demands[i].src, demands[i].dst, &fp);
                        for e in &fp.links {
                            touched[e.index()] = true;
                        }
                        route
                            .occupy(net, &mut st)
                            .expect("committed route's links are untouched since its snapshot");
                        if journal.enabled() {
                            journal.record(NetEvent::Provision {
                                id: i as u64,
                                channels: route.channels(),
                            });
                        }
                        total_cost += route.total_cost();
                        provisioned.push((i, route));
                        committed_any = true;
                        if tracing {
                            tracer.record_earlier(back, Phase::Commit, commit_t0);
                        }
                    }
                    Err(_) => rejected.push(i),
                }
            } else {
                // Misprediction: the member's footprint was touched since
                // its snapshot (or, guard off, anything committed first).
                // Rule 3, conflict-groups flavor: abort this attempt alone
                // and retry inline — a bounded cost of one routing call,
                // and the retry is serial-exact because live = serial
                // here. The round's tail is unaffected.
                stats.aborts += 1;
                stats.retries += 1;
                if recorder.enabled() {
                    recorder.add(
                        match &res {
                            Ok(_) if guard => Counter::SpeculativeAbortConflict,
                            Ok(_) => Counter::SpeculativeAbortOrdering,
                            Err(_) => Counter::SpeculativeAbortLoadShift,
                        },
                        1,
                    );
                    recorder.add(Counter::SpeculativeAborts, 1);
                    recorder.add(Counter::SpeculativeRetries, 1);
                }
                if tracing {
                    tracer.record_earlier(back, Phase::Abort, tracer.now_ns());
                }
                route_inline_serial(
                    net,
                    &mut st,
                    demands[i],
                    i,
                    policy,
                    &mut ctxs[0],
                    tracer,
                    tracing,
                    &mut journal,
                    oracle,
                    &mut touched,
                    &mut committed_any,
                    &mut provisioned,
                    &mut rejected,
                    &mut total_cost,
                );
                appended += 1;
            }
        }
        pos += plan.range;
    }

    let final_load = load_snapshot(net, &st);
    (
        BatchOutcome {
            provisioned,
            rejected,
            total_cost,
            final_load,
            state: st,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{full_mesh_demands, provision_batch};
    use wdm_core::journal::NoopSink;
    use wdm_core::network::NetworkBuilder;
    use wdm_core::predict::{AllConflictOracle, NoConflictOracle};
    use wdm_telemetry::{NoopTracer, TelemetrySink};

    fn nsfnet(w: usize) -> WdmNetwork {
        NetworkBuilder::nsfnet(w).build()
    }

    /// A network whose links all carry distinct uniform costs *and* whose
    /// conversion is free (rule 2 applies for cost-static policies —
    /// conversion must cost 0 or the G′ conversion-arc averages move with
    /// occupancy and link-local revalidation is unsound).
    fn distinct_net(w: usize) -> WdmNetwork {
        distinct_net_with_conversion(w, 0.0)
    }

    /// As [`distinct_net`] but with an explicit per-conversion cost — the
    /// `cost > 0` variants are the rule-2 counterexample family.
    fn distinct_net_with_conversion(w: usize, conv_cost: f64) -> WdmNetwork {
        use wdm_core::conversion::ConversionTable;
        let mut b = NetworkBuilder::new(w);
        let n = 10u32;
        let nodes: Vec<_> = (0..n)
            .map(|_| b.add_node(ConversionTable::Full { cost: conv_cost }))
            .collect();
        let mut c = 1.0;
        // A ring plus chords: well connected, every cost unique.
        for i in 0..n as usize {
            for j in [(i + 1) % n as usize, (i + 3) % n as usize] {
                b.add_link(nodes[i], nodes[j], c);
                c += 0.13;
                b.add_link(nodes[j], nodes[i], c);
                c += 0.13;
            }
        }
        b.build()
    }

    #[test]
    fn distinct_static_costs_detects_both_cases() {
        assert!(distinct_static_costs(&distinct_net(4)));
        // NSFNET's twin directed links share their length-derived cost.
        assert!(!distinct_static_costs(&nsfnet(4)));
    }

    #[test]
    fn revalidation_guard_requires_free_conversion() {
        let sound = distinct_net(4);
        assert!(zero_conversion_costs(&sound));
        assert!(link_local_revalidation_sound(Policy::CostOnly, &sound));

        let costly = distinct_net_with_conversion(4, 0.3);
        // Distinct static costs alone no longer satisfy the guard: with a
        // nonzero conversion cost the G′ conversion-arc average moves with
        // occupancy, which rule 2's link-local check cannot see.
        assert!(distinct_static_costs(&costly));
        assert!(!zero_conversion_costs(&costly));
        assert!(!link_local_revalidation_sound(Policy::CostOnly, &costly));
        // Load-sensitive policies never qualify regardless of the network.
        assert!(!link_local_revalidation_sound(
            Policy::Joint { a: 2.0 },
            &sound
        ));
    }

    /// The satellite regression for the PR 8 caveat: on a distinct-cost
    /// network with *nonzero* conversion cost, every speculative schedule
    /// must still be bit-identical to the serial fold — which it can only
    /// guarantee by not relying on link-local revalidation there.
    #[test]
    fn nonzero_conversion_cost_stays_bit_identical_to_serial() {
        let net = distinct_net_with_conversion(4, 0.3);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(10, 1);
        let serial = provision_batch(&net, &st, &demands, Policy::CostOnly, BatchOrder::AsGiven);
        for schedule in [
            ScheduleMode::ConflictGroups,
            ScheduleMode::Sharded { shards: 3 },
        ] {
            for window in [2, 8, 64] {
                let (spec, stats) = provision_batch_speculative_scheduled(
                    &net,
                    &st,
                    &demands,
                    Policy::CostOnly,
                    BatchOrder::AsGiven,
                    window,
                    schedule,
                    0,
                    NoopRecorder,
                    NoopSink,
                    &NoopTracer,
                );
                assert_outcomes_identical(&serial, &spec);
                assert_stats_accounted(&stats, demands.len());
            }
        }
    }

    fn assert_outcomes_identical(a: &BatchOutcome, b: &BatchOutcome) {
        assert_eq!(a.provisioned, b.provisioned);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        assert_eq!(a.final_load, b.final_load);
        assert_eq!(a.state, b.state);
    }

    /// The conservation law: every demand commits exactly once, through
    /// exactly one of the three paths.
    fn assert_stats_accounted(stats: &SpeculationStats, demands: usize) {
        assert_eq!(
            stats.commits + stats.retries + stats.inline_routes,
            demands as u64
        );
        assert_eq!(stats.aborts, stats.retries);
    }

    #[test]
    fn speculative_matches_serial_on_distinct_cost_net() {
        let net = distinct_net(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(10, 1);
        let serial = provision_batch(&net, &st, &demands, Policy::CostOnly, BatchOrder::AsGiven);
        for schedule in [
            ScheduleMode::ConflictGroups,
            ScheduleMode::Sharded { shards: 3 },
        ] {
            for window in [1, 2, 8, 64] {
                let (spec, stats) = provision_batch_speculative_scheduled(
                    &net,
                    &st,
                    &demands,
                    Policy::CostOnly,
                    BatchOrder::AsGiven,
                    window,
                    schedule,
                    0,
                    NoopRecorder,
                    NoopSink,
                    &NoopTracer,
                );
                assert_outcomes_identical(&serial, &spec);
                assert_stats_accounted(&stats, demands.len());
            }
        }
    }

    #[test]
    fn speculative_matches_serial_without_rule_two() {
        // NSFNET + a load-sensitive policy: the guard is off, so
        // conflict-groups mode degenerates to one demand per round.
        // Correctness must not depend on rule 2.
        let net = nsfnet(8);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(14, 1);
        let policy = Policy::Joint { a: 2.0 };
        let serial = provision_batch(&net, &st, &demands, policy, BatchOrder::LongestFirst);
        let (spec, stats) = provision_batch_speculative_scheduled(
            &net,
            &st,
            &demands,
            policy,
            BatchOrder::LongestFirst,
            8,
            ScheduleMode::ConflictGroups,
            0,
            NoopRecorder,
            NoopSink,
            &NoopTracer,
        );
        assert_outcomes_identical(&serial, &spec);
        // Guard off: one rule-1 commit per round, nothing wasted.
        assert_eq!(stats.commits, demands.len() as u64);
        assert_eq!(stats.aborts, 0);
        assert_eq!(stats.inline_routes, 0);
        assert_eq!(stats.rounds, demands.len() as u64);
    }

    #[test]
    fn junk_oracles_only_cost_retries_or_parallelism() {
        // The no-conflict oracle predicts nothing, so the partitioner
        // speculates greedily and every real conflict becomes a retry;
        // the all-conflict oracle serialises everything. Both must stay
        // bit-identical to serial.
        let net = distinct_net(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(10, 1);
        let serial = provision_batch(&net, &st, &demands, Policy::CostOnly, BatchOrder::AsGiven);

        let mut optimist = NoConflictOracle;
        let (spec, stats) = provision_batch_speculative_with_oracle(
            &net,
            &st,
            &demands,
            Policy::CostOnly,
            BatchOrder::AsGiven,
            16,
            NoopRecorder,
            NoopSink,
            &NoopTracer,
            &mut optimist,
        );
        assert_outcomes_identical(&serial, &spec);
        assert_stats_accounted(&stats, demands.len());
        // Empty predictions mean nothing is ever skipped — conflicts
        // surface as bounded retries instead.
        assert_eq!(stats.inline_routes, 0);

        let mut pessimist = AllConflictOracle {
            links: net.link_count(),
        };
        let (spec, stats) = provision_batch_speculative_with_oracle(
            &net,
            &st,
            &demands,
            Policy::CostOnly,
            BatchOrder::AsGiven,
            16,
            NoopRecorder,
            NoopSink,
            &NoopTracer,
            &mut pessimist,
        );
        assert_outcomes_identical(&serial, &spec);
        // Everything conflicts: singleton groups, a pure serial loop.
        assert_eq!(stats.commits, demands.len() as u64);
        assert_eq!(stats.aborts, 0);
        assert_eq!(stats.rounds, demands.len() as u64);
    }

    #[test]
    fn counters_match_stats_and_windows_are_recorded() {
        let net = distinct_net(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(10, 1);
        let sink = TelemetrySink::new();
        let (_, stats) = provision_batch_speculative_scheduled(
            &net,
            &st,
            &demands,
            Policy::CostOnly,
            BatchOrder::AsGiven,
            8,
            ScheduleMode::ConflictGroups,
            0,
            &sink,
            NoopSink,
            &NoopTracer,
        );
        let snap = sink.snapshot();
        assert_eq!(snap.counters["speculative_commits"], stats.commits);
        assert_eq!(snap.counters["speculative_aborts"], stats.aborts);
        assert_eq!(snap.counters["speculative_retries"], stats.retries);
        assert_eq!(
            snap.counters["speculative_inline_routes"],
            stats.inline_routes
        );
        let occ = &snap.histograms["window_occupancy"];
        assert_eq!(occ.count, stats.rounds);
        let grp = &snap.histograms["conflict_group_size"];
        assert_eq!(grp.count, stats.rounds);
        // Group size never exceeds the window.
        assert!(grp.max <= 8);
        // No routing telemetry leaks from the speculated calls.
        assert_eq!(snap.counters["suurballe_searches"], 0);
    }

    #[test]
    fn degenerate_and_infeasible_demands_reject_identically() {
        let net = distinct_net(2);
        let st = ResidualState::fresh(&net);
        let mut demands = vec![Demand::new(3, 3)]; // degenerate
        demands.extend(full_mesh_demands(10, 1));
        demands.push(Demand::new(5, 5));
        let serial = provision_batch(&net, &st, &demands, Policy::CostOnly, BatchOrder::AsGiven);
        assert!(!serial.rejected.is_empty());
        let (spec, _) = provision_batch_speculative_scheduled(
            &net,
            &st,
            &demands,
            Policy::CostOnly,
            BatchOrder::AsGiven,
            16,
            ScheduleMode::ConflictGroups,
            0,
            NoopRecorder,
            NoopSink,
            &NoopTracer,
        );
        assert_outcomes_identical(&serial, &spec);
    }

    #[test]
    fn observed_conflict_groups_attach_spans_to_every_attempt() {
        use wdm_telemetry::SpanBuffer;

        // Dense mesh on a distinct-cost net: the partitioner both skips
        // demands (inline routes) and occasionally mispredicts (retries),
        // exercising the mid-sweep span accounting.
        let net = distinct_net(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(10, 1);
        let tracer = SpanBuffer::new();
        let (out, stats) = provision_batch_speculative_scheduled(
            &net,
            &st,
            &demands,
            Policy::CostOnly,
            BatchOrder::AsGiven,
            16,
            ScheduleMode::ConflictGroups,
            0,
            NoopRecorder,
            NoopSink,
            &tracer,
        );
        assert_stats_accounted(&stats, demands.len());
        // One request per routing attempt: speculated (commits + aborts)
        // plus inline (skipped + retries).
        assert_eq!(
            tracer.requests_begun(),
            stats.commits + stats.aborts + stats.inline_routes + stats.retries
        );
        let recs = tracer.records();
        let commits = recs.iter().filter(|r| r.phase == Phase::Commit).count();
        assert_eq!(commits, out.provisioned.len());
        let aborts = recs.iter().filter(|r| r.phase == Phase::Abort).count() as u64;
        assert_eq!(aborts, stats.aborts);
    }

    #[test]
    fn empty_batch_runs_no_rounds() {
        let net = distinct_net(4);
        let st = ResidualState::fresh(&net);
        let (out, stats) = provision_batch_speculative_scheduled(
            &net,
            &st,
            &[],
            Policy::CostOnly,
            BatchOrder::AsGiven,
            8,
            ScheduleMode::ConflictGroups,
            0,
            NoopRecorder,
            NoopSink,
            &NoopTracer,
        );
        assert!(out.provisioned.is_empty() && out.rejected.is_empty());
        assert_eq!(stats, SpeculationStats::default());
    }
}
