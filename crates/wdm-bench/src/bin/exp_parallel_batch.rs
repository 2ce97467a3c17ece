//! Experiment — speculative parallel batch provisioning vs the serial loop.
//!
//! ```sh
//! cargo run --release -p wdm-bench --bin exp_parallel_batch            # full
//! cargo run --release -p wdm-bench --bin exp_parallel_batch -- --quick # smoke
//! cargo run --release -p wdm-bench --bin exp_parallel_batch -- --threads 4
//! ```
//!
//! Provisions the same demand batch on an m≈800-link, W=8 instance two
//! ways and reports ns/demand:
//!
//! * **serial** — [`provision_batch`], the pre-engine baseline: one
//!   throwaway router context (a full auxiliary-graph construction) per
//!   demand;
//! * **conflict-groups(K)** — the conflict-aware scheduler at window
//!   sizes K ∈ {1, 2, 8, 64}: footprint-predicted link-disjoint groups,
//!   inline serial routing for predicted conflicts, bounded retry on
//!   mispredictions.
//!
//! `--threads N` pins the speculative engines' worker count (default 1,
//! so the committed curves are reproducible on any host; `0` = all
//! cores).
//!
//! A second section sweeps the **sharded** engine (EXPERIMENTS.md A9):
//! an S × N grid (shards × worker threads) at K = 64 on a *locality*
//! instance of the same size — a ring with short chords, the shardable
//! shape of a geographically laid-out WAN — under a locality-biased
//! demand mix, against the serial baseline.
//! The expander-style instance above is deliberately not used there:
//! random global chords give every partition a huge cut, which is a
//! property of the topology, not the engine (the report records the
//! expander's cut ratio for reference).
//!
//! Every speculative pass is asserted bit-identical to the serial outcome
//! (the engine's contract), so the speedup is measured on provably equal
//! work. On a single-core host the gain is the engine reuse; with more
//! cores the window also routes concurrently — the sharded grid records
//! `single_core_host` so readers know which committed curves could not
//! show thread scaling.
//!
//! Timed passes run unrecorded; a separate untimed instrumented pass per
//! configuration collects the abort-cause counters and the
//! conflict-group-size histogram into the report.
//!
//! Writes the machine-readable results to `BENCH_parallel_batch.json` in
//! the working directory (the committed artifact lives at the repo root).
//! CI gates the K=8 speedup via `wdm telemetry diff`, the K=64 scaling
//! (`k64_vs_k8_speedup`, K=64 abort rate) via `wdm telemetry assert`, and
//! the sharded grid (`sharded.wallclock_speedup_n4` and friends) in the
//! `shard-parallel` job.

use rand::Rng;
use wdm_bench::{rng, timed, Table};
use wdm_core::conversion::ConversionTable;
use wdm_core::journal::NoopSink;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::partition::TopologyPartition;
use wdm_core::predict::LocalityPredictor;
use wdm_sim::batch::{provision_batch, BatchOrder, BatchOutcome, Demand};
use wdm_sim::policy::Policy;
use wdm_sim::schedule::ScheduleMode;
use wdm_sim::sharded::provision_batch_sharded;
use wdm_sim::speculative::{
    link_local_revalidation_sound, provision_batch_speculative_scheduled, SpeculationStats,
};
use wdm_telemetry::{NoopRecorder, NoopTracer, TelemetrySink};

#[derive(Debug, Default, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct AbortCauses {
    conflict: u64,
    ordering: u64,
    load_shift: u64,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct WindowResult {
    window: usize,
    ns_per_demand: f64,
    speedup: f64,
    rounds: u64,
    abort_rate: f64,
    retries: u64,
    inline_routes: u64,
    abort_causes: AbortCauses,
    group_size_mean: f64,
    group_size_max: u64,
}

/// One `(shards, threads, window)` cell of the sharded grid. The stats
/// fields (`cut_demand_ratio`, `abort_rate`, `rounds`, `inline_routes`)
/// are deterministic functions of the instance — they never vary with the
/// thread count or the host — so CI can gate them on any runner.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ShardedCell {
    shards: usize,
    threads: usize,
    window: usize,
    ns_per_demand: f64,
    speedup_vs_serial: f64,
    cut_demand_ratio: f64,
    abort_rate: f64,
    inline_routes: u64,
    rounds: u64,
    /// Aborts whose shard had already diverged (poisoned lineage) when
    /// the sweep reached them.
    lineage_aborts: u64,
    /// Aborts whose committed-candidate route escaped its home shard.
    escape_aborts: u64,
    /// Link-level conflicts that stayed channel-feasible on the live
    /// state and committed without a retry (no poisoning).
    verified_commits: u64,
}

/// The sharded S × N sweep on the locality instance (EXPERIMENTS.md A9).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ShardedReport {
    nodes: usize,
    links: usize,
    wavelengths: usize,
    demands: usize,
    /// Fraction of demands drawn from the near-pair (intra-shard-biased)
    /// distribution.
    locality_fraction: f64,
    /// Worker threads the host can actually run in parallel; `true` means
    /// the committed wall-clock cells could not show thread scaling.
    single_core_host: bool,
    host_threads: usize,
    serial_ns_per_demand: f64,
    cells: Vec<ShardedCell>,
    /// ns(S=4, N=1, K=64) / ns(S=4, N=4, K=64) — the multi-core
    /// wall-clock gain of the sharded engine itself. CI gates ≥ 1.8 on
    /// its 4-vCPU runners.
    wallclock_speedup_n4: f64,
    /// speedup(S=4, N=4, K=64) / speedup(S=4, N=4, K=8): flat-or-better
    /// scaling into the contention tail.
    k64_vs_k8_speedup: f64,
    /// Demand-level cut ratio at S=4 (deterministic; Amdahl's serial
    /// fraction for the sharded engine).
    cut_demand_ratio_s4: f64,
    abort_rate_s4n4: f64,
    /// Link-level cut ratio of the S=4 partition on the locality
    /// instance…
    cut_link_ratio_s4: f64,
    /// …and on the expander instance above, for contrast: random global
    /// chords leave any 4-way partition with most links in the cut, which
    /// is why the sharded sweep runs on the locality instance.
    expander_cut_link_ratio_s4: f64,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchReport {
    bench: String,
    unit: String,
    nodes: usize,
    links: usize,
    wavelengths: usize,
    demands: usize,
    /// Worker-thread count used for the conflict-groups sweep
    /// (`--threads`, default 1 so committed curves are host-independent).
    threads: usize,
    serial_ns_per_demand: f64,
    /// Conflict-groups scheduling — the headline numbers CI gates on.
    windows: Vec<WindowResult>,
    /// Scaling headroom: speedup(K=64) / speedup(K=8) under
    /// conflict-groups. Near-monotone scaling keeps this near (or above)
    /// 1.0.
    k64_vs_k8_speedup: f64,
    /// The sharded engine's S × N grid on the locality instance.
    sharded: ShardedReport,
}

/// A connected instance whose directed links carry pairwise-distinct
/// uniform costs (cost rank k lands in (k, k+1)), so commit rule 2's
/// guard holds: a bidirected ring plus random chords up to the requested
/// average degree. Conversion is free — with a nonzero cost the G′
/// conversion-arc averages move with occupancy, the guard (correctly)
/// turns rule 2 off, and this bench would no longer measure the
/// revalidating engine at all.
fn distinct_cost_instance(rng: &mut impl Rng, n: usize, avg_degree: usize, w: usize) -> WdmNetwork {
    let mut b = NetworkBuilder::new(w);
    let nodes: Vec<_> = (0..n)
        .map(|_| b.add_node(ConversionTable::Full { cost: 0.0 }))
        .collect();
    let mut k = 0.0f64;
    let mut next_cost = move |u: f64| {
        let c = k + u;
        k += 1.0;
        c
    };
    for i in 0..n {
        let j = (i + 1) % n;
        let c = next_cost(rng.gen_range(0.05..0.95));
        b.add_link(nodes[i], nodes[j], c);
        let c = next_cost(rng.gen_range(0.05..0.95));
        b.add_link(nodes[j], nodes[i], c);
    }
    let chords = n * avg_degree - 2 * n; // directed links beyond the ring
    let mut added = 0;
    while added < chords {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            let c = next_cost(rng.gen_range(0.05..0.95));
            b.add_link(nodes[i], nodes[j], c);
            added += 1;
        }
    }
    b.build()
}

/// The shardable counterpart of [`distinct_cost_instance`]: a bidirected
/// ring plus *short-span* directed chords, the shape of a geographically
/// laid-out WAN where fibre follows the right-of-way. Same size (m = 4n),
/// but with two deliberate differences. Costs are pairwise distinct (the
/// rule 2 guard) yet *nearly uniform* (`1 + ε`, ε random in
/// `(1e-4, 1e-3)` — random so path-cost *sums* never tie exactly, which
/// quantised ε values would), so routing is hop-minimal and a demand's
/// route stays inside the tight corridor between its endpoints instead of
/// detouring toward whichever arc a rank ordering made cheap. And a
/// BFS-grown partition cuts only the few links straddling shard
/// boundaries instead of most of the chord set.
fn locality_instance(rng: &mut impl Rng, n: usize, w: usize) -> WdmNetwork {
    let mut b = NetworkBuilder::new(w);
    // Conversion must be *free* here, not merely cheap. The §3.3 G′
    // conversion-arc weight averages the allowed λ_a → λ_b pair costs, and
    // same-λ pairs cost 0 — so with a nonzero conversion cost the average
    // moves whenever channel occupancy reshapes the two adjacent links'
    // availability sets. Under this instance's ~1e-4 static-cost gaps such
    // shifts (up to cost/2) flip the Suurballe argmin between pairs whose
    // own links are untouched, which commit rule 2 cannot see. At cost 0
    // every pair averages to exactly 0 and the auxiliary weights are
    // link-local, making speculation bit-identical to serial again.
    let nodes: Vec<_> = (0..n)
        .map(|_| b.add_node(ConversionTable::Full { cost: 0.0 }))
        .collect();
    for i in 0..n {
        let j = (i + 1) % n;
        let c = 1.0 + rng.gen_range(1e-4..1e-3);
        b.add_link(nodes[i], nodes[j], c);
        let c = 1.0 + rng.gen_range(1e-4..1e-3);
        b.add_link(nodes[j], nodes[i], c);
    }
    // One forward and one backward span-2 chord per node keeps m = 4n,
    // matching the expander instance link-for-link, while giving every
    // demand a ring-disjoint alternate path. Spans stay minimal: a chord
    // is one hop, so the chord span bounds how far a radius-1 predictor
    // ball reaches — and with it how wide the misclassification margin
    // around each shard boundary is.
    for i in 0..n {
        let c = 1.0 + rng.gen_range(1e-4..1e-3);
        b.add_link(nodes[i], nodes[(i + 2) % n], c);
        let c = 1.0 + rng.gen_range(1e-4..1e-3);
        b.add_link(nodes[i], nodes[(i + n - 2) % n], c);
    }
    b.build()
}

/// Fraction of demands drawn near their source; the rest are mid-haul
/// pairs (the cross-shard background traffic that lands on the inline
/// path).
const LOCALITY_FRACTION: f64 = 0.95;
/// Near demands sit within this ring distance of their source — small
/// against the ~n/S nodes of one shard, so most of them classify
/// intra-shard.
const NEAR_SPAN: usize = 4;
/// Far demands span this ring-distance band: long enough to cross shard
/// boundaries, short enough that each inline route costs a bounded
/// multiple of a near route (the inline path is the engine's Amdahl
/// bottleneck, so its per-demand cost matters as much as its count).
const FAR_SPAN: std::ops::RangeInclusive<usize> = 10..=16;

/// A locality-biased demand mix: `LOCALITY_FRACTION` of pairs within
/// `NEAR_SPAN` ring hops (either direction), the rest in the `FAR_SPAN`
/// band — sorted short-spans-first (stable, so same-span demands keep
/// their arrival order). The sort is the workload's arrival discipline,
/// not an engine feature: interleaving long-haul demands into every round
/// would let each one stamp foreign links across a shard's interior and
/// poison that shard's whole round, so batching them into their own tail
/// rounds is how an operator would schedule this mix anyway.
fn locality_demands(rng: &mut impl Rng, n: usize, count: usize) -> Vec<Demand> {
    let mut demands: Vec<Demand> = (0..count)
        .map(|_| {
            let s = rng.gen_range(0..n);
            let off = if rng.gen_bool(LOCALITY_FRACTION) {
                rng.gen_range(1..=NEAR_SPAN)
            } else {
                rng.gen_range(FAR_SPAN)
            };
            let t = if rng.gen_bool(0.5) {
                (s + off) % n
            } else {
                (s + n - off) % n
            };
            Demand::new(s as u32, t as u32)
        })
        .collect();
    let ring_span = |d: &Demand| {
        let fwd = (d.dst.0 + n as u32 - d.src.0) % n as u32;
        fwd.min(n as u32 - fwd)
    };
    demands.sort_by_key(ring_span);
    demands
}

fn assert_outcomes_identical(serial: &BatchOutcome, spec: &BatchOutcome, window: usize) {
    assert_eq!(serial.provisioned, spec.provisioned, "window {window}");
    assert_eq!(serial.rejected, spec.rejected, "window {window}");
    assert_eq!(
        serial.total_cost.to_bits(),
        spec.total_cost.to_bits(),
        "window {window}"
    );
    assert_eq!(serial.state, spec.state, "window {window}");
}

const WINDOWS: [usize; 4] = [1, 2, 8, 64];

/// The conflict-groups sweep: timed min-of-`passes` ns/demand per window
/// (unrecorded), plus one untimed instrumented pass for the counters and
/// the group-size histogram.
#[allow(clippy::too_many_arguments)]
fn sweep(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
    threads: usize,
    reference: &BatchOutcome,
    serial_ns: f64,
    passes: usize,
) -> Vec<WindowResult> {
    let mut secs_min = [f64::INFINITY; WINDOWS.len()];
    let mut stats_by_window = [SpeculationStats::default(); WINDOWS.len()];
    for _ in 0..passes {
        for (slot, &window) in WINDOWS.iter().enumerate() {
            let ((out, stats), secs) = timed(|| {
                provision_batch_speculative_scheduled(
                    net,
                    state,
                    demands,
                    policy,
                    order,
                    window,
                    ScheduleMode::ConflictGroups,
                    threads,
                    NoopRecorder,
                    NoopSink,
                    &NoopTracer,
                )
            });
            assert_outcomes_identical(reference, &out, window);
            secs_min[slot] = secs_min[slot].min(secs);
            stats_by_window[slot] = stats;
        }
    }

    WINDOWS
        .iter()
        .zip(&secs_min)
        .zip(&stats_by_window)
        .map(|((&window, &secs), stats)| {
            let sink = TelemetrySink::new();
            let _ = provision_batch_speculative_scheduled(
                net,
                state,
                demands,
                policy,
                order,
                window,
                ScheduleMode::ConflictGroups,
                threads,
                &sink,
                NoopSink,
                &NoopTracer,
            );
            let snap = sink.snapshot();
            // Absent entries mean "never recorded": a run may simply not
            // abort.
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            let grp = snap.histograms.get("conflict_group_size");
            let ns = secs / demands.len() as f64 * 1e9;
            WindowResult {
                window,
                ns_per_demand: ns,
                speedup: serial_ns / ns,
                rounds: stats.rounds,
                abort_rate: stats.abort_rate(),
                retries: stats.retries,
                inline_routes: stats.inline_routes,
                abort_causes: AbortCauses {
                    conflict: counter("speculative_abort_conflict"),
                    ordering: counter("speculative_abort_ordering"),
                    load_shift: counter("speculative_abort_load_shift"),
                },
                group_size_mean: grp.map_or(0.0, |g| if g.count > 0 { g.mean() } else { 0.0 }),
                group_size_max: grp.map_or(0, |g| g.max),
            }
        })
        .collect()
}

/// One timed sharded grid cell: min-of-`passes` ns/demand plus the
/// speculation stats (which are thread-count-independent — the worker
/// fan-out changes only wall-clock time, never the round structure).
#[allow(clippy::too_many_arguments)]
fn sharded_cell(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
    window: usize,
    shards: usize,
    threads: usize,
    reference: &BatchOutcome,
    serial_ns: f64,
    passes: usize,
) -> ShardedCell {
    let mut secs_min = f64::INFINITY;
    let mut stats_last = SpeculationStats::default();
    for _ in 0..passes {
        let ((out, stats), secs) = timed(|| {
            // A fresh radius-1 oracle per pass keeps every pass identical
            // (the predictor builds its balls lazily) and classifies more
            // demands intra-shard than the engine's default radius-2 —
            // misclassification only costs bounded retries.
            let mut oracle = LocalityPredictor::new(net, 1);
            provision_batch_sharded(
                net,
                state,
                demands,
                policy,
                order,
                window,
                shards,
                threads,
                NoopRecorder,
                NoopSink,
                &NoopTracer,
                &mut oracle,
            )
        });
        assert_outcomes_identical(reference, &out, window);
        secs_min = secs_min.min(secs);
        stats_last = stats;
    }
    // One untimed instrumented pass for the abort split.
    let sink = TelemetrySink::new();
    let mut oracle = LocalityPredictor::new(net, 1);
    let _ = provision_batch_sharded(
        net,
        state,
        demands,
        policy,
        order,
        window,
        shards,
        threads,
        &sink,
        NoopSink,
        &NoopTracer,
        &mut oracle,
    );
    let snap = sink.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let ns = secs_min / demands.len() as f64 * 1e9;
    ShardedCell {
        shards,
        threads,
        window,
        ns_per_demand: ns,
        speedup_vs_serial: serial_ns / ns,
        cut_demand_ratio: stats_last.cut_demands as f64 / demands.len() as f64,
        abort_rate: stats_last.abort_rate(),
        inline_routes: stats_last.inline_routes,
        rounds: stats_last.rounds,
        lineage_aborts: counter("sharded_lineage_aborts"),
        escape_aborts: counter("sharded_escape_aborts"),
        verified_commits: counter("sharded_verified_commits"),
    }
}

fn print_mode(table: &mut Table, label: &str, results: &[WindowResult]) {
    for res in results {
        table.row(vec![
            format!("{label} K={}", res.window),
            format!("{:.0}", res.ns_per_demand),
            format!("{:.2}x", res.speedup),
            res.rounds.to_string(),
            format!("{:.1}%", res.abort_rate * 100.0),
            res.inline_routes.to_string(),
            format!("{:.1}", res.group_size_mean),
        ]);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    // Worker threads for the conflict-groups sweep. Default 1:
    // the committed curves measure the engine, not the host's core count.
    let threads: usize = argv
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| argv.get(i + 1))
        .map(|v| v.parse().expect("--threads wants a worker count"))
        .unwrap_or(1);
    let (n, demand_count, passes) = if quick { (60, 150, 2) } else { (200, 1000, 3) };
    let (d, w) = (4usize, 8usize);

    let mut r = rng(0xBA7C4);
    let net = distinct_cost_instance(&mut r, n, d, w);
    assert!(
        link_local_revalidation_sound(Policy::CostOnly, &net),
        "instance must satisfy the full rule 2 guard \
         (distinct uniform costs + free conversion)"
    );
    let state = ResidualState::fresh(&net);
    let demands: Vec<Demand> = {
        let mut rr = rng(0xBA7C5);
        (0..demand_count)
            .map(|_| loop {
                let s = rr.gen_range(0..n as u32);
                let t = rr.gen_range(0..n as u32);
                if s != t {
                    return Demand::new(s, t);
                }
            })
            .collect()
    };
    let policy = Policy::CostOnly;
    let order = BatchOrder::AsGiven;

    println!(
        "parallel-batch — conflict-groups speculation vs serial \
         (n={n}, m={}, W={w}, {demand_count} demands, CostOnly, \
         {threads} worker thread(s))\n",
        net.link_count()
    );

    // Untimed reference run: warms the caches and pins the outcome every
    // timed pass must reproduce bit-identically.
    let reference = provision_batch(&net, &state, &demands, policy, order);

    // Keep each configuration's fastest pass: the minimum is the run
    // least disturbed by other tenants of the machine, so the speedup
    // ratio is stable enough for CI to gate on (a single-pass measurement
    // swings ±25 % on a busy box).
    let mut serial_secs = f64::INFINITY;
    for _ in 0..passes {
        let (out, secs) = timed(|| provision_batch(&net, &state, &demands, policy, order));
        assert_outcomes_identical(&reference, &out, 0);
        serial_secs = serial_secs.min(secs);
    }
    let serial_ns = serial_secs / demand_count as f64 * 1e9;

    let groups = sweep(
        &net, &state, &demands, policy, order, threads, &reference, serial_ns, passes,
    );

    let mut table = Table::new(&[
        "config",
        "ns/demand",
        "speedup",
        "rounds",
        "abort rate",
        "inline",
        "grp mean",
    ]);
    table.row(vec![
        String::from("serial"),
        format!("{serial_ns:.0}"),
        String::from("1.00x"),
        String::from("-"),
        String::from("-"),
        String::from("-"),
        String::from("-"),
    ]);
    print_mode(&mut table, "conflict-groups", &groups);
    table.print();

    let speedup_at = |rs: &[WindowResult], k: usize| {
        rs.iter()
            .find(|r| r.window == k)
            .map(|r| r.speedup)
            .expect("window measured")
    };
    let k64_vs_k8 = speedup_at(&groups, 64) / speedup_at(&groups, 8);
    println!("\nscaling: conflict-groups K=64 at {k64_vs_k8:.2} of K=8 speedup");

    // ── Sharded S × N grid on the locality instance (A9) ──────────────
    let lnet = locality_instance(&mut rng(0xBA7C6), n, w);
    assert!(
        link_local_revalidation_sound(Policy::CostOnly, &lnet),
        "locality instance must satisfy the full rule 2 guard \
         (distinct uniform costs + free conversion)"
    );
    let lstate = ResidualState::fresh(&lnet);
    let ldemands = locality_demands(&mut rng(0xBA7C7), n, demand_count);
    let lreference = provision_batch(&lnet, &lstate, &ldemands, policy, order);

    let mut lserial_secs = f64::INFINITY;
    for _ in 0..passes {
        let (out, secs) = timed(|| provision_batch(&lnet, &lstate, &ldemands, policy, order));
        assert_outcomes_identical(&lreference, &out, 0);
        lserial_secs = lserial_secs.min(secs);
    }
    let lserial_ns = lserial_secs / demand_count as f64 * 1e9;

    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut cells = Vec::new();
    for shards in [2usize, 4, 8] {
        for nt in [1usize, 2, 4] {
            cells.push(sharded_cell(
                &lnet,
                &lstate,
                &ldemands,
                policy,
                order,
                64,
                shards,
                nt,
                &lreference,
                lserial_ns,
                passes,
            ));
        }
    }
    // One shallow-window cell to anchor the K=64-vs-K=8 scaling ratio.
    cells.push(sharded_cell(
        &lnet,
        &lstate,
        &ldemands,
        policy,
        order,
        8,
        4,
        4,
        &lreference,
        lserial_ns,
        passes,
    ));

    println!(
        "\nsharded — locality instance (n={n}, m={}, W={w}, {demand_count} demands, \
         {:.0}% near pairs; host can run {host_threads} thread(s))\n",
        lnet.link_count(),
        LOCALITY_FRACTION * 100.0
    );
    let mut stable = Table::new(&[
        "config",
        "ns/demand",
        "speedup",
        "cut dem",
        "abort rate",
        "lin/esc/ver",
        "inline",
        "rounds",
    ]);
    stable.row(vec![
        String::from("serial"),
        format!("{lserial_ns:.0}"),
        String::from("1.00x"),
        String::from("-"),
        String::from("-"),
        String::from("-"),
        String::from("-"),
        String::from("-"),
    ]);
    for c in &cells {
        stable.row(vec![
            format!("sharded S={} N={} K={}", c.shards, c.threads, c.window),
            format!("{:.0}", c.ns_per_demand),
            format!("{:.2}x", c.speedup_vs_serial),
            format!("{:.1}%", c.cut_demand_ratio * 100.0),
            format!("{:.1}%", c.abort_rate * 100.0),
            format!(
                "{}/{}/{}",
                c.lineage_aborts, c.escape_aborts, c.verified_commits
            ),
            c.inline_routes.to_string(),
            c.rounds.to_string(),
        ]);
    }
    stable.print();

    let cell = |s: usize, nt: usize, k: usize| {
        cells
            .iter()
            .find(|c| c.shards == s && c.threads == nt && c.window == k)
            .expect("cell measured")
    };
    let wallclock_speedup_n4 = cell(4, 1, 64).ns_per_demand / cell(4, 4, 64).ns_per_demand;
    let shard_k64_vs_k8 = cell(4, 4, 64).speedup_vs_serial / cell(4, 4, 8).speedup_vs_serial;
    let cut_demand_ratio_s4 = cell(4, 1, 64).cut_demand_ratio;
    let abort_rate_s4n4 = cell(4, 4, 64).abort_rate;
    println!(
        "\nsharded scaling: N=1→N=4 wall-clock {wallclock_speedup_n4:.2}x, \
         K64/K8 {shard_k64_vs_k8:.2}, cut demands {:.1}%",
        cut_demand_ratio_s4 * 100.0
    );

    // 0x5AD5 is the engine's fixed partition seed, so these reference
    // ratios describe the exact partitions the cells above ran on.
    let cut_link_ratio_s4 = TopologyPartition::grow(&lnet, 4, 0x5AD5).cut_ratio();
    let expander_cut_link_ratio_s4 = TopologyPartition::grow(&net, 4, 0x5AD5).cut_ratio();

    let sharded = ShardedReport {
        nodes: n,
        links: lnet.link_count(),
        wavelengths: w,
        demands: demand_count,
        locality_fraction: LOCALITY_FRACTION,
        single_core_host: host_threads == 1,
        host_threads,
        serial_ns_per_demand: lserial_ns,
        cells,
        wallclock_speedup_n4,
        k64_vs_k8_speedup: shard_k64_vs_k8,
        cut_demand_ratio_s4,
        abort_rate_s4n4,
        cut_link_ratio_s4,
        expander_cut_link_ratio_s4,
    };

    let report = BenchReport {
        bench: String::from("parallel_batch"),
        unit: String::from("ns_per_demand"),
        nodes: n,
        links: net.link_count(),
        wavelengths: w,
        demands: demand_count,
        threads,
        serial_ns_per_demand: serial_ns,
        windows: groups,
        k64_vs_k8_speedup: k64_vs_k8,
        sharded,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_parallel_batch.json", &json).expect("write BENCH_parallel_batch.json");
    println!("wrote BENCH_parallel_batch.json");
}
