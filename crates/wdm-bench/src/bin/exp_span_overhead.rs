//! Experiment — span-tracing A/B overhead on the routing hot path.
//!
//! ```sh
//! cargo run --release -p wdm-bench --bin exp_span_overhead            # full
//! cargo run --release -p wdm-bench --bin exp_span_overhead -- --quick # smoke
//! ```
//!
//! Routes the same churn-interleaved request stream three ways and reports
//! ns/request:
//!
//! * **oneshot**  — a fresh [`RobustRouteFinder`] per request (cold
//!   skeleton every time, the pre-engine baseline);
//! * **ctx_noop** — a persistent [`RouterCtx`] with the [`NoopTracer`]
//!   default: every span site is gated on an `#[inline(always)] false`,
//!   so this must price in at the uninstrumented hot path;
//! * **ctx_span** — the same context with a live [`SpanBuffer`]: two
//!   clock reads and a `Vec` push per phase.
//!
//! The acceptance criterion is the `ctx_noop` leg: `gate_speedup`
//! (oneshot / ctx_noop) must not regress when span instrumentation is
//! compiled in disabled, and `span_overhead_pct` documents the live cost.
//! Writes the machine-readable results to `BENCH_span_overhead.json` in
//! the working directory (the committed artifact lives at the repo root).
//!
//! [`NoopTracer`]: wdm_telemetry::NoopTracer

use rand::Rng;
use wdm_bench::{random_connected_instance, rng, timed, Table};
use wdm_core::aux_engine::RouterCtx;
use wdm_core::disjoint::{robust_route_ctx, RobustRouteFinder};
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::wavelength::Wavelength;
use wdm_graph::{EdgeId, NodeId};
use wdm_telemetry::{NoopRecorder, SpanBuffer, Tracer};

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct SizeResult {
    name: String,
    nodes: usize,
    links: usize,
    wavelengths: usize,
    requests: usize,
    oneshot_ns_per_req: f64,
    ctx_noop_ns_per_req: f64,
    ctx_span_ns_per_req: f64,
    /// oneshot / ctx_noop — the reuse win the NoopTracer must preserve.
    gate_speedup: f64,
    /// (ctx_span − ctx_noop) / ctx_noop, in percent.
    span_overhead_pct: f64,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchReport {
    bench: String,
    unit: String,
    sizes: Vec<SizeResult>,
}

/// Deterministic stationary churn (same scheme as `exp_aux_engine`).
struct Churn {
    ops: Vec<(EdgeId, Wavelength)>,
    i: usize,
}

impl Churn {
    fn new(net: &WdmNetwork, count: usize, seed: u64) -> Self {
        let mut r = rng(seed);
        let ops = (0..count)
            .map(|_| {
                let e = EdgeId::from(r.gen_range(0..net.link_count()));
                let lambda = net.lambda(e);
                let nth = r.gen_range(0..lambda.count());
                (e, lambda.iter().nth(nth).expect("non-empty"))
            })
            .collect();
        Self { ops, i: 0 }
    }

    fn step(&mut self, net: &WdmNetwork, st: &mut ResidualState) {
        for _ in 0..2 {
            let (e, l) = self.ops[self.i % self.ops.len()];
            self.i += 1;
            if st.used(e).contains(l) {
                let _ = st.release(e, l);
            } else {
                let _ = st.occupy(net, e, l);
            }
        }
    }
}

fn requests(net: &WdmNetwork, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut r = rng(seed);
    (0..count)
        .map(|_| loop {
            let s = r.gen_range(0..net.node_count()) as u32;
            let t = r.gen_range(0..net.node_count()) as u32;
            if s != t {
                return (NodeId(s), NodeId(t));
            }
        })
        .collect()
}

fn oneshot_pass(net: &WdmNetwork, stream: &[(NodeId, NodeId)], seed: u64) -> (usize, f64) {
    let mut st = ResidualState::fresh(net);
    let mut churn = Churn::new(net, 256, seed ^ 2);
    let mut found = 0usize;
    let (_, secs) = timed(|| {
        for &(s, t) in stream {
            churn.step(net, &mut st);
            if RobustRouteFinder::new(net).find(&st, s, t).is_ok() {
                found += 1;
            }
        }
    });
    (found, secs)
}

fn ctx_noop_pass(net: &WdmNetwork, stream: &[(NodeId, NodeId)], seed: u64) -> (usize, f64) {
    let mut st = ResidualState::fresh(net);
    let mut churn = Churn::new(net, 256, seed ^ 2);
    let mut ctx = RouterCtx::new();
    let mut found = 0usize;
    let (_, secs) = timed(|| {
        for &(s, t) in stream {
            churn.step(net, &mut st);
            if robust_route_ctx(&mut ctx, net, &st, s, t).is_ok() {
                found += 1;
            }
        }
    });
    (found, secs)
}

fn ctx_span_pass(net: &WdmNetwork, stream: &[(NodeId, NodeId)], seed: u64) -> (usize, f64) {
    let mut st = ResidualState::fresh(net);
    let mut churn = Churn::new(net, 256, seed ^ 2);
    let buf = SpanBuffer::new();
    let mut ctx = RouterCtx::with_recorder_and_tracer(NoopRecorder, &buf);
    let mut found = 0usize;
    let (_, secs) = timed(|| {
        for &(s, t) in stream {
            churn.step(net, &mut st);
            ctx.tracer().begin_request();
            if robust_route_ctx(&mut ctx, net, &st, s, t).is_ok() {
                found += 1;
            }
        }
    });
    assert!(
        !buf.records().is_empty(),
        "the live buffer must actually have recorded spans"
    );
    (found, secs)
}

fn measure(n: usize, d: usize, w: usize, reqs: usize, passes: usize, seed: u64) -> SizeResult {
    let mut r = rng(seed);
    let net = random_connected_instance(&mut r, n, d, w);
    let stream = requests(&net, reqs, seed ^ 1);

    // Alternate the three pipelines and keep each one's fastest pass (the
    // run least disturbed by other tenants — same discipline as
    // `exp_aux_engine`, so the ratios are stable enough for CI to gate on).
    let mut oneshot_secs = f64::INFINITY;
    let mut noop_secs = f64::INFINITY;
    let mut span_secs = f64::INFINITY;
    for _ in 0..passes {
        let (found_oneshot, os) = oneshot_pass(&net, &stream, seed);
        let (found_noop, ns) = ctx_noop_pass(&net, &stream, seed);
        let (found_span, ss) = ctx_span_pass(&net, &stream, seed);
        assert_eq!(
            found_oneshot, found_noop,
            "instrumentation must not change routing"
        );
        assert_eq!(
            found_noop, found_span,
            "instrumentation must not change routing"
        );
        oneshot_secs = oneshot_secs.min(os);
        noop_secs = noop_secs.min(ns);
        span_secs = span_secs.min(ss);
    }

    let oneshot_ns = oneshot_secs / reqs as f64 * 1e9;
    let noop_ns = noop_secs / reqs as f64 * 1e9;
    let span_ns = span_secs / reqs as f64 * 1e9;
    SizeResult {
        name: format!("n{n}_d{d}_w{w}"),
        nodes: n,
        links: net.link_count(),
        wavelengths: w,
        requests: reqs,
        oneshot_ns_per_req: oneshot_ns,
        ctx_noop_ns_per_req: noop_ns,
        ctx_span_ns_per_req: span_ns,
        gate_speedup: oneshot_ns / noop_ns,
        span_overhead_pct: (span_ns - noop_ns) / noop_ns * 100.0,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (reqs, passes) = if quick { (200, 3) } else { (2000, 5) };

    println!("span-overhead — NoopTracer vs live SpanBuffer (ns/request)\n");
    let mut table = Table::new(&[
        "size", "m", "W", "oneshot", "ctx_noop", "ctx_span", "overhead",
    ]);
    let mut sizes = Vec::new();
    for &(n, d, w) in &[(50usize, 4usize, 8usize), (100, 4, 8)] {
        let res = measure(n, d, w, reqs, passes, 0xB0 + n as u64);
        table.row(vec![
            res.name.clone(),
            res.links.to_string(),
            res.wavelengths.to_string(),
            format!("{:.0}", res.oneshot_ns_per_req),
            format!("{:.0}", res.ctx_noop_ns_per_req),
            format!("{:.0}", res.ctx_span_ns_per_req),
            format!("{:+.1}%", res.span_overhead_pct),
        ]);
        sizes.push(res);
    }
    table.print();

    let report = BenchReport {
        bench: String::from("span_overhead"),
        unit: String::from("ns_per_request"),
        sizes,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_span_overhead.json", &json).expect("write BENCH_span_overhead.json");
    println!("\nwrote BENCH_span_overhead.json");
}
