//! Routing hot path, scratch vs incremental: per request, the oracle
//! pipeline rebuilds the auxiliary graph (`AuxGraph::build`) and runs its
//! allocating, bound-guided Suurballe (`AuxGraph::disjoint_pair`); the
//! engine syncs a persistent [`AuxEngine`] (dirty links only) and runs the
//! same guided search over its CSR arrays in a reusable [`SearchArena`].
//! Between requests a small churn script flips a couple of channels,
//! mimicking the arrival / departure mix a simulator generates — the
//! regime the incremental engine is built for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use std::hint::black_box;
use wdm_bench::{dyadic_connected_instance, random_connected_instance, rng};
use wdm_core::aux_engine::{AuxEngine, RouterCtx};
use wdm_core::aux_graph::{AuxGraph, AuxSpec};
use wdm_core::disjoint::robust_route_ctx;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::wavelength::Wavelength;
use wdm_graph::{EdgeId, NodeId, SearchArena};
use wdm_telemetry::{NoopRecorder, SpanBuffer, TelemetrySink, Tracer};

/// Deterministic channel churn: each step toggles the next scripted channel
/// (occupy if free, release if held), keeping the load stationary around
/// half the script's channels.
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

fn bench_hot_path(c: &mut Criterion) {
    // m ≈ 200 directed links, W = 8: the headline size from the issue.
    let net = {
        let mut r = rng(11);
        random_connected_instance(&mut r, 100, 4, 8)
    };
    let reqs = requests(&net, 64, 12);
    let mut group = c.benchmark_group("routing_hot_path");

    group.bench_with_input(BenchmarkId::new("scratch", "n100_d4_w8"), &net, |b, net| {
        let mut st = ResidualState::fresh(net);
        let mut churn = Churn::new(net, 256, 13);
        let mut k = 0usize;
        b.iter(|| {
            churn.step(net, &mut st);
            let (s, t) = reqs[k % reqs.len()];
            k += 1;
            let aux = AuxGraph::build(net, &st, s, t, AuxSpec::g_prime());
            black_box(aux.disjoint_pair().map(|p| p.total_cost))
        })
    });

    // The engine, searched through its CSR arrays under the sink bound, as
    // production routes. Runs on a dyadic (quarter-integer cost, free
    // conversion) instance of the same shape, so the integer certificate
    // holds on every request and queue selection puts both passes on the
    // bucket queue; `exp_aux_engine`'s f64 leg measures the d-ary heap.
    group.bench_function(BenchmarkId::new("engine_csr", "n100_d4_w8"), |b| {
        let net = {
            let mut r = rng(11);
            dyadic_connected_instance(&mut r, 100, 4, 8)
        };
        let reqs = requests(&net, 64, 12);
        let mut st = ResidualState::fresh(&net);
        let mut churn = Churn::new(&net, 256, 13);
        let mut eng = AuxEngine::new(&net, AuxSpec::g_prime());
        let mut arena = SearchArena::new();
        let mut k = 0usize;
        b.iter(|| {
            churn.step(&net, &mut st);
            let (s, t) = reqs[k % reqs.len()];
            k += 1;
            eng.sync(&net, &st, s, t);
            black_box(eng.disjoint_pair(&mut arena, || {}).map(|p| p.total_cost))
        })
    });

    // A/B overhead check for the telemetry layer: the full §3.3 pipeline
    // through a RouterCtx, once with the NoopRecorder default (must price
    // in at the uninstrumented hot path — every recording site is gated on
    // an `#[inline(always)] false`) and once with a live TelemetrySink.
    group.bench_with_input(
        BenchmarkId::new("ctx_noop", "n100_d4_w8"),
        &net,
        |b, net| {
            let mut st = ResidualState::fresh(net);
            let mut churn = Churn::new(net, 256, 13);
            let mut ctx = RouterCtx::new();
            let mut k = 0usize;
            b.iter(|| {
                churn.step(net, &mut st);
                let (s, t) = reqs[k % reqs.len()];
                k += 1;
                let route = robust_route_ctx(&mut ctx, net, &st, s, t);
                black_box(route.ok().map(|(r, _)| r.total_cost()))
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("ctx_telemetry", "n100_d4_w8"),
        &net,
        |b, net| {
            let sink = TelemetrySink::new();
            let mut st = ResidualState::fresh(net);
            let mut churn = Churn::new(net, 256, 13);
            let mut ctx = RouterCtx::with_recorder(&sink);
            let mut k = 0usize;
            b.iter(|| {
                churn.step(net, &mut st);
                let (s, t) = reqs[k % reqs.len()];
                k += 1;
                let route = robust_route_ctx(&mut ctx, net, &st, s, t);
                black_box(route.ok().map(|(r, _)| r.total_cost()))
            })
        },
    );

    // And once with a live span buffer: two clock reads and a Vec push per
    // pipeline phase. Drained periodically so the buffer stays cache-sized
    // instead of growing across Criterion's sampling.
    group.bench_with_input(
        BenchmarkId::new("ctx_span", "n100_d4_w8"),
        &net,
        |b, net| {
            let buf = SpanBuffer::new();
            let mut st = ResidualState::fresh(net);
            let mut churn = Churn::new(net, 256, 13);
            let mut ctx = RouterCtx::with_recorder_and_tracer(NoopRecorder, &buf);
            let mut k = 0usize;
            let mut until_drain = 1024u32;
            b.iter(|| {
                churn.step(net, &mut st);
                let (s, t) = reqs[k % reqs.len()];
                k += 1;
                ctx.tracer().begin_request();
                let route = robust_route_ctx(&mut ctx, net, &st, s, t);
                until_drain -= 1;
                if until_drain == 0 {
                    until_drain = 1024;
                    black_box(buf.take_records().len());
                }
                black_box(route.ok().map(|(r, _)| r.total_cost()))
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
