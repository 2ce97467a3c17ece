//! Speculative batch provisioning vs the serial loop (the per-window
//! regression guard behind `exp_parallel_batch`), in both schedule modes:
//! the conflict-aware group scheduler and the shard-parallel engine
//! (single-threaded here; `exp_parallel_batch` owns the multi-thread
//! wall-clock grid).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wdm_bench::{random_connected_instance, rng};
use wdm_core::journal::NoopSink;
use wdm_core::network::ResidualState;
use wdm_sim::batch::{provision_batch, BatchOrder, Demand};
use wdm_sim::policy::Policy;
use wdm_sim::schedule::ScheduleMode;
use wdm_sim::speculative::provision_batch_speculative_scheduled;
use wdm_telemetry::{NoopRecorder, NoopTracer};

fn bench_windows(c: &mut Criterion) {
    let mut r = rng(0xBA7C4);
    let net = random_connected_instance(&mut r, 60, 4, 8);
    let state = ResidualState::fresh(&net);
    let demands: Vec<Demand> = {
        use rand::Rng;
        let mut rr = rng(0xBA7C5);
        (0..200)
            .map(|_| loop {
                let s = rr.gen_range(0..60u32);
                let t = rr.gen_range(0..60u32);
                if s != t {
                    return Demand::new(s, t);
                }
            })
            .collect()
    };
    let policy = Policy::CostOnly;
    let order = BatchOrder::AsGiven;

    let mut group = c.benchmark_group("parallel_batch");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| black_box(provision_batch(&net, &state, &demands, policy, order)))
    });
    for (label, schedule) in [
        ("conflict-groups", ScheduleMode::ConflictGroups),
        ("sharded", ScheduleMode::Sharded { shards: 4 }),
    ] {
        for window in [1usize, 8, 64] {
            group.bench_with_input(BenchmarkId::new(label, window), &window, |b, &window| {
                b.iter(|| {
                    black_box(provision_batch_speculative_scheduled(
                        &net,
                        &state,
                        &demands,
                        policy,
                        order,
                        window,
                        schedule,
                        1,
                        NoopRecorder,
                        NoopSink,
                        &NoopTracer,
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_windows);
criterion_main!(benches);
