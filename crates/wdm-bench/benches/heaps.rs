//! Heap-engine comparison on Dijkstra workloads (the Theorem 1 constant
//! factor: the paper cites Fibonacci heaps; we measure the indexed d-ary
//! heap's arities head-to-head).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use wdm_graph::dijkstra::dijkstra_generic;
use wdm_graph::{topology, NodeId};
use wdm_heap::{DaryHeap, MinQueue};

fn bench_dijkstra_engines(c: &mut Criterion) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let graphs = [
        ("grid30x30", topology::grid(30, 30, true, 1.0)),
        (
            "waxman300",
            topology::waxman(300, 0.9, 0.2, 1000.0, &mut rng),
        ),
    ];
    let mut group = c.benchmark_group("dijkstra_engine");
    for (name, g) in &graphs {
        group.bench_with_input(BenchmarkId::new("dary4", name), g, |b, g| {
            b.iter(|| {
                dijkstra_generic::<_, _, DaryHeap<f64, 4>>(
                    g,
                    NodeId(0),
                    None,
                    |e| g.weight(e),
                    |_| true,
                )
                .dist[g.node_count() - 1]
            })
        });
        group.bench_with_input(BenchmarkId::new("dary2", name), g, |b, g| {
            b.iter(|| {
                dijkstra_generic::<_, _, DaryHeap<f64, 2>>(
                    g,
                    NodeId(0),
                    None,
                    |e| g.weight(e),
                    |_| true,
                )
                .dist[g.node_count() - 1]
            })
        });
        group.bench_with_input(BenchmarkId::new("dary8", name), g, |b, g| {
            b.iter(|| {
                dijkstra_generic::<_, _, DaryHeap<f64, 8>>(
                    g,
                    NodeId(0),
                    None,
                    |e| g.weight(e),
                    |_| true,
                )
                .dist[g.node_count() - 1]
            })
        });
    }
    group.finish();
}

fn bench_raw_ops(c: &mut Criterion) {
    let n = 10_000usize;
    let mut group = c.benchmark_group("heap_push_pop");
    group.bench_function("dary4", |b| {
        b.iter(|| {
            let mut h: DaryHeap<f64, 4> = DaryHeap::with_capacity(n);
            for i in 0..n {
                h.insert(i, ((i * 2654435761) % 1000) as f64);
            }
            let mut sum = 0.0;
            while let Some((_, k)) = h.pop_min() {
                sum += k;
            }
            black_box(sum)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dijkstra_engines, bench_raw_ops);
criterion_main!(benches);
