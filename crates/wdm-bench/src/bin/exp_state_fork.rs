//! Experiment — the cost of forking the residual state.
//!
//! ```sh
//! cargo run --release -p wdm-bench --bin exp_state_fork            # full
//! cargo run --release -p wdm-bench --bin exp_state_fork -- --quick # smoke
//! ```
//!
//! A tentative commit, a MinCog probe, or a reconfiguration sweep needs
//! a throwaway fork of the [`ResidualState`] it can mutate and discard.
//! Two ways to get one:
//!
//! * **clone** — copy the whole state (O(m) in the link count), mutate the
//!   copy, drop it: the pre-journal pattern;
//! * **txn** — open a [`Txn`] on the live state, mutate through its undo
//!   log, roll back: O(Δ) in the links actually touched.
//!
//! Measured per fork at Δ ∈ {1, 4, 16, 64} touched channels on an
//! m≈1200-link instance. Both variants leave the state bit-identical, so
//! the ratio is measured on provably equal work. CI gates on
//! `gate_speedup` — the Δ=4 clone/txn ratio, Δ=4 being a typical
//! single-route footprint — via `wdm telemetry diff`.
//!
//! Writes `BENCH_state_fork.json` to the working directory (the committed
//! artifact lives at the repo root).

use std::hint::black_box;
use wdm_bench::{random_connected_instance, rng, timed, Table};
use wdm_core::journal::Txn;
use wdm_core::network::ResidualState;
use wdm_core::semilightpath::Hop;
use wdm_core::wavelength::Wavelength;
use wdm_graph::EdgeId;

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct DeltaResult {
    delta: usize,
    clone_ns_per_fork: f64,
    txn_ns_per_fork: f64,
    speedup: f64,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchReport {
    bench: String,
    unit: String,
    nodes: usize,
    links: usize,
    wavelengths: usize,
    forks_per_pass: usize,
    /// Clone/txn ratio at Δ=4 (a typical single-route footprint) — the CI
    /// perf-gate metric.
    gate_speedup: f64,
    deltas: Vec<DeltaResult>,
}

const DELTAS: [usize; 4] = [1, 4, 16, 64];
const GATE_DELTA: usize = 4;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, forks, passes) = if quick {
        (60, 2_000, 2)
    } else {
        (200, 20_000, 3)
    };
    let (d, w) = (6usize, 16usize);

    let mut r = rng(0xF08C);
    let net = random_connected_instance(&mut r, n, d, w);
    let m = net.link_count();
    let state = ResidualState::fresh(&net);
    println!("state-fork — O(m) clone vs O(Δ) txn (n={n}, m={m}, W={w}, {forks} forks/pass)\n");

    let mut clone_secs = [f64::INFINITY; DELTAS.len()];
    let mut txn_secs = [f64::INFINITY; DELTAS.len()];
    for _ in 0..passes {
        for (slot, &delta) in DELTAS.iter().enumerate() {
            let hops: Vec<Hop> = (0..delta.min(m))
                .map(|i| Hop {
                    edge: EdgeId::from(i),
                    wavelength: Wavelength(0),
                })
                .collect();

            // Clone fork: copy, mutate the copy, drop it.
            let (_, secs) = timed(|| {
                for _ in 0..forks {
                    let mut fork = state.clone();
                    for h in &hops {
                        fork.occupy(&net, h.edge, h.wavelength)
                            .expect("fresh channels");
                    }
                    black_box(&fork);
                }
            });
            clone_secs[slot] = clone_secs[slot].min(secs);

            // Txn fork: mutate the live state through the undo log, roll
            // back. The state is bit-identical afterwards (the journal
            // tests prove it), so each iteration starts from the same
            // place the clone variant does.
            let mut live = state.clone();
            let (_, secs) = timed(|| {
                for _ in 0..forks {
                    let mut txn = Txn::begin(&mut live);
                    txn.occupy_hops(&net, &hops).expect("fresh channels");
                    black_box(txn.touched());
                    txn.rollback();
                }
            });
            txn_secs[slot] = txn_secs[slot].min(secs);
            assert_eq!(live, state, "rollback must restore the fork point");
        }
    }

    let mut table = Table::new(&["Δ (channels)", "clone ns/fork", "txn ns/fork", "speedup"]);
    let mut deltas = Vec::new();
    let mut gate_speedup = 0.0;
    for ((&delta, &cs), &ts) in DELTAS.iter().zip(&clone_secs).zip(&txn_secs) {
        let res = DeltaResult {
            delta,
            clone_ns_per_fork: cs / forks as f64 * 1e9,
            txn_ns_per_fork: ts / forks as f64 * 1e9,
            speedup: cs / ts,
        };
        table.row(vec![
            delta.to_string(),
            format!("{:.0}", res.clone_ns_per_fork),
            format!("{:.0}", res.txn_ns_per_fork),
            format!("{:.2}x", res.speedup),
        ]);
        if delta == GATE_DELTA {
            gate_speedup = res.speedup;
        }
        deltas.push(res);
    }
    table.print();

    let report = BenchReport {
        bench: String::from("state_fork"),
        unit: String::from("ns_per_fork"),
        nodes: n,
        links: m,
        wavelengths: w,
        forks_per_pass: forks,
        gate_speedup,
        deltas,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_state_fork.json", &json).expect("write BENCH_state_fork.json");
    println!("\nwrote BENCH_state_fork.json");
}
