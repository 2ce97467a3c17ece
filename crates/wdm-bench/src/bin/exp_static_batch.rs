//! Static-provisioning ablation: processing order × policy on a full-mesh
//! demand matrix (the offline design setting of the paper's citations
//! \[17, 3\], used here to quantify how much the §4 load-awareness helps
//! when the whole demand set is known in advance).
//!
//! ```sh
//! cargo run --release -p wdm-bench --bin exp_static_batch
//! ```

use wdm_bench::Table;
use wdm_core::network::{NetworkBuilder, ResidualState};
use wdm_sim::batch::{full_mesh_demands, BatchOrder};
use wdm_sim::policy::Policy;
use wdm_sim::sim::{run_batch, BatchConfig};

fn main() {
    let a = std::f64::consts::E;
    println!("Static full-mesh provisioning on NSFNET (one demand per ordered pair)\n");
    let mut table = Table::new(&[
        "W",
        "policy",
        "order",
        "accepted",
        "total cost",
        "max ρ",
        "p90 ρ",
        "mean ρ",
    ]);
    for &w in &[8usize, 16] {
        let net = NetworkBuilder::nsfnet(w).build();
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(14, 1);
        for policy in [Policy::CostOnly, Policy::Joint { a }] {
            for order in [
                BatchOrder::AsGiven,
                BatchOrder::ShortestFirst,
                BatchOrder::LongestFirst,
            ] {
                let out = run_batch(&net, &st, &demands, BatchConfig { policy, order });
                table.row(vec![
                    w.to_string(),
                    policy.name().into(),
                    format!("{order:?}"),
                    format!("{}/{}", out.provisioned.len(), demands.len()),
                    format!("{:.0}", out.total_cost),
                    format!("{:.3}", out.final_load.max),
                    format!("{:.3}", out.final_load.p90),
                    format!("{:.3}", out.final_load.mean),
                ]);
            }
        }
    }
    table.print();
    println!("\nReading: under heavy saturation, routing the hungriest demands");
    println!("first (LongestFirst) exhausts capacity early and *lowers* the");
    println!("accepted count — the classic longest-first intuition only pays");
    println!("off when the whole set nearly fits. Shortest-first minimises the");
    println!("cost per accepted demand; the joint policy keeps acceptance at");
    println!("least as high as cost-only at equal order while spending slightly");
    println!("more per route.");
}
