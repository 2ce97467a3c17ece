//! Static (batch) provisioning: route a whole demand set at once.
//!
//! The paper's §1 contrasts its dynamic setting with the *static* design
//! problem its citations \[17, 3\] solve offline. This module provides that
//! substrate: given a list of demands, provision them sequentially under a
//! routing policy, with a choice of processing order — the classic knob in
//! static RWA, since early routes constrain later ones. The
//! `exp_static_batch` binary measures how much the order and the policy
//! matter.
//!
//! Every demand is routed by one Suurballe-based search on the residual
//! state its predecessors left (§3.3, §4), so a batch is a serial fold,
//! [`crate::sim::run_batch`]. The fold holds one
//! [`RouterCtx`](wdm_core::aux_engine::RouterCtx) for the whole batch: the
//! auxiliary graphs are built on the first demand, and each later demand
//! re-weights only the links earlier reservations changed.

use crate::policy::ProvisionedRoute;
use wdm_core::load::LoadSnapshot;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::optimal_slp::optimal_semilightpath;
use wdm_graph::NodeId;

/// One demand of a static traffic matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Demand {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

impl Demand {
    /// Convenience constructor.
    pub fn new(src: u32, dst: u32) -> Self {
        Self {
            src: NodeId(src),
            dst: NodeId(dst),
        }
    }
}

/// Processing order for the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BatchOrder {
    /// As given in the input.
    AsGiven,
    /// Shortest unprotected route first (cheap demands lock in early).
    ShortestFirst,
    /// Longest unprotected route first (the classic static-RWA heuristic:
    /// route the hard, resource-hungry demands while the network is empty).
    LongestFirst,
}

/// Result of provisioning one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Indices into the input demands that were provisioned, with their
    /// routes, in processing order.
    pub provisioned: Vec<(usize, ProvisionedRoute)>,
    /// Indices of demands that could not be provisioned.
    pub rejected: Vec<usize>,
    /// Total Eq. 1 cost over all provisioned routes.
    pub total_cost: f64,
    /// Load distribution after the whole batch.
    pub final_load: LoadSnapshot,
    /// The residual state after provisioning (for incremental follow-ups).
    pub state: ResidualState,
}

impl BatchOutcome {
    /// Fraction of demands provisioned.
    pub fn acceptance_ratio(&self, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            self.provisioned.len() as f64 / total as f64
        }
    }
}

/// The demand indices in batch-processing order. Sort keys use the
/// unprotected optimal route cost on the *initial* state (a static
/// estimate).
pub(crate) fn processing_order(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    order: BatchOrder,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..demands.len()).collect();
    match order {
        BatchOrder::AsGiven => {}
        BatchOrder::ShortestFirst | BatchOrder::LongestFirst => {
            let keys: Vec<f64> = demands
                .iter()
                .map(|d| {
                    optimal_semilightpath(net, state, d.src, d.dst)
                        .map_or(f64::INFINITY, |p| p.cost)
                })
                .collect();
            idx.sort_by(|&a, &b| {
                keys[a]
                    .partial_cmp(&keys[b])
                    .expect("route costs are not NaN")
            });
            if order == BatchOrder::LongestFirst {
                idx.reverse();
            }
        }
    }
    idx
}

/// A full-mesh demand set (`k` demands per ordered node pair) — the
/// standard static-design benchmark matrix.
pub fn full_mesh_demands(n: usize, k: usize) -> Vec<Demand> {
    let mut out = Vec::with_capacity(n * (n - 1) * k);
    for s in 0..n as u32 {
        for t in 0..n as u32 {
            if s != t {
                for _ in 0..k {
                    out.push(Demand::new(s, t));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::sim::{run_batch, BatchConfig};
    use wdm_core::network::NetworkBuilder;

    fn nsfnet(w: usize) -> WdmNetwork {
        NetworkBuilder::nsfnet(w).build()
    }

    #[test]
    fn full_mesh_acceptance_grows_with_capacity() {
        // A protected full mesh on 14-node NSFNET needs ~6 channels per
        // demand over 42x W channel capacity, so W = 16 saturates while
        // W = 64 fits nearly everything.
        let st16 = {
            let net = nsfnet(16);
            let st = ResidualState::fresh(&net);
            run_batch(
                &net,
                &st,
                &full_mesh_demands(14, 1),
                BatchConfig::serial(Policy::CostOnly),
            )
        };
        let st64 = {
            let net = nsfnet(64);
            let st = ResidualState::fresh(&net);
            run_batch(
                &net,
                &st,
                &full_mesh_demands(14, 1),
                BatchConfig::serial(Policy::CostOnly),
            )
        };
        let total = 14 * 13;
        let a16 = st16.acceptance_ratio(total);
        let a64 = st64.acceptance_ratio(total);
        assert!(a16 > 0.3, "W=16 acceptance {a16}");
        assert!(a64 > 0.95, "W=64 acceptance {a64}");
        assert!(a64 > a16, "capacity must help: {a16} vs {a64}");
        assert_eq!(st16.provisioned.len() + st16.rejected.len(), total);
        assert!(st16.total_cost > 0.0);
    }

    #[test]
    fn capacity_pressure_causes_rejections() {
        let net = nsfnet(2); // tiny capacity
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(14, 2);
        let out = run_batch(&net, &st, &demands, BatchConfig::serial(Policy::CostOnly));
        assert!(!out.rejected.is_empty(), "W=2 cannot host a double mesh");
        // Everything that was accepted is a valid reservation: releasing
        // them all restores the initial state.
        let mut st2 = out.state.clone();
        for (_, r) in &out.provisioned {
            r.release(&mut st2);
        }
        assert_eq!(st2, st);
    }

    #[test]
    fn ordering_changes_outcomes_deterministically() {
        let net = nsfnet(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(14, 1);
        let cfg = |order| BatchConfig {
            policy: Policy::CostOnly,
            order,
        };
        let a = run_batch(&net, &st, &demands, cfg(BatchOrder::LongestFirst));
        let b = run_batch(&net, &st, &demands, cfg(BatchOrder::LongestFirst));
        assert_eq!(a.provisioned.len(), b.provisioned.len());
        assert_eq!(a.total_cost, b.total_cost);
        // Orders actually differ in processing sequence.
        let c = run_batch(&net, &st, &demands, cfg(BatchOrder::ShortestFirst));
        let first_long = a.provisioned.first().map(|(i, _)| *i);
        let first_short = c.provisioned.first().map(|(i, _)| *i);
        assert_ne!(first_long, first_short);
    }

    #[test]
    fn empty_batch_is_trivially_complete() {
        let net = nsfnet(4);
        let st = ResidualState::fresh(&net);
        let out = run_batch(&net, &st, &[], BatchConfig::serial(Policy::CostOnly));
        assert!(out.provisioned.is_empty() && out.rejected.is_empty());
        assert_eq!(out.acceptance_ratio(0), 1.0);
        assert_eq!(out.final_load.max, 0.0);
    }

    #[test]
    fn batch_respects_preexisting_occupancy() {
        let net = nsfnet(4);
        let mut st = ResidualState::fresh(&net);
        // Pre-occupy one full corridor.
        use wdm_core::wavelength::Wavelength;
        for l in 0..4 {
            st.occupy(&net, wdm_graph::EdgeId(0), Wavelength(l))
                .unwrap();
        }
        let demands = vec![Demand::new(0, 1); 3];
        let out = run_batch(&net, &st, &demands, BatchConfig::serial(Policy::CostOnly));
        // Routes must avoid the saturated link entirely.
        for (_, r) in &out.provisioned {
            if let ProvisionedRoute::Protected(route) = r {
                assert!(route
                    .primary
                    .edges()
                    .chain(route.backup.edges())
                    .all(|e| e != wdm_graph::EdgeId(0)));
            }
        }
    }
}
