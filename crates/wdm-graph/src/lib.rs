//! Directed-graph substrate for the WDM robust-routing workspace.
//!
//! Everything in the paper reduces to computations on directed weighted
//! (multi-)graphs: the WDM network itself, the auxiliary graphs `G'`, `G_c`
//! and `G_rc` of §3.3/§4, and the layered wavelength graph of the Liang–Shen
//! semilightpath algorithm. This crate provides the shared machinery:
//!
//! * [`DiGraph`] — an adjacency-list directed multigraph with dense integer
//!   ids ([`NodeId`], [`EdgeId`]) and typed node/edge payloads;
//! * shortest paths: [`dijkstra`](dijkstra::dijkstra), generic over the
//!   heap engine;
//! * [`suurballe`] — Suurballe's minimum-cost pair of edge-disjoint paths
//!   (1974), the core subroutine of the paper's `Find_Two_Paths`;
//! * [`arena`] — [`SearchArena`], Suurballe on reused buffers, over a
//!   [`DiGraph`] (the test oracle's search) or over a [`FlatView`], the
//!   CSR layout the router searches;
//! * [`ksp`] — Yen's k-shortest loopless paths (the `Ksp` baseline policy);
//! * [`mincostflow`] — successive-shortest-path min-cost flow, used as an
//!   independent exactness oracle for the disjoint-pair computations and
//!   as the k-disjoint-path solver;
//! * [`traverse`] — Tarjan SCC, local edge connectivity;
//! * [`topology`] — WAN topology generators (NSFNET, ARPANET-like, rings,
//!   grids/tori, Waxman and random connected graphs, trap/hardness gadget
//!   families);
//! * [`dot`] — Graphviz export for documentation and debugging.

pub mod arena;
pub mod dijkstra;
pub mod dot;
mod graph;
mod ids;
pub mod ksp;
pub mod mincostflow;
mod path;
pub mod suurballe;
pub mod topology;
pub mod traverse;

pub use arena::{FlatView, IntWeights, SearchArena};
pub use graph::DiGraph;
pub use ids::{EdgeId, NodeId};
pub use path::Path;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::dijkstra::{dijkstra, dijkstra_filtered, ShortestPathTree};
    pub use crate::ksp::yen_k_shortest;
    pub use crate::suurballe::{edge_disjoint_pair, DisjointPair};
    pub use crate::{DiGraph, EdgeId, NodeId, Path};
}
