//! Robust routing in wide-area WDM networks — the core algorithms of
//! **Weifa Liang, IPPS 2001**.
//!
//! Given a directed WDM network `G = (V, E, Λ)` with per-link wavelength
//! availability, per-(link, wavelength) traversal costs and per-node
//! conversion tables, this crate establishes, for each connection request
//! `(s, t)`, a **primary semilightpath plus an edge-disjoint backup**:
//!
//! * [`disjoint::RobustRouteFinder`] — the §3.3 approximation (auxiliary
//!   graph `G'` → Suurballe → Liang–Shen refinement), 2× optimal under the
//!   paper's cost premise (Theorem 2);
//! * [`mincog::find_two_paths_mincog`] — the §4.1 load minimiser
//!   (thresholded `G_c` with exponential congestion weights, geometric
//!   threshold search), 3× optimal (Theorem 3);
//! * [`joint::find_two_paths_joint`] — the §4.2 two-phase joint
//!   load-and-cost optimiser, the paper's headline contribution;
//! * [`exact`] — exhaustive and integer-programming exact solvers (the
//!   paper's Eqs. 3–21) for ratio measurements;
//! * [`baselines`] — two-step greedy, unrefined Suurballe, k-shortest-paths
//!   and unprotected-primary comparison policies;
//! * [`node_disjoint`] — the node-disjoint variant (survives single node
//!   failures) via node splitting, an extension the paper's introduction
//!   names but does not develop;
//! * [`multi`] — `k`-disjoint routing (one primary + `k − 1` backups) via
//!   min-cost flow on the auxiliary graph, generalising `Find_Two_Paths`.
//!
//! Model types: [`network::WdmNetwork`] (immutable),
//! [`network::ResidualState`] (occupancy + failures),
//! [`semilightpath::Semilightpath`] (paths with per-hop wavelengths and
//! Eq. 1 costs), [`wavelength::WavelengthSet`] (bitset availability),
//! [`conversion::ConversionTable`] (full/none/range/matrix capabilities).

pub mod aux_engine;
pub mod aux_graph;
pub mod baselines;
pub mod conversion;
pub mod disjoint;
pub mod error;
pub mod exact;
pub mod io;
pub mod joint;
pub mod journal;
pub mod load;
pub mod mincog;
pub mod multi;
pub mod network;
pub mod node_disjoint;
pub mod optimal_slp;
pub mod semilightpath;
pub mod wavelength;

/// One-stop imports.
pub mod prelude {
    pub use crate::aux_engine::{AuxEngine, RouterCtx, Skeleton, SyncStats};
    pub use crate::aux_graph::{AuxGraph, AuxSpec, AuxWeights};
    pub use crate::conversion::ConversionTable;
    pub use crate::disjoint::{RobustRouteFinder, RouteFootprint};
    pub use crate::error::RoutingError;
    pub use crate::joint::find_two_paths_joint;
    pub use crate::journal::{EventSink, NetEvent, NoopSink, ReplayError, StateJournal};
    pub use crate::load::{load_snapshot, LoadSnapshot};
    pub use crate::mincog::{exact_min_load_threshold, find_two_paths_mincog};
    pub use crate::multi::find_k_disjoint;
    pub use crate::network::{NetworkBuilder, ResidualState, WdmNetwork};
    pub use crate::node_disjoint::find_node_disjoint;
    pub use crate::optimal_slp::{assign_wavelengths_on_path, optimal_semilightpath};
    pub use crate::semilightpath::{Hop, RobustRoute, Semilightpath};
    pub use crate::wavelength::{Wavelength, WavelengthSet};
    pub use wdm_telemetry::{
        NoopRecorder, NoopTracer, Phase, Recorder, SpanBuffer, TelemetrySink, Tracer,
    };
}
