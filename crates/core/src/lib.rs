//! # mce-conex — Connectivity Exploration (ConEx)
//!
//! The paper's contribution: a heuristic design-space exploration of the
//! **connectivity architecture** — which busses, MUXes and dedicated links
//! carry the memory system's communication channels — performed *jointly*
//! with the memory-module architectures selected by APEX, trading off gate
//! **cost**, average memory **latency** and **energy** per access.
//!
//! The algorithm (the paper's Figure 5) proceeds in two phases:
//!
//! **Phase I** — for each selected memory architecture:
//! 1. profile the architecture's communication channels and build the
//!    **Bandwidth Requirement Graph** ([`brg`]);
//! 2. hierarchically **cluster** the BRG arcs into logical connections,
//!    merging the two lowest-bandwidth clusters per level ([`cluster`]);
//! 3. at each clustering level, enumerate feasible **allocations** of the
//!    logical connections to components from the connectivity library
//!    ([`allocate`]);
//! 4. **estimate** each candidate's cost/performance/power with
//!    time-sampled simulation ([`estimate`]) and keep the locally most
//!    promising (pareto-like) points.
//!
//! **Phase II** — pool the local selections, **fully simulate** them, and
//! select the globally most promising combined memory + connectivity
//! designs ([`explore`]). Constraint-driven final selection (power-, cost-
//! or performance-constrained) is in [`scenario`].
//!
//! The [`pareto`] module carries the dominance/coverage machinery,
//! including the coverage-vs-full-search metrics of the paper's Table 2.
//! The end-to-end MemorEx flow of Figure 1 (APEX → ConEx over one shared
//! trace and cache) is `ExplorationSession` in the `memory-conex` facade.
//!
//! ## Example
//!
//! ```
//! use mce_apex::{ApexConfig, ApexExplorer};
//! use mce_conex::{ConexConfig, ConexExplorer};
//! use mce_appmodel::benchmarks;
//! use mce_sim::Preset;
//!
//! let w = benchmarks::vocoder();
//! let apex = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
//! let result = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
//!     .explore(&w, apex.selected())
//!     .expect("exploration completed");
//! assert!(!result.pareto_cost_latency().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod brg;
pub mod cluster;
pub mod design_point;
pub mod engine;
pub mod estimate;
pub mod eval_cache;
pub mod explore;
pub mod pareto;
pub mod scenario;

pub use allocate::{enumerate_allocations, enumerate_allocations_filtered};
pub use brg::{Brg, BrgArc};
pub use cluster::{cluster_levels, Cluster, ClusterOrder, Clustering};
pub use design_point::{CanonKey, DesignPoint, EvalMode, Metrics};
pub use engine::{BatchStatus, BoundedBatch, EvalEngine};
pub use eval_cache::{CacheStats, EvalCache};
pub use explore::{
    ArchProvenance, ConexConfig, ConexExplorer, ConexResult, DegradedEval, ExplorationStrategy,
    FrontierSnapshot, Phase1State, PointProvenance,
};
pub use pareto::{hypervolume_proxy, Axis, CoverageReport, ParetoFront};
pub use scenario::Scenario;
