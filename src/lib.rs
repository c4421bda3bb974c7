//! # memory-conex — joint memory-module and connectivity design-space exploration
//!
//! A facade crate re-exporting the whole ConEx reproduction workspace
//! (Grun/Dutt/Nicolau, *Memory System Connectivity Exploration*, DATE 2002)
//! under one roof. Downstream users depend on this crate; the examples and
//! integration tests in this repository are written against it.
//!
//! ## Crate map
//!
//! * [`appmodel`] — synthetic application models and trace generation.
//! * [`memlib`] — memory-module IP library (caches, SRAMs, stream buffers,
//!   self-indirect DMAs, off-chip DRAM) with cost and energy models.
//! * [`connlib`] — connectivity IP library (AMBA AHB/ASB/APB-style busses,
//!   MUX-based and dedicated connections, off-chip bus), reservation tables
//!   and arbitration.
//! * [`sim`] — cycle-level memory + connectivity system simulator, plus the
//!   time-sampling estimator used for pruning.
//! * [`apex`] — APEX memory-modules exploration (the paper's input stage).
//! * [`conex`] — the ConEx connectivity exploration algorithm itself, pareto
//!   machinery, exploration strategies and constraint scenarios.
//! * [`obs`] — structured tracing, counters and progress reporting across
//!   the whole pipeline (spans, worker lanes, Chrome-trace export).
//! * [`budget`] — cooperative cancellation and budget primitives (cancel
//!   tokens, deterministic evaluation budgets, deadline + SIGINT wiring,
//!   the per-candidate watchdog).
//!
//! ## Quickstart
//!
//! ```
//! use memory_conex::prelude::*;
//!
//! // Model an application (or use a built-in benchmark model).
//! let workload = memory_conex::appmodel::benchmarks::vocoder();
//!
//! // Run the full APEX → ConEx pipeline in one session: the trace is
//! // compiled once and every candidate evaluation is memoized.
//! let result = ExplorationSession::new(workload)
//!     .preset(Preset::Fast)
//!     .run()
//!     .expect("exploration runs");
//!
//! // The pareto-optimal memory+connectivity designs:
//! for point in result.conex.pareto_cost_latency() {
//!     println!("{point}");
//! }
//! ```
//!
//! The stages remain individually drivable — see [`ApexExplorer`] and
//! [`ConexExplorer`] — and produce bit-identical results; the session
//! only removes redundant work.
//!
//! [`ApexExplorer`]: mce_apex::ApexExplorer
//! [`ConexExplorer`]: mce_conex::ConexExplorer

#![forbid(unsafe_code)]

pub mod archive;
pub mod checkpoint;
pub mod diff;
pub mod live;
pub mod report;
pub mod session;

pub use archive::{AddOutcome, ArchiveEntry, GcStats, RunArchive, ARCHIVE_SCHEMA};
pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use diff::{DiffKind, DiffOutcome};
pub use live::{LiveShared, LIVE_SCHEMA};
pub use mce_apex as apex;
pub use mce_appmodel as appmodel;
pub use mce_budget as budget;
pub use mce_conex as conex;
pub use mce_connlib as connlib;
pub use mce_error::MceError;
pub use mce_memlib as memlib;
pub use mce_obs as obs;
pub use mce_sim as sim;
pub use report::{RunReport, REPORT_SCHEMA};
pub use session::{ExplorationSession, SessionResult};

/// Commonly used items for writing explorations end to end.
pub mod prelude {
    pub use crate::report::{RunReport, REPORT_SCHEMA};
    pub use crate::session::{ExplorationSession, SessionResult};
    pub use mce_apex::{ApexConfig, ApexExplorer, ApexResult};
    pub use mce_appmodel::{
        AccessKind, AccessPattern, AccessProfile, Addr, DataStructure, DsId, MemAccess, Workload,
        WorkloadBuilder,
    };
    pub use mce_budget::{Bounds, CancelToken, EvalBudget, StopReason};
    pub use mce_conex::{
        CacheStats, ConexConfig, ConexExplorer, ConexResult, DesignPoint, EvalCache, EvalEngine,
        ExplorationStrategy, Metrics, ParetoFront, Scenario,
    };
    pub use mce_connlib::{
        ConnComponent, ConnComponentKind, ConnectivityArchitecture, ConnectivityLibrary,
    };
    pub use mce_error::MceError;
    pub use mce_memlib::{MemModule, MemModuleKind, MemoryArchitecture};
    pub use mce_sim::{Preset, SimStats, SystemConfig};
}
