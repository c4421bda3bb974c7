//! # mce-sim — cycle-level memory + connectivity system simulator
//!
//! The SIMPRESS-substitute: replays a workload's access trace through a
//! [`SystemConfig`] (a memory architecture wired up by a connectivity
//! architecture) and produces the three metrics the paper's exploration
//! trades off — gate **cost**, average memory **latency** in cycles
//! (module latency + connectivity latency including bus conflicts and
//! arbitration), and average **energy** per access in nJ.
//!
//! Two fidelity levels, as in the paper: full simulation of the whole
//! trace (Phase II) and Kessler-style time sampling with a configurable
//! on/off ratio (default 1:9), whose fast relative estimates guide
//! Phase-I pruning.
//!
//! The explorer replays compiled [`TraceBlocks`](mce_appmodel::TraceBlocks)
//! ([`replay`]): Phase I runs [`simulate_sampled_blocks_cancellable`] and
//! Phase II [`simulate_blocks_cancellable`]. The per-access [`simulate`]
//! and [`simulate_sampled`] generate the trace as they go; they are the
//! reference paths that block replay is tested against.
//!
//! Every connectivity candidate of one memory architecture sees the same
//! cache, SRAM and stream-buffer responses, since those models ignore
//! timing; a [`ModuleTape`] records them once per architecture, and both
//! block replays read them back instead of running the models — with
//! bit-identical results.
//!
//! [`par::try_par_map_named`] is the deterministic, order-preserving
//! parallel map that APEX and ConEx fan their candidate replays out
//! through.
//!
//! ## Example
//!
//! ```
//! use mce_appmodel::benchmarks;
//! use mce_memlib::{CacheConfig, MemoryArchitecture};
//! use mce_sim::{simulate, SystemConfig};
//!
//! let w = benchmarks::vocoder();
//! let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
//! let sys = SystemConfig::with_shared_bus(&w, mem).expect("valid system");
//! let stats = simulate(&sys, &w, 20_000);
//! assert!(stats.avg_latency_cycles > 1.0);
//! assert!(stats.avg_energy_nj > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod par;
pub mod preset;
pub mod replay;
pub mod sampling;
pub mod stats;
pub mod system;
pub mod tape;

pub use engine::{simulate, simulate_trace, Simulator};
pub use preset::Preset;
pub use replay::{
    simulate_blocks, simulate_blocks_cancellable, simulate_sampled_blocks,
    simulate_sampled_blocks_cancellable,
};
pub use sampling::{simulate_sampled, SamplingConfig};
pub use stats::{ChannelStats, ModuleStats, SimStats};
pub use system::{ChannelEndpoint, SystemConfig, SystemError};
pub use tape::ModuleTape;
