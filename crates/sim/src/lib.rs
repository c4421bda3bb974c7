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
//! through one loop, [`replay_group`]: Phase I with a sampling window,
//! Phase II and APEX without. It steps a group of up to [`MAX_GROUP`]
//! systems in lockstep over the same trace — each access decoded once,
//! then stepped on every member — so the members' independent timing
//! chains overlap on the core, and every member's result stays
//! bit-identical to its solo replay. [`simulate_blocks`] and
//! [`simulate_sampled_blocks`] are groups of one. The per-access
//! [`simulate`] and [`simulate_sampled`] generate the trace as they go;
//! they are the reference paths that block replay is tested against.
//!
//! Every connectivity candidate of one memory architecture sees the same
//! cache, SRAM and stream-buffer responses, since those models ignore
//! timing; a [`ModuleTape`] records them once per architecture, and every
//! member replaying that architecture reads them back instead of running
//! the models — with bit-identical results.
//!
//! [`par::try_par_map_named`] is the deterministic, order-preserving
//! parallel map that APEX and ConEx fan their candidate groups out
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
pub use replay::{replay_group, simulate_blocks, simulate_sampled_blocks, Member, MAX_GROUP};
pub use sampling::{simulate_sampled, SamplingConfig};
pub use stats::{ChannelStats, ModuleStats, SimStats};
pub use system::{ChannelEndpoint, SystemConfig, SystemError};
pub use tape::ModuleTape;
