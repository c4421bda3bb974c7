//! # mce-appmodel — synthetic embedded application models
//!
//! This crate is the workload substrate of the ConEx reproduction. The
//! original paper (Grun/Dutt/Nicolau, DATE 2002) profiled SPEC95 `compress`
//! and `li` plus a GSM `vocoder`, compiled for SPARC and traced with SHADE.
//! Neither the binaries nor the tracer are available, and ConEx only ever
//! consumes two things from them:
//!
//! 1. a **memory-access trace** (virtual address, read/write, issuing data
//!    structure, CPU issue time), replayed through the memory + connectivity
//!    system simulator, and
//! 2. an **access profile** (per data structure access counts and bandwidth),
//!    from which the Bandwidth Requirement Graph is built.
//!
//! We therefore model each benchmark as its dominant *data structures*, each
//! with one of the access patterns the paper names — streams, self-indirect
//! (value-dependent) array/list traversals, indexed arrays, random scalar
//! traffic, loop nests with temporal locality — and generate deterministic
//! traces from them. See [`benchmarks`] for the three paper workloads.
//!
//! ## Example
//!
//! ```
//! use mce_appmodel::benchmarks;
//!
//! let workload = benchmarks::compress();
//! let trace: Vec<_> = workload.trace(10_000).collect();
//! assert_eq!(trace.len(), 10_000);
//! let profile = mce_appmodel::AccessProfile::from_trace(&workload, trace.iter().copied());
//! assert!(profile.total_accesses() == 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod address;
pub mod benchmarks;
pub mod data_structure;
pub mod pattern;
pub mod profile;
pub mod rng;
pub mod trace_blocks;
pub mod trace_io;
pub mod workload;

pub use access::{AccessKind, MemAccess};
pub use address::{Addr, AddrRange};
pub use data_structure::{DataStructure, DsId};
pub use pattern::AccessPattern;
pub use profile::{AccessProfile, DsStats};
pub use trace_blocks::{TraceBlocks, BLOCK_LEN};
pub use trace_io::{load_trace, read_trace, write_trace, ParseTraceError};
pub use workload::{Phase, Trace, Workload, WorkloadBuilder};
