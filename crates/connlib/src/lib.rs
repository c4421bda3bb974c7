//! # mce-connlib — connectivity IP library
//!
//! The connectivity components the paper's ConEx exploration draws from its
//! IP library: **dedicated point-to-point connections**, **MUX-based
//! connections**, the three **AMBA-style on-chip busses** (APB, ASB, AHB —
//! modelled after the peripheral, system and high-performance busses the
//! paper cites), and the **off-chip bus** to DRAM. Each component carries the
//! attribute tuple the paper's library stores: "resource usage, latency,
//! pipelining, parallelism, split transaction model, and bitwidth".
//!
//! Timing uses **reservation tables** (refs \[11,14,15\] in the paper):
//! transfers reserve the component's address/data-phase resources over time,
//! which captures pipelining, split transactions and resource conflicts.
//! Shared components add arbitration delay from an [`Arbiter`] model.
//!
//! ## Example
//!
//! ```
//! use mce_connlib::{ConnComponentKind, ConnectivityLibrary};
//!
//! let lib = ConnectivityLibrary::amba();
//! let ahb = lib.component(ConnComponentKind::AmbaAhb).expect("AHB in default library");
//! // A 32-byte cache-line fill over the 32-bit pipelined AHB:
//! assert!(ahb.transfer_cycles(32, true) < 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod arch;
pub mod component;
pub mod library;
pub mod reservation;
pub mod runtime;

pub use arbiter::{Arbiter, ArbiterKind};
pub use arch::{Channel, ChannelId, ConnArchError, ConnLink, ConnectivityArchitecture, LinkId};
pub use component::{ConnComponent, ConnComponentKind, ConnParams, TransferCost};
pub use library::ConnectivityLibrary;
pub use reservation::ReservationTable;
pub use runtime::{LinkState, TransferTiming};
