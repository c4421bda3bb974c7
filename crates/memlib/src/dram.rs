//! Off-chip DRAM model.
//!
//! Every architecture has exactly one off-chip DRAM backing store. The model
//! is a classic open-row SDRAM: accesses to the currently open row pay only
//! the column (CAS) latency; a row change pays precharge + activate first.
//! Burst transfers amortize column time over consecutive beats; the system
//! simulator adds the off-chip bus transfer time on top.

use crate::module::{ModuleModel, ModuleResponse};
use mce_appmodel::{AccessKind, Addr};
use std::fmt;

/// Static DRAM timing configuration (cycles are CPU cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Row size in bytes (one open page).
    pub row_bytes: u64,
    /// Precharge + activate penalty on a row change.
    pub row_miss_cycles: u32,
    /// Column access latency (open row).
    pub cas_cycles: u32,
    /// Bytes delivered per burst beat.
    pub burst_bytes: u32,
    /// Cycles per burst beat after the first.
    pub beat_cycles: u32,
}

mce_obs::json_codec! {
    struct DramConfig { row_bytes, row_miss_cycles, cas_cycles, burst_bytes, beat_cycles }
}

impl DramConfig {
    /// A typical early-2000s embedded SDRAM part.
    pub const fn typical() -> Self {
        DramConfig {
            row_bytes: 2048,
            row_miss_cycles: 18,
            cas_cycles: 6,
            burst_bytes: 8,
            beat_cycles: 1,
        }
    }

    /// Latency in cycles to transfer `bytes` once the access has started
    /// (first word included).
    pub fn transfer_cycles(&self, bytes: u64) -> u32 {
        if bytes == 0 {
            return 0;
        }
        let beats = bytes.div_ceil(self.burst_bytes as u64) as u32;
        self.cas_cycles + beats.saturating_sub(1) * self.beat_cycles
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::typical()
    }
}

impl fmt::Display for DramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DRAM row={}B tRP+tRCD={} tCAS={}",
            self.row_bytes, self.row_miss_cycles, self.cas_cycles
        )
    }
}

/// Mutable state of the DRAM: the currently open row.
#[derive(Debug, Clone)]
pub struct DramState {
    config: DramConfig,
    open_row: Option<u64>,
    row_hits: u64,
    row_misses: u64,
}

impl DramState {
    /// Creates the DRAM model with all banks precharged.
    pub fn new(config: DramConfig) -> Self {
        DramState {
            config,
            open_row: None,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Row-buffer hit count.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer miss count.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Latency of an access of `bytes` at `addr`, updating the open row.
    pub fn access_cycles(&mut self, addr: Addr, bytes: u64) -> u32 {
        let row = addr.block(self.config.row_bytes);
        let penalty = if self.open_row == Some(row) {
            self.row_hits += 1;
            0
        } else {
            self.row_misses += 1;
            self.open_row = Some(row);
            self.config.row_miss_cycles
        };
        penalty + self.config.transfer_cycles(bytes.max(1))
    }
}

impl ModuleModel for DramState {
    fn access(&mut self, addr: Addr, _kind: AccessKind, _tick: u64) -> ModuleResponse {
        // When the CPU talks to DRAM directly (no on-chip module mapped),
        // every access is a demand fetch of one burst.
        let bytes = self.config.burst_bytes as u64;
        let cycles = self.access_cycles(addr, bytes);
        ModuleResponse {
            hit: false,
            service_cycles: cycles,
            demand_fill_bytes: bytes,
            background_bytes: 0,
        }
    }

    fn reset(&mut self) {
        self.open_row = None;
        self.row_hits = 0;
        self.row_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_row_is_cheaper() {
        let mut d = DramState::new(DramConfig::typical());
        let cold = d.access_cycles(Addr::new(0), 8);
        let warm = d.access_cycles(Addr::new(64), 8);
        assert!(warm < cold, "warm {warm} cold {cold}");
        assert_eq!(cold - warm, DramConfig::typical().row_miss_cycles);
    }

    #[test]
    fn row_change_pays_penalty() {
        let mut d = DramState::new(DramConfig::typical());
        d.access_cycles(Addr::new(0), 8);
        let other_row = d.access_cycles(Addr::new(4096), 8);
        assert_eq!(
            other_row,
            DramConfig::typical().row_miss_cycles + DramConfig::typical().transfer_cycles(8)
        );
        assert_eq!(d.row_misses(), 2);
        assert_eq!(d.row_hits(), 0);
    }

    #[test]
    fn burst_amortizes_beats() {
        let c = DramConfig::typical();
        assert_eq!(c.transfer_cycles(8), c.cas_cycles);
        assert_eq!(c.transfer_cycles(32), c.cas_cycles + 3 * c.beat_cycles);
        assert_eq!(c.transfer_cycles(0), 0);
    }

    #[test]
    fn module_model_interface() {
        let mut d = DramState::new(DramConfig::typical());
        let r = d.access(Addr::new(128), AccessKind::Read, 0);
        assert!(!r.hit);
        assert_eq!(r.demand_fill_bytes, 8);
        assert!(r.service_cycles >= DramConfig::typical().cas_cycles);
    }

    #[test]
    fn reset_closes_row() {
        let mut d = DramState::new(DramConfig::typical());
        d.access_cycles(Addr::new(0), 8);
        d.reset();
        let again = d.access_cycles(Addr::new(0), 8);
        assert!(
            again > DramConfig::typical().cas_cycles,
            "row must be closed after reset"
        );
    }
}
