//! Connectivity components and their attribute tuples.

use crate::arbiter::ArbiterKind;
use std::fmt;

/// The component classes of the default connectivity IP library.
///
/// These mirror the paper's library: dedicated and MUX-based connections for
/// low latency at high wire cost, the AMBA-style peripheral/system/
/// high-performance busses for shared on-chip transport at increasing
/// bandwidth and controller cost, and the off-chip bus crossing the chip
/// boundary to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnComponentKind {
    /// Point-to-point wires between exactly one pair of endpoints: minimal
    /// latency, longest wires (highest per-bit area and energy).
    Dedicated,
    /// A multiplexer sharing one set of wires among a few endpoints; near
    /// dedicated latency plus one select cycle.
    Mux,
    /// AMBA APB-style peripheral bus: narrow, unpipelined, cheap.
    AmbaApb,
    /// AMBA ASB-style system bus: 32-bit, unpipelined, arbitrated.
    AmbaAsb,
    /// AMBA AHB-style high-performance bus: 32-bit, pipelined, split
    /// transactions, expensive controller.
    AmbaAhb,
    /// The off-chip bus to DRAM: narrow and slow (pad-limited), shared by
    /// all off-chip traffic.
    OffChipBus,
}

mce_obs::json_codec! {
    enum ConnComponentKind { Dedicated, Mux, AmbaApb, AmbaAsb, AmbaAhb, OffChipBus }
}

impl ConnComponentKind {
    /// All on-chip kinds, cheapest controller first.
    pub const ON_CHIP: [ConnComponentKind; 5] = [
        ConnComponentKind::Dedicated,
        ConnComponentKind::Mux,
        ConnComponentKind::AmbaApb,
        ConnComponentKind::AmbaAsb,
        ConnComponentKind::AmbaAhb,
    ];

    /// The default parameter set for this kind.
    ///
    /// Latency/width/pipelining follow the qualitative ordering the paper
    /// describes (Section 4); gate and energy constants are the synthetic
    /// models documented in `DESIGN.md`.
    pub const fn params(self) -> ConnParams {
        match self {
            ConnComponentKind::Dedicated => ConnParams {
                width_bytes: 4,
                cycles_per_beat: 1,
                arbitration_cycles: 0,
                pipelined: true,
                split_transaction: false,
                max_ports: 1,
                outstanding: 1,
                base_gates: 500,
                gates_per_port: 300,
                wire_gates_per_bit: 120, // long point-to-point wires
                energy_per_transfer_nj: 0.25,
                energy_per_byte_nj: 0.012,
                off_chip: false,
                arbiter: ArbiterKind::FixedPriority,
            },
            ConnComponentKind::Mux => ConnParams {
                width_bytes: 4,
                cycles_per_beat: 1,
                arbitration_cycles: 1,
                pipelined: false,
                split_transaction: false,
                max_ports: 4,
                outstanding: 1,
                base_gates: 1_200,
                gates_per_port: 700,
                wire_gates_per_bit: 35,
                energy_per_transfer_nj: 0.18,
                energy_per_byte_nj: 0.010,
                off_chip: false,
                arbiter: ArbiterKind::FixedPriority,
            },
            ConnComponentKind::AmbaApb => ConnParams {
                width_bytes: 2,
                cycles_per_beat: 2,
                arbitration_cycles: 2,
                pipelined: false,
                split_transaction: false,
                max_ports: 8,
                outstanding: 1,
                base_gates: 2_500,
                gates_per_port: 400,
                wire_gates_per_bit: 12, // short shared trunk
                energy_per_transfer_nj: 0.06,
                energy_per_byte_nj: 0.006,
                off_chip: false,
                arbiter: ArbiterKind::FixedPriority,
            },
            ConnComponentKind::AmbaAsb => ConnParams {
                width_bytes: 4,
                cycles_per_beat: 2,
                arbitration_cycles: 2,
                pipelined: false,
                split_transaction: false,
                max_ports: 8,
                outstanding: 1,
                base_gates: 5_000,
                gates_per_port: 600,
                wire_gates_per_bit: 15,
                energy_per_transfer_nj: 0.10,
                energy_per_byte_nj: 0.007,
                off_chip: false,
                arbiter: ArbiterKind::FixedPriority,
            },
            ConnComponentKind::AmbaAhb => ConnParams {
                width_bytes: 4,
                cycles_per_beat: 1,
                arbitration_cycles: 2,
                pipelined: true,
                split_transaction: true,
                max_ports: 16,
                outstanding: 4,
                base_gates: 14_000,
                gates_per_port: 900,
                wire_gates_per_bit: 18, // wider control, burst signals
                energy_per_transfer_nj: 0.16,
                energy_per_byte_nj: 0.008,
                off_chip: false,
                arbiter: ArbiterKind::FixedPriority,
            },
            ConnComponentKind::OffChipBus => ConnParams {
                width_bytes: 2,
                cycles_per_beat: 2,
                arbitration_cycles: 1,
                pipelined: false,
                split_transaction: false,
                max_ports: 8,
                outstanding: 1,
                base_gates: 9_000, // pads and drivers
                gates_per_port: 500,
                wire_gates_per_bit: 0, // off-chip traces are board area
                energy_per_transfer_nj: 0.90,
                energy_per_byte_nj: 0.050,
                off_chip: true,
                arbiter: ArbiterKind::FixedPriority,
            },
        }
    }

    /// Short name used in architecture descriptions.
    pub const fn short_name(self) -> &'static str {
        match self {
            ConnComponentKind::Dedicated => "dedicated",
            ConnComponentKind::Mux => "MUX",
            ConnComponentKind::AmbaApb => "APB",
            ConnComponentKind::AmbaAsb => "ASB",
            ConnComponentKind::AmbaAhb => "AHB",
            ConnComponentKind::OffChipBus => "off-chip bus",
        }
    }
}

impl fmt::Display for ConnComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The attribute tuple of a connectivity component — the paper's library
/// entry: latency, pipelining, parallelism, split-transaction support,
/// bitwidth, plus the cost and energy model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnParams {
    /// Data width in bytes per beat.
    pub width_bytes: u32,
    /// Cycles per beat.
    pub cycles_per_beat: u32,
    /// Arbitration cycles per transaction when the component is shared.
    pub arbitration_cycles: u32,
    /// Overlapped address/data phases (back-to-back beats at 1-beat rate).
    pub pipelined: bool,
    /// Split transactions: a master can release the bus while waiting.
    pub split_transaction: bool,
    /// Maximum endpoints attachable.
    pub max_ports: u32,
    /// Concurrent outstanding transactions supported (>1 only with split).
    pub outstanding: u32,
    /// Controller gate cost.
    pub base_gates: u64,
    /// Gate cost per attached port.
    pub gates_per_port: u64,
    /// Wire area in gate-equivalents per data bit (models wire length:
    /// dedicated/MUX wires are long, bus trunks short — refs \[3,8\]).
    pub wire_gates_per_bit: u64,
    /// Energy per transaction, nJ.
    pub energy_per_transfer_nj: f64,
    /// Energy per transferred byte, nJ.
    pub energy_per_byte_nj: f64,
    /// True for components crossing the chip boundary.
    pub off_chip: bool,
    /// Arbitration policy when shared.
    pub arbiter: ArbiterKind,
}

mce_obs::json_codec! {
    struct ConnParams {
        width_bytes, cycles_per_beat, arbitration_cycles, pipelined, split_transaction, max_ports,
        outstanding, base_gates, gates_per_port, wire_gates_per_bit, energy_per_transfer_nj,
        energy_per_byte_nj, off_chip, arbiter,
    }
}

/// A connectivity component: a kind plus (possibly customized) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnComponent {
    kind: ConnComponentKind,
    params: ConnParams,
}

mce_obs::json_codec! { struct ConnComponent { kind, params } }

impl ConnComponent {
    /// A component with the library-default parameters for `kind`.
    pub const fn new(kind: ConnComponentKind) -> Self {
        ConnComponent {
            kind,
            params: kind.params(),
        }
    }

    /// A component with customized parameters (e.g. a wider AHB).
    pub const fn with_params(kind: ConnComponentKind, params: ConnParams) -> Self {
        ConnComponent { kind, params }
    }

    /// The component kind.
    pub const fn kind(&self) -> ConnComponentKind {
        self.kind
    }

    /// The parameter tuple.
    pub const fn params(&self) -> &ConnParams {
        &self.params
    }

    /// Busy cycles on the component to move `bytes`; `shared` adds the
    /// arbitration overhead of a multi-master configuration.
    ///
    /// A pipelined component streams beats at one `cycles_per_beat` after
    /// the first; an unpipelined one pays the full beat time each beat.
    pub fn transfer_cycles(&self, bytes: u64, shared: bool) -> u32 {
        if bytes == 0 {
            return 0;
        }
        let p = &self.params;
        let beats = bytes.div_ceil(p.width_bytes as u64) as u32;
        let data = if p.pipelined {
            // Address/data overlap: first beat pays the full latency, the
            // rest stream every cycle.
            p.cycles_per_beat + beats.saturating_sub(1)
        } else {
            beats * p.cycles_per_beat
        };
        let arb = if shared { p.arbitration_cycles } else { 0 };
        arb + data
    }

    /// Gate cost of one instance serving `ports` endpoints.
    pub fn gate_cost(&self, ports: u32) -> u64 {
        let p = &self.params;
        p.base_gates
            + p.gates_per_port * ports as u64
            + p.wire_gates_per_bit * (p.width_bytes as u64 * 8) * ports.max(1) as u64
    }

    /// Energy of one transaction moving `bytes`, nJ.
    pub fn transfer_energy_nj(&self, bytes: u64) -> f64 {
        self.params.energy_per_transfer_nj + self.params.energy_per_byte_nj * bytes as f64
    }
}

impl fmt::Display for ConnComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}B wide{}{})",
            self.kind,
            self.params.width_bytes,
            if self.params.pipelined {
                ", pipelined"
            } else {
                ""
            },
            if self.params.split_transaction {
                ", split"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_is_fastest_per_transfer() {
        let ded = ConnComponent::new(ConnComponentKind::Dedicated);
        let apb = ConnComponent::new(ConnComponentKind::AmbaApb);
        let asb = ConnComponent::new(ConnComponentKind::AmbaAsb);
        for bytes in [4u64, 8, 32] {
            assert!(ded.transfer_cycles(bytes, false) < apb.transfer_cycles(bytes, true));
            assert!(ded.transfer_cycles(bytes, false) <= asb.transfer_cycles(bytes, true));
        }
    }

    #[test]
    fn ahb_beats_asb_on_bursts() {
        let ahb = ConnComponent::new(ConnComponentKind::AmbaAhb);
        let asb = ConnComponent::new(ConnComponentKind::AmbaAsb);
        assert!(ahb.transfer_cycles(32, true) < asb.transfer_cycles(32, true));
    }

    #[test]
    fn apb_is_cheapest_on_chip_controller() {
        let apb = ConnComponent::new(ConnComponentKind::AmbaApb).gate_cost(2);
        for k in [ConnComponentKind::AmbaAsb, ConnComponentKind::AmbaAhb] {
            assert!(ConnComponent::new(k).gate_cost(2) > apb, "{k}");
        }
    }

    #[test]
    fn dedicated_wires_cost_more_than_apb_trunk() {
        // Per-port wire area dominates the dedicated link's cost.
        let ded = ConnComponent::new(ConnComponentKind::Dedicated);
        let apb = ConnComponent::new(ConnComponentKind::AmbaApb);
        assert!(ded.gate_cost(1) > apb.gate_cost(1));
    }

    #[test]
    fn zero_bytes_zero_cycles() {
        let c = ConnComponent::new(ConnComponentKind::AmbaAhb);
        assert_eq!(c.transfer_cycles(0, true), 0);
    }

    #[test]
    fn pipelining_amortizes_beats() {
        let ahb = ConnComponent::new(ConnComponentKind::AmbaAhb);
        // 32 bytes over 4-byte beats = 8 beats; pipelined: 1 + 7 = 8 + arb 2.
        assert_eq!(ahb.transfer_cycles(32, true), 10);
        let asb = ConnComponent::new(ConnComponentKind::AmbaAsb);
        // Unpipelined: 8 beats * 2 cycles + arb 2 = 18.
        assert_eq!(asb.transfer_cycles(32, true), 18);
    }

    #[test]
    fn unshared_skips_arbitration() {
        let asb = ConnComponent::new(ConnComponentKind::AmbaAsb);
        assert_eq!(
            asb.transfer_cycles(4, true) - asb.transfer_cycles(4, false),
            asb.params().arbitration_cycles
        );
    }

    #[test]
    fn off_chip_flag() {
        assert!(ConnComponentKind::OffChipBus.params().off_chip);
        for k in ConnComponentKind::ON_CHIP {
            assert!(!k.params().off_chip, "{k}");
        }
    }

    #[test]
    fn energy_scales_with_bytes() {
        let c = ConnComponent::new(ConnComponentKind::OffChipBus);
        assert!(c.transfer_energy_nj(32) > c.transfer_energy_nj(4));
    }

    #[test]
    fn split_implies_outstanding() {
        for k in ConnComponentKind::ON_CHIP {
            let p = k.params();
            if p.outstanding > 1 {
                assert!(p.split_transaction, "{k}: outstanding>1 needs split");
            }
        }
    }

    #[test]
    fn display_mentions_width() {
        let c = ConnComponent::new(ConnComponentKind::AmbaAhb);
        let s = c.to_string();
        assert!(s.contains("AHB"), "{s}");
        assert!(s.contains("pipelined"), "{s}");
    }
}
