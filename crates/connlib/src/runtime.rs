//! Runtime (per-simulation) state of connectivity links.
//!
//! A [`LinkState`] couples a component's occupancy schedule with its arbiter
//! so the system simulator can ask, transfer by transfer, *when does this
//! move of N bytes start and finish* — with queueing delay from earlier
//! transfers, arbitration delay from sharing, and the pipelining behaviour
//! of the component all accounted for.
//!
//! Fixed-priority links keep one busy-until cycle per data-phase slot,
//! which gives the start times a [`ReservationTable`] would (see
//! [`LinkState::transfer`]); round-robin and TDMA links keep the table.

use crate::arbiter::Arbiter;
use crate::component::ConnComponent;
use crate::reservation::ReservationTable;
use std::fmt;

/// When a scheduled transfer occupies the link and when its data arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTiming {
    /// Cycle the transfer was granted the link.
    pub start: u64,
    /// Cycle the last byte arrives.
    pub complete: u64,
}

impl TransferTiming {
    /// Total latency from the ready time used at scheduling.
    pub fn latency_from(&self, ready: u64) -> u64 {
        self.complete.saturating_sub(ready)
    }
}

impl fmt::Display for TransferTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{}]", self.start, self.complete)
    }
}

/// When each data-phase slot of a link is next free.
#[derive(Debug, Clone)]
enum Occupancy {
    /// Per slot, the cycle its last reservation ends. Exact when requests
    /// never decrease, which holds for a fixed-priority arbiter's constant
    /// wait.
    BusyUntil(Vec<u64>),
    /// Round-robin and TDMA waits vary per call, so a later request can
    /// start in a gap before an earlier reservation.
    Table(ReservationTable),
}

/// Mutable per-link simulation state.
#[derive(Debug, Clone)]
pub struct LinkState {
    component: ConnComponent,
    ports: u32,
    occupancy: Occupancy,
    arbiter: Arbiter,
    /// Ready time of the previous call, for the nondecreasing contract.
    last_ready: u64,
    transfers: u64,
    bytes: u64,
    busy_cycles: u64,
}

impl LinkState {
    /// Creates runtime state for a link with `ports` attached channels,
    /// using the arbitration policy declared in the component's parameters.
    pub fn new(component: ConnComponent, ports: u32) -> Self {
        let p = component.params();
        let arbiter = p.arbiter.instantiate(p.arbitration_cycles, ports);
        Self::with_arbiter(component, ports, arbiter)
    }

    /// Creates runtime state with an explicit arbitration policy. The
    /// policy also picks the schedule: busy-until slots for fixed
    /// priority, a reservation table otherwise.
    pub fn with_arbiter(component: ConnComponent, ports: u32, arbiter: Arbiter) -> Self {
        // Split-transaction components expose `outstanding` independent
        // data-phase slots; others a single occupancy resource.
        let slots = component.params().outstanding.max(1) as usize;
        let occupancy = match arbiter {
            Arbiter::FixedPriority { .. } => Occupancy::BusyUntil(vec![0; slots]),
            Arbiter::RoundRobin { .. } | Arbiter::Tdma { .. } => {
                Occupancy::Table(ReservationTable::new(slots))
            }
        };
        LinkState {
            component,
            ports,
            occupancy,
            arbiter,
            last_ready: 0,
            transfers: 0,
            bytes: 0,
            busy_cycles: 0,
        }
    }

    /// The backing component.
    pub const fn component(&self) -> &ConnComponent {
        &self.component
    }

    /// Attached channel count.
    pub const fn ports(&self) -> u32 {
        self.ports
    }

    /// Transfers scheduled so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Bytes moved so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Cycles the link has been occupied so far.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Energy consumed so far, nJ.
    pub fn energy_nj(&self) -> f64 {
        // Per-transfer fixed cost + per-byte cost, from the component model.
        self.transfers as f64 * self.component.params().energy_per_transfer_nj
            + self.bytes as f64 * self.component.params().energy_per_byte_nj
    }

    /// Schedules a transfer of `bytes` requested by `master`, ready to
    /// start at `ready`. Returns when it starts and completes.
    ///
    /// Ready times must be nondecreasing across calls (trace order; the
    /// simulator clamps each link's ready time to a floor). A fixed-priority
    /// wait is constant per link, so requests (`ready + wait`) never
    /// decrease either: every gap a slot's reservations leave lies before
    /// the current request, and the earliest start on a slot is
    /// `max(request, busy_until)` — what the reservation table's scan
    /// returns, in O(1) per slot.
    pub fn transfer(&mut self, ready: u64, bytes: u64, master: usize) -> TransferTiming {
        debug_assert!(
            ready >= self.last_ready,
            "link ready time went backwards: {ready} after {}",
            self.last_ready
        );
        self.last_ready = ready;
        if bytes == 0 {
            return TransferTiming {
                start: ready,
                complete: ready,
            };
        }
        let p = *self.component.params();
        let contended = self.ports > 1;
        let wait = self.arbiter.grant_delay(master, ready, contended) as u64;
        let beats = bytes.div_ceil(p.width_bytes as u64) as u32;
        // Occupancy: a pipelined bus streams one beat per cycle; an
        // unpipelined one holds the bus for the full beat time.
        let occupancy = if p.pipelined {
            beats
        } else {
            beats * p.cycles_per_beat
        };
        let cycles = occupancy.max(1);
        let request = ready + wait;
        // Split-transaction components may start a transfer on any free
        // data-phase slot: take the earliest (lowest slot on ties).
        let start = match &mut self.occupancy {
            Occupancy::BusyUntil(busy) => {
                let (slot, start) = busy
                    .iter()
                    .map(|&until| request.max(until))
                    .enumerate()
                    .min_by_key(|&(_, start)| start)
                    .expect("a link has at least one slot");
                busy[slot] = start + cycles as u64;
                start
            }
            Occupancy::Table(table) if table.num_resources() > 1 => {
                table.advance_horizon(ready);
                let (slot, start) = (0..table.num_resources())
                    .map(|slot| (slot, table.earliest_start(slot, cycles, request)))
                    .min_by_key(|&(_, start)| start)
                    .expect("a link has at least one slot");
                table.reserve(slot, cycles, start);
                start
            }
            Occupancy::Table(table) => table.schedule(0, cycles, request),
        };
        // Completion adds the un-arbitrated transfer latency (arbitration
        // was already paid via the arbiter model).
        let complete = start + self.component.transfer_cycles(bytes, false) as u64;
        self.transfers += 1;
        self.bytes += bytes;
        self.busy_cycles += occupancy as u64;
        TransferTiming { start, complete }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ConnComponentKind;

    fn link(kind: ConnComponentKind, ports: u32) -> LinkState {
        LinkState::new(ConnComponent::new(kind), ports)
    }

    #[test]
    fn single_port_has_no_arbitration() {
        let mut l = link(ConnComponentKind::AmbaAsb, 1);
        let t = l.transfer(0, 4, 0);
        assert_eq!(t.start, 0);
        assert_eq!(t.complete, 2); // one 4B beat at 2 cycles
    }

    #[test]
    fn shared_bus_pays_arbitration() {
        let mut l = link(ConnComponentKind::AmbaAsb, 2);
        let t = l.transfer(0, 4, 0);
        assert_eq!(t.start, 2); // 2 arbitration cycles
        assert_eq!(t.complete, 4);
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut l = link(ConnComponentKind::AmbaAsb, 1);
        let a = l.transfer(0, 32, 0); // 8 beats * 2 = 16 cycles occupancy
        let b = l.transfer(0, 4, 0);
        assert_eq!(a.start, 0);
        assert!(b.start >= 16, "second transfer must wait: {}", b.start);
    }

    #[test]
    fn pipelined_bus_has_higher_throughput() {
        let mut ahb = link(ConnComponentKind::AmbaAhb, 1);
        let mut asb = link(ConnComponentKind::AmbaAsb, 1);
        let mut ahb_done = 0;
        let mut asb_done = 0;
        for i in 0..10 {
            ahb_done = ahb.transfer(i, 32, 0).complete;
            asb_done = asb.transfer(i, 32, 0).complete;
        }
        assert!(ahb_done < asb_done, "AHB {ahb_done} vs ASB {asb_done}");
    }

    #[test]
    fn split_transactions_overlap() {
        // AHB supports 4 outstanding: simultaneous-ready transfers overlap
        // instead of fully serializing.
        let mut split = link(ConnComponentKind::AmbaAhb, 2);
        let t1 = split.transfer(0, 32, 0);
        let t2 = split.transfer(0, 32, 1);
        assert!(t2.start < t1.complete, "t2 {t2} should overlap t1 {t1}");
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        let mut l = link(ConnComponentKind::Mux, 2);
        let t = l.transfer(7, 0, 0);
        assert_eq!(t.start, 7);
        assert_eq!(t.complete, 7);
        assert_eq!(l.transfers(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut l = link(ConnComponentKind::OffChipBus, 1);
        l.transfer(0, 32, 0);
        l.transfer(50, 8, 0);
        assert_eq!(l.transfers(), 2);
        assert_eq!(l.bytes(), 40);
        assert!(l.busy_cycles() > 0);
        assert!(l.energy_nj() > 0.0);
    }

    #[test]
    fn energy_matches_component_model() {
        let mut l = link(ConnComponentKind::OffChipBus, 1);
        l.transfer(0, 32, 0);
        let expected = ConnComponent::new(ConnComponentKind::OffChipBus).transfer_energy_nj(32);
        assert!((l.energy_nj() - expected).abs() < 1e-9);
    }

    #[test]
    fn latency_from_ready() {
        let t = TransferTiming {
            start: 5,
            complete: 12,
        };
        assert_eq!(t.latency_from(3), 9);
        assert_eq!(t.latency_from(20), 0);
    }

    #[test]
    fn declared_tdma_policy_changes_timing() {
        use crate::arbiter::ArbiterKind;
        let mut params = ConnComponentKind::AmbaAsb.params();
        params.arbiter = ArbiterKind::Tdma { slot_cycles: 8 };
        let tdma = ConnComponent::with_params(ConnComponentKind::AmbaAsb, params);
        let mut tdma_link = LinkState::new(tdma, 2);
        let mut fixed_link = link(ConnComponentKind::AmbaAsb, 2);
        // Master 1 at cycle 0: TDMA must wait for its slot (8 cycles),
        // fixed priority only pays the 2-cycle grant.
        let t = tdma_link.transfer(0, 4, 1);
        let f = fixed_link.transfer(0, 4, 1);
        assert!(t.start > f.start, "TDMA {t} vs fixed {f}");
    }

    #[test]
    fn tdma_link_back_fills_a_gap_before_a_later_reservation() {
        use crate::arbiter::ArbiterKind;
        let mut params = ConnComponentKind::AmbaAsb.params();
        params.arbiter = ArbiterKind::Tdma { slot_cycles: 8 };
        let mut l = LinkState::new(
            ConnComponent::with_params(ConnComponentKind::AmbaAsb, params),
            2,
        );
        assert!(matches!(l.occupancy, Occupancy::Table(_)));
        // Master 1 waits for its slot at cycle 8 and holds the bus [8, 10).
        assert_eq!(l.transfer(0, 4, 1).start, 8);
        // Master 0's slot is now: it starts in the gap before [8, 10).
        // A busy-until schedule would have queued it behind, at 10.
        assert_eq!(l.transfer(0, 4, 0).start, 0);
    }

    #[test]
    fn fixed_priority_links_keep_busy_until_per_slot() {
        let l = link(ConnComponentKind::AmbaAhb, 2);
        assert!(matches!(&l.occupancy, Occupancy::BusyUntil(b) if b.len() == 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ready time went backwards")]
    fn decreasing_ready_time_is_rejected() {
        let mut l = link(ConnComponentKind::AmbaAsb, 1);
        l.transfer(10, 4, 0);
        l.transfer(9, 4, 0);
    }

    #[test]
    fn declared_round_robin_policy_instantiates() {
        use crate::arbiter::ArbiterKind;
        let mut params = ConnComponentKind::Mux.params();
        params.arbiter = ArbiterKind::RoundRobin;
        let l = LinkState::new(
            ConnComponent::with_params(ConnComponentKind::Mux, params),
            3,
        );
        assert!(matches!(l.arbiter, Arbiter::RoundRobin { .. }));
    }
}
