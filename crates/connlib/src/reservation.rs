//! Reservation tables for transfer timing.
//!
//! The paper estimates connectivity performance with Reservation Tables
//! (refs [11, 14, 15]): an operation declares which resource it occupies
//! for how long, and it can issue at the earliest time where that usage
//! does not collide with an existing reservation. This captures latency
//! and resource conflicts (two transfers contending for the same bus) in
//! one mechanism.
//!
//! Every operation the simulator schedules occupies a single resource for
//! a number of cycles from issue — a bus for a transfer's occupancy, or
//! one data-phase slot of a split-transaction bus — so the table's
//! operations take that `(resource, cycles)` pair directly.
//!
//! Links with round-robin or TDMA arbitration schedule through this table.
//! Fixed-priority links keep only a busy-until cycle per slot, which gives
//! the same start times because their requests never decrease
//! ([`LinkState::transfer`](crate::LinkState::transfer)); the table stays
//! the reference that path is tested against.

use std::collections::VecDeque;

/// A busy interval `[start, end)` on one resource.
type Interval = (u64, u64);

/// A reservation table over a fixed set of resources.
///
/// Reservations are inserted in nondecreasing ready-time order (the
/// simulator replays a time-ordered trace), which lets the table prune
/// intervals that can no longer conflict. [`ReservationTable::earliest_start`]
/// performs the classic forward scan for the first conflict-free issue slot.
///
/// ```
/// use mce_connlib::ReservationTable;
/// // A 2-beat unpipelined bus transfer holds the bus for 4 cycles.
/// let mut table = ReservationTable::new(1);
/// assert_eq!(table.schedule(0, 4, 0), 0);
/// assert_eq!(table.schedule(0, 4, 1), 4, "the second transfer queues");
/// ```
#[derive(Debug, Clone)]
pub struct ReservationTable {
    resources: Vec<VecDeque<Interval>>,
    /// Earliest ready time seen; reservations entirely before this can be
    /// pruned lazily.
    horizon: u64,
}

impl ReservationTable {
    /// Creates a table with `resources` independent resources.
    ///
    /// # Panics
    ///
    /// Panics if `resources` is zero.
    pub fn new(resources: usize) -> Self {
        assert!(resources > 0, "need at least one resource");
        ReservationTable {
            resources: vec![VecDeque::new(); resources],
            horizon: 0,
        }
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Panics unless `resource` is in the table and `cycles` is non-zero.
    fn check(&self, resource: usize, cycles: u32) {
        assert!(cycles > 0, "zero-length usage");
        assert!(
            resource < self.resources.len(),
            "operation references unknown resource"
        );
    }

    /// True if occupying `resource` for `cycles` from `t` collides with an
    /// existing reservation.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is outside the table or `cycles` is zero.
    pub fn conflicts(&self, resource: usize, cycles: u32, t: u64) -> bool {
        self.check(resource, cycles);
        let e = t + cycles as u64;
        self.resources[resource]
            .iter()
            .any(|&(bs, be)| t < be && bs < e)
    }

    /// Earliest `t >= ready` at which `resource` is free for `cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is outside the table or `cycles` is zero.
    pub fn earliest_start(&self, resource: usize, cycles: u32, ready: u64) -> u64 {
        self.check(resource, cycles);
        let intervals = &self.resources[resource];
        let mut t = ready;
        // Jump-scan: on a conflict, hop to the end of the latest blocking
        // interval rather than stepping cycle by cycle.
        loop {
            let e = t + cycles as u64;
            let blocked_until = intervals
                .iter()
                .filter(|&&(bs, be)| t < be && bs < e)
                .map(|&(_, be)| be)
                .max();
            match blocked_until {
                // A blocking interval ends after `t` by definition.
                Some(next) => t = next,
                None => return t,
            }
        }
    }

    /// Records `resource` busy for `cycles` from `t`.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is outside the table or `cycles` is zero.
    pub fn reserve(&mut self, resource: usize, cycles: u32, t: u64) {
        self.check(resource, cycles);
        self.resources[resource].push_back((t, t + cycles as u64));
    }

    /// Convenience: find the earliest start at or after `ready`, reserve it,
    /// and return the issue time.
    ///
    /// Also advances the pruning horizon to `ready`: reservations that ended
    /// before `ready` can never conflict with this or any later call (ready
    /// times are nondecreasing) and are dropped.
    pub fn schedule(&mut self, resource: usize, cycles: u32, ready: u64) -> u64 {
        self.prune(ready);
        let t = self.earliest_start(resource, cycles, ready);
        self.reserve(resource, cycles, t);
        t
    }

    /// Advances the pruning horizon to `ready`, dropping reservations that
    /// ended at or before it. Callers that bypass [`ReservationTable::schedule`]
    /// (e.g. to pick among slots manually) should call this with each new
    /// nondecreasing ready time to keep the table bounded.
    pub fn advance_horizon(&mut self, ready: u64) {
        self.prune(ready);
    }

    /// Drops intervals that end at or before the new horizon. Sound because
    /// ready times are nondecreasing.
    fn prune(&mut self, ready: u64) {
        if ready > self.horizon {
            self.horizon = ready;
            for res in &mut self.resources {
                while matches!(res.front(), Some(&(_, end)) if end <= self.horizon) {
                    res.pop_front();
                }
            }
        }
    }

    /// Total reserved busy cycles currently tracked (for utilization stats).
    pub fn busy_cycles(&self) -> u64 {
        self.resources
            .iter()
            .flat_map(|r| r.iter())
            .map(|&(s, e)| e - s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_issues_immediately() {
        let t = ReservationTable::new(1);
        assert_eq!(t.earliest_start(0, 4, 10), 10);
    }

    #[test]
    fn sequential_transfers_serialize() {
        let mut t = ReservationTable::new(1);
        assert_eq!(t.schedule(0, 4, 0), 0);
        assert_eq!(t.schedule(0, 4, 0), 4);
        assert_eq!(t.schedule(0, 4, 0), 8);
    }

    #[test]
    fn gap_is_found_between_reservations() {
        let mut t = ReservationTable::new(1);
        t.reserve(0, 4, 0); // busy [0,4)
        t.reserve(0, 4, 10); // busy [10,14)
        assert_eq!(t.earliest_start(0, 2, 0), 4, "fits in the [4,10) gap");
        assert_eq!(t.earliest_start(0, 7, 0), 14, "too long for the gap");
    }

    #[test]
    fn unpipelined_pattern_serializes_fully() {
        // One resource held for both phases: ops issue every 2 cycles.
        let mut t = ReservationTable::new(1);
        assert_eq!(t.schedule(0, 2, 0), 0);
        assert_eq!(t.schedule(0, 2, 0), 2);
    }

    #[test]
    fn conflicts_detects_overlap() {
        let mut t = ReservationTable::new(1);
        t.reserve(0, 3, 5);
        assert!(t.conflicts(0, 3, 4));
        assert!(t.conflicts(0, 3, 7));
        assert!(!t.conflicts(0, 3, 8));
        assert!(!t.conflicts(0, 3, 2));
    }

    #[test]
    fn resources_are_independent() {
        let mut t = ReservationTable::new(2);
        t.reserve(1, 4, 0);
        assert_eq!(t.earliest_start(0, 1, 0), 0, "r1 busy leaves r0 free");
        assert_eq!(t.earliest_start(1, 1, 0), 4, "r1 busy blocks r1");
    }

    #[test]
    fn pruning_keeps_behavior() {
        let mut t = ReservationTable::new(1);
        for i in 0..1000 {
            t.schedule(0, 2, i * 2);
        }
        // Old intervals pruned, future scheduling still correct.
        assert!(t.busy_cycles() < 100);
        assert_eq!(t.schedule(0, 2, 2000), 2000);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn out_of_range_resource_panics() {
        let t = ReservationTable::new(1);
        let _ = t.earliest_start(5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_usage_rejected() {
        let mut t = ReservationTable::new(1);
        t.reserve(0, 0, 0);
    }
}
