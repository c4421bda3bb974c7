//! Bus arbitration models.
//!
//! Shared connectivity components need an arbiter to decide which master
//! proceeds. The paper's library captures this as per-component arbitration
//! latency; the models here additionally make the *policy* explicit so that
//! fairness effects (round-robin), priority inversion (fixed priority) and
//! slot waiting (TDMA) are simulatable and testable.

use std::fmt;

/// Declarative arbitration policy, stored in a component's parameter tuple
/// ([`ConnParams::arbiter`](crate::ConnParams)); instantiated into a
/// stateful [`Arbiter`] per link at simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterKind {
    /// Fixed priority with the component's grant latency.
    #[default]
    FixedPriority,
    /// Rotating-token round robin.
    RoundRobin,
    /// Time-division multiple access with the given slot width.
    Tdma {
        /// Cycles per slot.
        slot_cycles: u32,
    },
}

mce_obs::json_codec! { enum ArbiterKind { FixedPriority, RoundRobin, Tdma { slot_cycles } } }

impl ArbiterKind {
    /// Instantiates the runtime arbiter for a link with `ports` attached
    /// masters and the component's `grant_cycles` latency.
    pub fn instantiate(self, grant_cycles: u32, ports: u32) -> Arbiter {
        match self {
            ArbiterKind::FixedPriority => Arbiter::fixed(grant_cycles),
            ArbiterKind::RoundRobin => Arbiter::round_robin(grant_cycles.max(1)),
            ArbiterKind::Tdma { slot_cycles } => {
                Arbiter::tdma(slot_cycles.max(1), ports.max(1) as usize)
            }
        }
    }
}

impl fmt::Display for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbiterKind::FixedPriority => f.write_str("fixed-priority"),
            ArbiterKind::RoundRobin => f.write_str("round-robin"),
            ArbiterKind::Tdma { slot_cycles } => write!(f, "TDMA({slot_cycles})"),
        }
    }
}

/// Arbitration policy of a shared component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arbiter {
    /// Lower master index wins; the configured grant delay applies whenever
    /// more than one port is attached.
    FixedPriority {
        /// Cycles to resolve a grant.
        grant_cycles: u32,
    },
    /// Rotating priority: the grant delay grows with the distance from the
    /// last-granted master, modelling the token walk.
    RoundRobin {
        /// Cycles per position the token must advance.
        cycles_per_hop: u32,
        /// Last granted master (internal state).
        last_granted: usize,
    },
    /// Time-division: master `m` may only start in its slot of a fixed
    /// schedule of `slot_cycles × num_masters` cycles.
    Tdma {
        /// Cycles per slot.
        slot_cycles: u32,
        /// Number of masters in the schedule.
        num_masters: usize,
    },
}

impl Arbiter {
    /// A fixed-priority arbiter with the component's grant latency.
    pub const fn fixed(grant_cycles: u32) -> Self {
        Arbiter::FixedPriority { grant_cycles }
    }

    /// A fresh round-robin arbiter.
    pub const fn round_robin(cycles_per_hop: u32) -> Self {
        Arbiter::RoundRobin {
            cycles_per_hop,
            last_granted: 0,
        }
    }

    /// A TDMA arbiter.
    ///
    /// # Panics
    ///
    /// Panics if `slot_cycles` or `num_masters` is zero.
    pub fn tdma(slot_cycles: u32, num_masters: usize) -> Self {
        assert!(slot_cycles > 0, "TDMA slot must be non-zero");
        assert!(num_masters > 0, "TDMA needs at least one master");
        Arbiter::Tdma {
            slot_cycles,
            num_masters,
        }
    }

    /// Cycles master `master` must wait from `now` before its transfer may
    /// issue, updating arbiter state.
    ///
    /// `contended` is false when the component has a single attached port
    /// (no arbitration needed at all).
    pub fn grant_delay(&mut self, master: usize, now: u64, contended: bool) -> u32 {
        if !contended {
            return 0;
        }
        match self {
            Arbiter::FixedPriority { grant_cycles } => *grant_cycles,
            Arbiter::RoundRobin {
                cycles_per_hop,
                last_granted,
            } => {
                let hops = if master >= *last_granted {
                    master - *last_granted
                } else {
                    // wrap-around distance in a ring of unknown size: use 1
                    1
                } as u32;
                *last_granted = master;
                hops.max(1) * *cycles_per_hop
            }
            Arbiter::Tdma {
                slot_cycles,
                num_masters,
            } => {
                let frame = *slot_cycles as u64 * *num_masters as u64;
                let slot_start = (master % *num_masters) as u64 * *slot_cycles as u64;
                let pos = now % frame;
                let wait = if pos <= slot_start {
                    slot_start - pos
                } else {
                    frame - pos + slot_start
                };
                wait as u32
            }
        }
    }
}

impl fmt::Display for Arbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arbiter::FixedPriority { grant_cycles } => {
                write!(f, "fixed-priority({grant_cycles})")
            }
            Arbiter::RoundRobin { cycles_per_hop, .. } => {
                write!(f, "round-robin({cycles_per_hop})")
            }
            Arbiter::Tdma {
                slot_cycles,
                num_masters,
            } => {
                write!(f, "TDMA({slot_cycles}x{num_masters})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_is_free() {
        let mut a = Arbiter::fixed(3);
        assert_eq!(a.grant_delay(0, 100, false), 0);
    }

    #[test]
    fn fixed_priority_constant_delay() {
        let mut a = Arbiter::fixed(2);
        assert_eq!(a.grant_delay(0, 0, true), 2);
        assert_eq!(a.grant_delay(5, 99, true), 2);
    }

    #[test]
    fn round_robin_tracks_token() {
        let mut a = Arbiter::round_robin(1);
        let d1 = a.grant_delay(3, 0, true); // token walks 0 -> 3
        assert_eq!(d1, 3);
        let d2 = a.grant_delay(3, 10, true); // already at 3: minimum 1 hop
        assert_eq!(d2, 1);
        let d3 = a.grant_delay(1, 20, true); // wrap-around modelled as 1 hop
        assert_eq!(d3, 1);
    }

    #[test]
    fn tdma_waits_for_slot() {
        let mut a = Arbiter::tdma(4, 2); // frame of 8: m0 slot [0,4), m1 [4,8)
        assert_eq!(a.grant_delay(0, 0, true), 0);
        assert_eq!(a.grant_delay(1, 0, true), 4);
        assert_eq!(a.grant_delay(0, 5, true), 3, "wrap to next frame");
        assert_eq!(a.grant_delay(1, 4, true), 0);
    }

    #[test]
    fn tdma_slot_start_boundary() {
        let mut a = Arbiter::tdma(4, 2);
        assert_eq!(a.grant_delay(1, 4, true), 0);
        assert_eq!(a.grant_delay(1, 12, true), 0, "second frame slot start");
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn tdma_zero_masters_rejected() {
        let _ = Arbiter::tdma(4, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Arbiter::fixed(2).to_string(), "fixed-priority(2)");
        assert_eq!(Arbiter::tdma(4, 3).to_string(), "TDMA(4x3)");
    }
}
