//! Trace events: a single CPU memory access.

use crate::address::Addr;
use crate::data_structure::DsId;
use std::fmt;

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load: the CPU stalls until the data arrives, so read latency is the
    /// quantity the paper's "average memory latency" measures.
    Read,
    /// A store: buffered by the memory system but still occupies module and
    /// connectivity bandwidth.
    Write,
}

impl AccessKind {
    /// Returns true for [`AccessKind::Read`].
    pub const fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns true for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        })
    }
}

/// One memory access issued by the modelled CPU.
///
/// `tick` is the CPU-side issue time in processor cycles, counting the
/// compute work between accesses; the memory system simulator adds memory
/// and connectivity latency on top of it. `ds` identifies the application
/// data structure the access belongs to, which is what lets APEX map data
/// structures to memory modules and ConEx attribute bandwidth to channels.
///
/// ```
/// use mce_appmodel::{Addr, AccessKind, MemAccess, DsId};
/// let a = MemAccess::new(Addr::new(64), AccessKind::Read, DsId::new(0), 12);
/// assert!(a.kind.is_read());
/// assert_eq!(a.tick, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Byte address accessed.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Owning data structure.
    pub ds: DsId,
    /// CPU issue time in cycles.
    pub tick: u64,
}

impl MemAccess {
    /// Creates an access event.
    pub const fn new(addr: Addr, kind: AccessKind, ds: DsId, tick: u64) -> Self {
        MemAccess {
            addr,
            kind,
            ds,
            tick,
        }
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} {} {} ds{}",
            self.tick,
            self.kind,
            self.addr,
            self.ds.index()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
    }

    #[test]
    fn display_round_trip_info() {
        let a = MemAccess::new(Addr::new(0x40), AccessKind::Write, DsId::new(3), 7);
        let s = a.to_string();
        assert!(s.contains("W"), "{s}");
        assert!(s.contains("0x40"), "{s}");
        assert!(s.contains("ds3"), "{s}");
        assert!(s.contains("@7"), "{s}");
    }
}
