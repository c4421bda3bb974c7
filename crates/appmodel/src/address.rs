//! Address newtypes.
//!
//! A trace address is a plain byte address in a flat virtual address space.
//! Newtypes keep byte addresses, block numbers and data-structure offsets
//! from being mixed up across the simulator crates ([C-NEWTYPE]).

use std::fmt;
use std::ops::{Add, Sub};

/// A byte address in the application's flat address space.
///
/// ```
/// use mce_appmodel::Addr;
/// let a = Addr::new(0x1000);
/// assert_eq!(a.offset(16).raw(), 0x1010);
/// assert_eq!(a.block(64), 0x40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow (debug builds), matching integer
    /// addition semantics.
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }

    /// Returns the block (line) number of this address for a block of
    /// `block_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub const fn block(self, block_bytes: u64) -> u64 {
        assert!(block_bytes > 0, "block size must be non-zero");
        self.0 / block_bytes
    }

    /// Returns the address aligned down to a multiple of `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub const fn align_down(self, align: u64) -> Self {
        assert!(align > 0, "alignment must be non-zero");
        Addr(self.0 - self.0 % align)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        a.0
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

/// A half-open byte range `[base, base + len)` in the address space.
///
/// Used to describe where a data structure lives so the memory architecture
/// can map addresses back to the module serving them.
///
/// ```
/// use mce_appmodel::{Addr, AddrRange};
/// let r = AddrRange::new(Addr::new(0x1000), 256);
/// assert!(r.contains(Addr::new(0x10ff)));
/// assert!(!r.contains(Addr::new(0x1100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    base: Addr,
    len: u64,
}

impl AddrRange {
    /// Creates a range starting at `base` spanning `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(base: Addr, len: u64) -> Self {
        assert!(len > 0, "address range must be non-empty");
        AddrRange { base, len }
    }

    /// The first address of the range.
    pub const fn base(self) -> Addr {
        self.base
    }

    /// The length of the range in bytes.
    pub const fn len(self) -> u64 {
        self.len
    }

    /// Always false: ranges are non-empty by construction.
    pub const fn is_empty(self) -> bool {
        false
    }

    /// One past the last address of the range.
    pub const fn end(self) -> Addr {
        Addr::new(self.base.raw() + self.len)
    }

    /// Returns true if `addr` falls inside the range.
    pub const fn contains(self, addr: Addr) -> bool {
        addr.raw() >= self.base.raw() && addr.raw() < self.base.raw() + self.len
    }

    /// Returns true if the two ranges share at least one byte.
    pub const fn overlaps(self, other: AddrRange) -> bool {
        self.base.raw() < other.end().raw() && other.base.raw() < self.end().raw()
    }

    /// Clamps an arbitrary offset into the range and returns the address.
    pub const fn at(self, offset: u64) -> Addr {
        Addr::new(self.base.raw() + offset % self.len)
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.base, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_and_align() {
        let a = Addr::new(0x1234);
        assert_eq!(a.block(0x100), 0x12);
        assert_eq!(a.align_down(0x100), Addr::new(0x1200));
        assert_eq!(a.align_down(1), a);
    }

    #[test]
    fn addr_arithmetic() {
        let a = Addr::new(100);
        assert_eq!(a + 28, Addr::new(128));
        assert_eq!(Addr::new(128) - a, 28);
        assert_eq!(a.offset(5).raw(), 105);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr::new(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", Addr::new(0xbeef)), "beef");
    }

    #[test]
    fn range_contains_boundaries() {
        let r = AddrRange::new(Addr::new(10), 10);
        assert!(r.contains(Addr::new(10)));
        assert!(r.contains(Addr::new(19)));
        assert!(!r.contains(Addr::new(20)));
        assert!(!r.contains(Addr::new(9)));
    }

    #[test]
    fn range_overlap() {
        let a = AddrRange::new(Addr::new(0), 100);
        let b = AddrRange::new(Addr::new(99), 10);
        let c = AddrRange::new(Addr::new(100), 10);
        assert!(a.overlaps(b));
        assert!(b.overlaps(a));
        assert!(!a.overlaps(c));
        assert!(!c.overlaps(a));
    }

    #[test]
    fn range_at_wraps() {
        let r = AddrRange::new(Addr::new(1000), 16);
        assert_eq!(r.at(0), Addr::new(1000));
        assert_eq!(r.at(15), Addr::new(1015));
        assert_eq!(r.at(16), Addr::new(1000));
        assert_eq!(r.at(35), Addr::new(1003));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = AddrRange::new(Addr::new(0), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_block_rejected() {
        let _ = Addr::new(0).block(0);
    }
}
