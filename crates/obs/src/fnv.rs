//! The workspace's one non-cryptographic hash: two-lane FNV-1a. Lane one
//! is standard 64-bit FNV-1a; lane two starts from the upper half of the
//! 128-bit FNV offset basis and multiplies by a constant decorrelated
//! from the FNV prime. Checkpoint headers, archive ids, canonical
//! design-point keys and spill checksums are all pinned to it, so the
//! constants never change.

const OFFSET_1: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME_1: u64 = 0x0000_0100_0000_01b3;
const OFFSET_2: u64 = 0x6c62_272e_07bb_0142;
const PRIME_2: u64 = 0x9e37_79b9_7f4a_7c15;

/// An incremental two-lane FNV-1a hasher; `default()` is the offset
/// basis.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128 {
    a: u64,
    b: u64,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128 {
            a: OFFSET_1,
            b: OFFSET_2,
        }
    }
}

impl Fnv128 {
    /// Mixes one byte into both lanes.
    #[inline]
    pub fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(PRIME_1);
        self.b = (self.b ^ u64::from(x)).wrapping_mul(PRIME_2);
    }

    /// Mixes `bytes` into both lanes, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.byte(x);
        }
    }

    /// The two lanes; `.0` is plain 64-bit FNV-1a.
    #[inline]
    pub fn lanes(self) -> (u64, u64) {
        (self.a, self.b)
    }
}

/// Two-lane FNV-1a over `bytes`, as 32 hex chars (lane one first).
pub fn fnv128(bytes: &[u8]) -> String {
    let mut h = Fnv128::default();
    h.bytes(bytes);
    let (a, b) = h.lanes();
    format!("{a:016x}{b:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_pinned() {
        assert_eq!(fnv128(b""), "cbf29ce4842223256c62272e07bb0142");
        assert_eq!(fnv128(b"mce"), "081638191773142c24bf59a653456d41");
        let mut h = Fnv128::default();
        h.bytes(b"a");
        // The published 64-bit FNV-1a test vector.
        assert_eq!(h.lanes().0, 0xaf63_dc4c_8601_ec8c);
    }
}
