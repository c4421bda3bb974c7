//! The pseudo-random stream every synthetic trace is drawn from.
//!
//! Each trace — and so every pinned report, digest and figure — is a
//! function of this stream, so the workspace owns the generator instead of
//! borrowing one whose stream may change between crate versions. It is
//! xoshiro256++ seeded by a PCG32 expansion of a `u64`, and it offers only
//! the draws trace generation makes.

/// The splitmix64 increment, 2⁶⁴ divided by the golden ratio.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective 64-bit mix, used where a value
/// must look random but stay a pure function of its input.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: each state word is two outputs of a PCG32
    /// stepped from `seed`, low half first.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        let mut pcg32 = || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let xorshifted = (((seed >> 18) ^ seed) >> 27) as u32;
            u64::from(xorshifted.rotate_right((seed >> 59) as u32))
        };
        let mut s = [0; 4];
        for word in &mut s {
            *word = pcg32() | (pcg32() << 32);
        }
        if s == [0; 4] {
            // xoshiro must not start from the all-zero state.
            s = [
                GOLDEN_GAMMA,
                0xbf58_476d_1ce4_e5b9,
                0x94d0_49bb_1331_11eb,
                0x2545_f491_4f6c_dd1d,
            ];
        }
        Rng { s }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A fair coin: the top bit of the next draw.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of the next draw.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A draw from `0..=max`, reduced modulo the span (slightly biased for
    /// spans that do not divide 2⁶⁴, which the pinned traces rely on).
    #[inline]
    pub fn next_up_to(&mut self, max: u64) -> u64 {
        (u128::from(self.next_u64()) % (u128::from(max) + 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every trace, and so every pinned report and digest, is a function
    /// of this stream. Per seed (the default `0xC0DE` and both extremes):
    /// the first four words, then one `f64`, one `bool` and one `0..=4`.
    #[test]
    fn trace_rng_stream_is_pinned() {
        #[rustfmt::skip]
        let pins: [(u64, [u64; 4], f64, bool, u64); 3] = [
            (0, [0xd204_baa1_e02c_cc10, 0x662d_0cc4_93b5_41f5, 0x42ba_2764_d3b1_a879, 0x5117_ace8_990a_c59b],
                0.298_266_751_795_157_27, false, 0),
            (0xC0DE, [0xb0dc_1c1c_b5d3_ee43, 0x12e0_b40d_cad7_6919, 0x82c6_6a02_0df6_f080, 0x28a6_c93a_c8b4_94c3],
                0.084_595_448_368_821_16, false, 2),
            (u64::MAX, [0xaaa6_2ee3_c501_e445, 0x154a_0f35_7d01_ace8, 0x6c53_01b9_439a_dd24, 0x4ff8_bdee_2c0c_1af0],
                0.816_579_327_129_824_1, true, 4),
        ];
        for (seed, words, f, b, r) in pins {
            let mut rng = Rng::seed_from_u64(seed);
            let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            assert_eq!(got, words, "seed {seed:#x}");
            assert_eq!(rng.next_f64().to_bits(), f.to_bits(), "seed {seed:#x}");
            assert_eq!(rng.next_bool(), b, "seed {seed:#x}");
            assert_eq!(rng.next_up_to(4), r, "seed {seed:#x}");
        }
    }
}
