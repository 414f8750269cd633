//! Stand-in for `rand` 0.8: exactly the surface the program crates use
//! (`Rng::{gen, gen_range, gen_bool}`, `SeedableRng::seed_from_u64`,
//! `rngs::StdRng`). `StdRng` is xoshiro256** seeded through splitmix64,
//! so the stream differs from the real crate's ChaCha12: generated
//! graphs differ from `results_small.txt`, the program code does not.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (the high half of a 64-bit word).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Uniform draw from `[0, span)` by Lemire's multiply-and-reject.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    /// Panics if the range is empty, like the real crate.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty => $wide:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(below(rng, span) as $wide) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                // span + 1 == 0 only for the full 64-bit domain.
                match span.checked_add(1) {
                    Some(s) => (lo as $wide).wrapping_add(below(rng, s) as $wide) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

int_ranges!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
            i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        loop {
            let x = self.start + (self.end - self.start) * f64::sample(rng);
            // Rounding can land exactly on `end`; redraw to keep it exclusive.
            if x < self.end {
                return x;
            }
        }
    }
}

/// User-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A random value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Expands `seed` into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), the stand-in's only generator.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expansion, as the xoshiro authors recommend;
            // it never yields the all-zero state.
            let mut x = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
