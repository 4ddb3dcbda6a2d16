//! Shared deterministic mixing primitives (SplitMix64), and the seeded
//! property harness built on them.
//!
//! One audited source for every seeded draw and integrity hash in the
//! workspace: the architectural state digest
//! (`qm_sim::snapshot::Snapshot::state_digest`) and the property
//! harness's draws both build on [`mix`]. Keeping the finalizer in one place means one set of tests
//! vouches for its avalanche behaviour, and a change to it cannot
//! silently diverge between its users.
//!
//! The same finalizer drives [`Gen`], the input stream of the property
//! harness [`check`] that every randomized test in the workspace runs
//! on. `Gen` is stateful and exists for tests only; the simulator itself
//! draws nothing but the pure functions above it.

use std::ops::{Bound, RangeBounds};
use std::panic::{self, AssertUnwindSafe};

/// SplitMix64 finalizer: a full-avalanche mix of the 64-bit input.
#[inline]
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `seq`-th draw of stream `stream` under `seed` — pure, so any
/// draw can be recomputed without replaying the others.
#[inline]
#[must_use]
pub fn draw(seed: u64, stream: u64, seq: u64) -> u64 {
    mix(seed ^ mix((stream << 56) ^ seq))
}

/// Integrity checksum of a byte string: a [`mix`]-based rolling fold over
/// 8-byte chunks, with the length folded in so truncations and
/// extensions always change the sum. Not cryptographic — it guards
/// against corruption and mis-framing, not adversaries.
///
/// The same sum as feeding `bytes` to a fresh [`Checksum`] in any
/// number of pieces.
#[inline]
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

/// The streaming form of [`checksum`]: bytes fed in pieces fold into the
/// same sum as the whole string at once, so a serializer can hash its
/// output as it writes it instead of buffering it first.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    h: u64,
    /// The bytes of the unfinished chunk, packed little-endian.
    tail: u64,
    tail_len: usize,
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

impl Checksum {
    /// The sum of no bytes yet.
    #[must_use]
    pub const fn new() -> Self {
        Checksum { h: 0x51CC_5EED_0000_0001, tail: 0, tail_len: 0, len: 0 }
    }

    /// Fold `bytes` in after everything fed so far.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        if bytes.len() <= 8 {
            self.word(bytes);
        } else {
            self.bulk(bytes);
        }
    }

    /// [`Checksum::update`] for at most 8 bytes, all in registers: a
    /// serializer's primitives hash as they are written.
    #[inline]
    fn word(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        let mut word = [0u8; 8];
        word[..n].copy_from_slice(bytes);
        let v = u64::from_le_bytes(word);
        self.len += n as u64;
        let fill = self.tail_len;
        self.tail |= v << (8 * fill);
        if fill + n >= 8 {
            self.h = mix(self.h ^ self.tail);
            // The bytes of `v` that did not fit; `v` is zero past `n`.
            self.tail = if fill == 0 { 0 } else { v >> (64 - 8 * fill) };
            self.tail_len = fill + n - 8;
        } else {
            self.tail_len = fill + n;
        }
    }

    fn bulk(&mut self, bytes: &[u8]) {
        let (head, body) = bytes.split_at((8 - self.tail_len) % 8);
        self.word(head);
        let mut chunks = body.chunks_exact(8);
        for chunk in &mut chunks {
            self.h = mix(self.h ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        self.len += (body.len() - rest.len()) as u64;
        self.word(rest);
    }

    /// The sum of every byte fed so far; a short last chunk is
    /// zero-padded.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        let h = if self.tail_len > 0 { mix(self.h ^ self.tail) } else { self.h };
        mix(h ^ self.len)
    }
}

/// The size [`check`] draws every case at first. Shrinking halves it:
/// at size `s`, every draw of a [`Gen`] spans `s / FULL_SIZE` of its
/// range, measured from the low end, so smaller sizes mean smaller
/// numbers, shorter vectors and earlier choices.
pub const FULL_SIZE: u32 = 1 << 16;

/// A deterministic stream of random test inputs: seed and size fix
/// every value it yields, so a failing case replays exactly from the
/// pair [`check`] reports.
#[derive(Debug)]
pub struct Gen {
    seed: u64,
    seq: u64,
    size: u32,
}

/// The integer types [`Gen::range`] draws.
pub trait Int: Copy {
    /// The smallest value of the type.
    const MIN: Self;
    /// The largest value of the type.
    const MAX: Self;
    /// Widen losslessly.
    fn to_i128(self) -> i128;
    /// Narrow a value known to be in range.
    fn from_i128(v: i128) -> Self;
}

macro_rules! int {
    ($($t:ty)*) => {$(
        impl Int for $t {
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}
int!(u8 u32 u64 usize i8 i32);

impl Gen {
    /// The stream for `seed` at `size` (1 ..= [`FULL_SIZE`]).
    #[must_use]
    pub fn new(seed: u64, size: u32) -> Self {
        assert!((1..=FULL_SIZE).contains(&size), "size {size} outside 1..={FULL_SIZE}");
        Gen { seed, seq: 0, size }
    }

    fn below_wide(&mut self, span: u128) -> u128 {
        self.seq += 1;
        let n = (span * u128::from(self.size) / u128::from(FULL_SIZE)).max(1);
        u128::from(draw(self.seed, 0, self.seq)) % n
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no values");
        self.below_wide(u128::from(n)) as u64
    }

    /// A value in `r`, which must not be empty.
    pub fn range<T: Int>(&mut self, r: impl RangeBounds<T>) -> T {
        let lo = match r.start_bound() {
            Bound::Included(&v) => v.to_i128(),
            Bound::Excluded(&v) => v.to_i128() + 1,
            Bound::Unbounded => T::MIN.to_i128(),
        };
        let hi = match r.end_bound() {
            Bound::Included(&v) => v.to_i128(),
            Bound::Excluded(&v) => v.to_i128() - 1,
            Bound::Unbounded => T::MAX.to_i128(),
        };
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let offset = self.below_wide((hi - lo + 1) as u128);
        T::from_i128(lo + offset as i128)
    }

    /// One of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// An index into `weights`, drawn in proportion to them.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let mut x = self.below(weights.iter().map(|&w| u64::from(w)).sum());
        for (i, &w) in weights.iter().enumerate() {
            if x < u64::from(w) {
                return i;
            }
            x -= u64::from(w);
        }
        unreachable!("x is below the sum of the weights")
    }

    /// A vector whose length is drawn from `len`, each item from `item`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }
}

/// Run `property` on `cases` generated inputs. A case fails when the
/// property panics; the harness then re-runs the same seed at half the
/// size until the case passes, and panics with the seed and the
/// smallest size that still fails, so `property(&mut Gen::new(seed,
/// size))` replays it.
#[track_caller]
pub fn check(cases: u32, property: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let seed = mix(u64::from(case));
        let Some(mut message) = failure(seed, FULL_SIZE, &property) else { continue };
        let mut size = FULL_SIZE;
        while size > 1 {
            match failure(seed, size / 2, &property) {
                Some(m) => (size, message) = (size / 2, m),
                None => break,
            }
        }
        panic!(
            "property failed on case {case}; smallest failing input is \
             Gen::new({seed:#x}, {size}):\n{message}"
        );
    }
}

/// The panic message of one run of `property`, if it panics.
fn failure(seed: u64, size: u32, property: &impl Fn(&mut Gen)) -> Option<String> {
    let payload =
        panic::catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed, size)))).err()?;
    let message = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().map_or("(no message)", |s| s).to_string(),
    };
    Some(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_avalanches_single_bit_flips() {
        // Every single-bit flip of the input should change roughly half
        // the output bits; accept a generous band.
        for bit in 0..64 {
            let a = mix(0xDEAD_BEEF_CAFE_F00D);
            let b = mix(0xDEAD_BEEF_CAFE_F00D ^ (1 << bit));
            let flipped = (a ^ b).count_ones();
            assert!((16..=48).contains(&flipped), "bit {bit}: {flipped} output bits flipped");
        }
    }

    #[test]
    fn draws_are_pure_and_stream_separated() {
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
        assert_ne!(draw(1, 2, 3), draw(1, 3, 3));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
    }

    #[test]
    fn checksum_detects_flips_truncation_and_extension() {
        let data = b"digest section payload".to_vec();
        let base = checksum(&data);
        assert_eq!(base, checksum(&data), "checksum is a pure function");

        let mut flipped = data.clone();
        flipped[3] ^= 0x01;
        assert_ne!(base, checksum(&flipped));

        assert_ne!(base, checksum(&data[..data.len() - 1]), "truncation changes the sum");
        let mut extended = data.clone();
        extended.push(0);
        assert_ne!(base, checksum(&extended), "zero-extension changes the sum");
        assert_ne!(checksum(b""), checksum(&[0u8]), "length is folded in");
    }

    #[test]
    fn checksum_is_independent_of_how_the_bytes_are_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(83).collect();
        // The fold before streaming existed, kept as the reference.
        let reference = |bytes: &[u8]| {
            let mut h: u64 = 0x51CC_5EED_0000_0001;
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = mix(h ^ u64::from_le_bytes(word));
            }
            mix(h ^ bytes.len() as u64)
        };
        for n in 0..data.len() {
            assert_eq!(checksum(&data[..n]), reference(&data[..n]), "length {n}");
        }
        let whole = checksum(&data);
        for piece in 1..=11 {
            let mut c = Checksum::new();
            for p in data.chunks(piece) {
                c.update(p);
                c.update(&[]);
            }
            assert_eq!(c.finish(), whole, "pieces of {piece}");
        }
    }

    #[test]
    fn gen_replays_from_seed_and_size() {
        let draws = |seed| {
            let mut g = Gen::new(seed, FULL_SIZE);
            (g.range(0u64..), g.range(-5i32..=5), g.vec(0..9, |g| g.below(100)))
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn gen_stays_in_range_and_reaches_both_ends() {
        let mut g = Gen::new(3, FULL_SIZE);
        let xs: Vec<i8> = (0..2000).map(|_| g.range(-3i8..3)).collect();
        assert!(xs.iter().all(|x| (-3..3).contains(x)));
        assert!(xs.contains(&-3) && xs.contains(&2), "both ends drawn");
        assert!((0..1000).all(|_| g.range(u64::MAX - 1..) >= u64::MAX - 1));
        assert!((0..1000).all(|_| g.weighted(&[0, 3, 0]) == 1), "zero weights never win");
        assert!((0..1000).all(|_| *g.pick(&['a', 'b']) != 'c'));
    }

    #[test]
    fn smaller_sizes_draw_smaller_values() {
        let mut g = Gen::new(5, 1);
        assert!((0..1000).all(|_| g.range(10u32..1000) == 10), "size 1 pins short ranges");
        let mut g = Gen::new(5, FULL_SIZE / 4);
        assert!((0..1000).all(|_| g.below(1 << 20) < 1 << 18));
    }

    #[test]
    fn check_reports_the_smallest_failing_size() {
        let err = panic::catch_unwind(|| {
            check(64, |g| {
                let v = g.vec(0..100, |g| g.below(10));
                assert!(v.len() < 20, "long vector: {}", v.len());
            });
        })
        .expect_err("some case draws 20 or more items");
        let message = err.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("smallest failing input is Gen::new("), "{message}");
        // Replaying the reported input fails; half its size passes.
        let args = &message[message.find("Gen::new(").unwrap() + 9..];
        let args = &args[..args.find(')').unwrap()];
        let (seed, size) = args.split_once(", ").unwrap();
        let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).unwrap();
        let size: u32 = size.parse().unwrap();
        let len = |size| Gen::new(seed, size).vec(0..100, |g| g.below(10)).len();
        assert!(len(size) >= 20);
        assert!(size == 1 || len(size / 2) < 20);
        check(64, |g| assert!(g.vec(0..100, |g| g.below(10)).len() < 100));
    }
}
