//! Small self-contained utilities: a deterministic RNG, an identity hash
//! ([`Fold`]) and geometric-mean helpers used throughout the simulator.
//!
//! The simulator deliberately does not depend on the `rand` crate for its
//! core address generation so that simulation results are bit-reproducible
//! regardless of external crate versions.

/// A deterministic 64-bit RNG (SplitMix64).
///
/// SplitMix64 passes BigCrush, is trivially seedable and has a one-integer
/// state, which makes it ideal for reproducible workload address streams.
///
/// # Examples
///
/// ```
/// use equalizer_sim::util::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiplicative range reduction (Lemire); bias is negligible for
        // the small bounds used by address generators.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0x5EED_5EED_5EED_5EED)
    }
}

/// Stateless 64-bit mixing function (the SplitMix64 finalizer).
///
/// Used for order-independent, deterministic pseudo-random address
/// generation: the result depends only on the input, never on call order.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-sensitive 64-bit fold built on [`mix64`].
///
/// Feed it a canonical field sequence and it produces a hash that
/// depends on every value and its position. The harness result store
/// keys its memo on a kernel's identity fold.
#[derive(Debug, Clone, Copy)]
pub struct Fold {
    h: u64,
}

impl Fold {
    /// Starts a fold from a domain-separation tag.
    pub fn new(tag: u64) -> Self {
        Self { h: mix64(tag) }
    }

    /// Folds in one 64-bit value.
    pub fn add(&mut self, v: u64) {
        self.h = mix64(self.h.rotate_left(7) ^ v);
    }

    /// Folds in a byte string (length-prefixed, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(b));
        }
    }

    /// Folds in an `f64` as its bit pattern.
    pub fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    /// The folded hash.
    pub fn finish(self) -> u64 {
        mix64(self.h)
    }
}

/// Geometric mean of a sequence of strictly positive values.
///
/// Returns `None` for an empty iterator or if any value is not positive.
///
/// # Examples
///
/// ```
/// use equalizer_sim::util::geomean;
/// let g = geomean([1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean([2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), None);
        assert_eq!(geomean([1.0, -1.0]), None);
        assert_eq!(geomean([0.0]), None);
    }

    #[test]
    fn geomean_single() {
        assert!((geomean([3.5]).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn fold_is_order_sensitive() {
        let mut a = Fold::new(1);
        a.add(1);
        a.add(2);
        let mut b = Fold::new(1);
        b.add(2);
        b.add(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fold_bytes_are_length_prefixed() {
        let mut a = Fold::new(0);
        a.add_bytes(b"ab");
        a.add_bytes(b"c");
        let mut b = Fold::new(0);
        b.add_bytes(b"a");
        b.add_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
