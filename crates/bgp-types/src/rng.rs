//! Seeded random-number helpers.
//!
//! Every stochastic choice in the reproduction (topology generation, origin
//! selection, attacker selection, deployment sampling) flows through these
//! helpers so that a single `u64` master seed fully determines an experiment.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
///
/// let mut a = bgp_types::rng::from_seed(7);
/// let mut b = bgp_types::rng::from_seed(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[must_use]
pub fn from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives an independent stream seed from a base seed and a stream index
/// using the SplitMix64 finalizer.
///
/// Used to give each simulation run (origin-set index, attacker-set index)
/// its own well-separated RNG without correlated streams.
#[must_use]
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples `k` distinct elements from `items`, in selection order.
///
/// Returns all of `items` (shuffled) when `k >= items.len()`.
///
/// # Example
///
/// ```
/// let mut rng = bgp_types::rng::from_seed(1);
/// let picked = bgp_types::rng::sample_distinct(&mut rng, &[1, 2, 3, 4, 5], 2);
/// assert_eq!(picked.len(), 2);
/// assert_ne!(picked[0], picked[1]);
/// ```
#[must_use]
pub fn sample_distinct<T: Clone, R: Rng>(rng: &mut R, items: &[T], k: usize) -> Vec<T> {
    let mut indices: Vec<usize> = (0..items.len()).collect();
    indices.shuffle(rng);
    indices
        .into_iter()
        .take(k)
        .map(|i| items[i].clone())
        .collect()
}

/// Returns `true` with probability `p` (clamped to `[0, 1]`).
#[must_use]
pub fn coin<R: Rng>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream() {
        let mut a = from_seed(42);
        let mut b = from_seed(42);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = from_seed(1);
        let mut b = from_seed(2);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        assert_eq!(derive_seed(5, 0), derive_seed(5, 0));
        let seeds: HashSet<u64> = (0..100).map(|i| derive_seed(5, i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let mut rng = from_seed(3);
        let items: Vec<u32> = (0..50).collect();
        let picked = sample_distinct(&mut rng, &items, 20);
        assert_eq!(picked.len(), 20);
        let set: HashSet<u32> = picked.iter().copied().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn sample_distinct_caps_at_population() {
        let mut rng = from_seed(3);
        let picked = sample_distinct(&mut rng, &[1, 2, 3], 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn sample_distinct_zero_is_empty() {
        let mut rng = from_seed(3);
        assert!(sample_distinct(&mut rng, &[1, 2, 3], 0).is_empty());
    }

    #[test]
    fn coin_extremes() {
        let mut rng = from_seed(9);
        assert!(!coin(&mut rng, 0.0));
        assert!(coin(&mut rng, 1.0));
        assert!(coin(&mut rng, 2.0)); // clamped
        assert!(!coin(&mut rng, -1.0)); // clamped
    }

    /// The streams by value. Every seed-determined output in the workspace
    /// (topologies, figures, chaos and ensemble reports) hangs off these
    /// draws, so a changed stream shows here before it moves any figure.
    #[test]
    fn streams_are_pinned_by_value() {
        assert_eq!(derive_seed(42, 0), 12_058_926_934_050_108_962);
        assert_eq!(derive_seed(42, 1), 13_679_457_532_755_275_413);
        let mut rng = from_seed(7);
        let draws: Vec<u64> = (0..4).map(|_| rng.gen()).collect();
        assert_eq!(
            draws,
            [
                1_021_219_803_524_665_661,
                3_174_977_118_032_272_916,
                13_236_943_193_235_544_178,
                7_880_630_202_246_103_356,
            ]
        );
        let items: Vec<i32> = (0..10).collect();
        assert_eq!(sample_distinct(&mut from_seed(1), &items, 3), [1, 4, 5]);
        let mut rng = from_seed(9);
        let coins: Vec<bool> = (0..16).map(|_| coin(&mut rng, 0.3)).collect();
        let heads: Vec<usize> = (0..16).filter(|&i| coins[i]).collect();
        assert_eq!(heads, [2, 4, 5, 7, 13]);
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut rng = from_seed(11);
        let heads = (0..10_000).filter(|_| coin(&mut rng, 0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }
}
