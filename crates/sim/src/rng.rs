//! Deterministic random-number streams.
//!
//! Every stochastic component in the suite (link loss, jitter, wireless rate
//! variance, workload generators) draws from its own [`ChaCha12Rng`] stream
//! derived from the experiment seed plus a textual label. This keeps
//! experiments reproducible *and* insulated from each other: adding a new
//! random component does not perturb the draws of existing ones.

use crate::hash::{fnv1a, FNV_OFFSET_BASIS};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Derives an independent RNG stream from an experiment seed and a label.
///
/// The label is folded into the 256-bit ChaCha seed with an FNV-1a hash, so
/// distinct labels yield statistically independent streams.
///
/// ```
/// use marnet_sim::rng::derive_rng;
/// use rand::Rng;
/// let mut a = derive_rng(7, "link.loss");
/// let mut b = derive_rng(7, "link.loss");
/// let mut c = derive_rng(7, "link.jitter");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// let x: u64 = a.gen();
/// let y: u64 = c.gen();
/// assert_ne!(x, y);
/// ```
pub fn derive_rng(seed: u64, label: &str) -> ChaCha12Rng {
    let h1 = fnv1a(label.as_bytes(), FNV_OFFSET_BASIS);
    let h2 = fnv1a(label.as_bytes(), h1 ^ seed);
    let words = [seed, h1, h2, h1.wrapping_mul(h2) | 1];
    let mut key = [0u8; 32];
    for (chunk, word) in key.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    ChaCha12Rng::from_seed(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_label_same_stream() {
        let mut a = derive_rng(1, "x");
        let mut b = derive_rng(1, "x");
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = derive_rng(1, "x");
        let mut b = derive_rng(1, "y");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = derive_rng(1, "x");
        let mut b = derive_rng(2, "x");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn empty_label_is_valid() {
        let mut a = derive_rng(3, "");
        let _ = a.gen::<u64>();
    }
}
