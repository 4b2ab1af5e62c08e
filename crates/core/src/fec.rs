//! XOR forward error correction (§VI-C).
//!
//! Recovery through retransmission costs at least one RTT, which the 75 ms
//! budget rarely affords; the paper recommends "introduc\[ing\] some
//! redundancy in the data flow either by performing network coding \[or\]
//! forward error correction". This module models the classic (k, 1) XOR
//! parity code — one parity packet per k data packets, recovering any
//! single loss per group: its overhead and residual loss in closed form,
//! and the group tracker the protocol endpoint uses at packet granularity
//! (the simulated endpoint never XORs payload bytes). [`xor_into`] is the
//! byte-level parity kernel, kept for the benchmark's parity-throughput
//! drive.
//!
//! Overhead is `1/k`; residual loss is the probability of ≥2 losses per
//! group. The E11 experiment sweeps `k` against loss rate and RTT to map
//! the FEC-vs-ARQ frontier.

/// Number of bytes one unrolled `xor_into` iteration processes: 4 lanes
/// of `u64`.
const XOR_STRIDE: usize = 32;

/// XORs `block` into `acc`, growing `acc` with zeros if it is shorter.
///
/// The main loop works on 4×`u64` lanes per iteration via
/// `from_ne_bytes`/`to_ne_bytes` slice conversion — fully safe, stable
/// Rust that the compiler lowers to wide loads/stores — with a scalar
/// tail for the ragged remainder. Byte order is irrelevant because XOR is
/// bytewise. See `xor_into_scalar` (test-only) for the reference the
/// unit tests compare against.
pub fn xor_into(acc: &mut Vec<u8>, block: &[u8]) {
    if acc.len() < block.len() {
        acc.resize(block.len(), 0);
    }
    let n = block.len();
    let lanes = n / XOR_STRIDE * XOR_STRIDE;
    for (ac, bc) in
        acc[..lanes].chunks_exact_mut(XOR_STRIDE).zip(block[..lanes].chunks_exact(XOR_STRIDE))
    {
        for lane in 0..XOR_STRIDE / 8 {
            let off = lane * 8;
            let a = u64::from_ne_bytes(ac[off..off + 8].try_into().expect("8-byte lane"));
            let b = u64::from_ne_bytes(bc[off..off + 8].try_into().expect("8-byte lane"));
            ac[off..off + 8].copy_from_slice(&(a ^ b).to_ne_bytes());
        }
    }
    for (a, &b) in acc[lanes..n].iter_mut().zip(&block[lanes..]) {
        *a ^= b;
    }
}

/// The plain bytewise XOR accumulate — reference semantics for
/// [`xor_into`], kept as the oracle its ragged-length test compares
/// against.
#[cfg(test)]
fn xor_into_scalar(acc: &mut Vec<u8>, block: &[u8]) {
    if acc.len() < block.len() {
        acc.resize(block.len(), 0);
    }
    for (a, &b) in acc.iter_mut().zip(block) {
        *a ^= b;
    }
}

/// Residual message-loss probability of a (k, 1) XOR group under
/// independent per-packet loss `p`: the chance that two or more of the
/// `k + 1` packets (k data + parity) are lost.
pub fn residual_loss(k: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "loss probability out of range: {p}");
    let n = k as f64 + 1.0;
    let none = (1.0 - p).powf(n);
    let one = n * p * (1.0 - p).powf(n - 1.0);
    (1.0 - none - one).max(0.0)
}

/// Bandwidth overhead of a (k, 1) code: one extra packet per k.
pub fn overhead(k: usize) -> f64 {
    assert!(k > 0, "group size must be positive");
    1.0 / k as f64
}

// ---------------------------------------------------------------------------
// Packet-granularity group tracking for the protocol endpoint
// ---------------------------------------------------------------------------

/// Receiver-side tracker: groups are identified by id; data packets report
/// their own sequence number and group, the parity packet reports the full
/// coverage list. A group with a received parity and exactly one missing
/// data packet is recoverable.
///
/// Group ids are assigned sequentially by the encoder, so the tracker is a
/// direct-mapped table of `WAYS` slots indexed by `id % WAYS`: every
/// lookup is one probe, and a group is naturally retired when the group
/// `WAYS` ids later claims its slot — far beyond any plausible reorder
/// window. Retired slots keep their `Vec` capacity, so steady-state
/// tracking allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FecGroupTracker {
    slots: Vec<Option<(u64, GroupState)>>,
}

/// Direct-mapped table size; bounds memory to this many live groups.
const WAYS: usize = 64;

#[derive(Debug, Clone, Default)]
struct GroupState {
    /// Known only once the parity packet arrives.
    covered: Vec<u64>,
    received: Vec<u64>,
    parity_received: bool,
    recovered: bool,
}

/// Outcome of feeding a packet event to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FecOutcome {
    /// Nothing new recoverable.
    Nothing,
    /// The given sequence number was just recovered via parity.
    Recovered(u64),
}

impl FecGroupTracker {
    /// A tracker with no groups.
    pub fn new() -> Self {
        FecGroupTracker::default()
    }

    fn find_or_insert(&mut self, id: u64) -> &mut GroupState {
        if self.slots.is_empty() {
            self.slots.resize(WAYS, None);
        }
        // marnet-lint: allow(panic-path): `% WAYS` indexes a WAYS-long vec
        let slot = &mut self.slots[(id as usize) % WAYS];
        let (gid, g) = slot.get_or_insert_with(|| (id, GroupState::default()));
        if *gid != id {
            // A newer group claims the slot; recycle the buffers.
            *gid = id;
            g.covered.clear();
            g.received.clear();
            g.parity_received = false;
            g.recovered = false;
        }
        g
    }

    fn check(g: &mut GroupState) -> FecOutcome {
        if g.recovered || !g.parity_received || g.covered.is_empty() {
            return FecOutcome::Nothing;
        }
        // Recoverable iff exactly one covered seq is missing; bail as soon
        // as a second gap shows up.
        let mut missing = None;
        for &s in &g.covered {
            if !g.received.contains(&s) {
                if missing.is_some() {
                    return FecOutcome::Nothing;
                }
                missing = Some(s);
            }
        }
        match missing {
            Some(s) => {
                g.recovered = true;
                g.received.push(s);
                FecOutcome::Recovered(s)
            }
            None => FecOutcome::Nothing,
        }
    }

    /// Records that data packet `seq` of group `id` arrived.
    pub fn on_data(&mut self, id: u64, seq: u64) -> FecOutcome {
        let g = self.find_or_insert(id);
        if !g.received.contains(&seq) {
            g.received.push(seq);
        }
        Self::check(g)
    }

    /// Records that the parity packet of group `id` (covering `covered`)
    /// arrived.
    pub fn on_parity(&mut self, id: u64, covered: impl IntoIterator<Item = u64>) -> FecOutcome {
        let g = self.find_or_insert(id);
        g.covered.clear();
        g.covered.extend(covered);
        g.parity_received = true;
        Self::check(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_recovers_any_single_loss() {
        // The parity of a group is the XOR of its blocks; XORing it with
        // the k - 1 survivors gives back the missing block, zero-padded to
        // the longest block.
        let blocks: [&[u8]; 4] = [b"the quick", b"brown fox jumps", b"over", b"the lazy dog"];
        let mut parity = Vec::new();
        for b in blocks {
            xor_into(&mut parity, b);
        }
        for missing in 0..blocks.len() {
            let mut rec = parity.clone();
            for (_, b) in blocks.iter().enumerate().filter(|(i, _)| *i != missing) {
                xor_into(&mut rec, b);
            }
            rec.truncate(blocks[missing].len());
            assert_eq!(rec, blocks[missing], "failed to recover block {missing}");
        }
    }

    #[test]
    fn parity_length_is_longest_block() {
        let mut parity = Vec::new();
        xor_into(&mut parity, &[1, 2, 3]);
        xor_into(&mut parity, &[0xff]);
        assert_eq!(parity, vec![1 ^ 0xff, 2, 3]);
    }

    #[test]
    fn unrolled_xor_matches_scalar_on_ragged_lengths() {
        // Deterministic pseudo-random bytes without an RNG dependency.
        let noise = |seed: u64, len: usize| -> Vec<u8> {
            let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            (0..len)
                .map(|_| {
                    h ^= h << 13;
                    h ^= h >> 7;
                    h ^= h << 17;
                    h as u8
                })
                .collect()
        };
        for len in 1..=257usize {
            for (acc_len, tag) in [(0usize, "grow"), (len / 2, "partial"), (len + 3, "longer")] {
                let block = noise(len as u64, len);
                let mut fast = noise(acc_len as u64 ^ 0xabcd, acc_len);
                let mut slow = fast.clone();
                xor_into(&mut fast, &block);
                xor_into_scalar(&mut slow, &block);
                assert_eq!(fast, slow, "len {len} acc {acc_len} ({tag})");
            }
        }
    }

    #[test]
    fn residual_loss_math() {
        // k=1 (full duplication), p=0.1: residual = p² = 0.01.
        assert!((residual_loss(1, 0.1) - 0.01).abs() < 1e-12);
        // Larger groups have higher residual loss at the same p.
        assert!(residual_loss(8, 0.1) > residual_loss(2, 0.1));
        assert_eq!(residual_loss(4, 0.0), 0.0);
        // Overhead is the reciprocal of k.
        assert_eq!(overhead(4), 0.25);
        assert_eq!(overhead(1), 1.0);
    }

    #[test]
    fn tracker_recovers_single_gap_when_parity_arrives() {
        let mut t = FecGroupTracker::new();
        let covered = [10, 11, 12];
        assert_eq!(t.on_data(1, 10), FecOutcome::Nothing);
        assert_eq!(t.on_data(1, 12), FecOutcome::Nothing);
        // Packet 11 lost; parity closes the hole.
        assert_eq!(t.on_parity(1, covered.iter().copied()), FecOutcome::Recovered(11));
        // Idempotent: no double recovery.
        assert_eq!(t.on_data(1, 11), FecOutcome::Nothing);
    }

    #[test]
    fn tracker_cannot_recover_two_gaps() {
        let mut t = FecGroupTracker::new();
        let covered = [1, 2, 3, 4];
        t.on_data(7, 1);
        t.on_data(7, 2);
        assert_eq!(t.on_parity(7, covered.iter().copied()), FecOutcome::Nothing);
        // The late arrival of one of the two shrinks the gap to one.
        assert_eq!(t.on_data(7, 3), FecOutcome::Recovered(4));
    }

    #[test]
    fn tracker_parity_first_then_data() {
        let mut t = FecGroupTracker::new();
        let covered = [5, 6];
        assert_eq!(t.on_parity(2, covered.iter().copied()), FecOutcome::Nothing);
        assert_eq!(t.on_data(2, 5), FecOutcome::Recovered(6));
    }

    #[test]
    fn tracker_full_group_needs_no_recovery() {
        let mut t = FecGroupTracker::new();
        let covered = [1, 2];
        t.on_data(1, 1);
        t.on_data(1, 2);
        assert_eq!(t.on_parity(1, covered.iter().copied()), FecOutcome::Nothing);
    }

    #[test]
    #[should_panic]
    fn zero_group_size_panics() {
        let _ = overhead(0);
    }
}
