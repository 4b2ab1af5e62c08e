//! The calibration kernel: a fixed single-thread piece of work whose speed
//! tracks the machine's speed *right now*. Every host-time score is divided
//! by the kernel's rate measured just before and just after the timed
//! work, so a slow regime of a shared machine cancels out.
//!
//! The kernel must never change: a committed score is "work per
//! calibration op", and editing the kernel silently rescales every score.
//! It therefore uses no program code and no std collection whose
//! implementation could move with the toolchain — only a hand-rolled
//! binary min-heap over a `Vec<u64>` fed by xorshift64. The heap holds
//! 64 Ki values (512 KiB), so the kernel is L2-resident: it follows core
//! clock and cache speed, not DRAM bandwidth (see README, "limits").

use std::hint::black_box;
use std::time::Instant;

/// Values resident in the heap.
const HEAP_LEN: usize = 64 * 1024;
/// Pop+push rounds of one kernel run; one round is two heap operations, so
/// a run is 1 M operations (≈ 50 ms). Short on purpose: the machine's speed
/// moves on a one-second scale, so many short repetitions, each bracketed
/// closely, repeat better than a few long ones (see README, "How speed is
/// measured").
const ROUNDS: u64 = 500_000;
/// The speed at which "calibrated ns" equal wall-clock ns (drives report
/// `raw ns × measured Mops/s ÷ REF_MOPS`).
pub const REF_MOPS: f64 = 20.0;

/// Reusable kernel state (the heap buffer is allocated once, outside any
/// timed or heap-metered region).
#[derive(Debug)]
pub struct Kernel {
    heap: Vec<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn sift_up(h: &mut [u64], mut i: usize) {
    let v = h[i];
    while i > 0 {
        let p = (i - 1) / 2;
        if h[p] <= v {
            break;
        }
        h[i] = h[p];
        i = p;
    }
    h[i] = v;
}

fn sift_down(h: &mut [u64], mut i: usize) {
    let n = h.len();
    let v = h[i];
    loop {
        let mut c = 2 * i + 1;
        if c >= n {
            break;
        }
        if c + 1 < n && h[c + 1] < h[c] {
            c += 1;
        }
        if v <= h[c] {
            break;
        }
        h[i] = h[c];
        i = c;
    }
    h[i] = v;
}

impl Kernel {
    /// Allocates the heap buffer.
    pub fn new() -> Self {
        Kernel { heap: Vec::with_capacity(HEAP_LEN) }
    }

    /// Runs the kernel once and returns its rate in heap ops per second.
    pub fn ops_per_sec(&mut self) -> f64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let h = &mut self.heap;
        h.clear();
        for _ in 0..HEAP_LEN {
            h.push(xorshift(&mut x) >> 40);
            let last = h.len() - 1;
            sift_up(h, last);
        }
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..ROUNDS {
            // The "hold" model of an event queue: pop the earliest value,
            // push it back a random distance into the future, so the heap
            // stays in steady state and sifts run to realistic depths.
            let min = h[0];
            let last = h.pop().expect("heap is never empty");
            h[0] = last;
            sift_down(h, 0);
            sum = sum.wrapping_add(min);
            h.push(min + (xorshift(&mut x) >> 44) + 1);
            let last = h.len() - 1;
            sift_up(h, last);
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(sum);
        (2 * ROUNDS) as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_keeps_the_heap_ordered() {
        let mut k = Kernel::new();
        assert!(k.ops_per_sec() > 0.0);
        let h = &k.heap;
        assert_eq!(h.len(), HEAP_LEN);
        assert!((1..h.len()).all(|i| h[(i - 1) / 2] <= h[i]));
    }
}
