//! The seven workloads and their frozen parameters.
//!
//! A workload's *body* is a fixed list of scenario calls generated once
//! from `--seed`; every repetition runs the identical body, so event
//! counts and outcome digests are equal across repetitions. Bodies are
//! sized to about 0.3 s of host time: on the shared reference VM thirty
//! short repetitions, each bracketed closely by the calibration kernel,
//! repeat 2–3× better than a dozen 0.8 s ones (README, "How speed is
//! measured"). Changing a
//! number in this file changes what every committed figure means — it is a
//! benchmark change, never part of a change that claims a gain.

/// The MAR motion-to-photon budget of the paper (§III): a frame, packet or
/// probe counts as delivered *in budget* when it arrives within this.
pub const BUDGET_MS: f64 = 75.0;

/// Queue discipline of the dense cell's uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellQueue {
    /// FIFO capped at this many packets (the bufferbloat default).
    DropTail {
        /// Packet cap.
        cap_packets: usize,
    },
    /// FQ-CoDel at its RFC 8290 defaults.
    FqCodel,
}

/// One scenario call of a body, with every parameter spelled out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Call {
    /// E11: a 30 FPS reference-frame stream over a lossy path, recovered
    /// by the `mechanism`-th of the seven §VI-C mechanisms.
    Recovery {
        /// Path round-trip time.
        rtt_ms: u64,
        /// Bernoulli loss probability.
        loss: f64,
        /// Index into the program's mechanism list (table order).
        mechanism: usize,
        /// Virtual seconds.
        secs: u64,
        /// Simulator seed.
        seed: u64,
    },
    /// Table II: an offload ping-pong over the `scenario`-th path.
    Offload {
        /// Index into the program's Table II scenario list (row order).
        scenario: usize,
        /// Probes sent (20 per virtual second).
        probes: u64,
        /// Request and response size.
        bytes: u32,
        /// Simulator seed.
        seed: u64,
    },
    /// E13 at scale: paced MAR streams and greedy TCP uploads share one
    /// uplink.
    Cell {
        /// Uplink rate.
        up_mbps: f64,
        /// Uplink queue discipline.
        queue: CellQueue,
        /// Paced 1.5 Mb/s MAR streams.
        n_mar: usize,
        /// Greedy Reno uploads.
        n_bulk: usize,
        /// Virtual seconds.
        secs: u64,
        /// Simulator seed.
        seed: u64,
    },
    /// E17: one packet-level MAR cell among fluid background clients.
    City {
        /// Fluid background clients.
        clients: u64,
        /// Shared backhaul capacity.
        backhaul_gbps: f64,
        /// Virtual seconds.
        secs: u64,
        /// Simulator seed.
        seed: u64,
    },
}

impl Call {
    /// The same call stopped at virtual time 0: everything the scenario
    /// does before its first event — the set-up a user pays per call.
    pub fn at_horizon_zero(self) -> Call {
        match self {
            Call::Recovery { rtt_ms, loss, mechanism, seed, .. } => {
                Call::Recovery { rtt_ms, loss, mechanism, secs: 0, seed }
            }
            Call::Offload { scenario, bytes, seed, .. } => {
                Call::Offload { scenario, probes: 0, bytes, seed }
            }
            Call::Cell { up_mbps, queue, n_mar, n_bulk, seed, .. } => {
                Call::Cell { up_mbps, queue, n_mar, n_bulk, secs: 0, seed }
            }
            Call::City { clients, backhaul_gbps, seed, .. } => {
                Call::City { clients, backhaul_gbps, secs: 0, seed }
            }
        }
    }

    /// Whether the call's mechanism runs XOR FEC (table order: none,
    /// arq-gated, arq-always, fec-k4, fec-k8, arq+fec-k8, duplicate).
    pub fn uses_fec(&self) -> bool {
        matches!(self, Call::Recovery { mechanism: 3..=5, .. })
    }

    /// Whether the call's mechanism retransmits (see [`Call::uses_fec`]).
    pub fn uses_arq(&self) -> bool {
        matches!(self, Call::Recovery { mechanism: 1 | 2 | 5, .. })
    }

    /// Flow routes installed in the scenario's NICs (a dense cell routes
    /// every upload at both ends and every MAR stream at the far end).
    pub fn nic_routes(&self) -> u64 {
        match *self {
            Call::Cell { n_mar, n_bulk, .. } => (n_mar + 2 * n_bulk) as u64,
            _ => 0,
        }
    }
}

/// The plain numbers one call reduces to. Everything here is a simulated
/// statistic: it must repeat bit for bit for a fixed call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Simulator events processed.
    pub events: u64,
    /// Latency-bound units (frames, MAR packets, probes) that arrived
    /// within [`BUDGET_MS`], % of offered.
    pub in_budget_pct: f64,
    /// Units that arrived at all, % of offered.
    pub delivered_pct: f64,
    /// Wire bytes beyond goodput, % (recovery calls).
    pub overhead_pct: Option<f64>,
    /// p95 one-way MAR latency (cell and city calls).
    pub mar_p95_ms: Option<f64>,
    /// Median RTT and the paper's Table II value (offload calls).
    pub rtt_median_and_paper_ms: Option<(f64, f64)>,
    /// Further scalars that only feed the digest.
    pub extra: Vec<f64>,
}

impl Outcome {
    /// FNV-1a over the event count and every scalar's bits: two outcomes
    /// of the same call must agree on it exactly.
    pub fn digest(&self) -> u64 {
        let (median, paper) = self.rtt_median_and_paper_ms.unwrap_or((-1.0, -1.0));
        let head = [
            self.in_budget_pct,
            self.delivered_pct,
            self.overhead_pct.unwrap_or(-1.0),
            self.mar_p95_ms.unwrap_or(-1.0),
            median,
            paper,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let words =
            std::iter::once(self.events).chain(head.iter().chain(&self.extra).map(|f| f.to_bits()));
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Conservation checks every call must pass: nothing arrives that was
    /// not sent, and nothing is in budget that did not arrive. "Offered" is
    /// the nominal rate × horizon, while the E11 frame source ticks every
    /// 33 ms (30.3 frames per second, 1 % over nominal) and a paced source
    /// may emit one datagram more — hence the allowance above 100 %.
    pub fn is_sane(&self) -> bool {
        self.in_budget_pct >= 0.0
            && self.in_budget_pct <= self.delivered_pct + 1e-9
            && self.delivered_pct <= 101.5
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line; README.md has the long form).
    pub why: &'static str,
}

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "ar-recovery",
        why: "E11 over all seven recovery mechanisms: core endpoint, recovery, FEC and degradation do the work; links unloaded, flow tier absent",
    },
    Workload {
        name: "offload-rtt",
        why: "Table II ping-pong with the smallest messages: per-packet cost of probe, udp, nic, link and the event core; core endpoint bypassed",
    },
    Workload {
        name: "dense-cell",
        why: "900 MAR + 100 TCP flows on a DropTail uplink: queue, link, tcp, nic and a deep event heap; core and flow idle",
    },
    Workload {
        name: "aqm-cell",
        why: "the same cell under FQ-CoDel: same layers, other path (flow hashing, sojourn drops), so a DropTail-only fast path shows here",
    },
    Workload {
        name: "cityscale",
        why: "100 000 fluid clients around one packet cell: fluid tier, max-min and 1e5 pending timers; memory-bound, packet layers nearly idle",
    },
    Workload {
        name: "recorded",
        why: "a third of ar-recovery and offload-rtt with the flight recorder on, then encode in memory: the recorder's write path on its worst cases",
    },
    Workload {
        name: "lab-sweep",
        why: "what a marnet-lab user waits for: four sweeps to JSON, baseline diff and smoke training at threads 1 and n; merge and serialization heavy",
    },
];

/// Name of the workload whose body records and encodes traces.
pub const RECORDED: &str = "recorded";
/// Name of the workload that drives the lab instead of scenario calls.
pub const LAB_SWEEP: &str = "lab-sweep";

/// `lab-sweep`: `(experiment, replicates)` of the four sweeps.
pub const LAB_SWEEPS: [(&str, u32); 4] =
    [("sweep_recovery", 1), ("sweep_offload", 32), ("sweep_faults", 2), ("table2_rtt", 8)];

/// splitmix64: the `i`-th call seed of a body derived from `--seed`.
fn call_seed(base: u64, i: u64) -> u64 {
    let mut z = base.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn recovery_calls(seeds: u64, base: u64) -> Vec<Call> {
    // E11 topology: rtt 40 ms, loss 5 %, 30 virtual seconds, all seven
    // mechanisms (the `duplicate` row included).
    (0..7)
        .flat_map(|mechanism| {
            (0..seeds).map(move |s| Call::Recovery {
                rtt_ms: 40,
                loss: 0.05,
                mechanism,
                secs: 30,
                seed: call_seed(base, mechanism as u64 * 1_000 + s),
            })
        })
        .collect()
}

fn offload_calls(seeds: u64, base: u64) -> Vec<Call> {
    // Table II: 20 000 probes of 400 B up and down per scenario and seed.
    (0..4)
        .flat_map(|scenario| {
            (0..seeds).map(move |s| Call::Offload {
                scenario,
                probes: 20_000,
                bytes: 400,
                seed: call_seed(base, 10_000 + scenario as u64 * 1_000 + s),
            })
        })
        .collect()
}

fn cell_call(queue: CellQueue, secs: u64, base: u64) -> Call {
    Call::Cell {
        up_mbps: 2_000.0,
        queue,
        n_mar: 900,
        n_bulk: 100,
        secs,
        seed: call_seed(base, 20_000),
    }
}

/// The scenario calls of a simulator workload's body for `--seed`, or
/// `None` for `lab-sweep` and unknown names.
pub fn body(name: &str, seed: u64) -> Option<Vec<Call>> {
    Some(match name {
        "ar-recovery" => recovery_calls(8, seed),
        "offload-rtt" => offload_calls(5, seed),
        "dense-cell" => vec![cell_call(CellQueue::DropTail { cap_packets: 1_000 }, 2, seed)],
        "aqm-cell" => vec![cell_call(CellQueue::FqCodel, 2, seed)],
        "cityscale" => vec![Call::City {
            clients: 100_000,
            backhaul_gbps: 10.0,
            secs: 5,
            seed: call_seed(seed, 30_000),
        }],
        RECORDED => {
            let mut calls = recovery_calls(3, seed);
            calls.extend(offload_calls(2, seed));
            calls
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_a_pure_function_of_the_seed() {
        for w in WORKLOADS {
            assert_eq!(body(w.name, 7), body(w.name, 7));
            if w.name != LAB_SWEEP {
                assert_ne!(body(w.name, 7), body(w.name, 8), "{} ignores the seed", w.name);
            }
        }
        assert_eq!(body("ar-recovery", 1).map(|b| b.len()), Some(7 * 8));
        assert_eq!(body("offload-rtt", 1).map(|b| b.len()), Some(4 * 5));
        assert_eq!(body(RECORDED, 1).map(|b| b.len()), Some(7 * 3 + 4 * 2));
        assert_eq!(body(LAB_SWEEP, 1), None);
    }

    #[test]
    fn recorded_replays_seeds_of_the_unrecorded_workloads() {
        let recorded = body(RECORDED, 3).expect("body");
        let recovery = body("ar-recovery", 3).expect("body");
        let offload = body("offload-rtt", 3).expect("body");
        assert!(recorded.iter().all(|c| recovery.contains(c) || offload.contains(c)));
    }

    #[test]
    fn horizon_zero_keeps_everything_but_the_horizon() {
        let call = cell_call(CellQueue::FqCodel, 4, 9);
        let Call::Cell { secs, n_mar, .. } = call.at_horizon_zero() else { panic!("kind changed") };
        assert_eq!((secs, n_mar), (0, 900));
        assert_eq!(call.nic_routes(), 1_100);
    }

    #[test]
    fn digest_sees_every_field() {
        let a =
            Outcome { events: 5, in_budget_pct: 90.0, delivered_pct: 95.0, ..Outcome::default() };
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.extra.push(1.0);
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.mar_p95_ms = Some(12.5);
        assert_ne!(a.digest(), c.digest());
        assert!(a.is_sane());
        assert!(!Outcome { in_budget_pct: 96.0, ..a }.is_sane());
    }
}
