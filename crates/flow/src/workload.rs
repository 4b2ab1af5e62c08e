//! City-scale background client populations.
//!
//! One [`BackgroundWorkload`] actor multiplexes `clients` independent
//! think/transfer renewal processes: each client waits an exponential
//! think time, transfers a fixed number of bytes through the fluid tier
//! as one flow, and on completion starts thinking again. Per-client
//! state is just the timer tag (= client index), and the think timers wait
//! in a [`TimerBank`], so 10⁵ clients cost 10⁵ 24-byte nodes on its timing
//! wheel and one event-queue entry — no per-client actors, no per-client
//! links (the access-link rate is the class's per-flow cap).
//!
//! Randomness: a single ChaCha12 substream derived from the simulation
//! seed and the workload's label. Draws happen in event order, which the
//! engine makes deterministic, so a seed pins the entire arrival process.

use crate::fluid::{ClassId, FlowDone, StartFlow};
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx};
use marnet_sim::packet::PayloadPool;
use marnet_sim::rng::derive_rng;
use marnet_sim::time::SimDuration;
use marnet_sim::timers::TimerBank;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of one background client population.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of clients in the population.
    pub clients: u64,
    /// The fluid class every transfer joins.
    pub class: ClassId,
    /// The [`crate::fluid::FluidNetwork`] actor.
    pub network: ActorId,
    /// Mean of the exponential think time between transfers.
    pub think_mean: SimDuration,
    /// Size of each transfer in bytes.
    pub transfer_bytes: u64,
    /// RNG substream label, e.g. `"cityscale/bg"`; distinct populations
    /// in one simulation need distinct labels.
    pub label: String,
}

/// What the population did, shared out of the actor.
#[derive(Debug, Default)]
pub struct WorkloadStats {
    /// Transfers handed to the fluid tier.
    pub offered: u64,
    /// Transfers completed.
    pub completed: u64,
}

/// A population of think/transfer background clients (see module docs).
#[derive(Debug)]
pub struct BackgroundWorkload {
    cfg: WorkloadConfig,
    /// Lazily derived from the simulation seed at [`Event::Start`], so
    /// construction does not need the seed threaded through.
    rng: Option<ChaCha12Rng>,
    stats: Rc<RefCell<WorkloadStats>>,
    /// Recycled [`StartFlow`] payloads — with 10⁵ clients the transfer
    /// hand-off is the tier's dominant message traffic.
    start_pool: PayloadPool<StartFlow>,
    /// The clients' think timers: at most one per client is pending.
    thinking: TimerBank,
}

impl BackgroundWorkload {
    /// A population described by `cfg`.
    pub fn new(cfg: WorkloadConfig) -> Self {
        BackgroundWorkload {
            cfg,
            rng: None,
            stats: Rc::new(RefCell::new(WorkloadStats::default())),
            start_pool: PayloadPool::new(),
            thinking: TimerBank::new(),
        }
    }

    /// Shared handle to the population's statistics.
    pub fn stats(&self) -> Rc<RefCell<WorkloadStats>> {
        Rc::clone(&self.stats)
    }

    /// Exponential think-time draw, clamped away from zero.
    fn think(&mut self) -> SimDuration {
        // The substream exists from Event::Start on; timers and
        // completions only arrive after it.
        let Some(rng) = self.rng.as_mut() else {
            return self.cfg.think_mean;
        };
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        SimDuration::from_secs_f64((-u.ln() * self.cfg.think_mean.as_secs_f64()).max(1e-6))
    }
}

impl Actor for BackgroundWorkload {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                self.rng =
                    Some(derive_rng(ctx.seed(), &format!("flow/workload/{}", self.cfg.label)));
                self.thinking.reserve(usize::try_from(self.cfg.clients).unwrap_or(0));
                for client in 0..self.cfg.clients {
                    let delay = self.think();
                    self.thinking.schedule(ctx, delay, client);
                }
            }
            Event::Timer { tag } => {
                self.thinking.fired(ctx);
                self.stats.borrow_mut().offered += 1;
                let msg = StartFlow {
                    class: self.cfg.class,
                    flow: tag,
                    bytes: self.cfg.transfer_bytes,
                    notify: Some(ctx.self_id()),
                };
                let payload = self.start_pool.prepare(|| msg, |m| *m = msg);
                ctx.send_message(self.cfg.network, payload);
            }
            Event::Message { msg, .. } => {
                // `FlowDone` is `Copy` and may arrive in a pooled payload:
                // copy it out by reference instead of `take`.
                if let Some(done) = msg.map_ref(|d: &FlowDone| *d) {
                    self.stats.borrow_mut().completed += 1;
                    let delay = self.think();
                    self.thinking.schedule(ctx, delay, done.flow);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FluidNetwork;
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::Bandwidth;
    use marnet_sim::time::SimTime;
    use marnet_telemetry::TraceEvent;

    /// Offered and completed transfers, and the run's trace, whose flow
    /// records carry every start and every duration.
    fn run(seed: u64, clients: u64) -> (u64, u64, Vec<TraceEvent>) {
        let mut sim = Simulator::new(seed);
        sim.enable_flight_recorder(1 << 16);
        let net_id = sim.reserve_actor();
        let wl_id = sim.reserve_actor();
        let mut net = FluidNetwork::new();
        let l = net.add_link(Bandwidth::from_mbps(100.0));
        let class = net.add_class(&[l], Some(Bandwidth::from_mbps(20.0)));
        sim.install_actor(net_id, net);
        let wl = BackgroundWorkload::new(WorkloadConfig {
            clients,
            class,
            network: net_id,
            think_mean: SimDuration::from_millis(500),
            transfer_bytes: 250_000,
            label: "test".into(),
        });
        let stats = wl.stats();
        sim.install_actor(wl_id, wl);
        sim.run_until(SimTime::from_secs(10));
        let (offered, completed) = (stats.borrow().offered, stats.borrow().completed);
        (offered, completed, sim.take_trace())
    }

    #[test]
    fn clients_cycle_through_think_and_transfer() {
        let (offered, completed, _) = run(5, 40);
        // 40 clients over 10 s with ~0.5 s think + ~0.1–0.2 s transfer:
        // hundreds of cycles, nearly all completing.
        assert!(offered >= 300, "offered {offered}");
        assert!(completed >= 300, "completed {completed}");
        assert!(completed <= offered);
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        assert_eq!(run(11, 25), run(11, 25));
    }

    #[test]
    fn seeds_decorrelate_the_arrival_process() {
        assert_ne!(run(11, 25).2, run(12, 25).2);
    }
}
