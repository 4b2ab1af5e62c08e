//! Property tests for the fluid tier: the max-min allocator's fairness
//! invariants on random topologies, and bit-identical replay of the
//! [`FluidNetwork`] actor under random flow arrival/departure plans.
//!
//! The allocator invariants are the textbook characterization of max-min
//! fairness:
//!
//! 1. **feasibility** — no link carries more than its capacity;
//! 2. **Pareto efficiency / bottleneck property** — every active class is
//!    either at its per-flow cap or crosses a saturated link on which its
//!    rate is maximal (so no class's rate can be raised without lowering
//!    a smaller-or-equal one);
//! 3. **equal share** — symmetric classes get identical rates.

use marnet_flow::fluid::{FlowDone, FluidNetwork, StartFlow};
use marnet_flow::maxmin::{max_min_rates, ClassDemand};
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx, Simulator};
use marnet_sim::link::Bandwidth;
use marnet_sim::packet::Payload;
use marnet_sim::time::SimDuration;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Relative tolerance for the fairness invariants: the allocator's fill
/// loop is plain `f64`, so saturation and cap equality hold to rounding.
const TOL: f64 = 1e-6;

/// Total flow-weighted load classes place on link `l`.
fn link_load(l: usize, demands: &[ClassDemand<'_>], rates: &[f64]) -> f64 {
    demands
        .iter()
        .zip(rates)
        .filter(|(d, _)| d.route.contains(&l))
        .map(|(d, r)| d.flows as f64 * r)
        .sum()
}

proptest! {
    #[test]
    fn maxmin_allocation_invariants(
        caps_mbps in prop::collection::vec(1.0f64..2_000.0, 1..5),
        raw in prop::collection::vec(
            (
                prop::collection::vec(0usize..8, 1..5), // route picks, folded mod link count
                0u64..600,                              // flows in the class
                0.05f64..500.0,                         // cap in Mb/s, if capped
                any::<bool>(),                          // capped?
            ),
            1..7,
        ),
    ) {
        let caps: Vec<f64> = caps_mbps.iter().map(|m| m * 1e6).collect();
        let classes: Vec<(Vec<usize>, u64, f64)> = raw
            .iter()
            .map(|(picks, flows, cap_mbps, capped)| {
                let mut route: Vec<usize> = picks.iter().map(|p| p % caps.len()).collect();
                route.sort_unstable();
                route.dedup();
                (route, *flows, if *capped { cap_mbps * 1e6 } else { f64::INFINITY })
            })
            .collect();
        let demands: Vec<ClassDemand<'_>> = classes
            .iter()
            .map(|(route, flows, cap_bps)| ClassDemand { route, flows: *flows, cap_bps: *cap_bps })
            .collect();
        let rates = max_min_rates(&caps, &demands);

        // 1. Feasibility: no link oversubscribed, caps respected, empty
        // classes at exactly zero.
        for (l, &cap) in caps.iter().enumerate() {
            let load = link_load(l, &demands, &rates);
            prop_assert!(load <= cap * (1.0 + TOL), "link {l}: load {load} > capacity {cap}");
        }
        for (d, &r) in demands.iter().zip(&rates) {
            if d.flows == 0 {
                prop_assert_eq!(r, 0.0);
            } else {
                prop_assert!(r >= 0.0 && r <= d.cap_bps * (1.0 + TOL), "rate {r} over cap {}", d.cap_bps);
            }
        }

        // 2. Pareto efficiency via the bottleneck property.
        for (i, (d, &r)) in demands.iter().zip(&rates).enumerate() {
            if d.flows == 0 {
                continue;
            }
            let at_cap = d.cap_bps.is_finite() && r >= d.cap_bps * (1.0 - TOL);
            let bottlenecked = d.route.iter().any(|&l| {
                let saturated = link_load(l, &demands, &rates) >= caps[l] * (1.0 - TOL);
                let max_on_l = demands
                    .iter()
                    .zip(&rates)
                    .filter(|(d2, _)| d2.flows > 0 && d2.route.contains(&l))
                    .map(|(_, &r2)| r2)
                    .fold(0.0f64, f64::max);
                saturated && r >= max_on_l * (1.0 - TOL)
            });
            prop_assert!(
                at_cap || bottlenecked,
                "class {i} (rate {r}) is neither capped nor bottlenecked: {demands:?} -> {rates:?}"
            );
        }
    }

    #[test]
    fn symmetric_classes_get_equal_shares(
        k in 1usize..6,
        flows in 1u64..100,
        cap_mbps in 1.0f64..100.0,
    ) {
        // 3. Equal share: k identical uncapped classes on one bottleneck
        // split it exactly `flows`-weighted-evenly.
        let caps = [cap_mbps * 1e6];
        let route = [0usize];
        let demands: Vec<ClassDemand<'_>> = (0..k)
            .map(|_| ClassDemand { route: &route, flows, cap_bps: f64::INFINITY })
            .collect();
        let rates = max_min_rates(&caps, &demands);
        let expected = cap_mbps * 1e6 / (k as f64 * flows as f64);
        for r in rates {
            prop_assert!((r - expected).abs() <= TOL * expected, "rate {r} != fair share {expected}");
        }
    }
}

/// Replays a random arrival plan against a [`FluidNetwork`] and records
/// the exact completion sequence.
struct PlanDriver {
    net: ActorId,
    plan: Vec<(u64, usize, u64)>, // (start ms, class pick, bytes)
    classes: Vec<marnet_flow::fluid::ClassId>,
    done: Rc<RefCell<Vec<(u64, u64, u64)>>>, // (flow, duration ns, finish ns)
}

impl Actor for PlanDriver {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                for (i, &(at_ms, _, _)) in self.plan.iter().enumerate() {
                    ctx.schedule_timer(SimDuration::from_millis(at_ms), i as u64);
                }
            }
            Event::Timer { tag } => {
                let (_, pick, bytes) = self.plan[tag as usize];
                let msg = StartFlow {
                    class: self.classes[pick % self.classes.len()],
                    flow: tag,
                    bytes,
                    notify: Some(ctx.self_id()),
                };
                ctx.send_message(self.net, Payload::new(msg));
            }
            Event::Message { mut msg, .. } => {
                if let Some(d) = msg.take::<FlowDone>() {
                    self.done.borrow_mut().push((
                        d.flow,
                        d.duration.as_nanos(),
                        ctx.now().as_nanos(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Runs `plan` to completion on a two-link fluid graph and returns the
/// completion sequence in arrival-at-the-driver order.
fn replay(plan: &[(u64, usize, u64)], standing: u64) -> Vec<(u64, u64, u64)> {
    let mut sim = Simulator::new(97);
    let net_id = sim.reserve_actor();
    let drv_id = sim.reserve_actor();
    let mut net = FluidNetwork::new();
    let backhaul = net.add_link(Bandwidth::from_mbps(40.0));
    let metro = net.add_link(Bandwidth::from_mbps(25.0));
    let classes = vec![
        net.add_class(&[backhaul], Some(Bandwidth::from_mbps(8.0))),
        net.add_class(&[backhaul, metro], None),
        net.add_class(&[metro], Some(Bandwidth::from_mbps(3.0))),
    ];
    net.add_standing_flows(classes[1], standing);
    let stats = net.stats();
    sim.install_actor(net_id, net);
    let done = Rc::new(RefCell::new(Vec::new()));
    sim.install_actor(
        drv_id,
        PlanDriver { net: net_id, plan: plan.to_vec(), classes, done: Rc::clone(&done) },
    );
    sim.run_to_completion();

    // Conservation: every flow in the plan started and finished.
    let st = stats.borrow();
    assert_eq!(st.started, plan.len() as u64);
    assert_eq!(st.finished, plan.len() as u64);
    let v = done.borrow().clone();
    // Processor sharing within a class: a flow that started no later and
    // is no larger than another finishes no later than it.
    for &(i, _, i_done) in &v {
        for &(j, _, j_done) in &v {
            let ((i_at, i_pick, i_bytes), (j_at, j_pick, j_bytes)) =
                (plan[i as usize], plan[j as usize]);
            if i_pick == j_pick && (i_at, i) <= (j_at, j) && i_bytes <= j_bytes {
                assert!(i_done <= j_done, "flow {i} finished after flow {j}: {plan:?}");
            }
        }
    }
    v
}

proptest! {
    // Transfer sizes are mixed: a few fixed ones, whose finish levels
    // arrive in order and queue up in the classes' sorted runs, among
    // arbitrary ones, which overtake and take the heaps.
    #[test]
    fn random_plans_replay_bit_identically(
        plan in prop::collection::vec(
            (
                0u64..3_000,
                0usize..3,
                prop_oneof![
                    (0usize..3).prop_map(|size| [50_000, 250_000, 777_777][size]),
                    1u64..2_000_000,
                ],
            ),
            1..40,
        ),
        standing in 0u64..4,
    ) {
        let first = replay(&plan, standing);
        let second = replay(&plan, standing);
        prop_assert_eq!(first, second);
    }
}
