//! Criterion macro-benchmarks: simulator event throughput, a full TCP
//! transfer, one second of the AR protocol, and the placement solvers —
//! the costs that bound how much experiment a CPU-second buys.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use marnet_bench::scenarios::{
    fairness_config, run_fairness_config_instrumented, run_table2_instrumented, Table2Scenario,
};
use marnet_edge::placement::synthetic_metro;
use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkParams};
use marnet_sim::packet::Packet;
use marnet_sim::rng::derive_rng;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_telemetry::TelemetryOptions;
use marnet_transport::nic::TxPath;
use marnet_transport::tcp::{DataSource, Reno, TcpConfig, TcpReceiver, TcpSender};

/// Raw engine throughput: a ping-pong pair exchanging packets as fast as
/// the links allow.
fn bench_engine(c: &mut Criterion) {
    struct Echo {
        out: marnet_sim::link::LinkId,
    }
    impl Actor for Echo {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if let Event::Packet { packet, .. } = ev {
                ctx.transmit(self.out, packet);
            }
        }
    }
    struct Kick {
        out: marnet_sim::link::LinkId,
    }
    impl Actor for Kick {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    let id = ctx.next_packet_id();
                    ctx.transmit(self.out, Packet::new(id, 0, 100, ctx.now()));
                }
                Event::Packet { packet, .. } => ctx.transmit(self.out, packet),
                _ => {}
            }
        }
    }

    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("ping_pong_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let a = sim.reserve_actor();
            let e = sim.reserve_actor();
            let p = LinkParams::new(Bandwidth::from_gbps(10.0), SimDuration::from_micros(1));
            let fwd = sim.add_link(a, e, p.clone());
            let rev = sim.add_link(e, a, p);
            sim.install_actor(a, Kick { out: fwd });
            sim.install_actor(e, Echo { out: rev });
            sim.set_event_limit(100_000);
            black_box(sim.run_until(SimTime::MAX))
        })
    });
    g.finish();
}

/// A complete 1 MB TCP transfer over a 20 Mb/s, 20 ms-RTT path.
fn bench_tcp_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp");
    g.sample_size(20);
    g.bench_function("tcp_1mb_transfer", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(2);
            let s = sim.reserve_actor();
            let r = sim.reserve_actor();
            let p = LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(10));
            let fwd = sim.add_link(s, r, p.clone());
            let rev = sim.add_link(r, s, p);
            let cfg = TcpConfig { data: DataSource::Finite(1_000_000), ..Default::default() };
            let sender = TcpSender::new(1, TxPath::Link(fwd), cfg, Box::new(Reno::new(1460)));
            let stats = sender.stats();
            sim.install_actor(s, sender);
            sim.install_actor(r, TcpReceiver::new(1, TxPath::Link(rev)));
            sim.run_until(SimTime::from_secs(30));
            let done = stats.borrow().completed_at;
            black_box(done)
        })
    });
    g.finish();
}

/// One Table II scenario end to end (50 probes).
fn bench_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario");
    g.sample_size(20);
    let off = TelemetryOptions::disabled();
    g.bench_function("table2_cloud_wifi_50_probes", |b| {
        b.iter(|| {
            black_box(run_table2_instrumented(
                Table2Scenario::CloudServerWifi,
                50,
                400,
                400,
                1,
                &off,
            ))
        })
    });
    g.finish();
}

/// Five seconds of AR protocol + one competing TCP flow.
fn bench_ar_second(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    g.sample_size(10);
    let cfg = fairness_config(10.0, true, SimDuration::from_millis(15));
    let off = TelemetryOptions::disabled();
    g.bench_function("ar_vs_tcp_5s", |b| {
        b.iter(|| black_box(run_fairness_config_instrumented(10.0, 1, &cfg, 5, 3, &off)))
    });
    g.finish();
}

/// Placement solvers on a 150-user instance.
fn bench_placement(c: &mut Criterion) {
    let mut rng = derive_rng(5, "bench.placement");
    let p = synthetic_metro(150, 20, 25.0, SimDuration::from_millis(20), &mut rng);
    let mut g = c.benchmark_group("placement");
    g.sample_size(20);
    g.bench_function("greedy_150u_20s", |b| b.iter(|| black_box(p.solve_greedy())));
    g.bench_function("exact_150u_20s", |b| b.iter(|| black_box(p.solve_exact())));
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_tcp_transfer,
    bench_table2,
    bench_ar_second,
    bench_placement
);
criterion_main!(benches);
