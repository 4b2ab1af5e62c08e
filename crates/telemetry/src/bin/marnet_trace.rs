//! `marnet-trace` — inspect and compare marnet flight-recorder traces.
//!
//! ```text
//! marnet-trace dump  <trace> [--kind K] [--comp C] [--flow F] [--limit N]
//! marnet-trace flows <trace> [--flow F]
//! marnet-trace queues <trace>
//! marnet-trace diff  <a> <b>
//! ```
//!
//! `dump` prints events one per line with optional filters; `flows`
//! reconstructs per-flow timelines; `queues` computes per-link queue-delay
//! distributions (the bufferbloat view); `diff` compares two traces and
//! localizes the first divergent event — on a deterministic simulator the
//! first divergence *is* the bug's location. `diff` exits 0 when the
//! traces are identical and 1 when they diverge. Every subcommand reads a
//! trace through [`marnet_telemetry::expand`], so it sees, and `diff`
//! counts, the records a recorder that never folds would have written.
//! Each subcommand takes only the flags it uses; any other flag exits 2.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use marnet_telemetry::{component, file, DropReason, TraceEvent, TraceKind};

const USAGE: &str = "usage:
  marnet-trace dump  <trace> [--kind K] [--comp C] [--flow F] [--limit N]
  marnet-trace flows <trace> [--flow F]
  marnet-trace queues <trace>
  marnet-trace diff  <a> <b>

  --kind K   keep only events of kind K (enqueue, drop, dequeue, deliver,
             busy, idle, admit, degrade, fec-repair, path-switch, offload,
             fault-inject, fault-clear, outage-detect, outage-resolve,
             edge-crash, edge-restart, session-resync, recovery-probe,
             flow-start, flow-finish, flow-rate)
  --comp C   keep only component C (link#3, actor#7, or a raw id)
  --flow F   keep only packet events of flow F
  --limit N  print at most N events";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("marnet-trace: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(format!("missing subcommand\n{USAGE}"));
    };
    match cmd.as_str() {
        "dump" => cmd_dump(&args[1..]),
        "flows" => cmd_flows(&args[1..]),
        "queues" => cmd_queues(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}

/// Filters shared by `dump` and `flows`.
#[derive(Default)]
struct Filter {
    kind: Option<TraceKind>,
    comp: Option<u32>,
    flow: Option<u64>,
    limit: Option<usize>,
}

impl Filter {
    fn keeps(&self, ev: &TraceEvent) -> bool {
        if let Some(kind) = self.kind {
            if ev.kind != kind {
                return false;
            }
        }
        if let Some(comp) = self.comp {
            if ev.comp != comp {
                return false;
            }
        }
        if let Some(flow) = self.flow {
            if !is_packet_kind(ev.kind) || ev.flow() != flow {
                return false;
            }
        }
        true
    }
}

/// Kinds whose `b` operand packs flow and size.
fn is_packet_kind(kind: TraceKind) -> bool {
    matches!(kind, TraceKind::PacketEnqueue | TraceKind::PacketDrop | TraceKind::PacketDeliver)
}

fn parse_comp(s: &str) -> Result<u32, String> {
    if let Some(idx) = s.strip_prefix("link#") {
        let idx: usize = idx.parse().map_err(|_| format!("bad link index in `{s}`"))?;
        return Ok(component::link(idx));
    }
    if let Some(idx) = s.strip_prefix("actor#") {
        let idx: usize = idx.parse().map_err(|_| format!("bad actor index in `{s}`"))?;
        return Ok(component::actor(idx));
    }
    s.parse().map_err(|_| format!("bad component `{s}` (want link#N, actor#N, or a raw id)"))
}

/// Parses trailing `--flag value` options into a [`Filter`], returning the
/// positional arguments. `cmd` takes only the flags in `takes`: any other
/// flag is refused rather than ignored.
fn parse_filter<'a>(
    args: &'a [String],
    cmd: &str,
    takes: &[&str],
) -> Result<(Vec<&'a String>, Filter), String> {
    let mut filter = Filter::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") && !takes.contains(&arg.as_str()) {
            return Err(format!("{cmd} does not take `{arg}`\n{USAGE}"));
        }
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("{name} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--kind" => {
                let v = value("--kind")?;
                let kind = TraceKind::from_name(v).ok_or_else(|| format!("unknown kind `{v}`"))?;
                if kind == TraceKind::PacketSendIdle {
                    return Err("no reader sees kind `send-idle`: each such record is read as \
                         the enqueue, dequeue and busy records it stands for; filter on those"
                        .to_owned());
                }
                filter.kind = Some(kind);
            }
            "--comp" => filter.comp = Some(parse_comp(value("--comp")?)?),
            "--flow" => {
                let v = value("--flow")?;
                filter.flow = Some(v.parse().map_err(|_| format!("bad flow `{v}`"))?);
            }
            "--limit" => {
                let v = value("--limit")?;
                filter.limit = Some(v.parse().map_err(|_| format!("bad limit `{v}`"))?);
            }
            _ => positional.push(arg),
        }
    }
    Ok((positional, filter))
}

/// Reads and expands the trace at `path`.
fn load(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let events = file::read_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(marnet_telemetry::expand(&events))
}

fn one_trace_arg<'a>(positional: &[&'a String], cmd: &str) -> Result<&'a String, String> {
    match positional {
        [p] => Ok(p),
        _ => Err(format!("{cmd} takes exactly one trace file\n{USAGE}")),
    }
}

fn cmd_dump(args: &[String]) -> Result<ExitCode, String> {
    let (positional, filter) =
        parse_filter(args, "dump", &["--kind", "--comp", "--flow", "--limit"])?;
    let events = load(Path::new(one_trace_arg(&positional, "dump")?))?;
    let limit = filter.limit.unwrap_or(usize::MAX);
    let mut shown = 0usize;
    let mut matched = 0usize;
    for ev in &events {
        if !filter.keeps(ev) {
            continue;
        }
        matched += 1;
        if shown < limit {
            println!("{ev}");
            shown += 1;
        }
    }
    if shown < matched {
        println!("... {} more (raise --limit)", matched - shown);
    }
    eprintln!("{matched} of {} events matched", events.len());
    Ok(ExitCode::SUCCESS)
}

/// Per-flow accumulator for `flows`.
#[derive(Default)]
struct FlowStats {
    enqueued: u64,
    delivered: u64,
    delivered_bytes: u64,
    dropped: u64,
    dropped_bytes: u64,
    first_t: u64,
    last_t: u64,
}

fn cmd_flows(args: &[String]) -> Result<ExitCode, String> {
    let (positional, filter) = parse_filter(args, "flows", &["--flow"])?;
    let events = load(Path::new(one_trace_arg(&positional, "flows")?))?;

    if let Some(flow) = filter.flow {
        // Full timeline for one flow.
        let mut shown = 0usize;
        for ev in events.iter().filter(|ev| is_packet_kind(ev.kind) && ev.flow() == flow) {
            println!("{ev}");
            shown += 1;
        }
        eprintln!("flow {flow}: {shown} events");
        return Ok(ExitCode::SUCCESS);
    }

    let mut flows: BTreeMap<u64, FlowStats> = BTreeMap::new();
    for ev in &events {
        if !is_packet_kind(ev.kind) {
            continue;
        }
        let st = flows
            .entry(ev.flow())
            .or_insert_with(|| FlowStats { first_t: ev.t, ..FlowStats::default() });
        st.last_t = ev.t;
        match ev.kind {
            TraceKind::PacketEnqueue => st.enqueued += 1,
            TraceKind::PacketDeliver => {
                st.delivered += 1;
                st.delivered_bytes += u64::from(ev.size());
            }
            TraceKind::PacketDrop => {
                st.dropped += 1;
                st.dropped_bytes += u64::from(ev.size());
            }
            _ => {}
        }
    }
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>12} {:>12} {:>12}",
        "flow", "enqueued", "delivered", "dropped", "deliv bytes", "first ms", "last ms"
    );
    for (flow, st) in &flows {
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>12} {:>12.3} {:>12.3}",
            flow,
            st.enqueued,
            st.delivered,
            st.dropped,
            st.delivered_bytes,
            st.first_t as f64 / 1e6,
            st.last_t as f64 / 1e6
        );
    }
    eprintln!("{} flows", flows.len());
    Ok(ExitCode::SUCCESS)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn cmd_queues(args: &[String]) -> Result<ExitCode, String> {
    let (positional, _) = parse_filter(args, "queues", &[])?;
    let events = load(Path::new(one_trace_arg(&positional, "queues")?))?;

    // Queue delay per component, from the dequeue events' delay operand.
    let mut delays: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut drops: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for ev in &events {
        match ev.kind {
            TraceKind::PacketDequeue => delays.entry(ev.comp).or_default().push(ev.b),
            TraceKind::PacketDrop => {
                let reason = DropReason::from_u8(ev.aux).map_or("?", DropReason::name);
                *drops.entry(ev.comp).or_default().entry(reason).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    if delays.is_empty() && drops.is_empty() {
        println!("no queue activity in trace");
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "component", "pkts", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms"
    );
    for (comp, list) in &mut delays {
        list.sort_unstable();
        let ms = |v: u64| v as f64 / 1e6;
        // Summed in u128: two delays of 2^63 ns already overflow a u64.
        let mean =
            list.iter().map(|&d| u128::from(d)).sum::<u128>() as f64 / list.len() as f64 / 1e6;
        println!(
            "{:<10} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            component::label(*comp),
            list.len(),
            mean,
            ms(percentile(list, 0.50)),
            ms(percentile(list, 0.90)),
            ms(percentile(list, 0.99)),
            ms(*list.last().unwrap()),
        );
    }
    for (comp, by_reason) in &drops {
        let total: u64 = by_reason.values().sum();
        let detail: Vec<String> =
            by_reason.iter().map(|(reason, n)| format!("{reason} {n}")).collect();
        println!("{:<10} {total} drops ({})", component::label(*comp), detail.join(", "));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let (positional, _) = parse_filter(args, "diff", &[])?;
    let [path_a, path_b] = positional[..] else {
        return Err(format!("diff takes exactly two trace files\n{USAGE}"));
    };
    let (path_a, path_b) = (PathBuf::from(path_a), PathBuf::from(path_b));
    let a = load(&path_a)?;
    let b = load(&path_b)?;

    // The comparison and report live in `marnet_telemetry::diff` so that
    // `marnet-lab racecheck` localizes divergences with the same logic.
    let diff = marnet_telemetry::first_divergence(&a, &b);
    let (a_name, b_name) = match &diff {
        // The divergence report labels the two columns tersely; the length
        // report names the longer file inline, so pass the paths through.
        marnet_telemetry::TraceDiff::LengthMismatch { .. } => {
            (path_a.display().to_string(), path_b.display().to_string())
        }
        _ => ("a".to_owned(), "b".to_owned()),
    };
    print!("{}", diff.render(&a_name, &b_name));
    Ok(if diff.is_identical() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comp_parsing() {
        assert_eq!(parse_comp("link#3").unwrap(), component::link(3));
        assert_eq!(parse_comp("actor#7").unwrap(), component::actor(7));
        assert_eq!(parse_comp("42").unwrap(), 42);
        assert!(parse_comp("widget#1").is_err());
    }

    #[test]
    fn filter_matches_kind_comp_flow() {
        let ev = TraceEvent::packet_enqueue(5, component::link(1), 9, 3, 100, 0);
        let mut f = Filter::default();
        assert!(f.keeps(&ev));
        f.kind = Some(TraceKind::PacketEnqueue);
        f.comp = Some(component::link(1));
        f.flow = Some(3);
        assert!(f.keeps(&ev));
        f.flow = Some(4);
        assert!(!f.keeps(&ev));
    }

    #[test]
    fn flow_filter_excludes_non_packet_kinds() {
        let busy = TraceEvent::link_state(5, component::link(1), true, 1, 100);
        let f = Filter { flow: Some(0), ..Filter::default() };
        assert!(!f.keeps(&busy));
    }

    #[test]
    fn percentile_picks_expected_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
