#!/usr/bin/env bash
# A/A check: measures the same code twice and holds the two sets of runs
# against the benchmark's own bounds, the way the driver does.
#
#   benchmark/aa.sh [RUNS]      (default 10; at least 2)
#
# Each set runs every workload RUNS times, untraced, with seeds 1..RUNS,
# plus one traced run at seed 1. For every end-to-end metric it prints the
# median and the spread (q3 − q1) ÷ median of each set — quartiles as
# Python's statistics.quantiles(values, n=4) — and how far set B's median
# is worse than set A's. It fails if a spread (setup_s excepted, as for the
# driver) or a drift leaves the metric's bound, if a simulated metric, a
# heap mark (single-thread workloads) or a count differs between the sets
# for the same seed, or if a traced run's shares sum above 1.
# The table goes to stdout; `benchmark/aa.sh > benchmark/AA.md` commits it.
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
out=benchmark/out/aa
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/marnet-benchmark"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for set in A B; do
    for workload in $("$bin" --list); do
        for seed in $(seq 1 "$runs"); do
            # A failed check is reported in the table, not by aborting here.
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                2>/dev/null | tail -n 1 >"$out/$set.$workload.$seed.json" || true
        done
        "$bin" --workload "$workload" --seed 1 --trace 1 --out "$out/trace.json" \
            2>/dev/null | tail -n 1 >"$out/$set.$workload.traced.json" || true
    done
done

python3 - "$out" "$runs" <<'PY'
import json, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
contract = json.load(open("BENCHMARK.json"))
ok = True
def load(set_, workload, tag):
    return json.load(open(f"{out}/{set_}.{workload}.{tag}.json"))
def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0
print("# A/A: two sets of runs of the same code\n")
print(f"{runs} runs per set and workload (seeds 1..{runs}), {contract['run_seconds']} s each; "
      "spread = (q3 − q1) ÷ median; drift = how far set B's median is worse than set A's.\n")
print("| workload | metric | median A | spread A | median B | spread B | drift | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for w in (w["name"] for w in contract["workloads"]):
    sets = {s: [load(s, w, seed) for seed in range(1, runs + 1)] for s in "AB"}
    for s in "AB":
        for seed, run in enumerate(sets[s], 1):
            if not run["correct"] or run["failed"]:
                ok = False
                print(f"| {w} | — | set {s} seed {seed}: {run['failed']} of {run['attempted']} failed | | | | | | FAIL |")
    for m in contract["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / abs(ma) if m["better"] == "lower" else (ma - mb) / abs(ma)
        sa, sb = spread(a), spread(b)
        bad = worse > bound or (name != "setup_s" and max(sa, sb) > bound)
        # Simulated statistics and heap marks repeat bit for bit — except
        # the heap mark of lab-sweep, whose pass runs on a worker thread.
        exact = m["unit"] == "%" or (m["unit"] == "bytes" and w != "lab-sweep")
        if exact and a != b:
            bad = True
        ok &= not bad
        note = "FAIL" if bad else ("ok, identical" if exact else "ok")
        print(f"| {w} | {name} | {ma:.6g} | {sa:.2%} | {mb:.6g} | {sb:.2%} | {worse:+.2%} | {bound:.0%} | {note} |")
    ta, tb = (load(s, w, "traced") for s in "AB")
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    moved = [n for n, u in units.items() if u == "count" and not n.startswith("host.")
             and ta["metrics"][n]["value"] != tb["metrics"][n]["value"]]
    # A drive that over-counts pushes the residual share below zero.
    over = min(t["metrics"]["share.residual_actor"]["value"] for t in (ta, tb)) < 0
    if moved or over or not (ta["correct"] and tb["correct"]):
        ok = False
    counts = sum(u == "count" for u in units.values())
    print(f"| {w} | per-layer counts | {counts} counts | | | | | exact | {'FAIL: ' + ', '.join(moved + ['shares sum above 1'] * over) if moved or over else 'ok, identical'} |")
print("\n" + ("All end-to-end metrics within their bounds." if ok else "A metric left its bound."))
sys.exit(0 if ok else 1)
PY
