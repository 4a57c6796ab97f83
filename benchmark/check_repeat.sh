#!/usr/bin/env bash
# Does the benchmark repeat within its own bounds?
#
# Runs two sets of RUNS runs per workload on one build (set A for every
# workload, then set B, so the sets are minutes apart like two driver
# passes), prints each set's median and quartiles per end-to-end metric, and
# fails if
#   - the set medians differ by more than the metric's bound in BENCHMARK.json,
#   - a simulated metric differs at all between runs, of one seed or two,
#   - an allocation metric differs by more than 0.05 %, a tenth of its bound
#     (see README: it repeats to within a few hash-table reallocations, not
#     to the last digit; the largest difference seen is printed),
#   - on a second seed the op count moves or the fingerprint does not
#     (`chaos_storm` pins its world seed: there the fingerprint must stay),
#   - a run prints metric names other than those in BENCHMARK.json, or a
#     step-traced workload attributes less than 90 % of its traced wall time.
#
#   benchmark/check_repeat.sh [RUNS=5] [SEED=20240913] [SECONDS=run_seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here" "${1:-5}" "${2:-20240913}" "${3:-}" <<'PY'
import json, re, statistics, subprocess, sys

here, runs, seed, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]
e2e = {m["name"]: m for m in spec["end_to_end"]}
per_layer = [m["name"] for m in spec["per_layer"]]
SIM_EXACT = ("sim_latency_tail_s", "completed_share")
ALLOC_NEAR = ("allocs_per_op", "alloc_kib_per_op")
STEP_TRACED = [w for w in workloads if w != "chaos_storm"]
failures = []


def run(workload, seed, trace):
    cmd = ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: incorrect run: {out.stderr[-2000:]}")
    note = out.stderr
    ops = re.search(r"repetitions of (\d+) ops", note)
    fingerprint = re.search(r"fingerprint (\S+?);", note)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "ops": ops and int(ops.group(1)),
        "fingerprint": fingerprint and fingerprint.group(1),
    }


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[0], statistics.median(values), q[2]


sets = {"A": {}, "B": {}}
for label in ("A", "B"):
    for w in workloads:
        print(f"set {label}: {w} x{runs}", flush=True)
        sets[label][w] = [run(w, seed, 0) for _ in range(runs)]

for w in workloads:
    print(f"\n== {w}")
    a, b = sets["A"][w], sets["B"][w]
    if set(a[0]["metrics"]) != set(e2e):
        failures.append(f"{w}: end-to-end metric names differ from BENCHMARK.json")
    for name, meta in e2e.items():
        va = [r["metrics"][name] for r in a]
        vb = [r["metrics"][name] for r in b]
        (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
        shift = abs(bm - am) / abs(am) if am else 0.0
        verdict = "ok"
        if shift > meta["bound"]:
            verdict = "FAIL"
            failures.append(f"{w}.{name}: set medians differ by {shift:.2%} > {meta['bound']:.4%}")
        every = va + vb
        if name in SIM_EXACT and len(set(every)) != 1:
            verdict = "FAIL"
            failures.append(f"{w}.{name}: simulated metric moved between runs of one seed: {sorted(set(every))}")
        if name in ALLOC_NEAR:
            moved = (max(every) - min(every)) / max(every)
            if moved > 5e-4:
                verdict = "FAIL"
                failures.append(f"{w}.{name}: allocation metric moved by more than 0.05 %: {min(every)}..{max(every)}")
            verdict += " (identical)" if moved == 0 else f" (runs differ by {moved:.1e})"
        print(f"  {name:20s} A {a1:14.6f} {am:14.6f} {a3:14.6f} | B {b1:14.6f} {bm:14.6f} {b3:14.6f}"
              f" | shift {shift:7.3%} of bound {meta['bound']:.4%} {verdict}")
    fingerprints = {r["fingerprint"] for r in a + b}
    if len(fingerprints) != 1:
        failures.append(f"{w}: fingerprint moved between runs of one seed: {fingerprints}")
    other = run(w, seed + 1, 0)
    if other["ops"] != a[0]["ops"]:
        failures.append(f"{w}: op count depends on the seed ({a[0]['ops']} vs {other['ops']})")
    if w == "chaos_storm":
        if other["fingerprint"] not in fingerprints:
            failures.append(f"{w}: the world seed is pinned, yet the fingerprint follows --seed")
    elif other["fingerprint"] in fingerprints:
        failures.append(f"{w}: fingerprint does not depend on the seed")
    for name in SIM_EXACT:
        if other["metrics"][name] != a[0]["metrics"][name]:
            failures.append(f"{w}.{name}: simulated metric depends on the seed: "
                            f"{a[0]['metrics'][name]} vs {other['metrics'][name]}")
    print(f"  seed {seed}: {a[0]['ops']} ops, fingerprint {a[0]['fingerprint']}")
    print(f"  seed {seed + 1}: {other['ops']} ops, fingerprint {other['fingerprint']}")
    traced = run(w, seed, 1)["metrics"]
    if list(traced) != per_layer:
        failures.append(f"{w}: per-layer metric names differ from BENCHMARK.json")
    share = traced.get("harness.trace.attributed_share", -1)
    print(f"  traced: attributed_share {share:.4f}, overhead_share "
          f"{traced.get('harness.trace.overhead_share', -1):.4f}")
    if w in STEP_TRACED and share < 0.9:
        failures.append(f"{w}: attributed_share {share:.3f} < 0.9")

print()
if failures:
    print("check_repeat: FAIL")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("check_repeat: ok")
PY
