"""Repeat benchmark runs and summarise them: medians, quartiles and spreads.

Run from the repository root (about 25 minutes):

    python3 perfbench/baseline.py

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once for
each of the seeds 1-10, for ``run_seconds``, and reports, for each end-to-end
metric, the median, the quartiles and the spread (quartile distance over
median) next to the bound in BENCHMARK.json, of the scaled figures and of the
raw (unscaled) ones; a scaled spread above a third of its bound is flagged.
It then makes two traced runs on seed 1 and reports whether every exact count
repeats.  The summary is written to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))
TRACE_REPEATS = 2
EXACT_COUNTS = ("sim.run_trial.calls", "strategy.searcher_seed.calls", "sim.trial_seed.calls",
                "sim.map_index.calls", "sim.fleet_steps", "sim.non_discovered",
                "matrix.theta.calls", "matrix.theta_window.calls", "matrix.truncation_t.sum",
                "matrix.survival_value.calls", "bounds.waterfill_grid_oracle.calls",
                "cli.stdout_bytes")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _raw(workload: str, seed: int, metric: str) -> float:
    """The unscaled value of a metric, from the run's record in out/."""
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["raw_metrics"][metric]["value"]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    summary = {"seeds": SEEDS, "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        results = []
        for s in SEEDS:
            r = run(w, s, seconds, 0)
            results.append(r)
            print(f"{w} seed {s}: attempted {r['attempted']} failed {r['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "end_to_end": {}}
        for name, spec in bounds.items():
            st = summarise([r["metrics"][name]["value"] for r in results])
            raw = summarise([_raw(w, s, name) for s in SEEDS])
            entry["end_to_end"][name] = {**st, "unit": spec["unit"], "raw": raw}
            flag = ""
            if name != "setup_s" and st["spread"] > spec["bound"] / 3:
                flag = "  SPREAD ABOVE BOUND/3"
                ok = False
            print(f"  {w:13s} {name:12s} median {st['median']:10.5g} {spec['unit']:4s} "
                  f"q1 {st['q1']:10.5g} q3 {st['q3']:10.5g} spread {st['spread']:.4f} "
                  f"bound {spec['bound']}{flag}  (raw spread {raw['spread']:.4f})", flush=True)
        traced = [run(w, SEEDS[0], seconds, 1) for _ in range(TRACE_REPEATS)]
        counts = [{k: t["metrics"][k]["value"] for k in EXACT_COUNTS} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        ok = ok and repeat
        entry["traced"] = {"seed": SEEDS[0], "exact_counts": counts[0],
                           "counts_repeat": repeat, "failed": [t["failed"] for t in traced],
                           "per_layer": traced[0]["metrics"]}
        print(f"  {w} traced x{TRACE_REPEATS} on seed {SEEDS[0]}: "
              f"exact counts {'repeat' if repeat else 'DIFFER'}", flush=True)
        summary["workloads"][w] = entry
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
