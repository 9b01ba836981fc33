"""boxsearch benchmark: a closed loop with one client in one thread.

Run from the repository root:

    python3 perfbench/run.py --workload mc-small-x --seed 1 --seconds 30 --trace 0

Each op is one in-process ``boxsearch.cli.main(argv)`` call (or one library
call the CLI cannot reach), timed with ``perf_counter`` and then checked
against ``perfbench/references.json``.  The loop runs whole rounds of the
workload's ops (see ``workloads.py``) until ``--seconds`` have passed and at
least MIN_OPS ops ran.  Times are reported at nominal machine speed (see
``speed.py``); the raw times are printed next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed list
of rounds in which every op runs both untraced and with every layer wrapped
(``tracer.py``), and prints the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn, each in a child process of
its own so that its ``peak_rss_mb`` is its own.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the same numbers for people, with units and sample
counts.  A full record (provenance, per-op-kind latencies, failures) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def _import_checkout_boxsearch() -> None:
    """Import boxsearch from ./src of this checkout and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "boxsearch", "__init__.py")):
        sys.exit(f"error: {SRC}/boxsearch not found; run from the repository root")
    sys.path.insert(0, SRC)
    import boxsearch
    if not os.path.abspath(boxsearch.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: boxsearch imported from {boxsearch.__file__}, not {SRC}")


_import_checkout_boxsearch()

import numpy  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from boxsearch import sim  # noqa: E402

MIN_OPS = 100  # p90 needs ten samples above it
SETUP_SAMPLES = 5  # fresh interpreters per run for setup_s, after one warm-up
IMPORT_SAMPLES = 3  # fresh interpreters per traced run for bounds.import_s
# Seconds one round of each workload took at the seed commit on 2 Xeon cores.
# A traced run runs round(seconds / 4 / this) rounds, each op untraced and
# traced, so its size is fixed by --seconds and its counts repeat exactly for
# a seed.
NOMINAL_ROUND_S = {"mc-small-x": 0.5, "mc-large-x": 2.2, "exact-bounds": 5.0}

SETUP_CODE = (
    "import sys; src = sys.argv[1]; sys.path.insert(0, src)\n"
    "import boxsearch.cli as cli\n"
    "cli.build_parser()\n"
    "sys.exit(0 if cli.__file__.startswith(src) else 3)\n"
)

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]


@dataclass
class Record:
    name: str
    seconds: float  # raw wall time of the op
    scaled: float  # the same at nominal machine speed
    error: str | None
    out_bytes: int
    samples: list[workloads.Sample] = field(default_factory=list)  # MC means it reported


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=None,
                   help="run exactly this many rounds (smoke runs; no MIN_OPS floor)")
    p.add_argument("--references", default=os.path.join(HERE, "references.json"))
    return p.parse_args(argv)


# ---------------------------------------------------------------- provenance

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree
    (a parent directory's repository does not count)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git installed
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine": {"HAVE_COMPILED_STEPPERS": getattr(sim, "HAVE_COMPILED_STEPPERS", None),
                   "USE_COMPILED_STEPPERS": getattr(sim, "USE_COMPILED_STEPPERS", None)},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------- set-up cost

def _spawn(extra: list[str], capture: bool) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", SETUP_CODE, SRC], cwd=ROOT,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE if capture else subprocess.DEVNULL,
                          text=True, check=True)
    return perf_counter() - t0, proc.stderr or ""


def measure_setup(speedo: speed.Speedometer) -> list[tuple[float, float]]:
    """(raw, scaled) wall times of fresh interpreters that import boxsearch.cli
    and build the parser, as every CLI call does; the first (warm-up) sample
    is dropped."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        before = speedo.sample()
        raw = _spawn([], False)[0]
        after = speedo.sample()
        factor = math.prod((before[k] + after[k]) / 2 for k in before) ** (1 / len(before))
        samples.append((raw, raw / factor))
    return samples[1:]


def measure_bounds_import() -> list[float]:
    """Cumulative import time of boxsearch.bounds (scipy included), from
    ``-X importtime`` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, err = _spawn(["-X", "importtime"], True)
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "boxsearch.bounds":
                samples.append(int(parts[1]) / 1e6)
    return samples


# ---------------------------------------------------------------- the loop

def run_op(op: workloads.Op, refs: dict) -> Record:
    """Time, run and check one op; its scaled time is set later, if at all."""
    t0 = perf_counter()
    try:
        status, out = op.run()
        error = None
    except (Exception, SystemExit) as exc:  # an op that raises counts as failed
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    out_bytes = 0
    samples = []
    if error is None:
        if isinstance(out, str):
            out_bytes = len(out.encode("utf-8"))
        try:
            samples = op.check(status, out, refs) or []
            for sample in samples:
                workloads.check_sample(sample)
        except workloads.CheckError as exc:
            error = str(exc)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            error = f"unexpected output: {type(exc).__name__}: {exc}"
    return Record(op.name, seconds, seconds, error, out_bytes, samples)


def check_pooled(records: list[Record]) -> None:
    """Pool the MC means of each op kind over the run (``workloads.check_pooled``),
    whether or not each passed on its own; when the pooled gate fails, every
    op of that kind fails."""
    kinds: dict[str, list[Record]] = {}
    for r in records:
        if r.samples:
            kinds.setdefault(r.name, []).append(r)
    for name, group in kinds.items():
        try:
            workloads.check_pooled([s for r in group for s in r.samples])
        except workloads.CheckError as exc:
            for r in group:
                r.error = r.error or f"{len(group)} {name} ops {exc}"


def _q(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]


def end_to_end(lat: list[float], setup: list[float]) -> dict:
    """End-to-end metrics from op latencies and set-up times in seconds."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    values = {"setup_s": statistics.median(setup), "ops_per_s": len(lat) / sum(lat),
              "op_p50_ms": _q(lat, 0.5) * 1e3, "op_p90_ms": _q(lat, 0.9) * 1e3,
              "peak_rss_mb": rss_kib * 1024 / 1e6}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def untraced_run(name: str, args, refs: dict, rng: random.Random):
    """Timed loop of whole rounds; returns (metrics, notes, records, extra info)."""
    speedo = speed.Speedometer()
    setup = measure_setup(speedo)
    probe = workloads.PROBE[name]
    source = workloads.Rounds(workloads.WORKLOADS[name], rng)
    records: list[Record] = []
    rounds = 0
    first = len(speedo.raw)  # the sample taken just before the first op
    t0 = perf_counter()
    while (rounds < args.rounds if args.rounds is not None
           else perf_counter() - t0 < args.seconds or len(records) < MIN_OPS):
        for op in source.next():
            speedo.sample()
            records.append(run_op(op, refs))
        rounds += 1
    wall = perf_counter() - t0
    speedo.sample()  # the sample after the last op
    for i, r in enumerate(records):
        r.scaled = r.seconds / speedo.factor_around(probe, first + i, first)
    check_pooled(records)
    metrics = end_to_end([r.scaled for r in records], [s for _, s in setup])
    raw = end_to_end([r.seconds for r in records], [r for r, _ in setup])
    busy = sum(r.scaled for r in records)
    n = len(records)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"{n} ops in {busy:.2f} s of op time ({rounds} rounds, wall "
                     f"{wall:.2f} s), {probe} probe",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}",
        "peak_rss_mb": "ru_maxrss of this workload's process",
    }
    for key in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms"):
        notes[key] += f"; raw {raw[key]['value']:.6g}"
    info = {"raw_metrics": raw, "setup_samples": setup, "rounds": rounds, "wall_s": wall,
            "busy_s": busy, "speed_probes": speedo.raw,
            "op_seconds": [[r.seconds, r.scaled] for r in records]}
    return metrics, notes, records, info


def traced_run(name: str, args, refs: dict, rng: random.Random):
    """Fixed rounds, each op untraced and traced; returns as untraced_run."""
    rounds = args.rounds or max(1, round(args.seconds / 4 / NOMINAL_ROUND_S[name]))
    source = workloads.Rounds(workloads.WORKLOADS[name], rng)
    ops = [op for _ in range(rounds) for op in source.next()]
    trace = tracer.Tracer()
    plain, records = [], []

    def traced(i: int, op: workloads.Op) -> Record:
        trace.op = i
        trace.install()
        try:
            return run_op(op, refs)
        finally:
            trace.uninstall()

    # each op runs untraced and traced back to back, so drift hits both; the
    # order alternates, so the second run's warm caches favour neither side
    for i, op in enumerate(ops):
        if i % 2:
            records.append(traced(i, op))
            plain.append(run_op(op, refs))
        else:
            plain.append(run_op(op, refs))
            records.append(traced(i, op))
    check_pooled(plain)
    check_pooled(records)
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in records)
    imports = measure_bounds_import()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in trace.metrics().items()}
    metrics["cli.stdout_bytes"] = {"value": sum(r.out_bytes for r in records), "unit": "bytes"}
    metrics["bounds.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": (traced_s - plain_s) / plain_s, "unit": "ratio"}
    trials = trace.stats["sim.run_trial"].calls
    notes = {"trace.overhead_s": f"traced {traced_s:.3f} s - untraced {plain_s:.3f} s "
                                 f"of op time over the same {len(ops)} ops",
             "bounds.import_s": f"median of {len(imports)} fresh interpreters",
             "sim.run_trial.p50_us": f"n={trials}",
             "sim.run_trial.p90_us": f"n={trials}"}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}.csv.gz")
    trace.write_spans(spans_path)
    info = {"rounds": rounds, "untraced_s": plain_s, "traced_s": traced_s,
            "spans": len(trace.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, notes, plain + records, info


def run_workload(name: str, args, refs: dict) -> dict:
    rng = random.Random(f"{name}:{args.seed}")
    run = traced_run if args.trace else untraced_run
    metrics, notes, records, extra = run(name, args, refs, rng)
    failures = [{"op": r.name, "error": r.error} for r in records if r.error]
    attempted = len(records)
    kinds: dict[str, list[Record]] = {}
    for r in records:
        kinds.setdefault(r.name, []).append(r)
    per_kind = {k: {"n": len(v), "median_ms": statistics.median(r.scaled for r in v) * 1e3,
                    "raw_median_ms": statistics.median(r.seconds for r in v) * 1e3}
                for k, v in sorted(kinds.items())}
    info = {"provenance": provenance(name, args.seed), "trace": args.trace, **extra,
            "metrics": metrics, "attempted": attempted, "failed": len(failures),
            "failures": failures, "per_kind": per_kind}

    lines = [f"workload {name}  seed {args.seed}  trace {args.trace}  "
             f"(closed loop, 1 client, 1 thread)",
             "provenance " + json.dumps(info["provenance"], sort_keys=True)]
    for key, m in metrics.items():
        lines.append(f"  {key:34s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(key, '')}")
    lines.append(f"  {'fail_frac':34s} {len(failures) / attempted:>14.6g} {'ratio':6s} "
                 f"{len(failures)}/{attempted} ops failed")
    for f in failures[:10]:
        lines.append(f"  FAILED {f['op']}: {f['error']}")
    print("\n".join(lines), flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    return info


def run_all(args) -> int:
    """Every workload in a child process of its own; prints their lines and one
    combined result with metrics named ``<workload>.<metric>``."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--references", args.references]
        if args.rounds is not None:
            cmd += ["--rounds", str(args.rounds)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed,
                      "metrics": {f"{n}.{k}": v for n, r in results.items()
                                  for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with open(args.references, encoding="utf-8") as fh:
        refs = json.load(fh)
    info = run_workload(args.workload, args, refs)
    print(json.dumps({"correct": info["failed"] == 0, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": info["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
