"""Command-line front end: exact tables, speed-up sweeps, experiments, checks.

Subcommands emit CSV or JSON only; figures are left to external tools.  Every
command is deterministic given --seed (default from BOXSEARCH_SEED, else 17),
and JSON reports echo the resolved options for provenance.  Each ``_cmd_*``
returns an :class:`Output`; :func:`main` alone renders it in the chosen
format, writes it and sets the exit status: 0 when every requested check
passed, 1 when a check failed, 2 on bad input, an unwritable --output
included (usage and the error on stderr), and 3 when a result could not be
certified: a series tail still above its bound at the step cap (the message
on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__, bounds, matrix, sim
from .strategy import BLOCK_RANDOM, COORDINATED, NESTED, SOLO, SearchParams, StrategyKind

DEFAULT_SEED = 17
SEED_ENV_VAR = "BOXSEARCH_SEED"

# no matrix slab may pass this many cells, whatever --max-cells says: a slab
# is built whole before a line is written, so one far past it exhausts memory
MAX_SLAB_CELLS = 100_000_000

_STRATEGY_CHOICES = (NESTED, BLOCK_RANDOM, SOLO, COORDINATED)
_FLOAT_SPEC = ".12g"  # how CSV writes a float
_spell = f"{{:{_FLOAT_SPEC}}}".format  # the CSV text of a float


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return format(v, _FLOAT_SPEC)
    return "" if v is None else str(v)


_encode_str = json.encoder.encode_basestring_ascii  # the C string encoder json.dumps uses


def _json(obj, pad: str = "", memo: dict | None = None) -> str:
    """The text ``json.dumps(obj, indent=2)`` gives for ``obj`` nested at
    indent ``pad``, built from C-level pieces (``json.dumps`` walks every
    value in Python once an indent is set).  A list of strings or of finite
    floats is encoded in one pass, and a list object met again at the same
    indent is written once: ``memo`` maps (id, pad) to its text for one
    call, so the payload must outlive it.  Dict keys must be str; any value other than a dict, list,
    tuple, str, int, float, bool or None raises TypeError, as json.dumps does."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    if memo is None:
        memo = {}
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(f"{_encode_str(k)}: {_json(v, inner, memo)}" for k, v in obj.items())
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        text = memo.get((id(obj), pad))
        if text is None:
            text = memo[id(obj), pad] = f"[\n{inner}{_json_items(obj, inner, memo)}\n{pad}]"
        return text
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_items(obj, inner: str, memo: dict) -> str:
    """The items of the non-empty list ``obj`` as :func:`_json` lays them out
    at indent ``inner``: a list of str (a row of exact matrix cells) or of
    finite floats (a row of float cells) in one pass, else item by item."""
    sep = ",\n" + inner
    try:  # the first item picks the pass, so a list of containers raises nothing
        if isinstance(obj[0], str):
            return sep.join(map(_encode_str, obj))
        if isinstance(obj[0], float):  # float.__repr__ refuses an int or a bool
            body = sep.join(map(float.__repr__, obj))
            if "n" not in body:  # a NaN or an infinity ("nan", "inf") has its own spelling
                return body
    except TypeError:  # items of mixed types
        pass
    return sep.join([_json(v, inner, memo) for v in obj])


def _emit(pieces: Iterable[str], path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"invalid {SEED_ENV_VAR}={env!r}: not an integer") from exc
    return DEFAULT_SEED


def _report(command: str, seed: int, options: dict, results) -> dict:
    return {"version": __version__, "seed": seed, "command": command,
            "options": options, "results": results}


class Output(NamedTuple):
    """What one subcommand produced; :func:`main` renders, writes and scores it."""

    options: dict  # resolved options, echoed in JSON reports
    results: list  # JSON results
    columns: Sequence[str]  # CSV header
    rows: list  # CSV rows, one value per column; a matrix row is x and its cells' joined text
    failures: list[str] | None  # failed checks; None when the command checks nothing


SWEEP_COLUMNS = ("k", "x", "strategy", "perturbation", "trials", "mean_time", "stderr",
                 "speedup")
SPEEDUP_COLUMNS = ("k", "x", "strategy", "mode", "theta", "speedup", "stderr", "trials",
                   "truncation_t", "tail_bound")
VERIFY_COLUMNS = ("name", "k", "value", "bound", "margin", "status")


def _stats_dict(stats: sim.RunStats) -> dict:
    return {
        "trials": stats.trials,
        "mean_time": stats.mean_time,
        "stderr": stats.stderr,
        "speedup": stats.speedup_point,
        "ci95": [stats.ci95[0], stats.ci95[1]],
        "non_discovery_count": stats.non_discovery_count,
    }


def _sweep_row(k: int, x: int, label: str, stats: sim.RunStats) -> tuple:
    return (k, x, NESTED, label, stats.trials, stats.mean_time, stats.stderr,
            stats.speedup_point)


def _parse_perturbation(spec: str) -> sim.Perturbation:
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "identity":
            return sim.Perturbation()
        if kind == "shift":
            return sim.Perturbation(kind="shift", shift=int(parts[1]))
        if kind == "extra-boxes":
            return sim.Perturbation(kind="extra-boxes")
        if kind == "local-shuffle":
            window = int(parts[1])
            seed = int(parts[2]) if len(parts) > 2 else 0
            return sim.Perturbation(kind="local-shuffle", window=window, seed=seed)
    except (IndexError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad perturbation spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"unknown perturbation {kind!r}; expected identity, shift:C, "
        f"extra-boxes, or local-shuffle:W[:SEED]")


def _parse_x_range(spec: str) -> list[int]:
    try:
        lo, hi, step = (int(v) for v in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {spec!r}; expected LO:HI:STEP") from exc
    if lo < 1 or hi < lo or step < 1:
        raise argparse.ArgumentTypeError(f"bad range {spec!r}; need 1 <= LO <= HI, STEP >= 1")
    return list(range(lo, hi + 1, step))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared by every call of
    :func:`main` in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="boxsearch",
        description="Uncoordinated parallel box-search: exact analysis, "
                    "Monte Carlo experiments, and bound verification.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, default_format: str = "csv") -> None:
        p.add_argument("--format", choices=("csv", "json"), default=default_format,
                       help="output format")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"base seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")

    p = sub.add_parser("matrix", help="render a slab of the survival table N(x, t)",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--k", type=int, default=2, help="fleet design parameter")
    p.add_argument("--strategy", choices=_STRATEGY_CHOICES, default=NESTED)
    p.add_argument("--block", type=int, default=None,
                   help="block length (block-random only; 3 if not given)")
    p.add_argument("--searcher-id", type=int, default=None,
                   help="searcher id (coordinated only; 1 if not given)")
    p.add_argument("--xmax", type=int, required=True, help="rows 1..xmax")
    p.add_argument("--tmax", type=int, required=True, help="columns 0..tmax")
    p.add_argument("--exact", action="store_true", help="rational values like 2/3")
    p.add_argument("--max-cells", type=int, default=10_000_000,
                   help="refuse slabs larger than this; slabs above "
                        f"{MAX_SLAB_CELLS} cells are refused whatever it says")
    add_common(p)

    p = sub.add_parser("speedup", help="theta and speed-up over a set of x values",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--x", type=int, action="append", default=None,
                   help="treasure index (repeatable)")
    p.add_argument("--x-range", type=_parse_x_range, default=None, metavar="LO:HI:STEP")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--epsilon", type=float, default=None,
                   help="certified truncation error on theta (exact mode; 1e-6 if not given)")
    p.add_argument("--trials", type=int, default=None, help="trial count (mc mode)")
    p.add_argument("--window", action="store_true",
                   help="report max-over-window theta (window 2(k+1))")
    add_common(p)

    p = sub.add_parser("robustness", help="perturbed vs unperturbed speed-up",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--perturbation", type=_parse_perturbation, action="append",
                   default=None, metavar="SPEC",
                   help="identity | shift:C | extra-boxes | local-shuffle:W[:SEED] "
                        "(repeatable; default shift:5 and extra-boxes)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="flag speed-up losses beyond this fraction")
    add_common(p, default_format="json")

    p = sub.add_parser("crash", help="crashed oversized fleet vs right-sized fleet",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--k", type=int, required=True, help="fleet size before crashes")
    p.add_argument("--k-prime", type=int, required=True, help="number of crashed searchers")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--trials", type=int, default=2000)
    add_common(p, default_format="json")

    p = sub.add_parser("verify-bounds", help="run the numeric bound checks",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--k", type=int, action="append", default=None,
                   help="fleet sizes to check (repeatable; default 2 3 5)")
    p.add_argument("--x-tail", type=int, default=10_000,
                   help="x at which the tail sum is evaluated")
    p.add_argument("--theta-x", type=int, default=10_000,
                   help="x for the dominance check against exact theta")
    p.add_argument("--instances", type=int, default=20,
                   help="random water-filling instances")
    p.add_argument("--skip-theta", action="store_true",
                   help="skip the exact-theta dominance check (one theta_window per k)")
    add_common(p, default_format="json")

    return parser


def _cmd_matrix(args, seed: int) -> Output:
    """The slab N(x, t) for x <= --xmax, t <= --tmax.  The view hands out
    each distinct row once (:meth:`matrix.SurvivalMatrix.slab`), for CSV
    with each cached float cell spelled once: a row's CSV text is joined
    once, and in JSON every x with that row shares its cell list, which
    :func:`_json` encodes once."""
    cells = args.xmax * (args.tmax + 1)
    if args.xmax < 1 or args.tmax < 0:
        raise ValueError("--xmax must be >= 1 and --tmax >= 0")
    for cap, name in ((args.max_cells, f"--max-cells {args.max_cells}"),
                      (MAX_SLAB_CELLS, f"the ceiling of {MAX_SLAB_CELLS} cells")):
        if cells > cap:
            raise ValueError(f"--xmax {args.xmax} x --tmax {args.tmax} is {cells} cells, "
                             f"above {name}")
    for flag, value, strategy in (("--block", args.block, BLOCK_RANDOM),
                                  ("--searcher-id", args.searcher_id, COORDINATED)):
        if value is not None and args.strategy != strategy:
            raise ValueError(f"{flag} applies to --strategy {strategy} only")
    given = {"block_len": args.block, "searcher_id": args.searcher_id}
    kind = StrategyKind(args.strategy, **{f: v for f, v in given.items() if v is not None})
    rule = kind.rule(SearchParams(args.k))
    c, p = rule.c, rule.p  # the pool sizes up to --tmax are int64 arrays
    if max(c, args.tmax + p - 1, rule.pool_limit(args.tmax)) >= 1 << 63:
        # a (1, 1) rule cannot trip this below the slab ceiling
        flag = "--block" if kind.name == BLOCK_RANDOM else "--k"
        raise ValueError(f"{flag} {getattr(args, flag[2:])} is too large: the pool rule "
                         f"(c, p) = ({c}, {p}) must keep c*ceil(t/p) and t + p - 1 below "
                         f"2**63 up to --tmax {args.tmax}")
    view = matrix.SurvivalMatrix(rule, exact=args.exact)
    csv = args.format == "csv"  # exact cells are "p/q" text in either format
    cells, which = view.slab(args.xmax, args.tmax, _spell if csv else None)
    xs = range(1, args.xmax + 1)
    options = {"k": args.k, "strategy": kind.describe(), "xmax": args.xmax,
               "tmax": args.tmax, "exact": args.exact}
    if csv:
        texts = [",".join(row) for row in cells]
        return Output(options, [], ["x", *map(str, range(args.tmax + 1))],
                      [(x, texts[i]) for x, i in zip(xs, which)], None)
    return Output(options, [{"x": x, "n": cells[i]} for x, i in zip(xs, which)], [], [], None)


def _cmd_speedup(args, seed: int) -> Output:
    xs: list[int] = list(args.x or [])
    if args.x_range:
        xs.extend(args.x_range)
    if not xs:
        raise ValueError("speedup needs --x or --x-range")
    if args.mode == "mc" and args.trials is None:
        raise ValueError("--trials is required when --mode mc")
    for flag, given, mode in (("--window", args.window, "exact"),
                              ("--epsilon", args.epsilon is not None, "exact"),
                              ("--trials", args.trials is not None, "mc")):
        if given and args.mode != mode:
            raise ValueError(f"{flag} applies to --mode {mode} only")
    epsilon = 1e-6 if args.epsilon is None else args.epsilon  # echoed in both modes
    params = SearchParams(args.k)
    rows = []  # one value per SPEEDUP_COLUMNS entry
    if args.mode == "exact":
        for p in matrix.speedup_curve(params, xs, epsilon, window=args.window):
            rows.append((p.k, p.x, NESTED, "exact", p.theta, p.speedup, None, None,
                         p.truncation_t, p.tail_bound))
    else:
        templates = [sim.TrialConfig(params=params, kind=StrategyKind.nested(),
                                     treasure=x, seed=seed) for x in sorted(xs)]
        for x, stats in zip(sorted(xs), sim.estimate_speedups(templates, args.trials)):
            rows.append((args.k, x, NESTED, "mc", stats.mean_time / x, stats.speedup_point,
                         stats.stderr, stats.trials, None, None))
    options = {"k": args.k, "x": sorted(xs), "mode": args.mode,
               "epsilon": epsilon, "trials": args.trials, "window": args.window}
    return Output(options, [dict(zip(SPEEDUP_COLUMNS, r)) for r in rows], SPEEDUP_COLUMNS,
                  rows, None)


def _cmd_robustness(args, seed: int) -> Output:
    params = SearchParams(args.k)
    perts = args.perturbation or [
        sim.Perturbation(kind="shift", shift=5),
        sim.Perturbation(kind="extra-boxes"),
    ]
    report = sim.robustness_experiment(params, args.x, perts, args.trials, seed,
                                       tolerance=args.tolerance)
    results = [{"perturbation": "identity (baseline)", **_stats_dict(report.baseline),
                "speedup_ratio": 1.0, "violation": False}]
    rows = [_sweep_row(args.k, args.x, "identity", report.baseline)]
    for e in report.entries:
        results.append({"perturbation": e.perturbation, **_stats_dict(e.stats),
                        "speedup_ratio": e.speedup_ratio, "violation": e.violation})
        rows.append(_sweep_row(args.k, args.x, e.perturbation, e.stats))
    options = {"k": args.k, "x": args.x, "trials": args.trials,
               "tolerance": args.tolerance,
               "perturbations": [p.describe() for p in perts]}
    return Output(options, results, SWEEP_COLUMNS, rows,
                  [e.perturbation for e in report.entries if e.violation])


def _cmd_crash(args, seed: int) -> Output:
    if not 0 <= args.k_prime < args.k:
        raise ValueError(f"--k-prime must satisfy 0 <= k' < k, got k'={args.k_prime} k={args.k}")
    report = sim.crash_experiment(args.k, args.k_prime, args.x, args.trials, seed)
    results = [
        {"fleet": "crashed", "k": args.k, "crashed": args.k_prime,
         **_stats_dict(report.with_crashes)},
        {"fleet": "control", "k": args.k - args.k_prime, "crashed": 0,
         **_stats_dict(report.control)},
        {"check": "ci95-overlap", "passed": report.overlap},
    ]
    rows = [_sweep_row(args.k, args.x, f"crashed:{args.k_prime}", report.with_crashes),
            _sweep_row(args.k - args.k_prime, args.x, "control", report.control)]
    options = {"k": args.k, "k_prime": args.k_prime, "x": args.x, "trials": args.trials}
    return Output(options, results, SWEEP_COLUMNS, rows,
                  [] if report.overlap else ["ci95-overlap"])


def _verify_entries(args, ks: list[int], seed: int) -> list[dict]:
    """verify-bounds' entries at the fleet sizes ``ks``.  A check that needs
    k >= 2 runs over ``fleets(*its names)``, which skips each smaller k."""
    entries: list[dict] = []

    def add(name: str, value, bound, passed: bool, k=None, note: str = "") -> None:
        margin = None
        if value is not None and bound is not None:
            margin = bound - value
        entries.append({"name": name, "k": k, "value": value, "bound": bound,
                        "margin": margin,
                        "status": "pass" if passed else "fail",
                        **({"note": note} if note else {})})

    def fleets(*names: str):
        for k in ks:
            if k >= 2:
                yield k
            else:
                entries.extend({"name": name, "k": k, "value": None, "bound": None,
                                "margin": None, "status": "skip",
                                "note": "not applicable: k >= 2 required"} for name in names)

    for alpha in (0.5, 1.0, 2.0):
        dev = abs(bounds.gamma_asymptotic_ratio(1_000_000, alpha) - 1.0)
        add(f"gamma-asymptotic(alpha={alpha:g})", dev, 1e-3, dev <= 1e-3,
            note="|ratio - 1|")

    direct = bounds.direct_ratio_product(100, 10_000, 2.0 / 3.0)
    viag = bounds.gamma_ratio_product(100, 10_000, 2.0 / 3.0)
    rel = abs(viag - direct) / direct
    add("log-gamma-vs-direct-product", rel, 1e-10, rel <= 1e-10)

    res = max(bounds.upper_bound_identity_residual(k) for k in range(2, 51))
    add("upper-bound-identity(k=2..50)", res, 1e-12, res <= 1e-12)

    for k in fleets("claim1-tail"):
        delta = 2.0 / (k - 1)
        limit = 1.0 / (delta * k - 1.0)
        value = bounds.claim1_tail_sum(args.x_tail, delta, k, tolerance=1e-5)
        add("claim1-tail", value, limit * 1.01, value <= limit * 1.01, k=k)

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_resid = 0.0
    for _ in range(args.instances):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        prob = bounds.WaterFillProblem(tuple(float(v) for v in rng.uniform(0.2, 5.0, n)),
                                       float(rng.uniform(0.1, n - 0.1)), k)
        f, _alpha = bounds.waterfill_closed_form(prob)
        closed = bounds.waterfill_objective(prob, f)
        _gf, grid = bounds.waterfill_grid_oracle(prob, resolution=1e-7)
        worst = max(worst, abs(closed - grid))
        worst_resid = max(worst_resid, abs(sum(1.0 - v for v in f) - prob.budget))
    add(f"water-filling-vs-grid({args.instances} instances)", worst, 1e-4, worst <= 1e-4)
    add("water-filling-feasibility", worst_resid, 1e-10, worst_resid <= 1e-10)

    near, quad = "lower-bound-near-limit(a=2.001)", "lower-bound-quadrature(a=3)"
    for k in fleets(near, quad):
        target = 4.0 * k / (k + 1) ** 2
        gap = abs(bounds.lower_bound_closed_form(k, 2.001) - target) / target
        add(near, gap, 0.01, gap <= 0.01, k=k)
        try:
            res3 = bounds.lowerbound_value(bounds.LowerBoundConfig(k=k, a=3.0), tolerance=1e-6)
            add(quad, res3.rel_gap, 1e-6, res3.rel_gap <= 1e-6, k=k)
        except RuntimeError as exc:
            add(quad, None, 1e-6, False, k=k, note=str(exc))

    agreement = "product-formula-agreement(x',t'<=40)"
    for k in fleets(agreement):
        params = SearchParams(k)
        delta = params.delta
        view = matrix.SurvivalMatrix(StrategyKind.nested().rule(params))
        worst_rel = 0.0
        for xp in range(1, 41):
            row = view.row((k + 1) * xp, 80)
            for tp in range(xp, 41):
                b = bounds.gamma_ratio_product(xp, tp, delta)
                worst_rel = max(worst_rel, abs(row[2 * tp] - b) / b)
        add(agreement, worst_rel, 1e-12, worst_rel <= 1e-12, k=k)

    for k in ks:
        view = matrix.SurvivalMatrix(StrategyKind.nested().rule(SearchParams(k)), exact=True)
        # the last column first: it fills each row once, and the rest read the cache
        worst_col = max(view.column_sum_residual(t) for t in range(100, 0, -1))
        add("column-identity(t<=100)", float(worst_col), 0.0, worst_col == 0, k=k)

    if not args.skip_theta:
        for k in fleets("lower-bound-dominance"):
            est = matrix.theta_window(SearchParams(k), args.theta_x, epsilon=1e-6)
            lb = bounds.lower_bound_closed_form(k, 2.001)
            add("lower-bound-dominance", lb, est.theta * 1.02, lb <= est.theta * 1.02, k=k)

    return entries


def _cmd_verify_bounds(args, seed: int) -> Output:
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    ks = args.k or [2, 3, 5]
    entries = _verify_entries(args, ks, seed)
    options = {"k": ks, "x_tail": args.x_tail, "theta_x": args.theta_x,
               "instances": args.instances, "skip_theta": args.skip_theta}
    return Output(options, entries, VERIFY_COLUMNS,
                  [[e[c] for c in VERIFY_COLUMNS] for e in entries],
                  [e["name"] for e in entries if e["status"] == "fail"])


_COMMANDS = {"matrix": _cmd_matrix, "speedup": _cmd_speedup, "robustness": _cmd_robustness,
             "crash": _cmd_crash, "verify-bounds": _cmd_verify_bounds}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = args.seed if args.seed is not None else _default_seed()
        if seed < 0:  # numpy's own message would name no option
            source = "--seed" if args.seed is not None else SEED_ENV_VAR
            raise ValueError(f"{source} must be >= 0, got {seed}")
        out = _COMMANDS[args.subcommand](args, seed)
    except ValueError as exc:  # bad input: usage and message on stderr, exit 2
        parser.error(str(exc))
    except RuntimeError as exc:  # could not certify: message on stderr, exit 3
        print(f"{parser.prog}: could not certify: {exc}", file=sys.stderr)
        return 3
    if args.format == "csv":  # rendered as written, a line at a time
        pieces: Iterable[str] = (",".join(map(_fmt, row)) + "\n"
                                 for row in (out.columns, *out.rows))
    else:
        payload = _report(args.subcommand, seed, out.options, out.results)
        if out.failures is not None:
            payload["failures"] = out.failures
        pieces = [_json(payload) + "\n"]
    try:
        _emit(pieces, args.output)
    except OSError as exc:  # an unwritable --output is bad input too
        parser.error(f"cannot write --output: {exc}")
    return 1 if out.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
