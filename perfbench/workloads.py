"""Workload definitions: op templates, how each op runs, and how it is checked.

A workload is a list of op templates.  One *round* instantiates every
template once, drawing its free parameters (treasure index, CLI seed,
perturbation constants) from the workload's seeded RNG, in a shuffled order.
The benchmark runs whole rounds, so every run sees the same mix of op kinds,
and deals treasure indices from a deck (``Rounds``), so it sees the same mix
of sizes too.

Each op is either one in-process ``boxsearch.cli.main(argv)`` call with its
stdout captured, or one library call where the CLI cannot reach (the block
sampler).  Its output is checked against ``references.json``, which
``make_references.py`` computes once from ``boxsearch.matrix``; nothing is
computed from the library while the benchmark checks an op.  After a run,
the MC means of each op kind are checked once more, pooled
(``check_pooled``).

Reference keys name what they hold, so ``make_references.py`` can compute any
key that a template may ask for:

- ``mc/nested/k=K/fleet=F/x=X/pert=P``: [mean, sd] of the discovery time of
  F searchers running the design-K nested sampler, each seeing the treasure
  at the perturbed index P(X);
- ``mc/block=B/fleet=F/x=X``: [mean, sd] for the block-random sampler;
- ``theta/k=K/x=X/eps=E/window=W``: theta (or its window max) at E/10;
- ``matrix/STRATEGY/PARAM=V/xmax=X/tmax=T``: exact rows N(x, 0..T) for x <= X,
  one per block.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from boxsearch import cli, sim
from boxsearch.strategy import SearchParams, StrategyKind

SE_GATE = 5.0  # an MC mean passes within this many standard errors
THETA_REF_FACTOR = 10  # references are computed at epsilon / THETA_REF_FACTOR


@dataclass
class Op:
    """One operation of the closed loop and the check its output must pass."""

    name: str
    # check(status, output, refs) raises CheckError when the output is wrong;
    # an MC op's check returns its means, which the caller then gates one by
    # one (check_sample) and pooled over the run (check_pooled)
    check: Callable[[int, object, dict], "list[Sample] | None"]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None

    def run(self) -> tuple[int, object]:
        """Run the op; returns (exit status, stdout text or library result)."""
        if self.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(list(self.argv))
            return status, buf.getvalue()
        return 0, self.call()


class CheckError(Exception):
    """An op's output disagrees with its own report or with a reference."""


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


# ---------------------------------------------------------------- MC checks

def mc_key(k: int, fleet: int, x: int, pert: str = "identity") -> str:
    return f"mc/nested/k={k}/fleet={fleet}/x={x}/pert={pert}"


def block_key(b: int, fleet: int, x: int) -> str:
    return f"mc/block={b}/fleet={fleet}/x={x}"


class Sample(NamedTuple):
    """One MC mean as reported, with its exact reference."""

    label: str
    trials: int
    mean: float
    stderr: float  # the op's own sample SE
    mu: float  # exact mean
    sd: float  # exact standard deviation of one trial


def _gate(label: str, excess: float, exact_se: float, sample_se: float) -> None:
    """``excess`` (observed minus exact) must lie in
    [-SE_GATE * exact_se, SE_GATE * max(exact_se, sample_se)]."""
    lo = -SE_GATE * exact_se
    hi = SE_GATE * max(exact_se, sample_se)
    _require(lo <= excess <= hi,
             f"{label}: {excess:+.6g} from exact, outside [{lo:.6g}, {hi:.6g}]")


def mc_sample(label: str, mean: float, stderr: float, trials: int,
              want_trials: int, non_discovered: int, ref: list[float]) -> Sample:
    """An MC mean as a Sample, after checking that it counts the trials asked
    for, all of them discovered, and that it is finite."""
    _require(trials == want_trials, f"{label}: trials {trials} != {want_trials}")
    _require(non_discovered == 0, f"{label}: {non_discovered} trials not discovered")
    _require(math.isfinite(mean) and math.isfinite(stderr) and stderr >= 0,
             f"{label}: mean {mean!r} stderr {stderr!r} not finite")
    return Sample(label, trials, mean, stderr, *ref)


def check_sample(s: Sample) -> None:
    """An MC mean passes when it lies within SE_GATE standard errors of the
    exact expected discovery time.

    The SE is the exact one, sd/sqrt(n) with sd from the reference, because T
    is bounded below and heavy-tailed above (fleet survival ~ t^(-2k/(k-1)))
    and a sample that draws no long trial has a sample SE far below it.  On
    the upper side it widens to the op's own reported SE when that is larger:
    one long trial lifts the mean by many exact SEs and the sample SE with it.
    A fixed upper limit in exact SEs cannot replace that widening: one long
    trial alone lifts a mean past 10 exact SEs with probability up to about
    4e-4 at these shapes (n P(T > mu + 10 n SE), from the exact survival).  The widening costs power against a bias that lengthens every
    trial, since it lengthens the sample SE too; ``check_pooled`` restores it
    over a whole run.
    """
    _gate(f"{s.label}: mean {s.mean:.6g} (exact {s.mu:.6g})", s.mean - s.mu,
          s.sd / math.sqrt(s.trials), s.stderr)


def check_pooled(samples: list[Sample]) -> None:
    """The same gate on the total discovery time of every trial in
    ``samples`` (all means one op kind reported in a run).

    Its exact variance is sum(n sd^2); its sample variance sum(n^2 stderr^2)
    is rebuilt from each mean's own SE.  A bias that lengthens every trial by
    a factor c moves the total by (c - 1) sum(n mu), which outgrows both SEs
    as trials accumulate: over one mc-large-x run (120-160 trials per op
    kind) the gate catches c of about 1.2-1.3, where a single op of 12-16
    trials lets c of 2-3 pass.  In 1e5 simulated correct pools of each of six
    shapes (k = 2, 3 at x = 2000 and 1e4 with 2-40 means of 10-16 trials; k = 5
    at x = 10 with 3 means of 150) the upper side never went past 3.1 SEs.
    """
    excess = math.fsum(s.trials * (s.mean - s.mu) for s in samples)
    exact_se = math.sqrt(math.fsum(s.trials * s.sd ** 2 for s in samples))
    sample_se = math.sqrt(math.fsum((s.trials * s.stderr) ** 2 for s in samples))
    n = sum(s.trials for s in samples)
    _gate(f"pooled over {len(samples)} means, {n} trials: total time", excess,
          exact_se, sample_se)


def _stats_sample(label: str, stats: dict, want_trials: int, key: str, refs: dict) -> Sample:
    return mc_sample(label, stats["mean_time"], stats["stderr"], stats["trials"],
                     want_trials, stats["non_discovery_count"], refs[key])


def _json_out(out: object) -> dict:
    try:
        return json.loads(out)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc


def _exit_matches_failures(status: int, report: dict) -> None:
    want = 1 if report["failures"] else 0
    _require(status == want, f"exit {status} but failures={report['failures']!r}")


# ---------------------------------------------------------------- templates

class Template:
    """A parameterised op; ``make`` builds one instance for a value dealt from
    ``xs`` (a treasure index; a CLI seed for verify-bounds), drawing its other
    free parameters from the RNG."""

    xs: tuple

    def make(self, rng: random.Random, x) -> Op:
        raise NotImplementedError

    def all_ref_keys(self) -> set[str]:
        """Every reference key any instance may need."""
        raise NotImplementedError


@dataclass
class SpeedupMC(Template):
    k: int
    xs: tuple[int, ...]
    trials: int

    @property
    def name(self) -> str:
        return f"speedup-mc-k{self.k}"

    def make(self, rng: random.Random, x) -> Op:
        seed = rng.randrange(1 << 31)
        argv = ["speedup", "--mode", "mc", "--k", str(self.k), "--x", str(x),
                "--trials", str(self.trials), "--format", "json", "--seed", str(seed)]
        key = mc_key(self.k, self.k, x)

        def check(status, out, refs):
            _require(status == 0, f"exit {status}")
            row, = _json_out(out)["results"]
            _require(row["x"] == x, f"row x {row['x']} != {x}")
            # non-discovery raises inside estimate_speedup, so 0 is implied here
            return [mc_sample(f"x={x}", row["theta"] * x, row["stderr"], row["trials"],
                              self.trials, 0, refs[key])]

        return Op(self.name, check, argv=argv)

    def all_ref_keys(self) -> set[str]:
        return {mc_key(self.k, self.k, x) for x in self.xs}


@dataclass
class CrashMC(Template):
    k: int
    k_prime: int
    xs: tuple[int, ...]
    trials: int

    @property
    def name(self) -> str:
        return f"crash-k{self.k}-kp{self.k_prime}"

    def _key(self, x: int) -> str:
        # crashed searchers never peek, so both fleets are k - k' searchers
        # running the design for k - k'
        design = self.k - self.k_prime
        return mc_key(design, design, x)

    def make(self, rng: random.Random, x) -> Op:
        seed = rng.randrange(1 << 31)
        argv = ["crash", "--k", str(self.k), "--k-prime", str(self.k_prime), "--x", str(x),
                "--trials", str(self.trials), "--seed", str(seed)]
        key = self._key(x)

        def check(status, out, refs):
            report = _json_out(out)
            _exit_matches_failures(status, report)
            crashed, control, overlap = report["results"]
            _require(overlap["passed"] == (not report["failures"]),
                     "ci95-overlap disagrees with failures")
            return [_stats_sample("crashed", crashed, self.trials, key, refs),
                    _stats_sample("control", control, self.trials, key, refs)]

        return Op(self.name, check, argv=argv)

    def all_ref_keys(self) -> set[str]:
        return {self._key(x) for x in self.xs}


@dataclass
class RobustnessMC(Template):
    k: int
    xs: tuple[int, ...]
    trials: int
    shifts: tuple[int, ...]
    windows: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"robustness-k{self.k}"

    def make(self, rng: random.Random, x) -> Op:
        seed = rng.randrange(1 << 31)
        perts = [f"shift:{rng.choice(self.shifts)}", "extra-boxes",
                 f"local-shuffle:{rng.choice(self.windows)}"]
        argv = ["robustness", "--k", str(self.k), "--x", str(x),
                "--trials", str(self.trials), "--seed", str(seed)]
        for p in perts:
            argv += ["--perturbation", p]
        keys = [mc_key(self.k, self.k, x)] + [mc_key(self.k, self.k, x, p) for p in perts]

        def check(status, out, refs):
            report = _json_out(out)
            _exit_matches_failures(status, report)
            rows = report["results"]
            _require(len(rows) == len(keys), f"{len(rows)} rows for {len(keys)} runs")
            flagged = [r["perturbation"] for r in rows[1:] if r["violation"]]
            _require(flagged == report["failures"], "violations disagree with failures")
            return [_stats_sample(row["perturbation"], row, self.trials, key, refs)
                    for row, key in zip(rows, keys)]

        return Op(self.name, check, argv=argv)

    def all_ref_keys(self) -> set[str]:
        perts = (["identity", "extra-boxes"] + [f"shift:{c}" for c in self.shifts]
                 + [f"local-shuffle:{w}" for w in self.windows])
        return {mc_key(self.k, self.k, x, p) for x in self.xs for p in perts}


@dataclass
class BlockRandomMC(Template):
    """Library ``sim.estimate_speedup`` on the block sampler (no CLI route)."""

    k: int
    block: int
    xs: tuple[int, ...]
    trials: int

    @property
    def name(self) -> str:
        return f"block-random-b{self.block}-k{self.k}"

    def make(self, rng: random.Random, x) -> Op:
        seed = rng.randrange(1 << 31)
        template = sim.TrialConfig(params=SearchParams(self.k),
                                   kind=StrategyKind.block_random(self.block),
                                   treasure=x, seed=seed)
        key = block_key(self.block, self.k, x)

        def check(status, stats, refs):
            return [mc_sample(f"x={x}", stats.mean_time, stats.stderr, stats.trials,
                              self.trials, stats.non_discovery_count, refs[key])]

        return Op(self.name, check, call=lambda: sim.estimate_speedup(template, self.trials))

    def all_ref_keys(self) -> set[str]:
        return {block_key(self.block, self.k, x) for x in self.xs}


def theta_key(k: int, x: int, eps: float, window: bool) -> str:
    return f"theta/k={k}/x={x}/eps={eps!r}/window={int(window)}"


@dataclass
class SpeedupExact(Template):
    k: int
    xs: tuple[int, ...]
    eps: float
    window: bool = False

    @property
    def name(self) -> str:
        return f"speedup-exact-k{self.k}-eps{self.eps:g}" + ("-window" if self.window else "")

    def make(self, rng: random.Random, x) -> Op:
        argv = ["speedup", "--mode", "exact", "--k", str(self.k), "--x", str(x),
                "--epsilon", repr(self.eps), "--format", "json"]
        if self.window:
            argv.append("--window")
        key = theta_key(self.k, x, self.eps, self.window)

        def check(status, out, refs):
            _require(status == 0, f"exit {status}")
            row, = _json_out(out)["results"]
            ref = refs[key]
            gap = abs(row["theta"] - ref)
            _require(gap <= self.eps + 1e-12 * ref,
                     f"x={x}: theta {row['theta']!r} is {gap:.3g} from reference {ref!r}")
            _require(0 <= row["tail_bound"] <= self.eps,
                     f"x={x}: tail bound {row['tail_bound']!r} above epsilon")
            _require(abs(row["speedup"] * row["theta"] - 1) <= 1e-12,
                     f"x={x}: speedup {row['speedup']!r} is not 1/theta")

        return Op(self.name, check, argv=argv)

    def all_ref_keys(self) -> set[str]:
        return {theta_key(self.k, x, self.eps, self.window) for x in self.xs}


def matrix_key(strategy: str, param: int, xmax: int, tmax: int) -> str:
    name = "k" if strategy == "nested" else "b"
    return f"matrix/{strategy}/{name}={param}/xmax={xmax}/tmax={tmax}"


def matrix_block(strategy: str, param: int, x: int) -> int:
    """0-based index of the reference row that holds N(x, .)."""
    width = param + 1 if strategy == "nested" else param
    return (x - 1) // width


@dataclass
class MatrixExact(Template):
    """``matrix --exact`` slab; nested rows use ``param`` as k, block-random as
    the block length."""

    strategy: str
    param: int
    xmax: int
    tmax: int
    fmt: str = "csv"

    xs = (None,)  # a slab has no treasure index

    @property
    def name(self) -> str:
        return f"matrix-exact-{self.strategy}-{self.param}"

    def make(self, rng: random.Random, x) -> Op:
        argv = ["matrix", "--exact", "--strategy", self.strategy, "--xmax", str(self.xmax),
                "--tmax", str(self.tmax), "--format", self.fmt]
        argv += (["--k", str(self.param)] if self.strategy == "nested"
                 else ["--block", str(self.param)])
        key = matrix_key(self.strategy, self.param, self.xmax, self.tmax)

        def check(status, out, refs):
            _require(status == 0, f"exit {status}")
            if self.fmt == "json":
                rows = {r["x"]: r["n"] for r in _json_out(out)["results"]}
            else:
                lines = out.splitlines()
                _require(lines[0] == "x," + ",".join(map(str, range(self.tmax + 1))),
                         "bad CSV header")
                rows = {int(f[0]): f[1:] for f in (ln.split(",") for ln in lines[1:])}
            _require(sorted(rows) == list(range(1, self.xmax + 1)), "wrong set of rows")
            for x, cells in rows.items():
                want = refs[key][matrix_block(self.strategy, self.param, x)]
                _require([Fraction(c) for c in cells] == [Fraction(c) for c in want],
                         f"row x={x} differs from the exact rationals")

        return Op(self.name, check, argv=argv)

    def all_ref_keys(self) -> set[str]:
        return {matrix_key(self.strategy, self.param, self.xmax, self.tmax)}


@dataclass
class VerifyBounds(Template):
    """``verify-bounds``; its CLI ``--seed`` is dealt from ``xs`` like a
    treasure index, because the cost of its random water-filling instances
    depends on the seed (0.8-1.9 s per op between runs when drawn freely), so
    every run sees the same set."""

    instances: int
    xs: tuple[int, ...] = tuple(range(1, 7))
    ks: tuple[int, ...] = (2, 3, 5)
    theta_x: int = 10_000

    name = "verify-bounds"
    DOMINANCE_EPS = 1e-6  # the epsilon the CLI's dominance check uses

    def make(self, rng: random.Random, seed) -> Op:
        argv = ["verify-bounds", "--instances", str(self.instances),
                "--theta-x", str(self.theta_x), "--seed", str(seed)]
        for k in self.ks:
            argv += ["--k", str(k)]

        def check(status, out, refs):
            report = _json_out(out)
            _exit_matches_failures(status, report)
            failed = [e["name"] for e in report["results"] if e["status"] == "fail"]
            _require(failed == report["failures"], "entry statuses disagree with failures")
            dominance = {e["k"]: e for e in report["results"]
                         if e["name"] == "lower-bound-dominance"}
            _require(sorted(dominance) == sorted(k for k in self.ks if k >= 2),
                     "missing lower-bound-dominance entries")
            for k, e in dominance.items():
                ref = refs[theta_key(k, self.theta_x, self.DOMINANCE_EPS, True)]
                theta = e["bound"] / 1.02
                _require(abs(theta - ref) <= self.DOMINANCE_EPS + 1e-12,
                         f"k={k}: dominance theta {theta!r} vs reference {ref!r}")

        return Op(self.name, check, argv=argv)

    def all_ref_keys(self) -> set[str]:
        return {theta_key(k, self.theta_x, self.DOMINANCE_EPS, True)
                for k in self.ks if k >= 2}


# ---------------------------------------------------------------- workloads

SMALL_X = tuple(range(5, 51))
NEAR_1E4 = (9997, 9998, 9999, 10000)
NEAR_1E5 = (99997, 99998, 99999, 100000)
NEAR_1E3 = (997, 998, 999, 1000)


def _repeat(templates: list[tuple[Template, int]]) -> list[Template]:
    return [t for t, n in templates for _ in range(n)]


WORKLOADS: dict[str, list[Template]] = {
    # Fixed per-trial costs dominate (seeding, Generator set-up, map_index):
    # small x, a few hundred trials per op, k in {2, 3, 5}.
    "mc-small-x": [
        SpeedupMC(2, SMALL_X, 300),
        SpeedupMC(3, SMALL_X, 300),
        SpeedupMC(5, SMALL_X, 150),
        CrashMC(3, 1, SMALL_X, 300),
        CrashMC(5, 2, SMALL_X, 150),
        RobustnessMC(2, SMALL_X, 200, shifts=(1, 2, 3, 4, 5), windows=(2, 3, 4, 5, 6)),
        RobustnessMC(3, SMALL_X, 150, shifts=(1, 2, 3, 4, 5), windows=(2, 3, 4, 5, 6)),
        BlockRandomMC(2, 3, SMALL_X, 300),
        BlockRandomMC(3, 4, SMALL_X, 300),
    ],
    # The pure-Python stepper does almost all the work: acceptance criteria
    # 6-8 shapes (k in {2, 3}, x in {2000, 10000}) with few trials per op.
    # k=3 runs at x=2000 only: at x=1e4 its t^-3 tail makes single trials
    # long enough to move ru_maxrss by a third between seeds.  Op latencies
    # are heavy-tailed, so p50 is placed inside the crash ops whose fleet
    # runs the k=1 design (a fixed number of steps per trial) and p90 inside
    # the k=2, x=1e4 robustness ops.
    "mc-large-x": _repeat([
        (SpeedupMC(2, (2000,), 16), 1),
        (SpeedupMC(3, (2000,), 16), 1),
        (CrashMC(3, 1, (2000,), 16), 1),
        (CrashMC(2, 1, (2000,), 40), 2),
        (CrashMC(3, 2, (2000,), 40), 2),
        (SpeedupMC(2, (10000,), 12), 1),
        (RobustnessMC(3, (2000,), 12, shifts=(3, 4, 5, 6, 7), windows=(4, 8, 16)), 1),
        (RobustnessMC(2, (10000,), 10, shifts=(3, 4, 5, 6, 7), windows=(4, 8, 16)), 2),
    ]),
    # No sim code: float series (theta, window), exact Fraction slabs, and the
    # bound checks.  One op (k=8, x=1e4, eps=1e-7) truncates past 1e8 steps.
    # The counts put p50 inside the k=2/k=8 small-theta ops and p90 inside
    # the k=2 window ops, away from the edges between op kinds; verify-bounds
    # runs once a round, with its seed dealt from a fixed set, because its
    # random water-filling instance alone varies from 0.05 s to 1.4 s.
    "exact-bounds": _repeat([
        (SpeedupExact(1, NEAR_1E5, 1e-6), 4),
        (MatrixExact("nested", 2, 30, 30), 4),
        (MatrixExact("nested", 3, 40, 40, fmt="json"), 4),
        (MatrixExact("nested", 5, 36, 36), 2),
        (MatrixExact("block-random", 3, 30, 30), 2),
        (SpeedupExact(8, NEAR_1E3, 1e-5), 8),
        (SpeedupExact(2, NEAR_1E4, 1e-7), 10),
        (SpeedupExact(5, NEAR_1E3, 1e-5, window=True), 4),
        (SpeedupExact(3, NEAR_1E4, 1e-6, window=True), 4),
        (SpeedupExact(3, NEAR_1E4, 1e-7), 4),
        (SpeedupExact(5, NEAR_1E4, 1e-6), 2),
        (SpeedupExact(2, NEAR_1E5, 1e-7, window=True), 6),
        (SpeedupExact(8, (10000,), 1e-7), 1),
        (VerifyBounds(instances=1), 1),
    ]),
}


# The speed probe (speed.py) that scales each workload's op times: the MC
# workloads spend their time in the interpreter, exact-bounds in numpy kernels.
PROBE = {"mc-small-x": "python", "mc-large-x": "python", "exact-bounds": "numpy"}


class Rounds:
    """The seeded rounds of one run.

    Each template deals its treasure indices from its own shuffled deck,
    refilled when empty, so every run covers each x range evenly: runs with
    different seeds differ in order and in random outcomes, not in their mix
    of sizes, which keeps p90 on mc-small-x from moving with the seed.
    """

    def __init__(self, templates: list[Template], rng: random.Random) -> None:
        self.templates = templates
        self.rng = rng
        self._decks: list[list] = [[] for _ in templates]

    def next(self) -> list[Op]:
        """One instance of every template, in a seeded shuffled order."""
        ops = []
        for template, deck in zip(self.templates, self._decks):
            if not deck:
                deck.extend(template.xs)
                self.rng.shuffle(deck)
            ops.append(template.make(self.rng, deck.pop()))
        self.rng.shuffle(ops)
        return ops
