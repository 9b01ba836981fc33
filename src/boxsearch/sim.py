"""Monte Carlo engine: fleets of independent searchers against a hidden box.

Trials are step-synchronous: at every global step each live searcher opens
one box.  Searchers never communicate; each one owns a private random stream
derived from (trial seed, searcher id), which makes every trial a
deterministic function of its config and embarrassingly parallel across
trial indices.

Both randomized samplers run through one hit-time function: it reads the
pool rule from :class:`StrategyKind` and replays only the draws that can
touch the treasure, so it draws uniforms and never reads N(x, t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .strategy import (
    SearchParams,
    StrategyKind,
    searcher_seed,
)

PERTURBATION_KINDS = ("identity", "shift", "extra-boxes", "local-shuffle")


def ceil_sqrt(i: int) -> int:
    s = math.isqrt(i)
    return s if s * s == i else s + 1


@functools.lru_cache(maxsize=16)
def _block_permutation(seed: int, window: int, block: int) -> np.ndarray:
    """The local-shuffle permutation of one block (0-based, read-only).

    Trials map the same treasure through the same perturbation over and over,
    so the few blocks in use are kept rather than drawn again per call.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    perm = rng.permutation(window)
    perm.flags.writeable = False
    return perm


@dataclass(frozen=True)
class Perturbation:
    """A searcher's private renumbering of the box list.

    ``map_index`` is the injective map from true index to the index the
    searcher sees.  All built-in kinds keep map_index(i)/i -> 1, the regime in
    which the samplers keep their speed-up:

    - identity: i
    - shift: i + c (the first c perceived slots are extra boxes)
    - extra-boxes: i + ceil(sqrt(i))
    - local-shuffle: a seeded permutation displacing each index < window
    """

    kind: str = "identity"
    shift: int = 0
    window: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(
                f"unknown perturbation {self.kind!r}; expected one of {PERTURBATION_KINDS}")
        if self.kind == "shift" and self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        if self.kind == "local-shuffle" and self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    def map_index(self, i: int) -> int:
        if i < 1:
            raise ValueError(f"box index must be >= 1, got {i}")
        kind = self.kind
        if kind == "identity":
            return i
        if kind == "shift":
            return i + self.shift
        if kind == "extra-boxes":
            return i + ceil_sqrt(i)
        blk = (i - 1) // self.window
        perm = _block_permutation(self.seed, self.window, blk)
        return blk * self.window + int(perm[i - 1 - blk * self.window]) + 1

    def describe(self) -> str:
        if self.kind == "shift":
            return f"shift:{self.shift}"
        if self.kind == "extra-boxes":
            return "extra-boxes:ceil-sqrt"
        if self.kind == "local-shuffle":
            return f"local-shuffle:{self.window}:seed={self.seed}"
        return "identity"


@dataclass(frozen=True)
class CrashSchedule:
    """Oblivious crash times: a crashed searcher makes no peeks at t >= crash."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for sid, when in self.entries:
            if sid < 1:
                raise ValueError(f"searcher id must be >= 1, got {sid}")
            if when < 1:
                raise ValueError(f"crash time must be >= 1, got {when}")
            if sid in seen:
                raise ValueError(f"duplicate crash entry for searcher {sid}")
            seen.add(sid)

    def crash_time(self, sid: int) -> int | None:
        for s, when in self.entries:
            if s == sid:
                return when
        return None


@dataclass(frozen=True)
class TrialConfig:
    """One trial: who searches, where the treasure is, and the trial seed."""

    params: SearchParams
    kind: StrategyKind
    treasure: int
    seed: int
    crashes: CrashSchedule = field(default_factory=CrashSchedule)
    perturbations: tuple[Perturbation, ...] = ()
    searchers: int = 0  # 0 selects params.k

    def __post_init__(self) -> None:
        if self.treasure < 1:
            raise ValueError(f"treasure index must be >= 1, got {self.treasure}")
        n = self.fleet_size
        if n < 1:
            raise ValueError(f"fleet size must be >= 1, got {n}")
        self.kind.check_fleet(self.params, n)
        if self.perturbations and len(self.perturbations) != n:
            raise ValueError(
                f"perturbations must be empty or one per searcher ({n}), "
                f"got {len(self.perturbations)}")
        for sid, _ in self.crashes.entries:
            if sid > n:
                raise ValueError(f"crash entry for searcher {sid} outside 1..{n}")

    @property
    def fleet_size(self) -> int:
        return self.searchers if self.searchers else self.params.k

    @property
    def step_cap(self) -> int:
        """The first horizon of :func:`run_trial`, doubled while nothing is found."""
        return 50 * self.treasure * self.params.block_size


@dataclass(frozen=True)
class TrialOutcome:
    """Discovery step and finder; time None (not an error) means every searcher
    crashed first, or a partition opens the treasure only past the first horizon."""

    time: int | None
    first_finder: int | None

    @property
    def discovered(self) -> bool:
        return self.time is not None


# Uniforms are drawn in chunks that start small (runs that end within a few
# steps draw little) and grow to amortize numpy's per-call cost.  A uniform is
# one PCG64 output whatever the chunk sizes, so they change no hit time.
CHUNK_FIRST = 64
CHUNK_MAX = 16384


def _follow_treasure(u: np.ndarray, m: np.ndarray, p: int) -> tuple[int, int]:
    """Replay swap-pop draws against the treasure's slot ``p``.

    Step i draws slot floor(u[i] * m[i]) of an m[i]-box candidate list and
    moves the list's last box into it.  Only two draws matter: slot ``p``
    (a hit), or another slot while the treasure is last (it moves there).
    Returns (index of the hit or -1, slot after the last step).
    """
    j = (u * m).astype(np.int64)
    i = 0
    while True:
        events = np.flatnonzero((j[i:] == p) | (m[i:] == p + 1))
        if not events.size:
            return -1, p
        i += int(events[0])
        if j[i] == p:
            return i, p
        p = int(j[i])
        i += 1


def _skipped_generator(seed_seq, skip: int) -> np.random.Generator:
    """The searcher's Generator with its first ``skip`` uniforms consumed."""
    bits = np.random.PCG64(seed_seq)
    bits.advance(skip)
    return np.random.Generator(bits)


@functools.lru_cache(maxsize=16)
def _list_sizes(kind: StrategyKind, params: SearchParams, t: int, n: int) -> np.ndarray:
    """Candidate-list lengths pool_limit(s) - (s - 1) at steps s = t..t+n-1
    (read-only).  The trials of one experiment share the treasure, hence the
    chunks, so the few in use are kept rather than computed per searcher run."""
    steps = np.arange(t, t + n)
    m = kind.pool_limit(params, steps) - steps + 1
    m.flags.writeable = False
    return m


def _pool_hit_time(kind: StrategyKind, params: SearchParams, target: int, seed_seq,
                   limit: int) -> int | None:
    """First step <= limit at which the pool sampler ``kind`` draws ``target``.

    Equals replaying strategy.next_box on the same seed.  The candidate list
    holds m(t) = pool_limit(t) - (t - 1) boxes at step t whatever the draws,
    and ``target`` joins it in slot target - first at step ``first``, the
    step that appends it; earlier draws cannot touch it.
    """
    first = kind.entry_step(params, target)
    if limit < first:
        return None
    rng = _skipped_generator(seed_seq, first - 1)
    p = target - first
    t = first
    size = CHUNK_FIRST
    while t <= limit:
        n = min(size, limit + 1 - t)
        hit, p = _follow_treasure(rng.random(n), _list_sizes(kind, params, t, size)[:n], p)
        if hit >= 0:
            return t + hit
        t += n
        size = min(4 * size, CHUNK_MAX)
    return None


def _hit_time(config: TrialConfig, sid: int, target: int, limit: int) -> int | None:
    """First step <= limit at which fleet member ``sid`` opens ``target``, or
    None; in a partition, fleet member sid is partition member sid."""
    kind = config.kind
    if kind.randomized:
        return _pool_hit_time(kind, config.params, target,
                              searcher_seed(config.seed, sid), limit)
    t = replace(kind, searcher_id=sid).visit_step(config.params, target)
    return t if t is not None and t <= limit else None


def run_trial(config: TrialConfig) -> TrialOutcome:
    """Simulate one fleet trial; earliest hit wins, lowest id breaks ties.

    Searchers are independent, so each one is run on its own stream only as
    far as it could still improve on the best hit so far; the outcome equals
    a fully step-synchronous simulation.  If none hits within the horizon and
    a pool-sampler searcher stopped at it rather than at its crash, the fleet
    reruns on the same streams with the horizon doubled (it opens every box).
    """
    perts = config.perturbations
    horizon = config.step_cap
    while True:
        best_t: int | None = None
        finder: int | None = None
        capped = False
        for sid in range(1, config.fleet_size + 1):
            limit = horizon
            crash = config.crashes.crash_time(sid)
            if crash is not None and crash - 1 < limit:
                limit = crash - 1
            if best_t is not None and best_t - 1 < limit:
                limit = best_t - 1
            if limit <= 0:
                continue
            target = perts[sid - 1].map_index(config.treasure) if perts else config.treasure
            t = _hit_time(config, sid, target, limit)
            if t is not None:
                best_t = t
                finder = sid
            elif limit == horizon:
                capped = True
        if best_t is not None or not (capped and config.kind.randomized):
            return TrialOutcome(best_t, finder)
        horizon *= 2


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed derived from the experiment base seed."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


class NonDiscoveryError(RuntimeError):
    """Raised when a mean is requested but some trials found nothing."""


@dataclass(frozen=True)
class RunStats:
    """Aggregate over independent trials.

    ``mean_time``/``stderr`` cover discovering trials only; trials that found
    nothing (see :class:`TrialOutcome`) are counted in ``non_discovery_count``,
    never dropped silently.  The 95% interval uses the normal approximation.
    """

    trials: int
    mean_time: float
    stderr: float
    speedup_point: float
    ci95: tuple[float, float]
    non_discovery_count: int


def estimate_speedup(template: TrialConfig, trials: int,
                     allow_non_discovery: bool = False) -> RunStats:
    """Run ``trials`` independent seeded trials of ``template``.

    ``template.seed`` acts as the experiment base seed; trial i runs with
    trial_seed(base, i).  Aggregation uses exact integer moments, so results
    do not depend on reduction order.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    base = template.seed
    x = template.treasure
    total = 0
    total_sq = 0
    found = 0
    missing = 0
    for i in range(trials):
        outcome = run_trial(replace(template, seed=trial_seed(base, i)))
        if outcome.time is None:
            missing += 1
        else:
            total += outcome.time
            total_sq += outcome.time * outcome.time
            found += 1
    if missing and not allow_non_discovery:
        raise NonDiscoveryError(
            f"{missing} of {trials} trials did not find the treasure; no mean reported")
    if not found:
        return RunStats(trials, math.nan, math.nan, math.nan, (math.nan, math.nan), missing)
    mean = total / found
    if found > 1:
        # exact integer numerator: times near 1e8 would cancel in float
        var = (found * total_sq - total * total) / (found * (found - 1))
        stderr = math.sqrt(var / found)
    else:
        stderr = math.nan
    half = 1.96 * stderr
    return RunStats(trials, mean, stderr, x / mean, (mean - half, mean + half), missing)


def cis_overlap(a: RunStats, b: RunStats) -> bool:
    return a.ci95[0] <= b.ci95[1] and b.ci95[0] <= a.ci95[1]


@dataclass(frozen=True)
class CrashReport:
    k: int
    k_prime: int
    x: int
    trials: int
    with_crashes: RunStats
    control: RunStats
    overlap: bool


def crash_experiment(k: int, k_prime: int, x: int, trials: int, base_seed: int) -> CrashReport:
    """Crashed oversized fleet vs the right-sized fleet it degrades to.

    A fleet of k searchers runs the sampler designed for k - k' searchers,
    with searchers 1..k' crashed at time 1; the control is k - k' searchers,
    uncrashed, same design.  The two means must agree (the crashed searchers
    never contribute), which the overlap of the 95% intervals checks.
    """
    if not 0 <= k_prime < k:
        raise ValueError(f"need 0 <= k' < k, got k'={k_prime}, k={k}")
    design = SearchParams(k - k_prime)
    crashed = TrialConfig(
        params=design,
        kind=StrategyKind.nested(),
        treasure=x,
        seed=base_seed,
        crashes=CrashSchedule(tuple((sid, 1) for sid in range(1, k_prime + 1))),
        searchers=k,
    )
    control = TrialConfig(
        params=design,
        kind=StrategyKind.nested(),
        treasure=x,
        seed=base_seed,
    )
    stats_crashed = estimate_speedup(crashed, trials)
    stats_control = estimate_speedup(control, trials)
    return CrashReport(k, k_prime, x, trials, stats_crashed, stats_control,
                       cis_overlap(stats_crashed, stats_control))


@dataclass(frozen=True)
class RobustnessEntry:
    perturbation: str
    stats: RunStats
    speedup_ratio: float
    violation: bool


@dataclass(frozen=True)
class RobustnessReport:
    k: int
    x: int
    trials: int
    tolerance: float
    baseline: RunStats
    entries: tuple[RobustnessEntry, ...]

    @property
    def any_violation(self) -> bool:
        return any(e.violation for e in self.entries)


def robustness_experiment(params: SearchParams, x: int,
                          perturbation_set: Sequence[Perturbation], trials: int,
                          base_seed: int, tolerance: float = 0.05) -> RobustnessReport:
    """Perturbed vs unperturbed speed-up under shared base seeds.

    Every searcher in the perturbed runs applies the same perturbation.
    Sharing the base seed pairs the runs draw-for-draw, so identity
    perturbations reproduce the baseline bit for bit and the comparison for
    the others is low-variance.  An entry is flagged when its speed-up falls
    more than ``tolerance`` (relative) below the baseline.
    """
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    template = TrialConfig(params=params, kind=StrategyKind.nested(), treasure=x, seed=base_seed)
    baseline = estimate_speedup(template, trials)
    entries = []
    for pert in perturbation_set:
        perturbed = replace(template, perturbations=tuple([pert] * params.k))
        stats = estimate_speedup(perturbed, trials)
        ratio = stats.speedup_point / baseline.speedup_point
        entries.append(RobustnessEntry(pert.describe(), stats, ratio,
                                       ratio < 1.0 - tolerance))
    return RobustnessReport(params.k, x, trials, tolerance, baseline, tuple(entries))
