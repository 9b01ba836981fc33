"""Search strategies for the box-search model.

A strategy emits, one step at a time, the 1-based index of the next box a
single searcher peeks into.  Every strategy is non-revisiting: within one
searcher's run an index is never emitted twice.

Strategies are pure state machines.  A :class:`SearcherState` belongs to one
searcher; distinct searchers never share state, so fleets need no
synchronization.

The two randomized samplers are one pool sampler with two pool rules: at step
t the searcher draws uniformly among the unvisited boxes of the pool
1..pool_limit(t), which is ceil(t/2)*(k+1) for the nested sampler and
b*ceil(t/b) for block-random.  The two deterministic baselines are one
partition rule: member i of n opens box i + (t-1)*n at step t, coordinated
searcher i being member i of k and solo member 1 of 1.  :class:`StrategyKind`
alone knows the rules; the stepper here, the simulator's hit time and the
exact survival table (one recurrence for both pool rules) all read them from
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

NESTED = "nested"
COORDINATED = "coordinated"
SOLO = "solo"
BLOCK_RANDOM = "block-random"

STRATEGY_NAMES = (NESTED, COORDINATED, SOLO, BLOCK_RANDOM)

# UniformStream's first refill draws UNIFORM_FIRST uniforms and every later
# refill UNIFORM_CHUNK.  Each uniform is one PCG64 output, so any chunking
# yields the same stream; the sizes only trade buffer waste against per-call
# cost.  Most searchers use a handful of uniforms, so the first refill is
# small.
UNIFORM_FIRST = 8
UNIFORM_CHUNK = 256


@dataclass(frozen=True)
class SearchParams:
    """Fleet design parameter k plus the constants derived from it."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")

    @property
    def block_size(self) -> int:
        """Boxes appended to the sampling pool per phase: k + 1."""
        return self.k + 1

    @property
    def delta(self) -> float:
        """Two-step survival decay exponent 2/(k-1); defined only for k >= 2."""
        if self.k < 2:
            raise ValueError("delta requires k >= 2")
        return 2.0 / (self.k - 1)

    @property
    def delta_exact(self) -> Fraction:
        if self.k < 2:
            raise ValueError("delta requires k >= 2")
        return Fraction(2, self.k - 1)


@dataclass(frozen=True)
class StrategyKind:
    """Tagged choice of sampler.

    ``block_len`` applies to block-random only; ``searcher_id`` applies to the
    coordinated partition only (each fleet member runs a different program).
    """

    name: str
    block_len: int = 3
    searcher_id: int = 1

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {self.name!r}; expected one of {STRATEGY_NAMES}")
        if self.name == BLOCK_RANDOM and self.block_len < 1:
            raise ValueError(f"block_len must be >= 1, got {self.block_len}")
        if self.name == COORDINATED and self.searcher_id < 1:
            raise ValueError(f"searcher_id must be >= 1, got {self.searcher_id}")

    @classmethod
    def nested(cls) -> "StrategyKind":
        return cls(NESTED)

    @classmethod
    def coordinated(cls, searcher_id: int) -> "StrategyKind":
        return cls(COORDINATED, searcher_id=searcher_id)

    @classmethod
    def solo(cls) -> "StrategyKind":
        return cls(SOLO)

    @classmethod
    def block_random(cls, block_len: int = 3) -> "StrategyKind":
        return cls(BLOCK_RANDOM, block_len=block_len)

    @property
    def randomized(self) -> bool:
        return self.name in (NESTED, BLOCK_RANDOM)

    def pool_limit(self, params: SearchParams, t):
        """Largest box in the sampling pool at step t >= 0 (0 at t = 0):
        ceil(t/2)*(k+1) for nested, b*ceil(t/b) for block-random.  t may be
        an integer array; the result is then elementwise."""
        if self.name == NESTED:
            return (t + 1) // 2 * params.block_size
        if self.name == BLOCK_RANDOM:
            b = self.block_len
            return (t + b - 1) // b * b
        raise ValueError(f"strategy {self.name!r} has no sampling pool")

    def entry_step(self, params: SearchParams, x: int) -> int:
        """The step that appends box x >= 1 to the pool, the least t with
        pool_limit(t) >= x: 2*ceil(x/(k+1)) - 1 for nested, x - (x-1) mod b
        for block-random."""
        if self.name == NESTED:
            return 2 * -(-x // params.block_size) - 1
        if self.name == BLOCK_RANDOM:
            return x - (x - 1) % self.block_len
        raise ValueError(f"strategy {self.name!r} has no sampling pool")

    def partition(self, params: SearchParams) -> tuple[int, int]:
        """(i, n): member i of an n-way partition; (1, 1) solo, (searcher_id, k) coordinated."""
        if self.name == SOLO:
            return 1, 1
        if self.name != COORDINATED:
            raise ValueError(f"strategy {self.name!r} is not a partition")
        if self.searcher_id > params.k:
            raise ValueError(f"searcher_id {self.searcher_id} out of range 1..{params.k}")
        return self.searcher_id, params.k

    def partition_box(self, params: SearchParams, t: int) -> int:
        """The box the partition opens at step t >= 1: i + (t-1)*n."""
        i, n = self.partition(params)
        return i + (t - 1) * n

    def visit_step(self, params: SearchParams, x: int) -> int | None:
        """The step at which the partition opens box x >= 1, or None if it never does."""
        i, n = self.partition(params)
        steps, off = divmod(x - i, n)
        return steps + 1 if off == 0 and steps >= 0 else None

    def check_fleet(self, params: SearchParams, fleet: int) -> None:
        """Raise ValueError unless a coordinated fleet is the whole k-way partition."""
        if self.name == COORDINATED and fleet != params.k:
            raise ValueError(f"a coordinated fleet has k = {params.k} searchers, got {fleet}")

    def describe(self) -> str:
        if self.name == BLOCK_RANDOM:
            return f"{self.name}({self.block_len})"
        if self.name == COORDINATED:
            return f"{self.name}({self.searcher_id})"
        return self.name


class UniformStream:
    """Buffered stream of uniforms on [0, 1) backed by a private PCG64.

    One stream per searcher; streams built from distinct ``SeedSequence``
    spawn keys are statistically independent and fully reproducible.
    """

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, seed) -> None:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._buf: list[float] = []
        self._pos = 0

    def uniform(self) -> float:
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self._rng.random(UNIFORM_CHUNK if buf else UNIFORM_FIRST).tolist()
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def pick(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)


def searcher_seed(trial_seed: int, searcher_id: int) -> np.random.SeedSequence:
    """Independent per-searcher stream seed derived from the trial seed."""
    return np.random.SeedSequence(entropy=trial_seed, spawn_key=(searcher_id,))


@dataclass
class SearcherState:
    """Mutable bookkeeping for one searcher.

    ``candidates`` holds the unvisited members of the current sampling pool in
    an indexable list, so each uniform draw is O(1) with no rejection loop;
    ``pool_level`` is the last box appended to it.
    ``len(visited) == step_count`` at all times.
    """

    params: SearchParams
    kind: StrategyKind
    stream: UniformStream | None = None
    visited: set[int] = field(default_factory=set)
    step_count: int = 0
    candidates: list[int] = field(default_factory=list)
    pool_level: int = 0


def make_state(kind: StrategyKind, params: SearchParams, stream: UniformStream | None = None) -> SearcherState:
    if not kind.randomized:
        kind.partition(params)  # raises for a searcher_id outside 1..k
    elif stream is None:
        raise ValueError(f"strategy {kind.name!r} needs a UniformStream")
    return SearcherState(params=params, kind=kind, stream=stream)


def next_box(state: SearcherState) -> int:
    """Step whichever strategy ``state.kind`` selects.

    The pool sampler extends its candidate list to ``kind.pool_limit(t)``, so
    at step t the list holds pool_limit(t) - (t - 1) >= 1 boxes whatever the
    draws; the emitted box is uniform over them, and its slot is refilled
    with the list's last box (swap-pop).  A partition member opens
    ``kind.partition_box(t)``.
    """
    kind = state.kind
    t = state.step_count + 1
    if kind.randomized:
        cand = state.candidates
        limit = kind.pool_limit(state.params, t)
        cand.extend(range(state.pool_level + 1, limit + 1))
        state.pool_level = limit
        m = len(cand)
        j = state.stream.pick(m)
        box = cand[j]
        last = cand.pop()
        if j < m - 1:
            cand[j] = last
    else:
        box = kind.partition_box(state.params, t)
    state.visited.add(box)
    state.step_count = t
    return box
