"""Search strategies for the box-search model.

A strategy emits, one step at a time, the 1-based index of the next box a
single searcher peeks into.  Every strategy is non-revisiting: within one
searcher's run an index is never emitted twice.

Strategies are pure state machines.  A :class:`SearcherState` belongs to one
searcher; distinct searchers never share state, so fleets need no
synchronization.
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

# UniformStream refills its buffer this many uniforms at a time.  Each
# uniform is one PCG64 output, so any chunking yields the same stream; the
# size only trades buffer waste on short runs against per-call cost.
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

    def pool_limit(self, t: int) -> int:
        """Largest box index in the sampling pool at step t >= 1."""
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        return ((t + 1) // 2) * (self.k + 1)

    def pool_size(self, t: int) -> int:
        """Unvisited pool members at step t >= 1, pool_limit(t) - (t - 1) >= 1;
        written out because every step of every N(x, t) row calls it."""
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        return ((t + 1) // 2) * (self.k + 1) - (t - 1)


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
            buf = self._buf = self._rng.random(UNIFORM_CHUNK).tolist()
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
    an indexable list, so each uniform draw is O(1) with no rejection loop.
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
    if kind.randomized and stream is None:
        raise ValueError(f"strategy {kind.name!r} needs a UniformStream")
    if kind.name == COORDINATED and kind.searcher_id > params.k:
        raise ValueError(f"searcher_id {kind.searcher_id} out of range 1..{params.k}")
    return SearcherState(params=params, kind=kind, stream=stream)


def next_box_nested(state: SearcherState) -> int:
    """One step of the nested-pool sampler.

    At step t the candidate pool is 1..ceil(t/2)*(k+1); the emitted index is
    uniform over the pool members not yet visited.  The pool grows by k+1
    boxes on every odd step, so it always holds at least one candidate.
    """
    params = state.params
    t = state.step_count + 1
    cand = state.candidates
    if t & 1:
        lo = state.pool_level * params.block_size + 1
        state.pool_level += 1
        cand.extend(range(lo, state.pool_level * params.block_size + 1))
    m = len(cand)
    j = state.stream.pick(m)
    box = cand[j]
    last = cand.pop()
    if j < m - 1:
        cand[j] = last
    state.visited.add(box)
    state.step_count = t
    return box


def next_box_block_random(state: SearcherState) -> int:
    """One step of the block-by-block sampler.

    Works through consecutive blocks of ``block_len`` boxes; within the
    current block the next box is uniform over the not-yet-visited ones, and
    the next block opens only once the current one is exhausted.
    """
    b = state.kind.block_len
    cand = state.candidates
    if not cand:
        lo = state.pool_level * b + 1
        state.pool_level += 1
        cand.extend(range(lo, lo + b))
    m = len(cand)
    j = state.stream.pick(m)
    box = cand[j]
    last = cand.pop()
    if j < m - 1:
        cand[j] = last
    state.visited.add(box)
    state.step_count += 1
    return box


def next_box_coordinated(searcher_id: int, t: int, params: SearchParams) -> int:
    """Deterministic partition baseline: searcher i opens i + (t-1)*k."""
    if not 1 <= searcher_id <= params.k:
        raise ValueError(f"searcher_id {searcher_id} out of range 1..{params.k}")
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return searcher_id + (t - 1) * params.k


def next_box_solo(t: int) -> int:
    """Exhaustive baseline: open box t at step t."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return t


def next_box(state: SearcherState) -> int:
    """Step whichever sampler ``state.kind`` selects."""
    name = state.kind.name
    if name == NESTED:
        return next_box_nested(state)
    if name == BLOCK_RANDOM:
        return next_box_block_random(state)
    t = state.step_count + 1
    if name == SOLO:
        box = next_box_solo(t)
    else:
        box = next_box_coordinated(state.kind.searcher_id, t, state.params)
    state.visited.add(box)
    state.step_count = t
    return box
