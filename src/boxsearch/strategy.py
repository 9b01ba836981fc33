"""Search strategies for the box-search model.

A strategy emits, one step at a time, the 1-based index of the next box a
single searcher peeks into.  Every strategy is non-revisiting: within one
searcher's run an index is never emitted twice.

Strategies are pure state machines.  A :class:`SearcherState` belongs to one
searcher; distinct searchers never share state, so fleets need no
synchronization.

Every strategy is one pool sampler under one pool rule (c, p) over its own
box list: at step t it draws uniformly among the unvisited own indices
1..c*ceil(t/p), so own index j joins the pool at step p*ceil(j/c) - p + 1.
The box list (i, n) maps own index j to box i + (j-1)*n.  Nested is (k+1, 2)
and block-random(b) is (b, b) over the boxes themselves, the list (1, 1);
member i of an n-way partition is the rule (1, 1) over the list (i, n)
(coordinated searcher i is member i of k, solo member 1 of 1).
:class:`StrategyKind` alone knows the rules and the lists; the simulator's
engine and the exact tables read them from it, and the stepper here, which
opens a partition member's boxes in order, is their reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    def delta(self) -> float:
        """Two-step survival decay exponent 2/(k-1); defined only for k >= 2."""
        if self.k < 2:
            raise ValueError("delta requires k >= 2")
        return 2.0 / (self.k - 1)


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

    def pool_rule(self, params: SearchParams) -> tuple[int, int]:
        """(c, p): the pool holds own indices 1..c*ceil(t/p) at step t; (k+1, 2)
        nested, (b, b) block-random, (1, 1) a partition member."""
        if self.name == NESTED:
            return params.k + 1, 2
        if self.name == BLOCK_RANDOM:
            return self.block_len, self.block_len
        return 1, 1

    def pool_limit(self, params: SearchParams, t):
        """Largest own index in the sampling pool at step t >= 0 (0 at t = 0),
        c*ceil(t/p).  t may be an integer array; the result is then
        elementwise."""
        c, p = self.pool_rule(params)
        return (t + p - 1) // p * c

    def entry_step(self, params: SearchParams, x: int) -> int:
        """The step that appends own index x >= 1 to the pool, the least t
        with pool_limit(t) >= x: p*ceil(x/c) - p + 1."""
        c, p = self.pool_rule(params)
        return p * -(-x // c) - p + 1

    def box_list(self, params: SearchParams) -> tuple[int, int]:
        """(i, n): own index j is box i + (j-1)*n; (searcher_id, k) for a
        coordinated member, (1, 1) for every other strategy."""
        if self.name != COORDINATED:
            return 1, 1
        if self.searcher_id > params.k:
            raise ValueError(f"searcher_id {self.searcher_id} out of range 1..{params.k}")
        return self.searcher_id, params.k

    def box(self, params: SearchParams, j):
        """The box of own index j, i + (j-1)*n."""
        i, n = self.box_list(params)
        return i + (j - 1) * n

    def own_index(self, params: SearchParams, x: int) -> int | None:
        """Box x's index in this strategy's own list; None if it never opens x."""
        i, n = self.box_list(params)
        j, off = divmod(x - i, n)
        return j + 1 if off == 0 and j >= 0 else None

    def member(self, sid: int) -> "StrategyKind":
        """What fleet searcher sid runs: member sid of a coordinated fleet."""
        return replace(self, searcher_id=sid) if self.name == COORDINATED else self

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
    kind.box_list(params)  # raises for a searcher_id outside 1..k
    if kind.randomized and stream is None:
        raise ValueError(f"strategy {kind.name!r} needs a UniformStream")
    return SearcherState(params=params, kind=kind, stream=stream)


def next_box(state: SearcherState) -> int:
    """Step whichever strategy ``state.kind`` selects.

    The pool sampler extends its candidate list to ``kind.pool_limit(t)``, so
    at step t the list holds pool_limit(t) - (t - 1) >= 1 boxes whatever the
    draws; the emitted box is uniform over them, and its slot is refilled
    with the list's last box (swap-pop).  A partition member opens
    ``kind.box(t)``, own index t.
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
        box = kind.box(state.params, t)
    state.visited.add(box)
    state.step_count = t
    return box
