"""Search strategies for the box-search model.

A strategy emits, one step at a time, the 1-based index of the next box a
single searcher peeks into.  Every strategy is non-revisiting: within one
searcher's run an index is never emitted twice.

Strategies are pure state machines.  A :class:`SearcherState` belongs to one
searcher; distinct searchers never share state, so fleets need no
synchronization.

Every strategy is one pool sampler under one :class:`Rule`, a pool rule
(c, p) over a box list (i, n): at step t it draws uniformly among the
unvisited own indices 1..c*ceil(t/p), so own index j joins the pool at step
p*ceil(j/c) - p + 1, and own index j is box i + (j-1)*n.  Nested is (k+1, 2)
and block-random(b) is (b, b) over the boxes themselves, the list (1, 1);
member i of an n-way partition is the rule (1, 1) over the list (i, n)
(coordinated searcher i is member i of k, solo member 1 of 1).
:meth:`StrategyKind.rule` and :meth:`StrategyKind.fleet` alone map a
strategy's name to its rules; the simulator's engine, the exact tables and
the stepper here, their reference, take a rule and read only its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class Rule:
    """The pool rule (c, p) over the box list (i, n): at step t the pool holds
    own indices 1..c*ceil(t/p), and own index j is box i + (j-1)*n."""

    c: int
    p: int
    i: int = 1
    n: int = 1

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) for v in (self.c, self.p, self.i, self.n)):
            raise ValueError(f"a rule's fields must be integers, got {self}")
        if not (1 <= self.p <= self.c and 1 <= self.i <= self.n):  # c < p runs dry at step p
            raise ValueError(f"a rule needs 1 <= p <= c and 1 <= i <= n, got {self}")

    @property
    def draws(self) -> bool:
        """False for (1, 1), which opens own index t at step t without a draw."""
        return (self.c, self.p) != (1, 1)

    def pool_limit(self, t):
        """Largest own index in the pool at step t >= 0 (0 at t = 0),
        c*ceil(t/p).  t may be an integer array; the result is then
        elementwise."""
        return (t + self.p - 1) // self.p * self.c

    def entry_step(self, j: int) -> int:
        """The step that appends own index j >= 1 to the pool, the least t
        with pool_limit(t) >= j: p*ceil(j/c) - p + 1."""
        return self.p * -(-j // self.c) - self.p + 1

    def box(self, j):
        """The box of own index j, i + (j-1)*n."""
        return self.i + (j - 1) * self.n

    def own_index(self, x: int) -> int | None:
        """Box x's own index; None if the list never holds x."""
        j, off = divmod(x - self.i, self.n)
        return j + 1 if off == 0 and j >= 0 else None


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

    def rule(self, params: SearchParams) -> Rule:
        """(k+1, 2) nested, (b, b) block-random and (1, 1) solo over the boxes
        themselves; (1, 1) over (searcher_id, k) a coordinated member."""
        if self.name == NESTED:
            return Rule(params.k + 1, 2)
        if self.name == BLOCK_RANDOM:
            return Rule(self.block_len, self.block_len)
        i, n = (self.searcher_id, params.k) if self.name == COORDINATED else (1, 1)
        if i > n:
            raise ValueError(f"searcher_id {i} out of range 1..{n}")
        return Rule(1, 1, i, n)

    def fleet(self, params: SearchParams, size: int) -> list[Rule]:
        """The rule of each fleet searcher 1..size: member sid of the k-way
        partition for a coordinated fleet (so size must be k), else rule()."""
        if self.name != COORDINATED:
            return [self.rule(params)] * size
        if size != params.k:
            raise ValueError(f"a coordinated fleet has k = {params.k} searchers, got {size}")
        return [Rule(1, 1, sid, size) for sid in range(1, size + 1)]

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
    """Mutable bookkeeping for one searcher under ``rule``.

    ``candidates`` holds the unvisited own indices of the current pool in an
    indexable list, so each draw is O(1) with no rejection loop;
    ``pool_level`` is the last own index appended to it, and ``visited``
    holds the boxes opened.  ``len(visited) == step_count`` at all times.
    """

    rule: Rule
    stream: UniformStream | None = None
    visited: set[int] = field(default_factory=set)
    step_count: int = 0
    candidates: list[int] = field(default_factory=list)
    pool_level: int = 0


def make_state(rule: Rule, stream: UniformStream | None = None) -> SearcherState:
    if rule.draws and stream is None:
        raise ValueError(f"the pool rule ({rule.c}, {rule.p}) needs a UniformStream")
    return SearcherState(rule=rule, stream=stream)


def next_box(state: SearcherState) -> int:
    """Step the searcher one step under ``state.rule``.

    A rule that draws extends its candidate list to ``rule.pool_limit(t)``,
    so at step t the list holds pool_limit(t) - (t - 1) >= 1 own indices
    whatever the draws; the one taken is uniform over them, and its slot is
    refilled with the list's last (swap-pop).  The rule (1, 1) takes own
    index t without a draw.  Either opens ``rule.box`` of it.
    """
    rule = state.rule
    t = state.step_count + 1
    if rule.draws:
        cand = state.candidates
        limit = rule.pool_limit(t)
        cand.extend(range(state.pool_level + 1, limit + 1))
        state.pool_level = limit
        j = state.stream.pick(len(cand))
        cand[j], own = cand[-1], cand[j]
        cand.pop()
    else:
        own = state.pool_level = t
    box = rule.box(own)
    state.visited.add(box)
    state.step_count = t
    return box
