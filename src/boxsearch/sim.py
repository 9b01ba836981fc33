"""Monte Carlo engine: fleets of independent searchers against a hidden box.

Trials are step-synchronous: at every global step each live searcher opens
one box.  Searchers never communicate; each one owns a private random stream
derived from (trial seed, searcher id), which makes every trial a
deterministic function of its config and embarrassingly parallel across
trial indices.

Both randomized samplers run through one engine, :func:`_fleet_block`: it
reads the pool rule from :class:`StrategyKind` and replays only the draws
that can touch the treasure, so it draws uniforms and never reads N(x, t).
It runs every (trial, searcher) row of a block of trials through one loop of
lock-step rounds, with one event search and one fleet rule for every round.
Round 1 runs on numpy uint64 arrays for all rows at once: SeedSequence hashing
and PCG64 seeding, the jump to the step at which the treasure joins the row's
pool (F. Brown's LCG jump-ahead, as in ``PCG64.advance``), and the first
draws.  In each later round a row still running hands its PCG64 state to a
native generator through ``.state`` (it is not re-seeded) and draws there.
All of these reproduce numpy's streams bit for bit, so each trial's outcome
is the one its searchers' own ``Generator(PCG64(searcher_seed(trial seed,
sid)))`` streams give.  :func:`run_trial` is the same engine at one trial.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .strategy import (
    SearchParams,
    StrategyKind,
    searcher_seed,  # row (trial, sid) draws the stream of searcher_seed(trial seed, sid)
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
        if self.kind == "local-shuffle" and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
        """The horizon of a partition trial: a member that opens the target
        later finds nothing.  A pool-sampler trial has no horizon."""
        return 50 * self.treasure * self.params.block_size


@dataclass(frozen=True)
class TrialOutcome:
    """Discovery step and finder; time None (not an error) means every searcher
    crashed first, or a partition opens the treasure only past its step_cap."""

    time: int | None
    first_finder: int | None

    @property
    def discovered(self) -> bool:
        return self.time is not None


# Uniforms are drawn in rounds that start narrow (runs that end within a few
# steps draw little) and widen to amortize numpy's per-call cost.  A uniform is
# one PCG64 output whatever the widths, so they change no hit time.  Round 1
# draws BATCH_CHUNK uniforms per row, each later round 4x more, up to
# CHUNK_MAX.  A round's rows draw in sub-batches of at most DRAW_BUDGET
# uniforms (no fewer than CHUNK_MAX): a round's memory is bounded, and its
# width does not shrink while many rows are open.  Of the budgets 2**12, 2**13
# and 2**14 (CHUNK_MAX equal to each), 2**13 ran the heavy MC commands of
# BENCH_15.json best on a 2-core Xeon: 2**14 slowed the one that ends almost
# every trial in round 1, and 2**12 the ones with long tails.
BATCH_CHUNK = 16
CHUNK_MAX = 8192
DRAW_BUDGET = 1 << 13
# Rows (trial, searcher) run together: this bounds the memory of a block.
BLOCK_ROWS = 1024

# numpy's SeedSequence and PCG64 on uint64 arrays, one element per row.  The
# 32-bit words of SeedSequence live in uint64 lanes (or plain ints when every
# row shares them) and are masked after each product; 128-bit PCG64 values are
# (hi, lo) pairs of uint64 arrays.  Each result equals numpy's bit for bit.
_M32 = 0xFFFF_FFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_NEVER = np.iinfo(np.int64).max  # no hit, or no crash


def _entropy_words(n: int) -> list[int]:
    """numpy's 32-bit words of the entropy n >= 0, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed_pool(entropy: list) -> list:
    """The four mixed pool words of a SeedSequence whose assembled entropy is
    ``entropy`` (each word an int shared by every row or a per-row array)."""
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _HASH_MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state64(pool: list, n: int) -> list:
    """SeedSequence.generate_state(n, np.uint64) from the pool words."""
    hash_const = _HASH_INIT_B
    words = []
    for i in range(2 * n):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _HASH_MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 2 * n, 2)]


def _seed_words(seed) -> list:
    """The run entropy of a SeedSequence spawned from ``seed``: its words,
    zero-padded to four (numpy pads whenever there is a spawn key).  ``seed``
    is an int or a uint64 array of seeds, one per row."""
    if isinstance(seed, np.ndarray):
        return [seed & _M32, seed >> 32, 0, 0]
    words = _entropy_words(seed)
    return words + [0] * (4 - len(words))


def trial_seeds(base_seed: int, start: int, stop: int) -> np.ndarray:
    """``trial_seed(base_seed, i)`` for i in start..stop-1, as uint64."""
    if stop > 1 << 32:
        raise ValueError(f"trial index must be below 2**32, got {stop - 1}")
    index = np.arange(start, stop, dtype=np.uint64)
    return _generate_state64(_seed_pool(_seed_words(base_seed) + [index]), 1)[0]


def _mulhi(a, c):
    """High 64 bits of the 128-bit products a * c of uint64 values."""
    a0, a1 = a & _M32, a >> 32
    c0, c1 = c & _M32, c >> 32
    p01, p10 = a0 * c1, a1 * c0
    mid = (a0 * c0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _affine(s, inc, a, g):
    """a * s + g * inc mod 2**128; each a (hi, lo) pair of uint64 values that
    broadcast together."""
    (s_hi, s_lo), (i_hi, i_lo), (a_hi, a_lo), (g_hi, g_lo) = s, inc, a, g
    x = s_lo * a_lo
    lo = x + i_lo * g_lo
    hi = (_mulhi(s_lo, a_lo) + s_hi * a_lo + s_lo * a_hi
          + _mulhi(i_lo, g_lo) + i_hi * g_lo + i_lo * g_hi + (lo < x))
    return hi, lo


def _seeded_streams(words: list, sids: np.ndarray):
    """State and increment of PCG64(SeedSequence(entropy=trial seed,
    spawn_key=(sid,))) per row: ``words`` from _seed_words, ``sids`` uint64."""
    w = _generate_state64(_seed_pool(words + [sids]), 4)
    inc = (w[2] << 1 | w[3] >> 63, w[3] << 1 | 1)
    # pcg64 srandom: state 0, one step, add the seed, one step
    lo = inc[1] + w[1]
    start = (inc[0] + w[0] + (lo < w[1]), lo)
    return _affine(start, inc, (_PCG_MULT >> 64, _PCG_MULT & _M64), (0, 1)), inc


@functools.lru_cache(maxsize=16)
def _jump_table(skip: int, n: int):
    """(A, G) as (hi, lo) read-only uint64 arrays whose column j - 1 holds
    skip + j steps of the LCG, which take s to A s + G inc (j = 1..n).  The
    skip is F. Brown's jump-ahead, as in PCG64.advance."""
    a, g = 1, 0
    mult, plus = _PCG_MULT, 1
    while skip:
        if skip & 1:
            a, g = a * mult & _M128, (g * mult + plus) & _M128
        mult, plus = mult * mult & _M128, (mult + 1) * plus & _M128
        skip >>= 1
    cols = []
    for _ in range(n):
        a, g = a * _PCG_MULT & _M128, (g * _PCG_MULT + 1) & _M128
        cols.append((a >> 64, a & _M64, g >> 64, g & _M64))
    table = np.array(cols, dtype=np.uint64).T
    table.flags.writeable = False
    a_hi, a_lo, g_hi, g_lo = table
    return (a_hi, a_lo), (g_hi, g_lo)


def _uniforms(state) -> np.ndarray:
    """Generator.random's doubles from PCG64 states (XSL-RR output)."""
    hi, lo = state
    x = hi ^ lo
    rot = hi >> 58
    out = x >> rot | x << (64 - rot & 63)
    return (out >> 11) * (1.0 / 9007199254740992.0)


@functools.lru_cache(maxsize=16)
def _list_sizes(kind: StrategyKind, params: SearchParams, t: int, n: int) -> np.ndarray:
    """Candidate-list lengths pool_limit(s) - (s - 1) at steps s = t..t+n-1
    (read-only).  The trials of one experiment share the treasure, hence the
    rounds, so the few in use are kept rather than computed per row."""
    steps = np.arange(t, t + n)
    m = kind.pool_limit(params, steps) - steps + 1
    m.flags.writeable = False
    return m


def _event_search(j: np.ndarray, m: np.ndarray, p: np.ndarray, end: np.ndarray):
    """Follow each row's treasure through its drawn slots ``j`` (rows x width).

    Column c draws slot j[r, c] of an m[c]-box candidate list and moves the
    list's last box into it.  Only two draws matter: the treasure's slot (a
    hit), or another slot while the treasure is last (it moves there).  Row r
    starts with the treasure in slot p[r] and reads columns below end[r]; one
    pass per move of a treasure serves all rows at once.  Returns (column of
    each row's hit or -1, each row's slot after its last column).
    """
    cols = np.arange(j.shape[1])
    p = p.copy()
    start = np.zeros(len(j), np.int64)
    hit = np.full(len(j), -1)
    live = np.arange(len(j))
    while live.size:
        slot = p[live, None]
        events = ((j[live] == slot) | (m == slot + 1)) & (cols >= start[live, None])
        col = events.argmax(1)
        has = events[np.arange(live.size), col] & (col < end[live])
        live, col = live[has], col[has]
        drawn = j[live, col]
        found = drawn == p[live]
        hit[live[found]] = col[found]
        live, col, drawn = live[~found], col[~found], drawn[~found]
        p[live] = drawn
        start[live] = col + 1
    return hit, p


def _native_uniforms(bits: np.random.PCG64, streams: np.ndarray, end: np.ndarray,
                     width: int) -> np.ndarray:
    """Generator.random's doubles (rows x width) of the PCG64 ``streams``: row
    r draws its first end[r] columns on the native ``bits``, handed the row's
    state and inc through ``.state``; the rest stay 0."""
    u = np.zeros((len(end), width))
    rng = np.random.Generator(bits)
    for r, (s_hi, s_lo, i_hi, i_lo, e) in enumerate(zip(*streams.tolist(), end.tolist())):
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                      "has_uint32": 0, "uinteger": 0}
        rng.random(out=u[r, :e])
    return u


def _fleet_round(kind: StrategyKind, params: SearchParams, run: tuple, key: np.ndarray,
                 span: int, width: int, bits: np.random.PCG64 | None) -> tuple | None:
    """One round of the rows ``run`` that share a target: (t, trial, sid,
    bound, p, streams) holds the step of the round's first draw and, per row,
    the trial, searcher id, bound, treasure's slot and PCG64 (state hi, state
    lo, inc hi, inc lo) in a 4 x rows array.

    A row's bound is the last step at which it could still beat its trial's
    ``key``: min(bound, (key - sid - 1) // span), starting from the last step
    before its crash.  A row draws ``width`` steps, or only to its bound, and
    its hits lower the keys.  Returns the rows that neither hit nor stopped at
    their bound, at the next round's step, or None.  A row that stopped at
    its bound leaves with the rows that hit, so its state after the round is
    never read and it need not draw the whole round.

    With ``bits`` None this is round 1: the streams are as seeded, and the
    draws, t - 1 steps on, are emulated.  Later rounds draw natively on
    ``bits``.  Rows draw in sub-batches of at most DRAW_BUDGET uniforms.
    """
    t, trial, sid, bound, p, streams = run
    bound = np.minimum(bound, (key[trial] - sid - 1) // span)
    rows = bound >= t
    trial, sid, bound, p, streams = (
        trial[rows], sid[rows], bound[rows], p[rows], streams[:, rows])
    skip = t - 1 if bits is None else 0
    end = np.minimum(bound - t + 1, width)
    m = _list_sizes(kind, params, t, width)
    hit = np.empty(len(trial), np.int64)
    per = max(1, DRAW_BUDGET // width)
    for i in range(0, len(trial), per):
        sub = slice(i, i + per)
        if bits is None:
            s_hi, s_lo, i_hi, i_lo = streams[:, sub, None]
            u = _uniforms(_affine((s_hi, s_lo), (i_hi, i_lo), *_jump_table(skip, width)))
        else:
            u = _native_uniforms(bits, streams[:, sub], end[sub], width)
        u *= m
        hit[sub], p[sub] = _event_search(u.astype(np.int64), m, p[sub], end[sub])
    found = hit >= 0
    np.minimum.at(key, trial[found], (t + hit[found]) * span + sid[found])
    rows = ~found & (end == width)
    if not rows.any():
        return None
    s_hi, s_lo, i_hi, i_lo = streams[:, rows]
    state = _affine((s_hi, s_lo), (i_hi, i_lo), *_jump_table(skip + width - 1, 1))
    return (t + width, trial[rows], sid[rows], bound[rows], p[rows],
            np.stack([*state, i_hi, i_lo]))


def _fleet_block(kind: StrategyKind, params: SearchParams, plan: list, words: list,
                 trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of ``trials`` trials of the fleet ``plan``, a list of (sid,
    target, limit) in sid order: (times, finders), int64, 0 where none hit.

    ``words`` are the trials' seed words (_seed_words).  Searcher sid of a
    trial owns the stream searcher_seed(trial seed, sid).  Every (trial,
    searcher) row runs through one loop of lock-step rounds, the rows that
    share a target together (_fleet_round).  Round 1 seeds every row, jumps
    it to the step that appends its target (earlier draws cannot touch it)
    and draws BATCH_CHUNK uniforms, all emulated at once; each later round
    draws 4x more, up to CHUNK_MAX, per row on one native PCG64.

    A trial's best is one key, hit * span + sid with span above every sid, so
    the earliest hit wins and the lowest id breaks ties, exactly as when the
    searchers run one after another to the best hit so far.  A row runs only
    while it could still win; bounds only fall, so no row is run twice.
    """
    key = np.full(trials, _NEVER)
    span = 1 + max((sid for sid, _, _ in plan), default=0)
    groups: dict[int, list[tuple[int, int]]] = {}
    for sid, target, limit in plan:
        groups.setdefault(target, []).append((sid, limit))
    runs = []
    for target, members in groups.items():
        sids, limits = (np.repeat(np.array(col, np.int64), trials) for col in zip(*members))
        rows_words = [w if isinstance(w, int) else np.tile(w, len(members)) for w in words]
        state, inc = _seeded_streams(rows_words, sids.astype(np.uint64))
        first = kind.entry_step(params, target)
        runs.append((first, np.tile(np.arange(trials), len(members)), sids, limits,
                     np.full(len(sids), target - first), np.stack([*state, *inc])))
    width, bits = BATCH_CHUNK, None
    while True:
        runs = [r for r in (_fleet_round(kind, params, run, key, span, width, bits)
                            for run in runs) if r is not None]
        if not runs:
            break
        width, bits = min(4 * width, CHUNK_MAX), bits or np.random.PCG64(0)
    found = key < _NEVER
    return np.where(found, key // span, 0), np.where(found, key % span, 0)


def _target(config: TrialConfig, sid: int) -> int:
    """The index at which searcher ``sid`` sees the treasure."""
    perts = config.perturbations
    return perts[sid - 1].map_index(config.treasure) if perts else config.treasure


def _pool_plan(config: TrialConfig) -> list[tuple[int, int, int]]:
    """(sid, target, limit) of each searcher that can hit: limit is the last
    step before its crash, and not before the step that appends its target."""
    plan = []
    for sid in range(1, config.fleet_size + 1):
        crash = config.crashes.crash_time(sid)
        limit = _NEVER if crash is None else crash - 1
        target = _target(config, sid)
        if limit >= config.kind.entry_step(config.params, target):
            plan.append((sid, target, limit))
    return plan


def _pool_hit_times(kind: StrategyKind, params: SearchParams, target: int,
                    seeds: np.ndarray, sid: int, limit: int) -> np.ndarray:
    """First step <= limit at which searcher ``sid`` of each trial seed in
    ``seeds`` (uint64) draws ``target``, 0 where none; the engine of
    _fleet_block with a one-searcher fleet, in blocks of BLOCK_ROWS rows."""
    plan = [(sid, target, limit)] if limit >= kind.entry_step(params, target) else []
    blocks = [seeds[i:i + BLOCK_ROWS] for i in range(0, len(seeds), BLOCK_ROWS)]
    return np.concatenate([_fleet_block(kind, params, plan, _seed_words(b), len(b))[0]
                           for b in blocks])


def _partition_trial(config: TrialConfig) -> TrialOutcome:
    """A partition fleet: member sid opens the target at its visit_step."""
    best_t: int | None = None
    finder: int | None = None
    for sid in range(1, config.fleet_size + 1):
        limit = config.step_cap
        crash = config.crashes.crash_time(sid)
        if crash is not None:
            limit = min(limit, crash - 1)
        t = replace(config.kind, searcher_id=sid).visit_step(config.params, _target(config, sid))
        if t is not None and t <= limit and (best_t is None or t < best_t):
            best_t, finder = t, sid
    return TrialOutcome(best_t, finder)


def run_trial(config: TrialConfig) -> TrialOutcome:
    """Simulate one fleet trial; earliest hit wins, lowest id breaks ties.

    A pool-sampler trial is a block of one trial of _fleet_block, the engine
    of estimate_speedup; it runs until a searcher hits or every searcher has
    crashed.  A partition member's hit step is known in closed form; a
    partition that opens the treasure only past step_cap finds nothing.
    """
    if not config.kind.randomized:
        return _partition_trial(config)
    times, finders = _fleet_block(config.kind, config.params, _pool_plan(config),
                                  _seed_words(config.seed), 1)
    if not times[0]:
        return TrialOutcome(None, None)
    return TrialOutcome(int(times[0]), int(finders[0]))


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed derived from the experiment base seed."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _trial_blocks(template: TrialConfig, trials: int):
    """Yield (times, finders) of trials 0..trials-1 of ``template`` in
    blocks of about BLOCK_ROWS rows; trial i runs with trial_seed(base, i),
    and 0 marks a trial that found nothing."""
    base = template.seed
    if not template.kind.randomized:  # the outcome does not depend on the seed
        _entropy_words(base)  # numpy's check of the base seed
        out = _partition_trial(template)
        yield np.full(trials, out.time or 0), np.full(trials, out.first_finder or 0)
        return
    plan = _pool_plan(template)
    per_block = max(1, BLOCK_ROWS // max(1, len(plan)))
    for start in range(0, trials, per_block):
        seeds = trial_seeds(base, start, min(trials, start + per_block))
        yield _fleet_block(template.kind, template.params, plan, _seed_words(seeds),
                           len(seeds))


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
    trial_seed(base, i), and its outcome equals run_trial's.  Aggregation
    uses exact integer moments, so results do not depend on reduction order.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    total = 0
    total_sq = 0
    found = 0
    for times, _ in _trial_blocks(template, trials):
        hits = times[times > 0].tolist()
        found += len(hits)
        total += sum(hits)
        total_sq += sum(t * t for t in hits)
    missing = trials - found
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
    return RunStats(trials, mean, stderr, template.treasure / mean, (mean - half, mean + half),
                    missing)


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
