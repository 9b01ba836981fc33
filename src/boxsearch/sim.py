"""Monte Carlo engine: fleets of independent searchers against a hidden box.

Trials are step-synchronous: at every global step each live searcher opens
one box.  Searchers never communicate; each one owns a private random stream
derived from (trial seed, searcher id), which makes every trial a
deterministic function of its config and embarrassingly parallel across
trial indices.

Every strategy runs through one plan, :func:`_plan` (which searchers can
hit, and from which step), and one engine, :func:`_fleet_block`, which reads
only the fields of a :class:`Rule` and replays only the draws that can
touch the treasure, so it draws uniforms and never reads N(x, t).
It runs every (fleet, trial, searcher) row of a block of trials through one
loop of lock-step rounds, with one event search and one fleet rule for every
round.  An experiment makes one pass (:func:`estimate_speedups`): the crash
and control fleets, the baseline and every perturbation, or every x of a
sweep share kind, params and base seed, so each (trial, searcher) stream is
seeded once and every fleet's rows run in the same rounds.  Rows are sorted
by the step at which they enter, and a round draws in sub-batches within each
run of rows that share it.  Round 1 runs on numpy uint64 arrays for all rows
at once: SeedSequence hashing and PCG64 seeding, the jump to the step at
which the treasure joins the row's pool (F. Brown's LCG jump-ahead, as in
``PCG64.advance``), and the first draws.  While fewer than half of a round's
rows go on, those that do stay emulated in rounds twice as wide, up to
EMULATED_MAX, each jumped from the state past the row's last round; so a
short-lived fleet seldom leaves the arrays.  Once at least half go on, or
past EMULATED_MAX, each row that goes on takes a native generator and is
handed its last emulated state, through ``.state``, once (it is not
re-seeded); it draws there in every later round, and because it draws each
whole round, its generator already stands at the next round's start.  The
generators come from a per-thread pool that every block reuses
(:class:`_GeneratorPool`).  Seeds, jumps and the handoff reproduce numpy's
streams bit for bit, so each trial's outcome is the one its searchers' own
``Generator(PCG64(searcher_seed(trial seed, sid)))`` streams give.  A round
settles most rows with one comparison: a treasure whose slot stays below the
round's smallest list size is never the list's last box, so it never moves
and only a draw of its slot hits it.  A one-box pool (a partition member,
block-random(1)) hits at its entry step whatever it draws, so its rows
derive no trial seed and seed no stream.  No trial has a horizon: one finds
nothing only when every searcher crashed first.  :func:`run_trial` is the
same path at one trial.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .strategy import (
    Rule,
    SearchParams,
    StrategyKind,
    searcher_seed,  # row (trial, sid) draws the stream of searcher_seed(trial seed, sid)
)

PERTURBATION_KINDS = ("identity", "shift", "extra-boxes", "local-shuffle")
# A local-shuffle block's permutation is drawn whole and cached (16 blocks):
# 2**20 indices are 8 MiB each, where a window of 1e9 would ask for 7.45 GiB.
MAX_SHUFFLE_WINDOW = 1 << 20


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
        if self.kind == "local-shuffle" and self.window > MAX_SHUFFLE_WINDOW:
            raise ValueError(f"window must be <= {MAX_SHUFFLE_WINDOW}, got {self.window}")
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
        self.kind.fleet(self.params, n)  # raises for a coordinated fleet of size != k
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


@dataclass(frozen=True)
class TrialOutcome:
    """Discovery step and finder; time None (not an error) means exactly that
    every searcher crashed first."""

    time: int | None
    first_finder: int | None

    @property
    def discovered(self) -> bool:
        return self.time is not None


# Uniforms are drawn in rounds that start narrow (runs that end within a few
# steps draw little) and widen to amortize numpy's per-call cost.  A uniform is
# one PCG64 output whatever the widths, so they change no hit time.  Round 1
# draws BATCH_CHUNK uniforms per row on the uint64 emulation.  While fewer
# than half of a round's rows go on, those that do stay emulated in rounds
# twice as wide, up to EMULATED_MAX; then they are handed native generators,
# whose first round is 8x as wide as the round that handed them over and
# each later one 4x, up to CHUNK_MAX.  So a short-lived group (a k = 3 fleet
# at x <= 50 ends after about 7 steps) seldom hands over a row that then
# draws one native round, and a long-lived one (most rows outlive round 1)
# hands over after round 1 and draws the native widths 64, 256, 1024, ...
# Over in-process mc-small-x ops, round 1 at 8 alone or a second, emulated
# round at 64 alone took 0.96x and 0.93x of the former op time (16, then
# native; all three with the mulhu chain of _mulhi), both together 0.82x;
# with 4x rather than 8x after a handoff from
# round 1, mc-large-x ran 4% slower (BENCH_29.json).  A round's rows draw in
# sub-batches of at most CHUNK_MAX uniforms: a round's memory is bounded,
# and its width does not shrink while many rows are open.  Of 2**12, 2**13
# and 2**14, 2**13 ran the heavy MC commands of BENCH_15.json best on a
# 2-core Xeon: 2**14 slowed the one that ends almost every trial in round 1,
# and 2**12 the ones with long tails.
BATCH_CHUNK = 8
EMULATED_MAX = 32
CHUNK_MAX = 8192
# Rows (fleet, trial, searcher) run together: this bounds the memory of a
# block.  A fused robustness run at x <= 50 holds 8 rows per trial over 200
# trials, which 1024 would split into two blocks that each pay every round.
# It also caps a thread's pool of native generators (_GeneratorPool).
BLOCK_ROWS = 4096

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
    # the carry chain of Hacker's Delight mulhu: no partial sum passes 2**64
    a0, a1 = a & _M32, a >> 32
    c0, c1 = c & _M32, c >> 32
    u = a1 * c0 + (a0 * c0 >> 32)
    v = a0 * c1 + (u & _M32)
    return a1 * c1 + (u >> 32) + (v >> 32)


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
    spawn_key=(sid,))) per row: ``words`` from _seed_words, ``sids`` uint64;
    array words and sids broadcast together."""
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


@functools.lru_cache(maxsize=32)
def _size_window(c: int, p: int, phase: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate-list lengths at steps s = phase+1 .. phase+n (phase < p) of
    the pool rule (c, p), as read-only int64 and float64 arrays (keyed by
    ints: a Rule key costs a lookup 0.16 us more), pool_limit(s) - (s - 1)."""
    steps = np.arange(phase + 1, phase + n + 1)
    m = Rule(c, p).pool_limit(steps) - steps + 1
    mf = m.astype(np.float64)
    m.flags.writeable = mf.flags.writeable = False
    return m, mf


def _list_sizes(rule: Rule, t: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate-list lengths m(s) = pool_limit(s) - (s - 1) at steps
    s = t..t+n-1, as read-only int64 and float64 arrays (the float copy
    spares each sub-batch a cast of the sizes).

    A period of the pool rule (c, p) adds c - p to every length,
    m(s + p) = m(s) + (c - p), so a window is the cached window of its phase
    (t - 1) mod p in the first period, lifted by whole periods.  Only those
    few windows are kept: the steps of the rounds differ from experiment to
    experiment, so a lifted window is seldom asked for twice, and a lift
    costs about what looking it up would save."""
    c, p = rule.c, rule.p
    periods, phase = divmod(t - 1, p)
    m, mf = _size_window(c, p, phase, n)
    if periods and c != p:
        m = m + periods * (c - p)
        mf = m.astype(np.float64)
        m.flags.writeable = mf.flags.writeable = False
    return m, mf


def _event_search(j: np.ndarray, m: np.ndarray, p: np.ndarray, end: np.ndarray):
    """Follow each row's treasure through its drawn slots ``j`` (rows x width).

    Column c draws slot j[r, c] of an m[c]-box candidate list and moves the
    list's last box into it.  Only two draws matter: the treasure's slot (a
    hit), or another slot while the treasure is last (it moves there).  Row r
    starts with the treasure in slot p[r] and reads columns below end[r].
    Returns (column of each row's hit or -1, each row's slot after its last
    column).

    A row with p + 1 < min(m) is settled: its treasure is never last in the
    round, so it never moves, and one comparison j == p finds its hit.  Only
    the other rows (the treasure last at entry, or a block-random pool
    running dry) follow their treasure from move to move, one pass per move
    serving all of them at once.
    """
    moving = p + 1 >= m.min()
    if moving.all():  # e.g. every block-random pool runs dry within the round
        hit = np.full(len(j), -1)
    else:
        eq = j == p[:, None]
        col = eq.argmax(1)
        hit = np.where(eq[np.arange(len(j)), col] & (col < end), col, -1)
        if not moving.any():
            return hit, p
    live = moving.nonzero()[0]
    hit[live] = -1
    cols = np.arange(j.shape[1])
    p = p.copy()
    start = np.zeros(len(j), np.int64)
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


class _GeneratorPool(threading.local):
    """The calling thread's native generators, reused by every block it runs.

    A row that leaves the emulated rounds keeps one generator to its end.
    Building one costs about four state handoffs, so they are kept, not
    built per block; a block runs at most BLOCK_ROWS rows at once, so a
    thread holds at most that many, about 2.5 KB each.  Each thread has its
    own: blocks that run in two threads at once never draw on one
    generator."""

    def __init__(self) -> None:
        self.generators: list[np.random.Generator] = []

    def take(self, n: int) -> list[np.random.Generator]:
        """The first ``n`` generators, building any that are missing."""
        pool = self.generators
        pool.extend(np.random.Generator(np.random.PCG64(0)) for _ in range(n - len(pool)))
        return pool[:n]


_POOL = _GeneratorPool()


def _hand_over(streams: np.ndarray) -> np.ndarray:
    """Native generators, in an object array, for the rows of the PCG64
    ``streams`` (4 x rows): each row's generator from the pool, handed the
    row's state and inc through ``.state``, the row's one handoff."""
    gens = np.empty(streams.shape[1], object)
    gens[:] = _POOL.take(len(gens))
    for g, s_hi, s_lo, i_hi, i_lo in zip(gens, *streams.tolist()):
        g.bit_generator.state = {"bit_generator": "PCG64",
                                 "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                                 "has_uint32": 0, "uinteger": 0}
    return gens


def _native_uniforms(gens: np.ndarray, end: np.ndarray, width: int) -> np.ndarray:
    """Generator.random's doubles (rows x width) on the rows' own native
    generators ``gens``: row r draws its next end[r] columns; the rest stay
    0.  A row that draws the whole width leaves its generator at the start
    of its next round."""
    # zero-filled, not np.empty: the columns a row leaves undrawn are cast to
    # int64 too, and an uninitialised NaN there would warn (an error in tests)
    u = np.zeros((len(end), width))
    for g, row, e in zip(gens, u, end.tolist()):
        g.random(out=row[:e])
    return u


def _step_runs(t: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, step) of each run of equal steps in the sorted ``t``."""
    if t[0] == t[-1]:  # one run: every row of a lone fleet without perturbations
        return [(0, len(t), int(t[0]))]
    cuts = [0, *(np.flatnonzero(t[1:] != t[:-1]) + 1).tolist(), len(t)]
    return [(a, b, int(t[a])) for a, b in zip(cuts, cuts[1:])]


def _select(live: np.ndarray, *rows: np.ndarray) -> list[np.ndarray]:
    """The ``live`` rows of each array, along its last axis (compress is
    cheaper than a boolean index of the 4 x rows streams and of an object
    array)."""
    return [a.compress(live, axis=-1) for a in rows]


def _fleet_round(rule: Rule, rows: tuple, key: np.ndarray, span: int,
                 width: int, first: bool) -> tuple | None:
    """One round of ``rows``: (t, idx, sid, bound, p, streams) holds, per row
    and sorted by t, the step of the row's first draw in the round, the index
    of its (fleet, trial) key, its searcher id, bound and treasure's slot, and
    its stream: while emulated its PCG64 (state hi, state lo, inc hi, inc lo)
    as a column of a 4 x rows array, later its native generator in an object
    array.

    A row's bound is the last step at which it could still beat its key:
    min(bound, (key - sid - 1) // span), starting from the last step before
    its crash; every row of ``rows`` has t <= bound.  A row draws ``width``
    steps, or only to its bound, and its hits lower the keys.  Returns the
    rows that neither hit nor reach their bound, as lowered by those hits,
    within the round, each at its next round's step, or None.  A row that
    stopped at its bound leaves with the rows that hit, so its state after
    the round is never read and it need not draw the whole round.

    An emulated round jumps each row's stored state by _jump_table: in round
    1 (``first``) from its seeded state, t - 1 steps back, later from the
    state past its last round.  The last column of the emulated states is
    the state past the round, which the row stores.  Once at least half of
    the round's rows go on, or once the next emulated round would be wider
    than EMULATED_MAX, each row that goes on is handed that state on a
    native generator (_hand_over).  Native rounds draw on those generators,
    which every row that goes on leaves at its next round's start.  Rows
    draw in sub-batches of at most CHUNK_MAX uniforms, each within one run
    of rows that share t, so that one list of candidate-list sizes (and,
    while emulated, one jump table) serves the whole sub-batch.
    """
    t, idx, sid, bound, p, streams = rows
    emulated = streams.dtype != object
    end = np.minimum(bound - t + 1, width)
    hit = np.empty(len(t), np.int64)
    per = max(1, CHUNK_MAX // width)
    for a, b, step in _step_runs(t):
        m, mf = _list_sizes(rule, step, width)
        jump = _jump_table(step - 1 if first else 0, width) if emulated else None
        for i in range(a, b, per):
            sub = slice(i, min(i + per, b))
            if emulated:
                s_hi, s_lo, i_hi, i_lo = streams[:, sub, None]
                state = _affine((s_hi, s_lo), (i_hi, i_lo), *jump)
                streams[0, sub], streams[1, sub] = state[0][:, -1], state[1][:, -1]
                u = _uniforms(state)
            else:
                u = _native_uniforms(streams[sub], end[sub], width)
            u *= mf
            hit[sub], p[sub] = _event_search(u.astype(np.int64), m, p[sub], end[sub])
    found = hit >= 0
    np.minimum.at(key, idx[found], (t[found] + hit[found]) * span + sid[found])
    bound = np.minimum(bound, (key[idx] - sid - 1) // span)
    live = ~found & (bound >= t + width)
    going = np.count_nonzero(live)
    if not going:
        return None
    t, idx, sid, bound, p, streams = _select(live, t, idx, sid, bound, p, streams)
    if emulated and (2 * going >= len(live) or 2 * width > EMULATED_MAX):
        streams = _hand_over(streams)
    return t + width, idx, sid, bound, p, streams


def _fleet_block(rule: Rule, plans: list, words: list | None,
                 trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of ``trials`` trials of each fleet in ``plans`` (one _plan
    per fleet, its searchers sharing the pool (c, p) of ``rule``): (times,
    finders), int64 arrays of shape (fleets, trials), 0 where none hit.

    ``words`` are the trials' seed words (_seed_words).  Searcher sid of a
    trial owns the stream searcher_seed(trial seed, sid) in every fleet, so
    each distinct (trial, sid) stream is seeded once and gathered to its
    rows.  Every (fleet, trial, searcher) row runs through one loop of
    lock-step rounds (_fleet_round), sorted by the step at which its target
    enters its pool.  Round 1 seeds every row, jumps it to that step (earlier
    draws cannot touch the target), and draws BATCH_CHUNK uniforms, all
    emulated at once.  While fewer than half of a round's rows go on, they
    stay emulated in rounds of twice the width, up to EMULATED_MAX; then
    each row that goes on is handed its state once, on a native generator
    of its own, whose first round is 8x as wide as the round that handed it
    over and each later one 4x, up to CHUNK_MAX.  A (1, 1) pool holds one
    box, so its rows go straight to their keys at their entry step, seeding
    nothing (words may be None).

    Rows run in groups of at most BLOCK_ROWS, one after another, which caps
    the thread's pool of generators.  The groups share the keys, and a group
    starts from the bounds that earlier groups set, so the outcomes are those
    of one pass over all rows.

    Each (fleet, trial) keeps its best as one key, hit * span + sid with span
    above every sid, so the earliest hit wins and the lowest id breaks ties,
    exactly as when the searchers run one after another to the best hit so
    far.  A row runs only while it could still win; bounds only fall, so no
    row is run twice.  Fleets share no key, so each fleet's outcomes, and the
    rounds it needs, are those it has when run alone.
    """
    span = _span(plans)
    key = np.full(len(plans) * trials, _NEVER)
    entries = sorted((first, fleet, sid, limit, own - first)
                     for fleet, plan in enumerate(plans)
                     for sid, own, first, limit in plan)
    if not rule.draws:
        # a one-box pool (a partition member, block-random(1)): every row hits
        # at its entry step whatever it draws, so nothing is seeded or drawn;
        # written in reverse, each fleet keeps its least (step, sid)
        for first, fleet, sid, *_ in reversed(entries):
            key[fleet * trials:(fleet + 1) * trials] = first * span + sid
    elif entries:
        sids = sorted({sid for _, _, sid, *_ in entries})
        column = {sid: i for i, sid in enumerate(sids)}
        # the (sid, trial) streams, seeded by broadcasting sids against trials
        state, inc = _seeded_streams([w if isinstance(w, int) else w[None] for w in words],
                                     np.array(sids, np.uint64)[:, None])
        seeded = np.array([*state, *inc]).reshape(4, -1)
        t, fleet, sid, bound, p, stream = np.repeat(
            np.array([(*e, column[e[2]]) for e in entries], np.int64).T, trials, axis=1)
        trial = np.arange(len(entries) * trials) % trials
        rows = (t, fleet * trials + trial, sid, bound, p, stream * trials + trial)
        for g in range(0, len(trial), BLOCK_ROWS):
            # a group starts from the keys that earlier groups set
            t, idx, sid, bound, p, col = (a[g:g + BLOCK_ROWS] for a in rows)
            bound = np.minimum(bound, (key[idx] - sid - 1) // span)
            live = bound >= t
            if not live.any():
                continue
            t, idx, sid, bound, p, col = _select(live, t, idx, sid, bound, p, col)
            group, width = (t, idx, sid, bound, p, seeded.take(col, axis=1)), BATCH_CHUNK
            first = emulated = True
            while (group := _fleet_round(rule, group, key, span, width, first)) is not None:
                # an emulated round doubles; a handoff's first native round
                # is 8x as wide, and each native round after it 4x
                still = group[5].dtype != object
                width = min((2 if still else 8 if emulated else 4) * width, CHUNK_MAX)
                first, emulated = False, still
    key = key.reshape(len(plans), trials)
    found = key < _NEVER
    return np.where(found, key // span, 0), np.where(found, key % span, 0)


def _target(config: TrialConfig, sid: int) -> int:
    """The index at which searcher ``sid`` sees the treasure."""
    perts = config.perturbations
    return perts[sid - 1].map_index(config.treasure) if perts else config.treasure


def _searcher_row(rule: Rule, sid: int, target: int,
                  crash: int | None) -> tuple[int, int, int, int] | None:
    """(sid, own index of ``target``, first step, last step before ``crash``)
    of searcher sid; None if it never opens ``target`` or crashes by ``first``."""
    own = rule.own_index(target)
    first = None if own is None else rule.entry_step(own)
    if first is None or crash is not None and crash <= first:
        return None
    return sid, own, first, _NEVER if crash is None else crash - 1


def _plan(config: TrialConfig) -> list[tuple[int, int, int, int]]:
    """The _searcher_row of each searcher that can hit, in sid order."""
    crashes = dict(config.crashes.entries)
    rows = (_searcher_row(rule, sid, _target(config, sid), crashes.get(sid))
            for sid, rule in enumerate(config.kind.fleet(config.params, config.fleet_size), 1))
    return [row for row in rows if row is not None]


def _span(plans: list) -> int:
    """One above every searcher id in ``plans``: the span of the hit keys."""
    return 1 + max((sid for plan in plans for sid, *_ in plan), default=0)


def _plans(templates: Sequence[TrialConfig]) -> list[list]:
    """The _plan of each template, checked against the key span they share.

    A hit is kept as the int64 key step*span + sid, so a treasure with
    2*first*span + sid >= _NEVER for some row of any template raises
    ValueError, naming the first such row, before any draw.  A row kept has
    at least ``first`` steps of key room past its entry and runs out only
    after about 1e18 draws: a trial that ends without a hit means that every
    searcher crashed first.
    """
    plans = [_plan(config) for config in templates]
    span = _span(plans)
    for config, plan in zip(templates, plans):
        for sid, _, first, _ in plan:
            if 2 * first * span + sid >= _NEVER:
                raise ValueError(f"treasure {config.treasure} is beyond the simulator's range: "
                                 f"searcher {sid} sees it at box {_target(config, sid)} from "
                                 f"step {first}, and twice that step must stay below "
                                 f"{_NEVER // span}")
    return plans


def _pool_hit_times(rule: Rule, target: int, seeds: np.ndarray, sid: int,
                    limit: int) -> np.ndarray:
    """First step <= limit at which searcher ``sid`` of each trial seed in
    ``seeds`` (uint64) opens ``target``, 0 where none; the engine of
    _fleet_block with a one-searcher fleet, in blocks of BLOCK_ROWS rows."""
    row = _searcher_row(rule, sid, target, limit + 1)
    plan = [] if row is None else [row]
    blocks = [seeds[i:i + BLOCK_ROWS] for i in range(0, len(seeds), BLOCK_ROWS)]
    return np.concatenate([_fleet_block(rule, [plan], _seed_words(b), len(b))[0][0]
                           for b in blocks])


def run_trial(config: TrialConfig) -> TrialOutcome:
    """Simulate one fleet trial; earliest hit wins, lowest id breaks ties.

    A trial is a block of one trial of _fleet_block, the path of
    estimate_speedup: it has no horizon, and finds nothing only when every
    searcher crashed first.
    """
    times, finders = _fleet_block(config.kind.fleet(config.params, config.fleet_size)[0],
                                  _plans([config]), _seed_words(config.seed), 1)
    if not times[0, 0]:
        return TrialOutcome(None, None)
    return TrialOutcome(int(times[0, 0]), int(finders[0, 0]))


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed derived from the experiment base seed."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _trial_blocks(templates: Sequence[TrialConfig], trials: int):
    """Yield (times, finders), each (templates, block trials), of trials
    0..trials-1 of every template; trial i runs with trial_seed(base, i), and
    0 marks a trial that found nothing.  The templates share kind, params and
    base seed, so each block derives its trial seeds once, if their rule draws.

    A block holds as many trials as the largest fleet alone fits in
    BLOCK_ROWS rows, and runs its templates in one _fleet_block pass while
    their rows fit too, else in consecutive runs of templates that do.  So
    fusing templates never leaves a fleet fewer trials per pass than it has
    alone, and a long list of templates does not shrink every pass.
    """
    if len({(c.kind, c.params, c.seed) for c in templates}) > 1:
        raise ValueError("fused templates must share kind, params and seed")
    plans = _plans(templates)
    if not plans:
        return
    lead = templates[0]  # the fleets' rules share lead's pool (c, p) and draws
    rule, base = lead.kind.fleet(lead.params, lead.fleet_size)[0], lead.seed
    _entropy_words(base)  # a negative base seed raises, drawn from or not
    sizes = [len(plan) for plan in plans]
    per_block = max(1, min(trials, BLOCK_ROWS // max([1, *sizes])))
    cuts, rows = [0], 0
    for i, n in enumerate(sizes):
        if i > cuts[-1] and (rows + n) * per_block > BLOCK_ROWS:
            cuts.append(i)
            rows = 0
        rows += n
    cuts.append(len(plans))
    for start in range(0, trials, per_block):
        stop = min(trials, start + per_block)
        words = _seed_words(trial_seeds(base, start, stop)) if rule.draws else None
        runs = [_fleet_block(rule, plans[a:b], words, stop - start)
                for a, b in zip(cuts, cuts[1:])]
        yield tuple(np.concatenate(part) for part in zip(*runs))


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


def estimate_speedups(templates: Sequence[TrialConfig], trials: int,
                      allow_non_discovery: bool = False) -> list[RunStats]:
    """Run ``trials`` independent seeded trials of each template, all in one
    pass: the templates share kind, params and seed, and may differ in
    treasure, perturbations, crash schedule and fleet size.

    The shared ``seed`` acts as the experiment base seed; trial i of every
    template runs with trial_seed(base, i), and its outcome equals
    run_trial's, so the result equals estimate_speedup of each template in
    turn.  Aggregation uses exact integer moments, so results do not depend
    on reduction order.  NonDiscoveryError counts the missed trials of the
    first template, in order, that has any.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    total = [0] * len(templates)
    total_sq = [0] * len(templates)
    found = [0] * len(templates)
    for times, _ in _trial_blocks(templates, trials):
        for i, row in enumerate(times):
            n, s, sq = _moments(row[row > 0])
            found[i] += n
            total[i] += s
            total_sq[i] += sq
    for n in found:
        if n < trials and not allow_non_discovery:
            raise NonDiscoveryError(
                f"{trials - n} of {trials} trials did not find the treasure; no mean reported")
    return [_run_stats(c.treasure, trials, *moments)
            for c, *moments in zip(templates, found, total, total_sq)]


def _moments(hits: np.ndarray) -> tuple[int, int, int]:
    """The count of ``hits`` (positive int64 hit times), their sum and the
    sum of their squares, as exact ints: summed in int64 numpy while
    len * max**2 stays below 2**63, so neither sum can wrap, else in Python
    ints."""
    if not hits.size:
        return 0, 0, 0
    top = int(hits.max())
    if hits.size * top * top < 1 << 63:
        return hits.size, int(hits.sum()), int(np.dot(hits, hits))
    values = hits.tolist()
    return len(values), sum(values), sum(t * t for t in values)


def _run_stats(treasure: int, trials: int, found: int, total: int, total_sq: int) -> RunStats:
    """RunStats of ``found`` discovering trials out of ``trials`` whose times
    sum to ``total`` and their squares to ``total_sq``."""
    missing = trials - found
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
    return RunStats(trials, mean, stderr, treasure / mean, (mean - half, mean + half), missing)


def estimate_speedup(template: TrialConfig, trials: int,
                     allow_non_discovery: bool = False) -> RunStats:
    """Run ``trials`` independent seeded trials of ``template``: the
    one-template case of estimate_speedups."""
    return estimate_speedups([template], trials, allow_non_discovery)[0]


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
    stats_crashed, stats_control = estimate_speedups([crashed, control], trials)
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
    perturbed = [replace(template, perturbations=tuple([pert] * params.k))
                 for pert in perturbation_set]
    baseline, *runs = estimate_speedups([template, *perturbed], trials)
    entries = []
    for pert, stats in zip(perturbation_set, runs):
        ratio = stats.speedup_point / baseline.speedup_point
        entries.append(RobustnessEntry(pert.describe(), stats, ratio,
                                       ratio < 1.0 - tolerance))
    return RobustnessReport(params.k, x, trials, tolerance, baseline, tuple(entries))
