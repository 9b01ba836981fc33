"""Exact survival probabilities N(x, t), expected-time ratios, speed-up curves.

N(x, t) is the probability that a single searcher has not opened box x within
its first t steps.  A fleet of f independent searchers misses x with
probability N(x, t)**f, so the expected discovery time is sum_t N(x, t)**f and
the expected-time ratio theta = that sum divided by x.  Speed-up is 1/theta.

Two arithmetic modes: exact ``Fraction`` values (identities that must hold
exactly) and float64 with chunked pairwise summation (long-horizon sums),
one pass per pool block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .strategy import (
    BLOCK_RANDOM,
    NESTED,
    SOLO,
    SearchParams,
    StrategyKind,
)

Prob = Union[Fraction, float]

# 8192 taus a chunk: its ~ten float64 temporaries (64 KiB each) stay below glibc's
# 128 KiB mmap threshold, so they are reused from the heap rather than page-faulted
# in afresh, and the series stops nearer the step where its tail bracket fits.
_TAU_CHUNK = 1 << 13
_MAX_STEPS = 2_000_000_000


def _validate_xt(x: int, t: int) -> None:
    if x < 1:
        raise ValueError(f"box index must be >= 1, got {x}")
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")


def block_of(params: SearchParams, x: int) -> int:
    """1-based index of the pool block containing box x: ceil(x / (k+1))."""
    return (x + params.k) // (params.k + 1)


def _nested_steps(params: SearchParams, row: list[Prob], u: int, t: int) -> list[Prob]:
    """Append N(x, u), ..., N(x, t) to row, whose last entry is N(x, u - 1).

    x must be in the nested pool by step u, i.e. u >= 2*block - 1 for its
    block.  Each step then multiplies N by (1 - 1/m) where
    m = ceil(u/2)*(k+1) - (u-1) is the number of unvisited pool members.  The
    same line is exact for Fraction (it gives 0 once m = 1) and float64 for
    float.
    """
    while u <= t:
        m = params.pool_size(u)
        row.append(row[-1] * (m - 1) / m)
        u += 1
    return row


def nested_survival(params: SearchParams, x: int, t: int, exact: bool = False) -> Prob:
    """N(x, t) for the nested-pool sampler: 1 until the pool reaches x, then
    multiplied by (1 - 1/m) per step; see :func:`_nested_steps`."""
    _validate_xt(x, t)
    one = Fraction(1) if exact else 1.0
    return _nested_steps(params, [one], 2 * block_of(params, x) - 1, t)[-1]


def block_random_survival(block_len: int, x: int, t: int, exact: bool = False) -> Prob:
    """N(x, t) for the block-by-block sampler (closed form)."""
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    _validate_xt(x, t)
    j = (x + block_len - 1) // block_len
    start = (j - 1) * block_len  # steps completed before block j opens
    if t <= start:
        return Fraction(1) if exact else 1.0
    done = t - start
    if done >= block_len:
        return Fraction(0) if exact else 0.0
    if exact:
        return Fraction(block_len - done, block_len)
    return (block_len - done) / block_len


def solo_survival(x: int, t: int, exact: bool = False) -> Prob:
    _validate_xt(x, t)
    alive = t < x
    if exact:
        return Fraction(1) if alive else Fraction(0)
    return 1.0 if alive else 0.0


def coordinated_survival(searcher_id: int, params: SearchParams, x: int, t: int,
                         exact: bool = False) -> Prob:
    """0/1 indicator that the partition searcher has not reached x by step t."""
    _validate_xt(x, t)
    if not 1 <= searcher_id <= params.k:
        raise ValueError(f"searcher_id {searcher_id} out of range 1..{params.k}")
    k = params.k
    visited = (x - searcher_id) % k == 0 and searcher_id + (t - 1) * k >= x >= searcher_id
    if exact:
        return Fraction(0) if visited else Fraction(1)
    return 0.0 if visited else 1.0


def survival_row_exact(params: SearchParams, x: int, t_max: int) -> list[Fraction]:
    """Exact nested-sampler row [N(x, 0), ..., N(x, t_max)]."""
    _validate_xt(x, t_max)
    view = SurvivalMatrix(StrategyKind.nested(), params, exact=True)
    return view._nested_row(block_of(params, x), t_max)


class SurvivalMatrix:
    """Lazily evaluated N(x, t) table for one strategy.

    Nested-sampler rows depend on x only through its pool block, so rows are
    cached per block.  Cache fills are idempotent and deterministic, hence
    concurrent readers observe the same values a serial evaluation produces.
    """

    def __init__(self, kind: StrategyKind, params: SearchParams, exact: bool = False) -> None:
        self.kind = kind
        self.params = params
        self.exact = exact
        self._rows: dict[int, list[Prob]] = {}

    def value(self, x: int, t: int) -> Prob:
        _validate_xt(x, t)
        name = self.kind.name
        if name == NESTED:
            block = block_of(self.params, x)
            row = self._rows.get(block)
            if row is None or len(row) <= t:
                row = self._nested_row(block, t)
            return row[t]
        if name == BLOCK_RANDOM:
            return block_random_survival(self.kind.block_len, x, t, self.exact)
        if name == SOLO:
            return solo_survival(x, t, self.exact)
        return coordinated_survival(self.kind.searcher_id, self.params, x, t, self.exact)

    def _nested_row(self, block: int, t: int) -> list[Prob]:
        """The cached row [N(x, 0), ..., N(x, t), ...] for x in the block."""
        row = self._rows.get(block)
        if row is None:
            row = self._rows[block] = [Fraction(1) if self.exact else 1.0]
        first = 2 * block - 1  # N stays at row[0] = 1 until the pool reaches x
        if len(row) < first:
            row.extend([row[0]] * (min(first, t + 1) - len(row)))
        return _nested_steps(self.params, row, len(row), t)

    def support_limit(self, t: int) -> int:
        """Largest x with N(x, t) possibly below 1."""
        if t == 0:
            return 0
        name = self.kind.name
        if name == NESTED:
            return self.params.pool_limit(t)
        if name == BLOCK_RANDOM:
            b = self.kind.block_len
            return b * ((t + b - 1) // b)
        if name == SOLO:
            return t
        return self.kind.searcher_id + (t - 1) * self.params.k

    def column_sum_residual(self, t: int, x_max: int) -> Prob:
        """|sum_{x<=x_max} (1 - N(x, t)) - t|; zero for a non-revisiting strategy."""
        if t < 0:
            raise ValueError(f"step count must be >= 0, got {t}")
        support = self.support_limit(t)
        if x_max < support:
            raise ValueError(f"x_max={x_max} below support bound {support} at t={t}")
        total = Fraction(0) if self.exact else 0.0
        if self.kind.name == NESTED:
            width = self.params.block_size
            for block in range(1, (t + 1) // 2 + 1):
                total += width * (1 - self._nested_row(block, t)[t])
        else:
            for x in range(1, x_max + 1):
                total += 1 - self.value(x, t)
        return abs(total - t)


@dataclass(frozen=True)
class ThetaEstimate:
    """Truncated expected-time ratio with a certified truncation error.

    ``theta`` is the sum over t <= truncation_t of N(x,t)**fleet plus a
    certified lower bound on the rest, divided by x; ``tail_bound`` is the
    width of the certified bracket on that rest, divided by x.  So the true
    ratio lies in [theta, theta + tail_bound].
    """

    k: int
    x: int
    theta: float
    truncation_t: int
    tail_bound: float

    @property
    def speedup(self) -> float:
        return 1.0 / self.theta


def _checked_fleet(params: SearchParams, x: int, fleet: int | None,
                   epsilon: float | None = None) -> int:
    """Validate x (and epsilon, when given); return the fleet size, k by default."""
    if x < 1:
        raise ValueError(f"box index must be >= 1, got {x}")
    if epsilon is not None and not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n_fleet = params.k if fleet is None else fleet
    if n_fleet < 1:
        raise ValueError(f"fleet must be >= 1, got {n_fleet}")
    return n_fleet


def _tail_certificate(delta: Prob, fleet: int) -> Callable[[Prob, int], tuple[Prob, Prob]]:
    """Certified bracket (lo, hi) on the tail of sum_t N(x, t)**fleet for
    k >= 2, as tail(b, tau0), where b = N(x, 2*tau0) and the tail is the sum
    over t > 2*tau0.

    The even-step survival obeys b(tau) = b(tau-1) * d/(d+2) with
    d = tau*(k-1), so b(tau)/b(tau0) = prod_{s=tau0+1}^{tau} s/(s+delta) lies
    between (tau0/tau)**delta (as log(1 + delta/s) <= delta/s) and
    ((tau0+1+delta)/(tau+1+delta))**delta, and each odd-step term lies
    between the even-step terms around it.  With c = delta*fleet - 1 > 0:

    - hi = 2*b**fleet*(1 + (tau0+1+delta)/c) bounds the tail above;
    - lo = 2*b**fleet*tau0*max(0, tau0 + 1 - max(c, 1))/((tau0+1)*c) bounds
      it below: the tail is at least 2*b**fleet*sum_{tau>tau0}
      (tau0/tau)**(c+1) >= 2*b**fleet*tau0*(tau0/(tau0+1))**c/c (the
      integral from tau0+1), and (1 - y)**c >= 1 - max(c, 1)*y with
      y = 1/(tau0+1) makes that rational; lo is 0 while tau0 + 1 <= c.

    Each half of the tail (its even-step terms, its odd-step terms) lies in
    [lo/2, hi/2]: the even half is at most b**fleet*(tau0+1+delta)/c and the
    odd half at most b**fleet more.  The width hi - lo <= 2*b**fleet*(1 +
    (1+delta+max(c, 1))/c) carries no tau0 factor, so summation can stop once
    b**fleet itself is small.  Works for float and Fraction arguments alike;
    raises ValueError when c <= 0, where the sum diverges.
    """
    c = delta * fleet - 1
    if c <= 0:
        raise ValueError(f"series diverges: fleet*delta = {float(c + 1):g} <= 1")
    c_lo = max(c, 1)

    def tail(b: Prob, tau0: int) -> tuple[Prob, Prob]:
        scale = 2 * b ** fleet
        return (scale * tau0 * max(0, tau0 + 1 - c_lo) / ((tau0 + 1) * c),
                scale * (1 + (tau0 + 1 + delta) / c))

    return tail


def _series(start: int, scale: float, gap: float, mids: tuple[float, ...], fleet: int,
            head: float, eps_abs: float, max_tau: int) -> tuple[float, float, int]:
    """Certified sum of head and, over tau >= start, b(tau)**fleet plus
    (b(tau-1)*(d+o)/(d+gap))**fleet for each o in mids, where d = tau*scale
    and b(tau) = prod_{s=start}^{tau} d_s/(d_s+gap).

    With scale = k-1, gap = 2 and mids = (1,) the terms are N(x, 2*tau) and
    N(x, 2*tau-1) for x in pool block start; with scale = 1, gap = delta and
    no mids they are Claim 1's.  Each of the 1 + len(mids) term sequences
    has its tail in [lo/2, hi/2] of :func:`_tail_certificate`.  Chunks of
    _TAU_CHUNK taus are added until the sum of those brackets is at most
    eps_abs wide.  Returns (the sum plus the bracket's lower end, the bracket
    width, the last tau summed).
    """
    tail_of = _tail_certificate(gap / scale, fleet)
    seqs = 1 + len(mids)
    parts = [head]
    b = 1.0
    tau = start
    while True:
        hi = tau + _TAU_CHUNK
        d = np.arange(tau, hi, dtype=np.float64) * scale
        evens = np.cumprod(d / (d + gap)) * b
        odds = [np.concatenate(([b], evens[:-1])) * ((d + o) / (d + gap)) for o in mids]
        parts.append(float(sum(np.sum(t ** fleet) for t in [*odds, evens])))
        b = float(evens[-1])
        lo, top = (v * seqs / 2 for v in tail_of(b, hi - 1))
        if top - lo <= eps_abs:
            return math.fsum(parts) + lo, top - lo, hi - 1
        tau = hi
        if tau > max_tau:
            raise RuntimeError(
                f"tail bound {top - lo:.3g} still above {eps_abs:.3g} after tau = {max_tau}")


def _curve(params: SearchParams, xs: Sequence[int], epsilon: float, fleet: int,
           window: bool) -> list[tuple[int, float, int, float]]:
    """theta (window=False) or theta_window rows for the sorted xs, as
    (x at the max, theta, truncation_t, tail_bound), with one
    :func:`_series` per pool block.

    A window [lo, x] meets at most three pool blocks, and in each theta is
    largest at the block's first x in the window: those are the candidates.
    A block is summed to epsilon times the least lo of its rows, and a
    window's tail_bound reaches every candidate's bracket top.
    """
    k, size = params.k, params.block_size
    rows = []  # each row's candidates
    eps_abs: dict[int, float] = {}  # xs are sorted, so a block's first row has the least lo
    for x in xs:
        lo = max(1, x - 2 * size + 1) if window else x
        rows.append([lo, *range(lo + size - (lo - 1) % size, x + 1, size)])
        for c in rows[-1]:
            eps_abs.setdefault(block_of(params, c), epsilon * lo)
    sums = {}  # block -> (series, bracket width, truncation_t)
    for blk, eps in eps_abs.items():
        if k == 1:  # the two pool members left at each odd step are forced by step 2*block
            sums[blk] = (2 * blk - 1 + 0.5 ** fleet, 0.0, 2 * blk)
        else:
            total, width, tau = _series(blk, k - 1.0, 2.0, (1.0,), fleet, 2.0 * blk - 1, eps,
                                        _MAX_STEPS // 2)
            sums[blk] = (total, width, 2 * tau)
    out = []
    for cands in rows:
        est = [sums[block_of(params, c)] for c in cands]
        th = [total / c for (total, _, _), c in zip(est, cands)]
        j = th.index(max(th))
        tail = max(width / c + (t - th[j]) for (_, width, _), c, t in zip(est, cands, th))
        out.append((cands[j], th[j], est[j][2], tail))
    return out


def theta(params: SearchParams, x: int, epsilon: float = 1e-6,
          fleet: int | None = None) -> ThetaEstimate:
    """Expected-time ratio for a fleet running the nested-pool sampler.

    ``epsilon`` is the largest tolerated truncation error on the returned
    ratio: the series stops once the two-sided tail bracket of
    :func:`_tail_certificate` is at most epsilon*x wide, and the ratio lies in
    [theta, theta + tail_bound].  ``fleet`` defaults to the design parameter k
    and may differ from it (e.g. survivors of a larger design).
    """
    n_fleet = _checked_fleet(params, x, fleet, epsilon)
    [(_, th, trunc, tail)] = _curve(params, [x], epsilon, n_fleet, False)
    return ThetaEstimate(params.k, x, th, trunc, tail)


def theta_window(params: SearchParams, x: int, epsilon: float = 1e-6,
                 fleet: int | None = None) -> ThetaEstimate:
    """Max of theta over the 2(k+1) consecutive x values ending at x.

    The ratio oscillates with x mod (k+1); the window max tracks the running
    peak of the curve, which is the quantity whose large-x limit matters.
    The estimate's x is the one that attains the max, and the window's true
    max lies in [theta, theta + tail_bound].
    """
    n_fleet = _checked_fleet(params, x, fleet, epsilon)
    [(at, th, trunc, tail)] = _curve(params, [x], epsilon, n_fleet, True)
    return ThetaEstimate(params.k, at, th, trunc, tail)


def theta_exact_bracket(params: SearchParams, x: int, t_max: int,
                        fleet: int | None = None) -> tuple[Fraction, Fraction]:
    """Exact rational bracket [lo, hi] containing theta (k >= 2, even t_max).

    The partial sum over t <= t_max plus the certified rational lower and
    upper tail bounds of :func:`_tail_certificate`, divided by x, give lo
    and hi.
    """
    n_fleet = _checked_fleet(params, x, fleet)
    if params.k < 2:
        raise ValueError("exact bracket needs k >= 2; k = 1 sums are finite")
    if t_max % 2 or t_max < 2 * block_of(params, x):
        raise ValueError("t_max must be even and at least the block entry step")
    tail_of = _tail_certificate(params.delta_exact, n_fleet)
    row = survival_row_exact(params, x, t_max)
    partial = sum(v ** n_fleet for v in row)
    tail_lo, tail_hi = tail_of(row[t_max], t_max // 2)
    return Fraction(partial + tail_lo, x), Fraction(partial + tail_hi, x)


def speedup_curve(params: SearchParams, xs: Sequence[int], epsilon: float = 1e-6,
                  window: bool = False) -> list[ThetaEstimate]:
    """Exact theta rows for the given x, ordered by x; ``.speedup`` is 1/theta.

    With ``window=True`` the row for x reports the max-over-window theta (and
    the correspondingly smallest speed-up) of the window ending at x, see
    :func:`theta_window`.
    """
    xs = sorted(xs)
    if not xs:
        return []
    _checked_fleet(params, xs[0], None, epsilon)
    rows = _curve(params, xs, epsilon, params.k, window)
    return [ThetaEstimate(params.k, x, *row[1:]) for x, row in zip(xs, rows)]


def expected_discovery_time(kind: StrategyKind, params: SearchParams, x: int,
                            fleet: int | None = None, epsilon: float = 1e-8) -> float:
    """Exact fleet expected discovery time sum_t N(x, t)**fleet.

    For deterministic strategies the time itself is deterministic; for the
    samplers the sum is evaluated exactly (block-random) or with a certified
    truncation (nested).
    """
    n_fleet = _checked_fleet(params, x, fleet)
    name = kind.name
    if name == NESTED:
        return theta(params, x, epsilon, fleet=n_fleet).theta * x
    if name == SOLO:
        return float(x)
    if name == BLOCK_RANDOM:
        b = kind.block_len
        j = (x + b - 1) // b
        inblock = math.fsum(((b - i) / b) ** n_fleet for i in range(1, b))
        return (j - 1) * b + 1 + inblock
    # coordinated partition with searchers 1..fleet
    return float((x - 1) // n_fleet + 1)
