"""Exact survival probabilities N(x, t), expected-time ratios, speed-up curves.

N(x, t) is the probability that a single searcher has not opened box x within
its first t steps.  A fleet of f independent searchers misses x with
probability N(x, t)**f, so the expected discovery time is sum_t N(x, t)**f and
the expected-time ratio theta = that sum divided by x.  Speed-up is 1/theta.

Two arithmetic modes: exact ``Fraction`` values (identities that must hold
exactly) and float64 with chunked pairwise summation (long-horizon sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .strategy import (
    BLOCK_RANDOM,
    COORDINATED,
    NESTED,
    SOLO,
    SearchParams,
    StrategyKind,
)

Prob = Union[Fraction, float]

_TAU_CHUNK = 1 << 16


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
        name = self.kind.name
        zero = Fraction(0) if self.exact else 0.0
        total = zero
        if name == NESTED:
            width = self.params.block_size
            for block in range(1, (t + 1) // 2 + 1):
                total += width * (1 - self._nested_row(block, t)[t])
        elif name == BLOCK_RANDOM:
            b = self.kind.block_len
            for j in range(1, (t + b - 1) // b + 1):
                total += b * (1 - block_random_survival(b, (j - 1) * b + 1, t, self.exact))
        else:
            # deterministic 0/1 strategies open exactly one new box per step
            total += t
        return abs(total - t)


@dataclass(frozen=True)
class ThetaEstimate:
    """Truncated expected-time ratio with a certified truncation error.

    ``tail_bound`` bounds the discarded sum_{t>truncation_t} N(x,t)**fleet
    divided by x, so the true ratio lies in [theta, theta + tail_bound].
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


def _tail_certificate(delta: Prob, fleet: int) -> Callable[[Prob, int], Prob]:
    """Certified tail of sum_t N(x, t)**fleet for k >= 2, as tail(b, tau0).

    The even-step survival obeys b(tau) = b(tau-1) * d/(d+2) with
    d = tau*(k-1); the product beyond tau0 is at most
    ((tau0+1+delta)/(tau+1+delta))**delta, so with b = N(x, 2*tau0) the sum
    over t > 2*tau0 is summable with exponent delta*fleet and at most
    2*b**fleet*(1 + (tau0+1+delta)/(delta*fleet - 1)).  Works for float and
    Fraction arguments alike; raises ValueError when delta*fleet <= 1, where
    the sum diverges.
    """
    dk = delta * fleet
    if dk <= 1:
        raise ValueError(f"expected time diverges: fleet*delta = {float(dk):g} <= 1")

    def tail(b: Prob, tau0: int) -> Prob:
        return 2 * b ** fleet * (1 + (tau0 + 1 + delta) / (dk - 1))

    return tail


def _row_sum(params: SearchParams, block: int, eps_abs: float, fleet: int,
             max_steps: int) -> tuple[float, int, float]:
    """sum_t N(x, t)**fleet for x in the given pool block, with certified tail.

    Returns (sum, truncation_t, tail_abs) where tail_abs bounds the discarded
    sum over t > truncation_t (see :func:`_tail_certificate`).
    """
    k = params.k
    if k == 1:
        # the two pool members left at each odd step are forced by step 2*block
        total = (2 * block - 1) + 0.5 ** fleet
        return total, 2 * block, 0.0
    tail_of = _tail_certificate(params.delta, fleet)
    km1 = float(k - 1)
    parts = [float(2 * block - 1)]
    b = 1.0
    tau = block
    while True:
        hi = tau + _TAU_CHUNK
        taus = np.arange(tau, hi, dtype=np.float64)
        d = taus * km1
        f_even = d / (d + 2.0)
        cum = np.cumprod(f_even)
        b_prev = np.empty_like(cum)
        b_prev[0] = b
        np.multiply(cum[:-1], b, out=b_prev[1:])
        odds = b_prev * ((d + 1.0) / (d + 2.0))
        evens = b * cum
        parts.append(float(np.sum(odds ** fleet) + np.sum(evens ** fleet)))
        b = float(evens[-1])
        tau_end = hi - 1
        tail = tail_of(b, tau_end)
        if tail <= eps_abs:
            return math.fsum(parts), 2 * tau_end, tail
        tau = hi
        if 2 * tau > max_steps:
            raise RuntimeError(
                f"tail bound {tail:.3g} still above {eps_abs:.3g} after {max_steps} steps")


def theta(params: SearchParams, x: int, epsilon: float = 1e-6, fleet: int | None = None,
          max_steps: int = 2_000_000_000) -> ThetaEstimate:
    """Expected-time ratio for a fleet running the nested-pool sampler.

    ``epsilon`` is the largest tolerated truncation error on the returned
    ratio; ``fleet`` defaults to the design parameter k and may differ from it
    (e.g. survivors of a larger design).
    """
    n_fleet = _checked_fleet(params, x, fleet, epsilon)
    total, trunc, tail = _row_sum(params, block_of(params, x), epsilon * x, n_fleet, max_steps)
    return ThetaEstimate(params.k, x, total / x, trunc, tail / x)


def theta_window(params: SearchParams, x: int, epsilon: float = 1e-6,
                 fleet: int | None = None) -> ThetaEstimate:
    """Max of theta over the 2(k+1) consecutive x values ending at x.

    The ratio oscillates with x mod (k+1); the window max tracks the running
    peak of the curve, which is the quantity whose large-x limit matters.
    """
    n_fleet = _checked_fleet(params, x, fleet, epsilon)
    width = 2 * params.block_size
    lo = max(1, x - width + 1)
    rows: dict[int, tuple[float, int, float]] = {}
    best: ThetaEstimate | None = None
    for xx in range(lo, x + 1):
        blk = block_of(params, xx)
        if blk not in rows:
            rows[blk] = _row_sum(params, blk, epsilon * lo, n_fleet, 2_000_000_000)
        total, trunc, tail = rows[blk]
        est = ThetaEstimate(params.k, xx, total / xx, trunc, tail / xx)
        if best is None or est.theta > best.theta:
            best = est
    return best


def theta_exact_bracket(params: SearchParams, x: int, t_max: int,
                        fleet: int | None = None) -> tuple[Fraction, Fraction]:
    """Exact rational bracket [lo, hi] containing theta (k >= 2, even t_max).

    lo is the partial sum over t <= t_max divided by x; hi adds the certified
    rational tail bound.
    """
    n_fleet = _checked_fleet(params, x, fleet)
    if params.k < 2:
        raise ValueError("exact bracket needs k >= 2; k = 1 sums are finite")
    if t_max % 2 or t_max < 2 * block_of(params, x):
        raise ValueError("t_max must be even and at least the block entry step")
    tail_of = _tail_certificate(params.delta_exact, n_fleet)
    row = survival_row_exact(params, x, t_max)
    partial = sum(v ** n_fleet for v in row)
    tail = tail_of(row[t_max], t_max // 2)
    return Fraction(partial, x), Fraction(partial + tail, x)


def speedup_curve(params: SearchParams, xs: Sequence[int], epsilon: float = 1e-6,
                  window: bool = False) -> list[ThetaEstimate]:
    """Exact theta rows for the given x, ordered by x; ``.speedup`` is 1/theta.

    With ``window=True`` the row for x reports the max-over-window theta (and
    the correspondingly smallest speed-up) of the window ending at x, see
    :func:`theta_window`.
    """
    fn = theta_window if window else theta
    return [replace(fn(params, x, epsilon), x=x) for x in sorted(xs)]


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
