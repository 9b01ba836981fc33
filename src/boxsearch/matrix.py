"""Exact survival probabilities N(x, t), expected-time ratios, speed-up curves.

N(x, t) is the probability that a single searcher has not opened box x within
its first t steps.  A fleet of f independent searchers misses x with
probability N(x, t)**f, so the expected discovery time is sum_t N(x, t)**f and
the expected-time ratio theta = that sum divided by x.  Speed-up is 1/theta.
Every strategy's table comes from one recurrence in :class:`SurvivalMatrix`,
which reads the pool rule and each box's own index from :class:`StrategyKind`.

Two arithmetic modes: exact ``Fraction`` values (identities that must hold
exactly; cells kept as lowest-terms integer pairs, sums taken in integers over
a common denominator) and float64 with chunked pairwise summation
(long-horizon sums), one pass per pool block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Sequence, Union

import numpy as np

from .strategy import SearchParams, StrategyKind

Prob = Union[Fraction, float]

# 8192 taus a later chunk: its ~ten float64 temporaries (64 KiB each) stay below
# glibc's 128 KiB mmap threshold, so they are reused from the heap rather than
# page-faulted in afresh.  A series' first chunk is sized from its own tail bracket
# (:func:`_first_chunk`), a power of two from _MIN_CHUNK up to _TAU_CHUNK.
_TAU_CHUNK = 1 << 13
_MIN_CHUNK = 16
_TAU_OFFSETS = np.arange(_TAU_CHUNK, dtype=np.float64)
_MAX_STEPS = 2_000_000_000
_ULP = 2.0 ** -53  # unit roundoff of float64


def _validate_xt(x: int, t: int) -> None:
    if x < 1:
        raise ValueError(f"box index must be >= 1, got {x}")
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")


def nested_survival(params: SearchParams, x: int, t: int, exact: bool = False) -> Prob:
    """N(x, t) for the nested-pool sampler; see :class:`SurvivalMatrix`."""
    return SurvivalMatrix(StrategyKind.nested(), params, exact).value(x, t)


def block_random_survival(block_len: int, x: int, t: int, exact: bool = False) -> Prob:
    """N(x, t) for the block-by-block sampler, (b - done)/b once block x's
    first box is appended; see :class:`SurvivalMatrix`."""
    kind = StrategyKind.block_random(block_len)
    return SurvivalMatrix(kind, SearchParams(1), exact).value(x, t)


def survival_row_exact(params: SearchParams, x: int, t_max: int) -> list[Fraction]:
    """Exact nested-sampler row [N(x, 0), ..., N(x, t_max)]."""
    return SurvivalMatrix(StrategyKind.nested(), params, exact=True).row(x, t_max)


def _fractions(nums: Sequence[int], dens: Sequence[int]) -> list[Fraction]:
    return list(map(Fraction, nums, dens))


def _rational_texts(nums: Sequence[int], dens: Sequence[int]) -> list[str]:
    """The text of each lowest-terms n/d, d > 0: n when d == 1, else n/d, as
    ``str(Fraction(n, d))`` gives it, without building the Fraction."""
    return [f"{n}/{d}" if d != 1 else str(n) for n, d in zip(nums, dens)]


class SurvivalMatrix:
    """Lazily evaluated N(x, t) table for one strategy.

    N(x, t) is 1 until ``kind.entry_step`` appends x's own index to the pool
    and is then multiplied by (1 - 1/m) at each step t, where
    m = pool_limit(t) - (t - 1) is the number of unvisited pool members.  A
    row depends on x only through that first step, so rows are cached per
    first step, m read from one list of sizes.  A cached row starts at step
    first - 1, its last 1, and ends at its first zero, a step where m = 1:
    where a partition member opens x, or the end of x's block for a rule
    with c = p.  Float rows apply the factor as ``row[-1] * (m - 1) / m``;
    exact cells are kept once, as integer pairs in lowest terms reduced by
    cross-cancelling, from which :meth:`value` and :meth:`row` build
    ``Fraction``s and :meth:`slab` writes text.  Cache fills are idempotent
    and deterministic, hence concurrent readers observe the same values a
    serial evaluation produces.
    """

    def __init__(self, kind: StrategyKind, params: SearchParams, exact: bool = False) -> None:
        self.kind = kind
        self.params = params
        self.exact = exact
        self._rule = kind.pool_rule(params)
        self._rows: dict[int, list[float]] = {}  # float rows only
        self._cells: dict[int, tuple[list[int], list[int]]] = {}
        self._sizes: list[int] = []  # m at steps 0, 1, ...; 1 at step 0

    def value(self, x: int, t: int) -> Prob:
        """N(x, t) (a Fraction when exact, else a float); for a partition
        member, the 0/1 indicator that it has not opened x by step t."""
        _validate_xt(x, t)
        cell = self._cell(self._first(x, t), t)
        return Fraction(*cell) if self.exact else cell

    def row(self, x: int, t_max: int) -> list[Prob]:
        """[N(x, 0), ..., N(x, t_max)], equal to :meth:`value` cell by cell."""
        _validate_xt(x, t_max)
        return self._row_from(self._first(x, t_max), t_max, _fractions if self.exact else list)

    def slab(self, x_max: int, t_max: int, spell: Callable[[float], str] | None = None
             ) -> tuple[list[list[float | str]], list[int]]:
        """The slab x <= x_max, t <= t_max as its distinct rows and, for each
        x in 1..x_max, the index of x's row: each row is made once however
        many x share it.  Cells are floats, or with spell the text spell(v)
        of each float, spelled once per cached cell; when exact they are the
        text of each cell, ``n`` or ``n/d`` (what ``str`` of its Fraction
        gives), written straight from the cached pairs, so no Fraction is
        built."""
        _validate_xt(x_max, t_max)
        index: dict[int, int] = {}  # first step -> row index, in order of first use
        which = [index.setdefault(self._first(x, t_max), len(index))
                 for x in range(1, x_max + 1)]
        if self.exact:
            cells = _rational_texts
        else:
            cells = list if spell is None else lambda row: list(map(spell, row))
        return [self._row_from(first, t_max, cells) for first in index], which

    def _first(self, x: int, t_max: int) -> int:
        """The first step of x's row, the entry step of its own index, or
        t_max + 1 when the row is 1 through t_max."""
        own = self.kind.own_index(self.params, x)
        return t_max + 1 if own is None else min(self.kind.entry_step(self.params, own), t_max + 1)

    def _cell(self, first: int, t: int):
        """N(x, t) for an x whose row's first step is first <= t + 1: a float,
        or when exact its lowest-terms pair (n, d)."""
        if self.exact:
            nums, dens = self._exact_cells(first, t)
            i = min(t - first + 1, len(nums) - 1)  # a row that ran dry ends at its zero
            return nums[i], dens[i]
        row = self._row(first, t)
        return row[min(t - first + 1, len(row) - 1)]

    def _row_from(self, first: int, t_max: int, cells: Callable[..., list]) -> list:
        """[N(x, 0), ..., N(x, t_max)] for an x whose row's first step is
        first <= t_max + 1: the cached cells at steps first - 1..t_max made
        by cells(nums, dens) from their lowest-terms numerators and
        denominators when exact, else by cells(floats), led by copies of the
        first (a 1) and padded with copies of the last (a row that ran dry)."""
        n = t_max - first + 2
        if self.exact:
            nums, dens = self._exact_cells(first, t_max)
            made = cells(nums[:n], dens[:n])
        else:
            made = cells(self._row(first, t_max)[:n])
        row = made[:1] * (first - 1)
        row += made
        row.extend(repeat(row[-1], t_max + 1 - len(row)))
        return row

    def _sizes_to(self, t: int) -> list[int]:
        """The cached sizes m at steps 0..t (at least), grown by doubling so
        its fills stay few."""
        sizes = self._sizes
        if len(sizes) <= t:
            steps = np.arange(len(sizes), max(t + 1, 2 * len(sizes)))
            sizes += (self.kind.pool_limit(self.params, steps) - steps + 1).tolist()
        return sizes

    def _row(self, first: int, t: int) -> list[float]:
        """The cached float row [N(x, first - 1), ..., N(x, t), ...] for x
        entering at step first <= t + 1; it ends early at its zero if it
        runs dry by t."""
        row = self._rows.get(first)
        if row is None:
            row = self._rows[first] = [1.0]
        for m in self._pending(first, t, len(row)):
            row.append(row[-1] * (m - 1) / m)
        return row

    def _pending(self, first: int, t: int, done: int) -> list[int]:
        """The sizes m at the steps after the done cached cells of the row of
        first step first, up to t or, with c = p, to the row's zero p - 1
        steps after first."""
        c, p = self._rule
        start = first - 1 + done
        end = min(t, first + p - 1) + 1 if c == p else t + 1
        return self._sizes_to(end - 1)[start:end] if start < end else []

    def _exact_cells(self, first: int, t: int) -> tuple[list[int], list[int]]:
        """The cached lowest-terms numerators and denominators of
        N(x, first - 1..t, ...) for x entering at step first <= t + 1; they
        end early at the zero, 0/1, if the row runs dry by t.  Each step
        takes n/d to n*(m-1) / (d*m) with the common factors of n and m, and
        of m-1 and d, cancelled first; n and d are coprime, as are m and
        m-1, so the result is in lowest terms too."""
        cells = self._cells.get(first)
        if cells is None:
            cells = self._cells[first] = ([1], [1])
        nums, dens = cells
        if first - 1 + len(nums) <= t:  # the cached cells end before step t
            n, d = nums[-1], dens[-1]
            for m in self._pending(first, t, len(nums)):
                g1, g2 = math.gcd(n, m), math.gcd(m - 1, d)
                n, d = n // g1 * ((m - 1) // g2), d // g2 * (m // g1)
                nums.append(n)
                dens.append(d)
        return cells

    def power_sum(self, x: int, t_max: int, fleet: int) -> Fraction:
        """sum_{t <= t_max} N(x, t)**fleet for a pool sampler, as a Fraction
        in either mode: one integer numerator over lcm(denominators)**fleet,
        the first - 1 steps before the cached row adding 1 each."""
        _validate_xt(x, t_max)
        first = self._first(x, t_max)
        nums, dens = self._exact_cells(first, t_max)
        n = t_max - first + 2
        nums, dens = nums[:n], dens[:n]
        lcm = 1
        for d in dens:
            lcm = lcm // math.gcd(lcm, d) * d
        common = lcm ** fleet
        return Fraction((first - 1) * common
                        + sum(n ** fleet * (common // d ** fleet) for n, d in zip(nums, dens)),
                        common)

    def support_limit(self, t: int) -> int:
        """Largest x with N(x, t) possibly below 1, 0 at t = 0: the box of
        the largest own index in the pool, :meth:`StrategyKind.pool_limit`."""
        return max(0, self.kind.box(self.params, self.kind.pool_limit(self.params, t)))

    def column_sum_residual(self, t: int) -> Prob:
        """|sum_x (1 - N(x, t)) - t| over the support; zero for a
        non-revisiting strategy.  A partition member's boxes are summed one
        by one, so a wrong box map shows.  A sampler's boxes are summed by
        entry step: the boxes appended at step s share a row, and there are
        m_s - m_{s-1} + 1 of them.  Exact cells are summed in integers over
        M = m_1*...*m_t, a multiple of every denominator in column t."""
        if t < 0:
            raise ValueError(f"step count must be >= 0, got {t}")
        if not self.kind.randomized:
            total = Fraction(0) if self.exact else 0.0
            for x in range(1, self.support_limit(t) + 1):
                total += 1 - self.value(x, t)
            return abs(total - t)
        sizes = self._sizes_to(t)
        joined = [(first, count) for first in range(1, t + 1)
                  if (count := sizes[first] - sizes[first - 1] + 1)]
        if not self.exact:
            return abs(sum(count * (1 - self._cell(first, t)) for first, count in joined) - t)
        big_m = math.prod(sizes[1:t + 1])
        total = 0
        for first, count in joined:
            nums, dens = self._exact_cells(first, t)
            i = t - first + 1
            if i < len(nums):  # else the row ran dry: its boxes add big_m each
                total += count * (big_m - nums[i] * (big_m // dens[i]))
            else:
                total += count * big_m
        return Fraction(abs(total - t * big_m), big_m)


@dataclass(frozen=True)
class ThetaEstimate:
    """Truncated expected-time ratio with a certified truncation error.

    ``theta`` is the sum over t <= truncation_t of N(x,t)**fleet plus a
    certified lower bound on the rest, divided by x; ``tail_bound`` is the
    width of the certified bracket on that rest, divided by x, both widened
    for the float rounding of the sum.  So the true ratio lies in
    [theta, theta + tail_bound].
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
    """Validate x (and epsilon, a finite positive number, when given);
    return the fleet size, k by default."""
    if x < 1:
        raise ValueError(f"box index must be >= 1, got {x}")
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    n_fleet = params.k if fleet is None else fleet
    if n_fleet < 1:
        raise ValueError(f"fleet must be >= 1, got {n_fleet}")
    return n_fleet


def _power_bounds(y: Prob, c: Prob) -> tuple[Prob, Prob]:
    """Rational (lo, hi) on (1+y)**-c for y > -1, c > 0, in the type of y.

    With n = floor(c) and r = c - n in [0, 1), (1+y)**-n is exact, and
    (1+y)**-r lies between its tangent 1 - r*y (it is convex in y) and
    1 - r*y/(1+y) (it is w**r, concave in w = 1/(1+y), below its tangent at
    w = 1).  The two differ by r*y**2/(1+y).
    """
    n = math.floor(c)
    r = c - n
    base = (1 + y) ** -n
    return base * (1 - r * y), base * (1 - r * y / (1 + y))


def _exp_upper(x: Prob) -> Prob:
    """A rational upper bound on e**x for x >= 0: (1 - x/m)**-m with m the
    integer above 2x, since e**(x/m) <= 1/(1 - x/m); at most e**(2x)."""
    m = math.floor(2 * x) + 1
    return (1 - x / m) ** -m


def _tail_certificate(delta: Prob, fleet: int, mids: tuple[Prob, ...]
                      ) -> Callable[[Prob, int], tuple[Prob, Prob]]:
    """Certified bracket (lo, hi) on the tail of a pool block's series, as
    tail(b, tau0): the sum over tau > tau0 of b(tau)**fleet and of
    (b(tau-1)*(tau+o)/(tau+delta))**fleet for each o in mids, where
    b(tau) = b * prod_{s=tau0+1}^{tau} s/(s+delta).

    For a pool rule (c, p) with c > p, delta = p/(c-p), the steps p*tau and
    p*tau - j, 0 < j < p, are the sequences o = 0 and o = j/(c-p), so the tail
    is the sum over t > p*tau0 of N(x, t)**fleet with b = N(x, p*tau0); the
    nested sampler's mids are (delta/2,).  Write every sequence as o in
    {0, *mids}, 0 <= o < delta, and w = o/delta.

    Second-order product.  With alpha = (1+delta)/2 and u = s + delta/2,
    log(1 + delta/s) - delta*log((s+alpha)/(s-1+alpha)) = e_s
    = sum_{j>=1} 2*(delta**(2j+1) - delta)/((2j+1)*(2u)**(2j+1)), from
    log((u+v)/(u-v)) = 2*artanh(v/u).  Every term has the sign of delta - 1,
    and |delta**(2j+1) - delta| <= j*|delta**3 - delta|*m**(2j-2) with
    m = max(delta, 1), so |e_s| <= |delta**3 - delta|*G/(12*u**3) with
    G = (1 + q**2/2)/(1 - q**2), q = m/(2u) < 1.  As 1/u**3 is convex, the
    sum over s > tau0 of 1/u**3 is at most the integral from tau0 + 1/2,
    1/(2*a**2) with a = tau0 + alpha.  Hence
    prod_{s=tau0+1}^{n} s/(s+delta) = ((tau0+alpha)/(n+alpha))**delta * e**-E
    with E of the sign of delta - 1 (0 at delta = 1) and
    |E| <= |delta**3 - delta|*G0/(24*a**2), G0 taken at s = tau0 + 1.

    One step more.  A term is (b*((tau0+alpha)/(tau+g))**delta * e**-F(tau))**fleet
    with g = alpha - w, F(tau) = E(tau0, tau-1) + R(tau) and
    R(tau) = log((tau+delta)/(tau+o)) - delta*log((tau+g)/(tau-1+alpha))
    = 2*artanh(z1) - 2*delta*artanh(z2), where h = (delta-o)/2,
    z1 = h/v, v = tau + (delta+o)/2, z2 = h/(delta*v'),
    v' = tau + delta/2 - w/2 <= v.  From z <= artanh(z) <= z + z**3/(3(1-z**2)):
    -2*h*w*alpha/(v*v') - 2*delta*z2**3/(3(1-z2**2)) <= R <= 2*z1**3/(3(1-z1**2)),
    both ends shrinking in tau, so taken at tau = tau0 + 1.  This puts F in
    [F_lo, F_hi] with F_lo <= 0 <= F_hi, all of order 1/a**2.

    Convex power-law tail.  ((tau0+alpha)/(tau+g))**p with
    p = delta*fleet = c + 1 is convex and decreasing for tau > tau0 (g > -1/2),
    so the midpoint rule bounds its sum above by the integral from
    tau0 + 1/2, (a/c)*(1+y)**-c with y = (1/2 - w)/a, and the trapezoid rule
    bounds it below by the integral from tau0 + 1 plus half the first term,
    (1+y')**-c*(a/c + 1/(2(1+y'))) with y' = (1 - w)/a.  The powers are
    replaced by the rational bounds of :func:`_power_bounds`, and e**-F by
    max(0, 1 - fleet*F_hi) below and :func:`_exp_upper` (-fleet*F_lo) above.

    Width.  With lam = 2a/(2a-1) (1 + y >= 1/lam), n = floor(c), r = c - n,
    Phi_hi = |delta**3 - delta|*G0/(24a**2) + 2*q0**3/(3(1-q0**2)) >= F_hi,
    q0 = m/(2a+1), and Phi_lo = |delta**3 - delta|*G0/(24a**2)
    + delta*alpha/(4a**2) + delta/(12a**3 - 3a) >= -F_lo, each sequence's
    bracket is at most b**fleet*Q(a)/a wide, where
    Q(a) = (a**2/c)*lam**(n+1)*fleet*(Phi_hi + 2*Phi_lo*e**(2*fleet*Phi_lo))
    + p*lam**(p+1)/8 + (r/c)*(lam**(n+1)/4 + 1) + r/(2a),
    from hi - lo <= (X_hi - X_lo)*S_hi + (S_hi - S_lo) for the factors X and
    the integral bounds S: S_hi <= (a/c)*lam**(n+1); X_hi - X_lo <=
    fleet*Phi_hi + (e**(2*fleet*Phi_lo) - 1); the two integral bounds differ
    by at most (1/4)*((1+y)**-p - (1+y')**-p) <= p*lam**(p+1)/(8a) before
    the rational powers, which add at most (a/c)*r*(y**2*lam**(n+1) + y'**2)
    + r*y'**2/2.  Q falls with a toward fleet*(3*|delta**3 - delta|/24
    + delta*alpha/2)/c + p/8 + 5*r/(4c), so the width is O(b**fleet/tau0)
    against a tail of about (1 + len(mids))*b**fleet*tau0/c.  As b**fleet
    falls about like a**-p, the width falls about like a**-(p+1), the rate
    from which :func:`_first_chunk` sizes a series' first chunk.

    Works for float and Fraction arguments alike (every step is rational);
    raises ValueError when c <= 0, where the sum diverges.  Float brackets
    carry the rounding of their own evaluation; :func:`_series` widens them.
    """
    c = delta * fleet - 1
    if c <= 0:
        raise ValueError(f"series diverges: fleet*delta = {float(c + 1):g} <= 1")
    alpha = (1 + delta) / 2
    cube = abs(delta ** 3 - delta) / 24
    half = Fraction(1, 2) if isinstance(delta, Fraction) else 0.5
    ws = [0, *(o / delta for o in mids)]

    def tail(b: Prob, tau0: int) -> tuple[Prob, Prob]:
        a = tau0 + alpha
        q0 = max(delta, 1) / (2 * a + 1)
        e_bound = cube * (1 + q0 * q0 / 2) / ((1 - q0 * q0) * a * a)
        e_lo, e_hi = (0, e_bound) if delta > 1 else (-e_bound, 0)
        lo = hi = 0
        for w in ws:
            h = delta * (1 - w) / 2
            v, v_mid = a + half + delta * w / 2, a + half * (1 - w)  # at tau = tau0 + 1
            z1, z2 = h / v, h / (delta * v_mid)
            f_hi = e_hi + 2 * z1 ** 3 / (3 * (1 - z1 * z1))
            f_lo = (e_lo - 2 * h * w * alpha / (v * v_mid)
                    - 2 * delta * z2 ** 3 / (3 * (1 - z2 * z2)))
            y_top, y_bot = (half - w) / a, (1 - w) / a
            top = _power_bounds(y_top, c)[1] * a / c
            bot = _power_bounds(y_bot, c)[0] * (a / c + 1 / (2 * (1 + y_bot)))
            lo += max(0, 1 - fleet * f_hi) * bot
            hi += _exp_upper(-fleet * f_lo) * top
        scale = b ** fleet
        return scale * lo, scale * hi

    return tail


def _first_chunk(tail_of: Callable[[float, int], tuple[float, float]], start: int,
                 delta: float, p: float, eps_abs: float) -> int:
    """Taus in the first chunk of a series that starts at start: the power
    of two from _MIN_CHUNK to _TAU_CHUNK at or above need, the taus past
    start after which the tail bracket is about eps_abs/2 wide.

    At tau0 = start - 1, where b = 1, the bracket is top0 - lo0 wide.  Its
    width is at most b**fleet*Q(a)/a with a = tau0 + alpha, alpha =
    (1+delta)/2, b about (a0/a)**delta and Q falling in a
    (:func:`_tail_certificate`), so it falls about like a**-(p+1),
    p = delta*fleet, and reaches eps_abs/2 near
    need = a0*((top0 - lo0)/(eps_abs/2))**(1/(p+1)) - a0.  A short guess
    costs one more chunk, never a wrong sum.  Nothing here raises: a bracket
    that overflows float64 at the start (a fleet in the thousands) or a need
    past _TAU_CHUNK (a tiny eps_abs) gives _TAU_CHUNK.
    """
    a0 = start - 1 + (1 + delta) / 2
    try:
        lo0, top0 = tail_of(1.0, start - 1)
    except OverflowError:
        return _TAU_CHUNK
    need = a0 * (2 * max(top0 - lo0, 0.0) / eps_abs) ** (1 / (p + 1)) - a0
    if not need < _TAU_CHUNK:  # inf or nan as well
        return _TAU_CHUNK
    return 1 << (max(_MIN_CHUNK, math.ceil(need)) - 1).bit_length()


def _series(start: int, scale: float, gap: float, mids: tuple[float, ...], fleet: int,
            head: float, eps_abs: float, max_taus: int) -> tuple[float, float, int]:
    """Certified sum of head and, over tau >= start, b(tau)**fleet plus
    (b(tau-1)*(d+o)/(d+gap))**fleet for each o in mids, where d = tau*scale
    and b(tau) = prod_{s=start}^{tau} d_s/(d_s+gap).

    With scale = c-p, gap = p and mids = (p-1, ..., 1) the terms are
    N(x, p*tau - j), 0 <= j < p, for x in block start of the pool rule (c, p)
    (nested: scale = k-1, gap = 2, mids = (1,)); with scale = 1, gap = delta
    and no mids they are Claim 1's.  In units of scale these are the sequences
    of :func:`_tail_certificate` with delta = gap/scale and offsets o/scale.
    Chunks are added, the first sized by :func:`_first_chunk` and every
    later one _TAU_CHUNK taus, until that bracket on the rest is at most
    eps_abs wide, or more than max_taus taus past start have been summed
    (RuntimeError).  Returns (the sum plus the bracket's lower end, the
    bracket width, the last tau summed), both widened for rounding.

    Rounding.  With u = 2**-53, b(tau) is j = tau - start + 1 factors
    d/(d+gap), d exact, each rounded twice (d + gap, the quotient), and
    j - 1 products, wherever the chunks end: a chunk's cumprod rounds the
    products of its factors after the first, and its multiplication by the
    carried b, itself a product of j_m factors rounded j_m - 1 times (0 in
    the first chunk, where b = 1 is exact), rounds each term once more, so
    the term i factors past the chunk's first is rounded
    (j_m - 1) + i + 1 = j - 1 times in its products, with j = j_m + i + 1.
    The count depends on j alone, not on the chunk sizes, so b(tau) is off
    by under 3j - 1 roundings, an odd step's term by under 3j (b(tau-1) and
    four more: d + o, d + gap, the quotient, the product), and with the
    power every term by under fleet*3j + 2 < fleet*(3j + 6) + 2 ulps of it;
    the pairwise chunk sums (depth below 32) add 32 more.  The tail comes from
    b(hi - 1) and so carries fleet*(3j + 6) ulps at j = hi - start; its float
    evaluation adds under 64 + 8p roundings, p = delta*fleet, and the
    rounded delta = gap/scale moves it by under 8p/c ulps (a term at
    tau > tau0 moves by about p*log(tau/tau0) times delta's error, and that
    log averages 1/c over the tail).  err is u times these counts weighted
    by the terms, the tail's upper end and the total (8 ulps for fsum, the
    additions and the caller's division by x), plus 1% for second-order
    terms (every count stays below 1e13): the sum is lowered by err and the
    width widened by 2*err, so the true sum lies in the returned bracket.
    A later chunk moves tail mass only to weights above fleet*3j, so once
    twice err's part from the terms summed, the tail's lower end at that
    weight and the total exceeds eps_abs, no chunk can certify, and the
    series raises RuntimeError at once.
    """
    delta = gap / scale
    tail_of = _tail_certificate(delta, fleet, tuple(o / scale for o in mids))
    p = delta * fleet
    tail_ulps = 64 + 8 * p + 8 * p / (p - 1)
    parts = [head]
    ulps = 0.0  # the terms so far, each weighted by its count of ulps
    b = 1.0
    tau = start
    chunk = _first_chunk(tail_of, start, delta, p, eps_abs)
    while True:
        hi = tau + chunk
        d = np.arange(tau, hi, dtype=np.float64) * scale
        evens = np.cumprod(d / (d + gap)) * b
        odds = [np.concatenate(([b], evens[:-1])) * ((d + o) / (d + gap)) for o in mids]
        powered = [t ** fleet for t in [*odds, evens]]
        parts.append(float(sum(np.sum(t) for t in powered)))
        # each term's fleet*(3j + 6) + 2 + 32 ulps, with j = tau - start + 1 + offset
        ulps += (3 * fleet * float(sum(np.dot(t, _TAU_OFFSETS[:chunk]) for t in powered))
                 + (3 * fleet * (tau - start + 3) + 34) * parts[-1])
        b = float(evens[-1])
        lo, top = tail_of(b, hi - 1)
        total = math.fsum(parts)
        walked = 3 * fleet * (hi - start)
        err = 1.01 * _ULP * (ulps + (walked + 6 * fleet + tail_ulps) * top + 8 * total)
        if top - lo + 2 * err <= eps_abs:
            return total + lo - err, top - lo + 2 * err, hi - 1
        floor = 2 * _ULP * (ulps + walked * lo + 8 * total)
        if floor > eps_abs:
            raise RuntimeError(f"tail bound cannot reach {eps_abs:.3g}: the float rounding "
                               f"of the sum alone is {floor:.3g}")
        tau, chunk = hi, _TAU_CHUNK
        if tau - start > max_taus:
            raise RuntimeError(f"tail bound {top - lo:.3g} still above {eps_abs:.3g} "
                               f"after {tau - start} taus from tau = {start}")


def _block_sum(kind: StrategyKind, params: SearchParams, blk: int, eps_abs: float,
               fleet: int) -> tuple[float, float, int]:
    """(sum, bracket width, truncation_t) of sum_t N(x, t)**fleet for x in
    block blk = ceil(x/c) of the pool rule (c, p): N is 1 at steps
    0..p*(blk-1), the head, and then falls by (1 - 1/m) per step.  With
    c > p the rest is :func:`_series` with scale c-p, gap p and mids
    (p-1, ..., 1), summed to eps_abs; with c = p the pool runs dry, m falls
    p, p-1, ..., 1 over the block's p steps, and the sum is finite."""
    c, p = kind.pool_rule(params)
    if c == p:
        rest = math.fsum(((p - j) / p) ** fleet for j in range(1, p))
        return p * (blk - 1) + 1 + rest, 0.0, p * blk
    head = p * float(blk) - (p - 1)  # the head p*(blk-1) + 1, from blk in float
    total, width, tau = _series(blk, c - p, p, tuple(range(p - 1, 0, -1)), fleet, head,
                                eps_abs, _MAX_STEPS // p)
    return total, width, p * tau


def _curve(kind: StrategyKind, params: SearchParams, xs: Sequence[int], epsilon: float,
           fleet: int, window: bool) -> list[tuple[int, float, int, float]]:
    """theta (window=False) or theta_window rows for the sorted xs, as
    (x at the max, theta, truncation_t, tail_bound), with one
    :func:`_block_sum` per pool block of c boxes.

    A window [lo, x] of 2c boxes meets at most three pool blocks, and in
    each theta is largest at the block's first x in the window: those are
    the candidates.  A block is summed to epsilon times the least lo of its
    rows, and a window's tail_bound reaches every candidate's bracket top.
    """
    c, _ = kind.pool_rule(params)
    rows = []  # each row's candidates
    eps_abs: dict[int, float] = {}  # xs are sorted, so a block's first row has the least lo
    for x in xs:
        lo = max(1, x - 2 * c + 1) if window else x
        rows.append([lo, *range(lo + c - (lo - 1) % c, x + 1, c)])
        for y in rows[-1]:
            eps_abs.setdefault(-(-y // c), epsilon * lo)
    sums = {blk: _block_sum(kind, params, blk, eps, fleet) for blk, eps in eps_abs.items()}
    out = []
    for cands in rows:
        est = [sums[-(-y // c)] for y in cands]
        th = [total / y for (total, _, _), y in zip(est, cands)]
        j = th.index(max(th))
        tail = max(width / y + (t - th[j]) for (_, width, _), y, t in zip(est, cands, th))
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
    [(_, th, trunc, tail)] = _curve(StrategyKind.nested(), params, [x], epsilon, n_fleet, False)
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
    [(at, th, trunc, tail)] = _curve(StrategyKind.nested(), params, [x], epsilon, n_fleet, True)
    return ThetaEstimate(params.k, at, th, trunc, tail)


def theta_exact_bracket(params: SearchParams, x: int, t_max: int,
                        fleet: int | None = None) -> tuple[Fraction, Fraction]:
    """Exact rational bracket [lo, hi] containing theta (k >= 2, even t_max).

    The partial sum over t <= t_max (:meth:`SurvivalMatrix.power_sum`) plus
    the certified rational lower and upper tail bounds of
    :func:`_tail_certificate`, divided by x, give lo and hi.
    """
    n_fleet = _checked_fleet(params, x, fleet)
    kind = StrategyKind.nested()
    c, p = kind.pool_rule(params)
    if c == p:
        raise ValueError("exact bracket needs k >= 2; k = 1 sums are finite")
    if t_max % p or t_max < kind.entry_step(params, x) + p - 1:
        raise ValueError("t_max must be even and at least the block entry step")
    mids = tuple(Fraction(j, c - p) for j in range(p - 1, 0, -1))
    tail_of = _tail_certificate(Fraction(p, c - p), n_fleet, mids)
    view = SurvivalMatrix(kind, params, exact=True)
    partial = view.power_sum(x, t_max, n_fleet)
    tail_lo, tail_hi = tail_of(view.value(x, t_max), t_max // p)
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
    rows = _curve(StrategyKind.nested(), params, xs, epsilon, params.k, window)
    return [ThetaEstimate(params.k, x, *row[1:]) for x, row in zip(xs, rows)]


def expected_discovery_time(kind: StrategyKind, params: SearchParams, x: int,
                            fleet: int | None = None, epsilon: float = 1e-8) -> float:
    """Exact fleet expected discovery time sum_t N(x, t)**fleet.

    For a partition the time is the first visit step of x among its fleet,
    fleet searcher sid running ``kind.member(sid)``; for a pool sampler it is
    the block sum of :func:`_block_sum`, finite for a rule whose pool runs
    dry (block-random, nested at k = 1) and otherwise certified to
    epsilon*x.
    """
    n_fleet = _checked_fleet(params, x, fleet, epsilon)
    kind.check_fleet(params, n_fleet)
    if kind.randomized:
        c, _ = kind.pool_rule(params)
        return _block_sum(kind, params, -(-x // c), epsilon * x, n_fleet)[0]
    # a (1, 1) member opens own index j at step j
    steps = (kind.member(sid).own_index(params, x) for sid in range(1, n_fleet + 1))
    return float(min(s for s in steps if s is not None))
