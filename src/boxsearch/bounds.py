"""Numeric verification of the analytical machinery behind the speed-up limits.

Four families of checks:

- log-gamma evaluation of the survival product prod_{i=x}^t i/(i+delta) and
  the power-law tail sum it controls (summed by the matrix series kernel);
- the water-filling minimizer f_i = min(1, alpha / a_i^(1/(k-1))) of
  sum a_i f_i^k under a total-deficit budget, checked by an independent
  pairwise grid oracle that zooms coarse to fine;
- the continuous optimal survival function and its cutoff curve gamma(t);
- the closed-form weighted-average lower bound on the expected-time ratio,
  cross-checked by Gauss-Legendre quadrature.

The quadrature is a fixed 48-point rule on dyadic pieces, written in numpy,
with the 24-point rule on the same pieces as its error estimate; this module
needs nothing beyond numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import matrix

_MAX_TERMS = 200_000_000  # claim1_tail_sum gives up after this many terms
_MAX_SWEEPS = 60  # pair sweeps in waterfill_grid_oracle
_PAIR_GRID = 201  # points per zoom level of the pair search in _pair_line_grid
_GAUSS_FINE, _GAUSS_COARSE = 48, 24  # Gauss-Legendre points: value, error estimate


def direct_ratio_product(x: int, t: int, delta: float) -> float:
    """prod_{i=x}^t i/(i+delta) by explicit multiplication (oracle path)."""
    if x < 1 or t < x:
        raise ValueError(f"need t >= x >= 1, got x={x}, t={t}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    p = 1.0
    for i in range(x, t + 1):
        p *= i / (i + delta)
    return p


def gamma_ratio_product(x: int, t: int, delta: float) -> float:
    """prod_{i=x}^t i/(i+delta) via log-gamma; relative error ~1e-11.

    The product telescopes into Gamma(t+1)/Gamma(t+1+delta) times
    Gamma(x+delta)/Gamma(x); evaluating log-gammas keeps it stable for spans
    where the direct product would take t-x multiplications.
    """
    if x < 1 or t < x:
        raise ValueError(f"need t >= x >= 1, got x={x}, t={t}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return math.exp(math.lgamma(t + 1) - math.lgamma(t + 1 + delta)
                    + math.lgamma(x + delta) - math.lgamma(x))


def gamma_asymptotic_ratio(n: float, alpha: float) -> float:
    """Gamma(n + alpha) / (Gamma(n) * n**alpha); tends to 1 as n grows."""
    if n <= 0 or alpha <= 0:
        raise ValueError("n and alpha must be positive")
    return math.exp(math.lgamma(n + alpha) - math.lgamma(n) - alpha * math.log(n))


def claim1_tail_sum(x: int, delta: float, k: int, tolerance: float = 1e-6) -> float:
    """(1/x) * sum_{t=x}^inf [prod_{i=x}^t i/(i+delta)]**k, certified truncation.

    Needs delta*k > 1; the summand decays like (x/t)**(delta*k).  The sum is
    the :func:`boxsearch.matrix._series` with scale 1, gap delta and no odd
    steps that starts at x: its certified lower tail is added and summation
    stops once the tail bracket is at most tolerance*x wide, so the true
    value lies in [value, value + tolerance].
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    total, _, _ = matrix._series(x, 1.0, delta, (), k, 0.0, tolerance * x, _MAX_TERMS)
    return total / x


def upper_bound_identity_residual(k: int) -> float:
    """|(2/(k+1)) * (1 + 1/(delta*k - 1)) - 4k/(k+1)**2| with delta = 2/(k-1)."""
    if k < 2:
        raise ValueError(f"identity needs k >= 2, got {k}")
    delta = 2.0 / (k - 1)
    chained = (2.0 / (k + 1)) * (1.0 + 1.0 / (delta * k - 1.0))
    closed = 4.0 * k / (k + 1) ** 2
    return abs(chained - closed)


@dataclass(frozen=True)
class WaterFillProblem:
    """Minimize sum a_i f_i^k over f in [0,1]^n with sum (1 - f_i) = budget."""

    a: tuple[float, ...]
    budget: float
    k: int

    def __post_init__(self) -> None:
        if not self.a:
            raise ValueError("need at least one weight")
        if any(w <= 0 for w in self.a):
            raise ValueError(f"weights must be positive, got {self.a}")
        if not 0 <= self.budget <= len(self.a):
            raise ValueError(f"budget must lie in [0, {len(self.a)}], got {self.budget}")
        if self.k < 2:
            raise ValueError(f"exponent k must be >= 2, got {self.k}")


def waterfill_objective(p: WaterFillProblem, f: Sequence[float]) -> float:
    if len(f) != len(p.a):
        raise ValueError(f"expected {len(p.a)} values, got {len(f)}")
    return math.fsum(w * v ** p.k for w, v in zip(p.a, f))


def waterfill_closed_form(p: WaterFillProblem) -> tuple[list[float], float]:
    """The minimizer f_i = min(1, alpha / a_i^(1/(k-1))) and its alpha.

    The deficit sum (1 - f_i) is continuous and strictly decreasing in alpha
    on [0, max a_i^(1/(k-1))], so bisection to 1e-12 pins the unique alpha
    matching the budget.
    """
    inv = 1.0 / (p.k - 1)
    roots = [w ** inv for w in p.a]

    def deficit(alpha: float) -> float:
        return math.fsum(1.0 - min(1.0, alpha / r) for r in roots)

    lo, hi = 0.0, max(roots)
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if deficit(mid) > p.budget:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    f = [min(1.0, alpha / r) for r in roots]
    return f, alpha


def rebalance_pair(a1: float, a2: float, total: float, k: int) -> tuple[float, float]:
    """Minimize a1*f1^k + a2*f2^k with f1 + f2 = total, f1, f2 in [0, 1].

    Note the pair case is parameterized by the sum of the f's, not by the
    deficit.  The unconstrained optimum splits total in ratio
    r = (a2/a1)^(1/(k-1)) : 1; clamping to the feasible interval
    [max(0, total-1), min(1, total)] keeps both coordinates in [0, 1].
    """
    if a1 <= 0 or a2 <= 0:
        raise ValueError(f"weights must be positive, got {a1}, {a2}")
    if not 0 <= total <= 2:
        raise ValueError(f"total must lie in [0, 2], got {total}")
    if k < 2:
        raise ValueError(f"exponent k must be >= 2, got {k}")
    r = (a2 / a1) ** (1.0 / (k - 1))
    f1 = r / (1.0 + r) * total
    f1 = min(min(1.0, total), max(f1, max(0.0, total - 1.0)))
    return f1, total - f1


def _pair_line_grid(a_i: float, a_j: float, s: float, k: int,
                    resolution: float) -> float:
    """Grid argmin of a_i*f^k + a_j*(s-f)^k over the feasible f range.

    Coarse to fine: a _PAIR_GRID-point grid over [max(0, s-1), min(1, s)],
    then a new one over the two cells around its argmin, until the spacing
    is at most ``resolution``.  The objective is convex in f, so its
    minimum always lies in the two cells around the grid argmin.
    """
    lo, hi = max(0.0, s - 1.0), min(1.0, s)
    while True:
        f = np.linspace(lo, hi, _PAIR_GRID)
        i = int(np.argmin(a_i * f ** k + a_j * (s - f) ** k))
        if f[1] - f[0] <= resolution:
            return float(f[i])
        lo, hi = f[max(i - 1, 0)], f[min(i + 1, _PAIR_GRID - 1)]


def waterfill_grid_oracle(p: WaterFillProblem,
                          resolution: float = 1e-6) -> tuple[list[float], float]:
    """Brute-force grid minimizer, independent of the closed form.

    Every feasible move decomposes into mass exchanges between coordinate
    pairs, so the oracle starts from the equal split and sweeps all pairs,
    re-optimizing each pair by the coarse-to-fine grid search of
    :func:`_pair_line_grid` down to ``resolution``, until a full sweep no
    longer improves.  The objective is convex on a convex set, which makes
    this pairwise descent land at the global optimum to grid accuracy.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    n = len(p.a)
    f = [(n - p.budget) / n] * n  # in [0, 1]: WaterFillProblem keeps 0 <= budget <= n
    best = waterfill_objective(p, f)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(_MAX_SWEEPS):
        improved = False
        for i, j in pairs:
            s = f[i] + f[j]
            fi = _pair_line_grid(p.a[i], p.a[j], s, p.k, resolution)
            cand = list(f)
            cand[i], cand[j] = fi, s - fi
            obj = waterfill_objective(p, cand)
            if obj < best - 1e-15:
                f, best = cand, obj
                improved = True
        if not improved:
            break
    return f, best


def random_feasible_f(p: WaterFillProblem, rng: np.random.Generator) -> list[float]:
    """A random point satisfying the deficit budget, for dominance tests.

    Starts at the centroid and applies random bounded pair exchanges, which
    preserve the budget and the box constraints by construction.
    """
    n = len(p.a)
    d = [p.budget / n] * n
    for _ in range(4 * n):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i == j:
            continue
        lo = -min(d[i], 1.0 - d[j])
        hi = min(1.0 - d[i], d[j])
        step = float(rng.uniform(lo, hi))
        d[i] += step
        d[j] -= step
    return [1.0 - v for v in d]


@dataclass(frozen=True)
class LowerBoundConfig:
    """Power-law weight family for the lower-bound construction.

    Weight density omega(x) ~ 1/x^(a-1) on [s, inf) needs a > 2 strictly for
    its normalizer (a-2)*s^(a-2) to be positive.
    """

    k: int
    a: float
    s: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.a <= 2:
            raise ValueError(f"weight exponent must exceed 2, got {self.a}")
        if self.s <= 0:
            raise ValueError(f"cutoff s must be positive, got {self.s}")


def solve_gamma(k: int, a: float, s: float, t: float) -> float:
    """Cutoff gamma(t) where the optimal survival function reaches 1.

    Solves gamma - t - s = gamma*(k-1)/(a+k-1) * (1 - (s/gamma)^((a+k-1)/(k-1)))
    by bisection inside the proven bracket
    ((a+k-1)/a * t + s,  (a+k-1)/a * (t + s)).  With s = 0 the equation is
    linear and gamma = (a+k-1)/a * t exactly (a -> 2 gives (k+1)/2 * t).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if a < 2:
        raise ValueError(f"weight exponent must be >= 2, got {a}")
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative")
    ratio = (a + k - 1) / a
    if s == 0.0:
        return ratio * t
    if t == 0.0:
        return s
    c = (k - 1) / (a + k - 1)
    q = (a + k - 1) / (k - 1)

    def f(g: float) -> float:
        return g - t - s - g * c * (1.0 - (s / g) ** q)

    lo = ratio * t + s
    hi = ratio * (t + s)
    flo, fhi = f(lo), f(hi)
    eps = 1e-9 * max(1.0, hi)  # roundoff allowance; the true root is strictly inside
    if flo > eps or fhi < -eps:
        raise RuntimeError(f"gamma bracket failed at t={t}: f({lo})={flo}, f({hi})={fhi}")
    if flo >= 0.0:
        return lo
    if fhi <= 0.0:
        return hi
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_continuous_N(config: LowerBoundConfig, x: float, t: float) -> float:
    """Survival value min(1, (x/gamma(t))^(a/(k-1))) of the optimal function."""
    if x < config.s:
        raise ValueError(f"x must be >= s = {config.s}, got {x}")
    g = solve_gamma(config.k, config.a, config.s, t)
    if x >= g:
        return 1.0
    return (x / g) ** (config.a / (config.k - 1))


def lower_bound_closed_form(k: int, a: float) -> float:
    """Weighted-average lower bound on the expected-time ratio.

    Evaluated as the explicit difference of its two integral terms,
    (a/(a+k-1))^a * [k/(a-1) - (a-2)(k-1)/(a-1)^2]; the cutoff s cancels.
    Tends to 4k/(k+1)^2 as a -> 2.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if a <= 2:
        raise ValueError(f"weight exponent must exceed 2, got {a}")
    scale = (a / (a + k - 1)) ** a
    return scale * (k / (a - 1) - (a - 2) * (k - 1) / (a - 1) ** 2)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Built on first use, once per process: importing this module then loads
    no ``numpy.polynomial``, which keeps CLI start-up that does no quadrature
    as it was.  Callers must not write to the arrays.
    """
    return np.polynomial.legendre.leggauss(n)


def _piecewise_quad(f: Callable[[np.ndarray], np.ndarray], t_max: float,
                    scale: float) -> tuple[float, float]:
    """Gauss-Legendre quadrature on [0, t_max] split dyadically from ``scale``.

    The integrands here concentrate near the origin and then decay over many
    decades, so the pieces are [0, scale], [scale, 2 scale], [2 scale,
    4 scale], ... up to t_max.  ``f`` is called once per rule on the array of
    nodes of every piece.  Each piece takes the 48-point rule Q48; the error
    estimate is the sum over the pieces of |Q48 - Q24|, Q24 being the
    24-point rule on the same piece.
    """
    edges = [0.0, min(scale, t_max)]
    while edges[-1] < t_max:
        edges.append(min(2.0 * edges[-1], t_max))
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    mid, half = (0.5 * (lo + hi))[:, None], (0.5 * (hi - lo))[:, None]

    def rule(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return (f(mid + half * nodes) * weights).sum(axis=1) * half[:, 0]

    fine = rule(*_gauss_legendre(_GAUSS_FINE))
    coarse = rule(*_gauss_legendre(_GAUSS_COARSE))
    return float(fine.sum()), float(np.abs(fine - coarse).sum())


@dataclass(frozen=True)
class LowerBoundResult:
    value: float
    quadrature_value: float
    rel_gap: float
    quad_error: float
    t_max: float


def lowerbound_value(config: LowerBoundConfig, tolerance: float = 1e-6) -> LowerBoundResult:
    """Closed-form lower bound, cross-checked by Gauss-Legendre quadrature.

    The defining integral (after the cutoff curve is replaced by its proven
    brackets) is C * integral_0^inf (t + s/k) / (t + s)^a dt with
    C = I*k/(a-1) * (a/(a+k-1))^a and I = (a-2)*s^(a-2).  The head is
    integrated by :func:`_piecewise_quad` on [0, t_max]; t_max is chosen so
    the analytic power-law tail contributes less than ``tolerance`` of the
    value, and the tail is appended in closed form.  Raises if quadrature
    cannot certify agreement within ``tolerance`` (relative): when the rule's
    error estimate or the gap to the closed form exceeds it.
    """
    k, a, s = config.k, config.a, config.s
    value = lower_bound_closed_form(k, a)
    big_i = (a - 2) * s ** (a - 2)
    c = big_i * k / (a - 1) * (a / (a + k - 1)) ** a

    def integrand(t: np.ndarray) -> np.ndarray:
        return c * (t + s / k) / (t + s) ** a

    def tail_from(t: float) -> float:
        u = t + s
        return c * (u ** (2 - a) / (a - 2) - s * (k - 1) / k * u ** (1 - a) / (a - 1))

    t_max = s
    while tail_from(t_max) > tolerance * value:
        t_max *= 2.0
    head, err = _piecewise_quad(integrand, t_max, s)
    if not math.isfinite(head) or err > tolerance * value:
        raise RuntimeError(f"quadrature did not converge: estimate error {err:.3g}")
    quad_value = head + tail_from(t_max)
    rel_gap = abs(quad_value - value) / value
    if rel_gap > tolerance:
        raise RuntimeError(
            f"closed form {value:.12g} and quadrature {quad_value:.12g} "
            f"disagree by {rel_gap:.3g} (> {tolerance:g})")
    return LowerBoundResult(value, quad_value, rel_gap, err, t_max)


def weighted_average_quadrature(config: LowerBoundConfig, t_max: float = 1e6) -> float:
    """Weighted average of the ratio achieved by the optimal survival function.

    Integrates I * (gamma^-a * (gamma - t - s) + gamma^(1-a)/(a-1)) with the
    exact cutoff curve gamma(t) over [0, t_max], dropping the positive tail;
    the result therefore slightly *under*-estimates the true average, which
    itself dominates :func:`lower_bound_closed_form` (the closed form replaces
    gamma by its brackets in the unfavorable direction twice).
    """
    k, a, s = config.k, config.a, config.s
    big_i = (a - 2) * s ** (a - 2)

    def integrand(t: np.ndarray) -> np.ndarray:
        g = np.array([solve_gamma(k, a, s, v) for v in t.ravel().tolist()]).reshape(t.shape)
        return big_i * (g ** (-a) * (g - t - s) + g ** (1 - a) / (a - 1))

    head, _err = _piecewise_quad(integrand, t_max, s)
    if not math.isfinite(head):
        raise RuntimeError("quadrature did not converge")
    return head
