"""Gamma products, tail sums, water-filling, and the lower-bound machinery."""

import math

import numpy as np
import pytest

from boxsearch import bounds
from boxsearch.bounds import (
    LowerBoundConfig,
    WaterFillProblem,
    claim1_tail_sum,
    direct_ratio_product,
    gamma_asymptotic_ratio,
    gamma_ratio_product,
    lower_bound_closed_form,
    lowerbound_value,
    optimal_continuous_N,
    random_feasible_f,
    rebalance_pair,
    solve_gamma,
    upper_bound_identity_residual,
    waterfill_closed_form,
    waterfill_grid_oracle,
    waterfill_objective,
    weighted_average_quadrature,
)


def test_gamma_ratio_product_small_cases():
    assert gamma_ratio_product(1, 1, 2.0) == pytest.approx(1 / 3, rel=1e-12)
    # telescoping: (1/2)(2/3)(3/4) = 1/4
    assert gamma_ratio_product(1, 3, 1.0) == pytest.approx(1 / 4, rel=1e-12)


def test_gamma_ratio_product_vs_direct():
    direct = direct_ratio_product(100, 10_000, 2 / 3)
    assert abs(gamma_ratio_product(100, 10_000, 2 / 3) - direct) <= 1e-10 * direct


def test_gamma_ratio_product_domain():
    with pytest.raises(ValueError):
        gamma_ratio_product(0, 5, 1.0)
    with pytest.raises(ValueError):
        gamma_ratio_product(3, 2, 1.0)
    with pytest.raises(ValueError):
        gamma_ratio_product(1, 2, 0.0)


def test_gamma_asymptotic():
    for alpha in (0.5, 1.0, 2.0):
        assert abs(gamma_asymptotic_ratio(1_000_000, alpha) - 1.0) < 1e-3


def test_claim1_values_stay_below_limit():
    # (delta, k) from fleet sizes k: delta = 2/(k-1), limit 1/(delta*k - 1)
    for k in (2, 3, 5):
        delta = 2.0 / (k - 1)
        limit = 1.0 / (delta * k - 1.0)
        value = claim1_tail_sum(10_000, delta, k, tolerance=1e-6)
        assert value <= limit * 1.01


def test_claim1_telescoping_oracle():
    # delta = 1 telescopes: prod = x/(t+1), so the sum is x^2 * sum u^-3
    x = 2_000
    oracle = x * x * math.fsum(1.0 / u ** 3 for u in range(x + 1, 400_000))
    value = claim1_tail_sum(x, 1.0, 3, tolerance=1e-9)
    assert value == pytest.approx(oracle, abs=1e-4)
    # k = 2, delta = 2 telescopes too: prod = x(x+1)/((t+1)(t+2)).  Summed to
    # u = t+1 = T; beyond it each term lies between (x(x+1))**2 times
    # (u+1)**-4 and u**-4, whose sums the integrals from T+2 and from T bracket
    big_t = 400_000
    u = np.arange(x + 1, big_t + 1, dtype=np.float64)
    a = (x * (x + 1.0)) ** 2
    head = math.fsum(a / (u * (u + 1)) ** 2)
    lo, hi = ((head + a * v ** -3 / 3) / x for v in (big_t + 2.0, big_t))
    value = claim1_tail_sum(x, 2.0, 2, tolerance=1e-9)
    assert value <= hi + 4 * math.ulp(hi)
    assert lo <= value + 1e-9 + 4 * math.ulp(lo)


def test_claim1_monotone_in_x():
    v3 = claim1_tail_sum(1_000, 2.0, 2, tolerance=1e-7)
    v4 = claim1_tail_sum(10_000, 2.0, 2, tolerance=1e-7)
    assert v4 >= v3 * 0.95


def test_claim1_divergence_flagged():
    with pytest.raises(ValueError):
        claim1_tail_sum(100, 0.4, 2, tolerance=1e-6)


def test_upper_bound_identity():
    for k in range(2, 51):
        assert upper_bound_identity_residual(k) <= 1e-12


def test_waterfill_symmetric_and_trivial():
    p = WaterFillProblem((2.5,) * 4, 2.0, 2)
    f, alpha = waterfill_closed_form(p)
    assert f == pytest.approx([0.5] * 4, abs=1e-9)
    p0 = WaterFillProblem((1.0, 2.0, 3.0), 0.0, 3)
    f0, _ = waterfill_closed_form(p0)
    assert f0 == pytest.approx([1.0] * 3, abs=1e-9)
    assert waterfill_objective(p0, f0) == pytest.approx(6.0, abs=1e-8)
    assert waterfill_objective(p0, [0.0, 0.0, 0.0]) == 0.0


def test_waterfill_validation():
    with pytest.raises(ValueError):
        WaterFillProblem((1.0, -1.0), 0.5, 2)
    with pytest.raises(ValueError):
        WaterFillProblem((1.0,), 2.0, 2)
    with pytest.raises(ValueError):
        WaterFillProblem((1.0,), 0.5, 1)
    p = WaterFillProblem((1.0, 8.0), 0.5, 2)
    for resolution in (0.0, -1e-6, math.nan):  # none would ever end the zoom
        with pytest.raises(ValueError):
            waterfill_grid_oracle(p, resolution=resolution)


def test_waterfill_pair_example_grid_oracle():
    # weights (1, 8), deficit 1/2: one pair, searched coarse to fine down to 1e-6;
    # a single weight has no pair, so the oracle keeps the only feasible split
    for p in (WaterFillProblem((1.0, 8.0), 0.5, 2), WaterFillProblem((3.0,), 0.25, 3)):
        f, _alpha = waterfill_closed_form(p)
        closed = waterfill_objective(p, f)
        gf, grid = waterfill_grid_oracle(p, resolution=1e-6)
        assert abs(closed - grid) <= 1e-4
        assert sum(1.0 - v for v in gf) == pytest.approx(p.budget, abs=1e-12)
    assert waterfill_grid_oracle(WaterFillProblem((3.0,), 0.25, 3)) == ([0.75], 3.0 * 0.75 ** 3)


def test_pair_grid_search_finds_rebalance_argmin():
    # the oracle's pair search may not call rebalance_pair; the test may
    rng = np.random.default_rng(29)
    cases = [(float(a1), float(a2), float(s), int(k)) for a1, a2, s, k in zip(
        rng.uniform(0.2, 9.0, 300), rng.uniform(0.2, 9.0, 300), rng.uniform(0.0, 2.0, 300),
        rng.integers(2, 5, 300))]
    cases += [(1.0, 9.0, 1.2, 2),  # clamped at 1
              (9.0, 0.2, 1.5, 3),  # clamped at s - 1
              (2.0, 3.0, 0.0, 2),  # s = 0: only f = 0 is feasible
              (2.0, 3.0, 2.0, 4)]  # s = 2: only f = 1 is feasible
    ends = set()
    for a1, a2, s, k in cases:
        want, _ = rebalance_pair(a1, a2, s, k)
        ends.update(e for e, at in (("0", 0.0), ("1", 1.0), ("s-1", s - 1.0)) if want == at)
        for resolution in (1e-6, 1e-7):
            got = bounds._pair_line_grid(a1, a2, s, k, resolution)
            assert max(0.0, s - 1.0) <= got <= min(1.0, s)
            assert abs(got - want) <= resolution, (a1, a2, s, k, resolution)
    assert ends == {"0", "1", "s-1"}


def test_waterfill_random_instances_vs_grid():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        p = WaterFillProblem(tuple(float(v) for v in rng.uniform(0.2, 5.0, n)),
                             float(rng.uniform(0.1, n - 0.1)), k)
        f, _ = waterfill_closed_form(p)
        closed = waterfill_objective(p, f)
        _gf, grid = waterfill_grid_oracle(p, resolution=1e-6)
        assert abs(closed - grid) <= 1e-4
        assert abs(sum(1.0 - v for v in f) - p.budget) <= 1e-10
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in f)


def test_waterfill_never_beaten_by_random_points():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 4))
        p = WaterFillProblem(tuple(float(v) for v in rng.uniform(0.2, 5.0, n)),
                             float(rng.uniform(0.1, n - 0.1)), k)
        f, _ = waterfill_closed_form(p)
        closed = waterfill_objective(p, f)
        probe = random_feasible_f(p, rng)
        assert closed <= waterfill_objective(p, probe) + 1e-9


def test_waterfill_alpha_monotone_continuous_in_budget():
    a = (0.7, 1.9, 3.2, 0.4)
    alphas = []
    grid = np.linspace(0.0, 4.0, 401)
    for budget in grid:
        _, alpha = waterfill_closed_form(WaterFillProblem(a, float(budget), 2))
        alphas.append(alpha)
    diffs = np.diff(alphas)
    assert (diffs <= 1e-9).all()  # deficit up, alpha down
    # no jumps: steps bounded by a Lipschitz estimate on the grid
    assert (np.abs(diffs) <= 0.1).all()


def test_rebalance_pair_cases():
    assert rebalance_pair(3.0, 3.0, 1.0, 2) == pytest.approx((0.5, 0.5))
    assert rebalance_pair(1.0, 1.0, 2.0, 3) == pytest.approx((1.0, 1.0))
    f1, f2 = rebalance_pair(1.0, 16.0, 1.0, 3)
    assert (f1, f2) == pytest.approx((0.8, 0.2), abs=1e-12)
    with pytest.raises(ValueError):
        rebalance_pair(1.0, 1.0, 2.5, 2)
    with pytest.raises(ValueError):
        rebalance_pair(0.0, 1.0, 1.0, 2)


def test_rebalance_pair_matches_fine_grid():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a1, a2 = (float(v) for v in rng.uniform(0.2, 9.0, 2))
        total = float(rng.uniform(0.05, 1.95))
        k = int(rng.integers(2, 5))
        f1, f2 = rebalance_pair(a1, a2, total, k)
        lo, hi = max(0.0, total - 1.0), min(1.0, total)
        g1 = np.linspace(lo, hi, 1_000_001)
        obj = a1 * g1 ** k + a2 * (total - g1) ** k
        best = float(obj.min())
        assert a1 * f1 ** k + a2 * f2 ** k <= best + 1e-4


def test_solve_gamma_idealized_and_bracket():
    # s = 0 with the boundary exponent: gamma = (k+1)/2 * t exactly
    for k in (2, 3, 5):
        for t in (0.0, 1.0, 10.0, 123.5):
            assert solve_gamma(k, 2.0, 0.0, t) == pytest.approx((k + 1) / 2 * t)
    # s > 0: the solution is strictly inside the proven bracket
    k, a, s, t = 2, 2.5, 1.0, 10.0
    g = solve_gamma(k, a, s, t)
    lo = (a + k - 1) / a * t + s
    hi = (a + k - 1) / a * (t + s)
    assert lo < g < hi
    # and satisfies the defining equation
    q = (a + k - 1) / (k - 1)
    rhs = g * (k - 1) / (a + k - 1) * (1 - (s / g) ** q)
    assert g - t - s == pytest.approx(rhs, abs=1e-9)


def test_optimal_continuous_N_clipping_and_shape():
    cfg = LowerBoundConfig(k=2, a=2.5, s=1.0)
    g = solve_gamma(2, 2.5, 1.0, 5.0)
    assert optimal_continuous_N(cfg, g + 1.0, 5.0) == 1.0
    assert optimal_continuous_N(cfg, g / 2, 5.0) == pytest.approx((0.5) ** (2.5 / 1))
    assert optimal_continuous_N(cfg, cfg.s, 0.0) == 1.0
    with pytest.raises(ValueError):
        optimal_continuous_N(cfg, 0.5, 1.0)


def test_optimal_continuous_N_column_constraint():
    # integral of (1 - N(x, t)) over x >= s recovers t; the Gauss-Legendre rule
    # of the lower-bound checks integrates it, shifted to start at s
    cfg = LowerBoundConfig(k=3, a=2.7, s=1.0)
    for t in (0.5, 4.0, 20.0):
        g = solve_gamma(cfg.k, cfg.a, cfg.s, t)
        missing = np.vectorize(lambda u: 1.0 - optimal_continuous_N(cfg, cfg.s + u, t))
        val, _ = bounds._piecewise_quad(missing, g - cfg.s, g - cfg.s)
        assert val == pytest.approx(t, rel=1e-8)


def test_lower_bound_near_limit():
    for k in (2, 3, 5):
        target = 4 * k / (k + 1) ** 2
        assert lower_bound_closed_form(k, 2.001) == pytest.approx(target, rel=0.01)


def test_lower_bound_s_independent_quadrature():
    for s in (0.5, 1.0, 3.0):
        res = lowerbound_value(LowerBoundConfig(k=2, a=3.0, s=s), tolerance=1e-6)
        assert res.rel_gap <= 1e-6
        assert res.value == pytest.approx(lower_bound_closed_form(2, 3.0), rel=1e-12)


def test_weighted_average_dominates_closed_form():
    # the exact cutoff curve can only do better than the bracket substitutions
    for k in (2, 3):
        cfg = LowerBoundConfig(k=k, a=3.0, s=1.0)
        assert weighted_average_quadrature(cfg) >= lower_bound_closed_form(k, 3.0)


def test_quadrature_matches_closed_form():
    # Gauss-Legendre is a different algorithm from the closed form
    for k in (2, 3, 5, 8):
        for a in (2.5, 3.0, 4.0):
            res = lowerbound_value(LowerBoundConfig(k=k, a=a), tolerance=1e-6)
            assert res.rel_gap <= 1e-12, (k, a)
            assert res.quad_error <= 1e-12 * res.value, (k, a)


def test_quadrature_cannot_certify_a_jump(monkeypatch):
    # a jump inside one piece is no polynomial: Q48 and Q24 disagree, and
    # lowerbound_value refuses to certify the bound
    def step(t):
        return np.where(t < 1.3, 1.0, 0.0)

    _, err = bounds._piecewise_quad(step, 4.0, 1.0)
    assert err > 1e-6
    smooth_quad = bounds._piecewise_quad

    def with_jump(f, t_max, scale):
        return smooth_quad(lambda t: f(t) + step(t), t_max, scale)

    monkeypatch.setattr(bounds, "_piecewise_quad", with_jump)
    with pytest.raises(RuntimeError, match="quadrature did not converge"):
        lowerbound_value(LowerBoundConfig(k=2, a=3.0), tolerance=1e-6)


def test_weighted_average_quadrature_value():
    # 0.4333329114588 is scipy's adaptive quadrature of the same integral
    cfg = LowerBoundConfig(k=2, a=3.0, s=1.0)
    assert weighted_average_quadrature(cfg) == pytest.approx(0.4333329114588, rel=1e-8)


def test_lower_bound_config_validation():
    with pytest.raises(ValueError):
        LowerBoundConfig(k=1, a=3.0)
    with pytest.raises(ValueError):
        LowerBoundConfig(k=2, a=2.0)
    with pytest.raises(ValueError):
        LowerBoundConfig(k=2, a=3.0, s=0.0)


@pytest.mark.parametrize("call,message", [
    (lambda: direct_ratio_product(0, 5, 1.0), "need t >= x >= 1, got x=0, t=5"),
    (lambda: direct_ratio_product(5, 4, 1.0), "need t >= x >= 1, got x=5, t=4"),
    (lambda: direct_ratio_product(1, 5, 0.0), "delta must be positive, got 0.0"),
    (lambda: gamma_asymptotic_ratio(0, 1.0), "n and alpha must be positive"),
    (lambda: gamma_asymptotic_ratio(10, -1.0), "n and alpha must be positive"),
    (lambda: bounds.claim1_tail_sum(0, 1.0, 2), "x must be >= 1, got 0"),
    (lambda: bounds.claim1_tail_sum(5, 0.0, 2), "delta must be positive, got 0.0"),
    (lambda: bounds.claim1_tail_sum(5, 1.0, 2, tolerance=0.0),
     "tolerance must be positive, got 0.0"),
    (lambda: upper_bound_identity_residual(1), "identity needs k >= 2, got 1"),
    (lambda: WaterFillProblem((), 0.0, 2), "need at least one weight"),
    (lambda: waterfill_objective(WaterFillProblem((1.0, 2.0), 1.0, 2), [0.5]),
     "expected 2 values, got 1"),
    (lambda: rebalance_pair(1.0, 1.0, 1.0, 1), "exponent k must be >= 2, got 1"),
    (lambda: solve_gamma(1, 3.0, 1.0, 1.0), "k must be >= 2, got 1"),
    (lambda: solve_gamma(2, 1.5, 1.0, 1.0), "weight exponent must be >= 2, got 1.5"),
    (lambda: solve_gamma(2, 3.0, -1.0, 1.0), "s and t must be non-negative"),
    (lambda: solve_gamma(2, 3.0, 1.0, -1.0), "s and t must be non-negative"),
    # checked by LowerBoundConfig, with its messages
    (lambda: lower_bound_closed_form(1, 3.0), "k must be >= 2, got 1"),
    (lambda: lower_bound_closed_form(2, 2.0), "weight exponent must exceed 2, got 2.0"),
])
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
