"""Exact survival table, expected-time ratios, and their invariants."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from boxsearch import matrix, sim
from boxsearch.matrix import (
    SurvivalMatrix,
    ThetaEstimate,
    _tail_certificate,
    block_random_survival,
    expected_discovery_time,
    nested_survival,
    speedup_curve,
    survival_row_exact,
    theta,
    theta_exact_bracket,
    theta_window,
)
from boxsearch.strategy import SearchParams, StrategyKind

F = Fraction


def test_nested_survival_reference_table_k2():
    p = SearchParams(2)
    # rows 1-3 of the k=2 table
    assert [nested_survival(p, 1, t, exact=True) for t in range(5)] == \
        [F(1), F(2, 3), F(1, 3), F(1, 4), F(1, 6)]
    # rows 4-6
    assert nested_survival(p, 4, 3, exact=True) == F(3, 4)
    assert nested_survival(p, 4, 4, exact=True) == F(1, 2)
    # outside the pool the box is untouched: N = 1 whenever x > ceil(t/2)*(k+1)
    for t in range(0, 9):
        assert nested_survival(p, math.ceil(t / 2) * 3 + 1, t, exact=True) == 1


def test_nested_survival_k1_pool_exhaustion():
    assert nested_survival(SearchParams(1), 1, 2, exact=True) == 0


def test_nested_survival_rejects_bad_args():
    p = SearchParams(2)
    with pytest.raises(ValueError):
        nested_survival(p, 0, 1)
    with pytest.raises(ValueError):
        nested_survival(p, 1, -1)


def test_nested_survival_monte_carlo_oracle():
    # k=3, x=8, t=6 checked against 10^6 simulated searchers
    p = SearchParams(3)
    nested = StrategyKind.nested()
    exact = nested_survival(p, 8, 6)
    assert nested_survival(p, 8, 6, exact=True) == F(1, 2)
    trials = 1_000_000
    seeds = np.arange(trials, dtype=np.uint64)  # trial seeds 0..trials-1, searcher 1
    hits = np.count_nonzero(sim._pool_hit_times(nested, p, 8, seeds, 1, 6))
    unvisited = 1 - hits / trials
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(unvisited - exact) < 4 * se


def test_one_nested_recurrence_float_and_exact():
    # the module functions and the cached SurvivalMatrix rows come from one
    # recurrence for both pool samplers, so they agree bit for bit
    cases = [(StrategyKind.nested(), SearchParams(k), k + 1,
              partial(nested_survival, SearchParams(k))) for k in (1, 2, 3, 5)]
    cases += [(StrategyKind.block_random(b), SearchParams(2), b,
               partial(block_random_survival, b)) for b in (1, 2, 3, 5)]
    for kind, p, w, single in cases:
        view = SurvivalMatrix(kind, p)
        exact_view = SurvivalMatrix(kind, p, exact=True)
        for x in (1, w, w + 1, 3 * w, 5 * w + 1, 17 * w, 40 * w):
            for t in range(121):
                assert single(x, t).hex() == view.value(x, t).hex()
            row = exact_view.row(x, 120)
            assert row == [exact_view.value(x, t) for t in range(121)]
            assert row[120] == single(x, 120, exact=True)
            if kind == StrategyKind.nested():
                assert survival_row_exact(p, x, 120) == row


def test_block_random_rows_match_closed_form():
    # oracle: block j = ceil(x/b) opens after (j-1)*b steps, and each of its
    # next b steps opens one of its boxes uniformly, so after done of them
    # N(x, t) = (b - done)/b; the recurrence telescopes to that exactly, and
    # its float rows round to within 1e-15 relative
    for b in (1, 2, 3, 5, 7):
        kind = StrategyKind.block_random(b)
        exact = SurvivalMatrix(kind, SearchParams(2), exact=True)
        approx = SurvivalMatrix(kind, SearchParams(2))
        for x in range(1, 61):
            start = (x + b - 1) // b * b - b
            want = [F(max(0, b - max(0, t - start)), b) for t in range(61)]
            assert exact.row(x, 60) == want
            for got, w in zip(approx.row(x, 60), want):
                assert abs(got - w) <= 1e-15 * w


def test_row_equals_value_for_every_strategy():
    p = SearchParams(3)
    kinds = [StrategyKind.nested(), StrategyKind.block_random(1), StrategyKind.block_random(4),
             StrategyKind.solo(), *(StrategyKind.coordinated(i) for i in (1, 2, 3))]
    for kind in kinds:
        for exact in (False, True):
            rows, cells = SurvivalMatrix(kind, p, exact), SurvivalMatrix(kind, p, exact)
            for x in (1, 2, 4, 5, 9, 13, 30):
                for t_max in (0, 1, 6, 40):
                    row = rows.row(x, t_max)
                    want = [cells.value(x, t) for t in range(t_max + 1)]
                    assert [type(v) for v in row] == [type(v) for v in want]
                    assert row == want
                    if not exact:
                        assert [v.hex() for v in row] == [v.hex() for v in want]
    with pytest.raises(ValueError):
        SurvivalMatrix(StrategyKind.nested(), p).row(0, 3)
    with pytest.raises(ValueError):
        SurvivalMatrix(StrategyKind.solo(), p).row(1, -1)


def test_block_random_survival_reference_table():
    assert [block_random_survival(3, 1, t, exact=True) for t in range(4)] == \
        [F(1), F(2, 3), F(1, 3), F(0)]
    assert block_random_survival(3, 4, 4, exact=True) == F(2, 3)
    assert block_random_survival(3, 4, 6, exact=True) == F(0)
    # degenerate block is exhaustive search
    for x in (1, 4, 9):
        for t in range(12):
            assert block_random_survival(1, x, t) == (1.0 if t < x else 0.0)


def test_row_monotone_and_block_equality():
    for k in (1, 2, 3, 5):
        p = SearchParams(k)
        view = SurvivalMatrix(StrategyKind.nested(), p, exact=True)
        for x in range(1, 3 * (k + 1) + 1):
            prev = F(1)
            for t in range(0, 40):
                v = view.value(x, t)
                assert v <= prev
                prev = v
        # all rows of one block are equal
        for t in range(0, 40):
            for block_start in (1, k + 2, 2 * k + 3):
                vals = {view.value(x, t) for x in range(block_start, block_start + k + 1)}
                assert len(vals) == 1


def test_column_identity_exact():
    for k in (1, 2, 3, 5, 10):
        p = SearchParams(k)
        view = SurvivalMatrix(StrategyKind.nested(), p, exact=True)
        for t in range(0, 51):
            assert view.column_sum_residual(t) == 0


def test_column_identity_example_k2_t4():
    p = SearchParams(2)
    view = SurvivalMatrix(StrategyKind.nested(), p, exact=True)
    # column t=4: 3*(1 - 1/6) + 3*(1 - 1/2) = 4
    assert view.column_sum_residual(4) == 0


def test_column_identity_other_strategies():
    p = SearchParams(2)
    for kind in (*map(StrategyKind.block_random, (1, 2, 3, 5)), StrategyKind.solo(),
                 StrategyKind.coordinated(2)):
        view = SurvivalMatrix(kind, p, exact=True)
        for t in range(0, 30):
            assert view.column_sum_residual(t) == 0


def test_column_residual_sees_a_revisiting_map(monkeypatch):
    # the 0/1 strategies sum 1 - N down the column like the others, so a map
    # that opens box 1 at every step leaves a residual of t - 1
    view = SurvivalMatrix(StrategyKind.coordinated(2), SearchParams(2), exact=True)
    monkeypatch.setattr(StrategyKind, "visit_step",
                        lambda self, params, x: 1 if x == 1 else None)
    assert view.column_sum_residual(10) == 9


def test_coordinated_survival_values():
    p = SearchParams(3)
    # searcher 2 opens 2, 5, 8, ... at times 1, 2, 3, ...
    view = SurvivalMatrix(StrategyKind.coordinated(2), p)
    assert view.value(8, 2) == 1.0
    assert view.value(8, 3) == 0.0
    assert view.value(7, 100) == 1.0  # never on its arithmetic path
    solo = SurvivalMatrix(StrategyKind.solo(), p)
    assert solo.value(5, 4) == 1.0 and solo.value(5, 5) == 0.0
    assert all(type(view.value(x, 3)) is float for x in (7, 8))
    exact = SurvivalMatrix(StrategyKind.coordinated(2), p, exact=True)
    assert [exact.value(8, t) for t in (2, 3)] == [F(1), F(0)]
    assert all(type(exact.value(x, 3)) is F for x in (7, 8))
    with pytest.raises(ValueError):
        SurvivalMatrix(StrategyKind.coordinated(4), p).value(1, 1)


def test_product_formula_agreement():
    # N((k+1)x', 2t') equals prod_{i=x'}^{t'} i/(i + 2/(k-1)), exactly in
    # rationals and to 1e-12 relative in floats
    for k in (2, 3, 5):
        p = SearchParams(k)
        delta = p.delta_exact
        for xp in range(1, 16):
            row = survival_row_exact(p, (k + 1) * xp, 50)
            for tp in range(xp, 26):
                product = math.prod(
                    (F(i) / (i + delta) for i in range(xp, tp + 1)), start=F(1))
                assert row[2 * tp] == product
                approx = nested_survival(p, (k + 1) * xp, 2 * tp)
                assert abs(approx - product) <= 1e-12 * product


def test_theta_k1_matches_enumeration_oracle():
    # oracle: the k=1 sampler opens pool pairs {2j-1, 2j} in random order,
    # so E[T_x] enumerates two equally likely visit times
    p = SearchParams(1)
    for x in range(1, 51):
        j = (x + 1) // 2
        t1, t2 = 2 * j - 1, 2 * j
        oracle = F(t1 + t2, 2) / x
        est = theta(p, x)
        assert est.tail_bound == 0.0
        assert abs(est.theta - oracle) < 1e-12
        assert 1 - 1 / x <= est.theta <= 1 + 3 / x


def test_theta_k2_x3_rational_bracket():
    p = SearchParams(2)
    row = survival_row_exact(p, 3, 6)
    assert row[:6] == [F(1), F(2, 3), F(1, 3), F(1, 4), F(1, 6), F(2, 15)]
    lo, hi = theta_exact_bracket(p, 3, 400)
    est = theta(p, 3, epsilon=1e-12)
    assert lo <= est.theta + est.tail_bound and est.theta <= hi


def test_theta_k2_large_x_window():
    est = theta(SearchParams(2), 9999, epsilon=1e-8)
    assert 0.87 <= est.theta <= 0.91
    # the reported value understates the ratio by at most tail_bound
    assert est.tail_bound <= 1e-8


def test_theta_two_sided_tail_against_k2_closed_form():
    # oracle: for k = 2 the survival telescopes.  With B = block_of(x),
    # N(x, t) = 1 for t <= 2B-2, N(x, 2τ-1) = B(B+1)/(τ(τ+2)) and
    # N(x, 2τ) = B(B+1)/((τ+1)(τ+2)) for τ >= B, so the series is summed
    # directly, without the recurrence or the tail certificate, to τ = T;
    # beyond T both terms lie between (B(B+1))**f times (τ+2)**-2f and τ**-2f,
    # whose sums the integrals from T+3 and from T bracket
    p = SearchParams(2)
    for blk in (1, 2, 3):
        row = survival_row_exact(p, 3 * blk, 60)
        a = blk * (blk + 1)
        assert all(row[2 * t - 1] == F(a, t * (t + 2)) and row[2 * t] == F(a, (t + 1) * (t + 2))
                   for t in range(blk, 31))
    big_t, cut = 200_000, 100  # blocks up to cut share one sum of the terms beyond τ = cut
    tau = np.arange(1, big_t + 1, dtype=np.float64)
    brackets = {}
    for fleet in (2, 3):
        odd = (1 / (tau * (tau + 2))) ** fleet
        even = (1 / ((tau + 1) * (tau + 2))) ** fleet
        far = math.fsum(np.concatenate((odd[cut:], even[cut:])))
        rest = [2 * v ** (1 - 2 * fleet) / (2 * fleet - 1) for v in (big_t + 3.0, big_t)]
        for x in range(1, 3 * cut + 1):
            blk = (x + 2) // 3
            s = math.fsum([far, *odd[blk - 1:cut], *even[blk - 1:cut]])
            brackets[x, fleet] = [(2 * blk - 1 + (blk * (blk + 1)) ** fleet * (s + r)) / x
                                  for r in rest]

    def contains(est, xs, fleet):
        lo = max(brackets[x, fleet][0] for x in xs)
        hi = max(brackets[x, fleet][1] for x in xs)
        assert hi - lo < 1e-13  # the oracle is tight
        slack = 4 * math.ulp(hi)
        return est.theta <= hi + slack and lo <= est.theta + est.tail_bound + slack

    for eps in (1e-6, 1e-10):
        for fleet in (2, 3):
            for x in (1, 2, 3, 5, 8, 9):
                assert contains(theta(p, x, eps, fleet=fleet), [x], fleet)
        # whole curves, one series per block; a window row brackets the window's max
        for window in (False, True):
            for est in speedup_curve(p, range(1, 3 * cut + 1), eps, window=window):
                xs = range(max(1, est.x - 5), est.x + 1) if window else [est.x]
                assert contains(est, xs, 2) and est.tail_bound <= eps


def test_tail_certificate_brackets_directly_summed_tail():
    # rational (lo, hi) at small τ0 against the tail sum_{t > 2τ0} N(1, t)**fleet
    # summed from the float recurrence up to t = 2T: that partial sum is
    # itself below the tail, so lo <= partial proves lo a lower bound, and T
    # is far enough out for it to hold.  The pairs cover c = δ*fleet - 1
    # below 1, at 1, and far above 1, where lo is clamped to 0 while
    # τ0 + 1 <= c
    big_t = 20_000
    for k, fleets in ((2, (2, 3, 8)), (3, (2, 12)), (5, (3, 4))):
        p = SearchParams(k)
        row = SurvivalMatrix(StrategyKind.nested(), p).row(1, 2 * big_t)
        delta = p.delta_exact
        for fleet in fleets:
            tail_of = _tail_certificate(delta, fleet)
            c = delta * fleet - 1
            terms = np.array(row) ** fleet
            for tau0 in (1, 2, 3, 5, 10, 30):
                b = survival_row_exact(p, 1, 2 * tau0)[-1]
                lo, hi = tail_of(b, tau0)
                assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
                direct = math.fsum(terms[2 * tau0 + 1:])
                assert 0 <= lo <= direct * (1 + 1e-12)
                assert direct <= hi
                assert hi - lo <= 2 * b ** fleet * (1 + (1 + delta + max(c, 1)) / c)
                if tau0 + 1 <= c:
                    assert lo == 0


def test_theta_work_stays_near_block_entry():
    # a work count, not a timing: the two-sided tail stops a few chunks after
    # the row leaves 1 (step 2*block - 1, which is 499 999 for k = 3 at
    # x = 1e6); a rule that waits for the whole tail to drop below epsilon*x
    # needs 1.6e8 steps (k = 8) and 7.9e8 steps (k = 3) here
    assert theta(SearchParams(8), 10_000, 1e-7).truncation_t <= 2 ** 18
    assert theta(SearchParams(3), 1_000_000, 1e-7).truncation_t <= 2 ** 22


def test_speedup_curve_sums_each_block_once(monkeypatch):
    # a work count: the 4000 rows of range(1, 4001) read 1000 pool blocks,
    # with or without windows, and each block's series is summed once
    calls = []

    def counted(start, *args):
        calls.append(start)
        return series(start, *args)

    series = matrix._series
    monkeypatch.setattr(matrix, "_series", counted)
    for window in (False, True):
        calls.clear()
        rows = speedup_curve(SearchParams(3), range(1, 4001), window=window)
        assert len(rows) == 4000 and sorted(calls) == list(range(1, 1001))
        # a shared block is bracketed for the least x (or window start) that reads it
        rows = speedup_curve(SearchParams(10), range(1, 60), 1e-11, window=window)
        assert all(r.tail_bound <= 1e-11 for r in rows)
    # a far-off x does not make the small one's series run longer
    p = SearchParams(2)
    near, far = speedup_curve(p, [1, 10 ** 8])
    assert near.truncation_t == theta(p, 1).truncation_t
    assert far.truncation_t == theta(p, 10 ** 8).truncation_t


def test_theta_rejects_bad_args(monkeypatch):
    p = SearchParams(2)
    with pytest.raises(ValueError):
        theta(p, 0)
    with pytest.raises(ValueError):
        theta(p, 10, epsilon=0.0)
    with pytest.raises(ValueError):
        theta(p, 10, fleet=0)
    with pytest.raises(ValueError):
        theta(SearchParams(5), 10, fleet=1)  # survival tail too heavy for a mean
    monkeypatch.setattr(matrix, "_MAX_STEPS", 1_000)
    with pytest.raises(RuntimeError):
        theta(p, 10_000, epsilon=1e-9)


def test_speedup_curve_limits():
    xs = [10_000]
    for k, limit in ((1, 1.0), (2, 9 / 8), (3, 4 / 3)):
        pts = speedup_curve(SearchParams(k), xs, epsilon=1e-7, window=True)
        assert pts[0].speedup == pytest.approx(limit, rel=0.02)


def test_speedup_curve_rows_ordered_and_csv():
    p = SearchParams(2)
    for window in (False, True):
        pts = speedup_curve(p, [300, 100, 200], epsilon=1e-6, window=window)
        assert all(isinstance(pt, ThetaEstimate) for pt in pts)
        # window rows keep the requested x, not the x that attains the max
        assert [pt.x for pt in pts] == [100, 200, 300]


def test_theta_window_dominates_pointwise():
    p = SearchParams(3)
    win = theta_window(p, 1000, epsilon=1e-6)
    for x in range(993, 1001):
        assert theta(p, x, epsilon=1e-6).theta <= win.theta + 1e-12


def test_expected_discovery_time_closed_forms():
    p = SearchParams(3)
    assert expected_discovery_time(StrategyKind.solo(), p, 7) == 7
    assert expected_discovery_time(StrategyKind.coordinated(1), p, 8) == 3
    # block-random fleet of k: (j-1)b + 1 + sum_{i<b} ((b-i)/b)^k
    e = expected_discovery_time(StrategyKind.block_random(3), SearchParams(1), 1, fleet=1)
    assert e == pytest.approx(2.0)
    e = expected_discovery_time(StrategyKind.block_random(3), SearchParams(2), 4)
    assert e == pytest.approx(3 + 1 + (2 / 3) ** 2 + (1 / 3) ** 2)


def test_theta_fleet_override_matches_design():
    # one extra searcher joins a k=2 design; exponent 3 decays fast enough
    # that the truncated rational row is an effectively exact oracle
    p2 = SearchParams(2)
    est = theta(p2, 200, epsilon=1e-10, fleet=3)
    brute = sum(float(v) ** 3 for v in survival_row_exact(p2, 200, 20_000)) / 200
    assert est.theta == pytest.approx(brute, abs=1e-8)
