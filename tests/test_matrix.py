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


# the pool rules written out (as in test_strategy.test_pool_rule): the pool
# limit at step t is ceil(t/2)*(k+1) nested and ceil(t/b)*b block-random
POOL_RULES = [(StrategyKind.nested(), SearchParams(k), lambda t, k=k: math.ceil(t / 2) * (k + 1))
              for k in (1, 2, 3, 4, 5, 10)]
POOL_RULES += [(StrategyKind.block_random(b), SearchParams(2), lambda t, b=b: math.ceil(t / b) * b)
               for b in (1, 2, 3, 5)]


def test_exact_cells_equal_fraction_products():
    # every exact cell is the product of Fraction(m - 1, m) over the steps
    # from x's entry step to t, m = limit(t) - (t - 1) unvisited pool members,
    # and is served as a Fraction
    for kind, p, limit in POOL_RULES:
        view = SurvivalMatrix(kind, p, exact=True)
        for x in range(1, 61):
            want, cell = [], F(1)
            for t in range(121):
                if limit(t) >= x:
                    m = limit(t) - (t - 1)
                    cell *= F(m - 1, m)
                want.append(cell)
            row = view.row(x, 120)
            assert row == want, (kind, x)
            assert all(type(v) is F for v in row)
            assert [view.value(x, t) for t in (0, 7, 120)] == [want[0], want[7], want[120]]


def test_exact_cells_stay_in_lowest_terms():
    # the cached integer cells of box 1 are coprime pairs below 2**32 (27-28
    # bits) out to t = 20000 for k = 2, 3; numerators kept over the product of
    # the sizes m would grow by log2(m) bits a step
    for k in (2, 3):
        view = SurvivalMatrix(StrategyKind.nested(), SearchParams(k), exact=True)
        row = view.row(1, 20_000)
        nums, dens = view._exact_cells(1, 20_000)
        assert len(nums) == len(dens) == len(row)
        assert max(dens).bit_length() <= 32  # below 2**32
        assert all(math.gcd(n, d) == 1 for n, d in zip(nums, dens))
        assert [(v.numerator, v.denominator) for v in row] == list(zip(nums, dens))


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
    views = [(kind, p) for kind in kinds] + [(StrategyKind.nested(), SearchParams(1))]
    for kind, p in views:
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


# rules whose rows run dry, falling to 0 for good at a step where m = 1, as
# (kind, params, p, the step at which x's row reaches 0 or None): block-random
# and nested k = 1 at the end of x's block of p steps, a partition member at
# its visit step (p = 1)
DRY_RULES = [(StrategyKind.block_random(b), SearchParams(2), b, lambda x, b=b: b * -(-x // b))
             for b in (1, 2, 3, 5)]
DRY_RULES += [(StrategyKind.nested(), SearchParams(1), 2, lambda x: 2 * -(-x // 2)),
              (StrategyKind.solo(), SearchParams(3), 1, lambda x: x)]
DRY_RULES += [(StrategyKind.coordinated(i), SearchParams(3), 1,
               lambda x, i=i: None if (x - i) % 3 else (x - i) // 3 + 1) for i in (1, 2, 3)]


def test_rows_that_run_dry():
    # one view serves value and row in either order at steps before, at and
    # past a row's zero; every cached row, a (1, 1) row's too, starts at the
    # step before its entry step and ends at that zero, and the column
    # identity holds (float block-random cells carry their rounding)
    for kind, p, steps, dry in DRY_RULES:
        for exact in (False, True):
            one, zero = (F(1), F(0)) if exact else (1.0, 0.0)
            for row_first in (False, True):
                view = SurvivalMatrix(kind, p, exact)
                for x in (1, 2, 5, 9, 13, 30):
                    z = dry(x)
                    if z is None:
                        assert view.row(x, 40) == [one] * 41
                        assert view.value(x, 40) == one
                        continue
                    t_max = z + 7
                    row = view.row(x, t_max) if row_first else None
                    got = [view.value(x, t) for t in (z - 1, z, z + 1, t_max)]
                    row = row or view.row(x, t_max)
                    assert got[0] > 0 and got[1:] == [zero] * 3, (kind, x)
                    assert all(v > 0 for v in row[:z]) and row[z:] == [zero] * 8, (kind, x)
                    assert all(type(v) is type(one) for v in row + got)
                    first = z - steps + 1  # the entry step of x's own index
                    cached = view._cells[first][0] if exact else view._rows[first]
                    assert len(cached) == steps + 1, (kind, x, exact)
                    assert cached[0] == 1 and cached[-1] == 0, (kind, x, exact)
                    assert all(v > 0 for v in cached[:-1]), (kind, x, exact)
            view = SurvivalMatrix(kind, p, exact)
            for t in range(61):
                residual = view.column_sum_residual(t)
                assert residual == 0 if exact else residual <= 1e-12, (kind, t)


def test_slab_hands_out_each_distinct_row_once():
    # x's row depends only on its first step (the entry step of its own
    # index), clipped to t_max + 1 where the row stays 1:
    # the slab holds one row per such step, in order of first use, and
    # equals row() cell by cell (exact cells as the text of their Fraction)
    p = SearchParams(3)
    kinds = [StrategyKind.nested(), StrategyKind.block_random(1), StrategyKind.block_random(4),
             StrategyKind.solo(), *(StrategyKind.coordinated(i) for i in (1, 2, 3))]
    for kind in kinds:
        def first(p, x, kind=kind):
            own = kind.own_index(p, x)
            return own and kind.entry_step(p, own)

        for exact in (False, True):
            for x_max, t_max in ((1, 0), (30, 0), (30, 6), (30, 40), (5, 40)):
                view = SurvivalMatrix(kind, p, exact)
                rows, which = view.slab(x_max, t_max)
                steps = [min(t_max + 1, first(p, x) or t_max + 1) for x in range(1, x_max + 1)]
                assert len(rows) == len(set(steps))
                assert which == [list(dict.fromkeys(steps)).index(s) for s in steps]
                cell = str if exact else float
                for x, i in zip(range(1, x_max + 1), which):
                    assert rows[i] == [cell(v) for v in view.row(x, t_max)], (kind, x)
                    assert all(type(v) is cell for v in rows[i])
    with pytest.raises(ValueError):
        SurvivalMatrix(StrategyKind.nested(), p).slab(0, 3)
    with pytest.raises(ValueError):
        SurvivalMatrix(StrategyKind.solo(), p).slab(1, -1)


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


def column_residual_by_box(view, t):
    """|sum_{x <= support_limit(t)} (1 - N(x, t)) - t|, box by box."""
    return abs(sum(1 - view.value(x, t) for x in range(1, view.support_limit(t) + 1)) - t)


def test_column_residual_equals_box_by_box_sum():
    for kind, p, _ in POOL_RULES:
        view = SurvivalMatrix(kind, p, exact=True)
        for t in range(61):
            got = view.column_sum_residual(t)
            assert type(got) is F
            assert got == column_residual_by_box(view, t) == 0, (kind, p.k, t)


def test_column_residual_reads_the_cached_cells():
    # overwrite one cached cell: the residual of its column moves by the
    # boxes sharing that row times the change, and no other column moves
    for kind, p, first, t in [(StrategyKind.nested(), SearchParams(2), 3, 9),
                              (StrategyKind.nested(), SearchParams(5), 1, 20),
                              (StrategyKind.block_random(3), SearchParams(2), 4, 5)]:
        view = SurvivalMatrix(kind, p, exact=True)
        assert view.column_sum_residual(t) == 0
        nums, dens = view._exact_cells(first, t)
        nums[t - first + 1] += 1  # the cached row starts at step first - 1
        boxes = [x for x in range(1, view.support_limit(t) + 1)
                 if kind.entry_step(p, x) == first]
        assert view.column_sum_residual(t) == F(len(boxes), dens[t - first + 1])
        assert view.column_sum_residual(t) == column_residual_by_box(view, t)
        assert [view.column_sum_residual(s) for s in range(t)] == [0] * t


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


def test_column_identity_caches_rows_from_their_entry_step():
    # a cached row starts at the step before its entry step, so a rule whose
    # rows run dry (block-random(1), nested at k = 1) keeps at most p + 1
    # cells a row however late its boxes enter
    for kind, params in ((StrategyKind.block_random(1), SearchParams(2)),
                         (StrategyKind.nested(), SearchParams(1))):
        _, p = kind.pool_rule(params)
        for exact in (True, False):
            view = SurvivalMatrix(kind, params, exact)
            assert view.column_sum_residual(3000) == 0
            rows = [nums for nums, _ in view._cells.values()] if exact else view._rows.values()
            assert len(rows) >= 3000 // p
            assert max(map(len, rows)) <= p + 1, (kind, exact)


def test_column_residual_sees_a_revisiting_map(monkeypatch):
    # a partition member's column is summed box by box, so a box map that
    # opens box 1 at every step (no other box has an own index) leaves a
    # residual of t - 1
    view = SurvivalMatrix(StrategyKind.coordinated(2), SearchParams(2), exact=True)
    monkeypatch.setattr(StrategyKind, "own_index",
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
        delta = F(2, k - 1)
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


def test_theta_exact_bracket_equals_fraction_sum():
    # oracle: the partial sum taken cell by cell in Fraction arithmetic
    for k in (2, 3, 5):
        p = SearchParams(k)
        tail_of = _tail_certificate(F(2, k - 1), k, (F(1, k - 1),))
        for x in (1, 3, 10, 40):
            for t_max in (2 * -(-x // (k + 1)), 400):
                row = survival_row_exact(p, x, t_max)
                partial = sum(v ** k for v in row)
                lo, hi = tail_of(row[t_max], t_max // 2)
                assert theta_exact_bracket(p, x, t_max) == (F(partial + lo, x), F(partial + hi, x))
    view = SurvivalMatrix(StrategyKind.nested(), SearchParams(2))
    assert view.power_sum(9, 2, 3) == 3  # before x enters the pool every cell is 1


def test_theta_k2_large_x_window():
    est = theta(SearchParams(2), 9999, epsilon=1e-8)
    assert 0.87 <= est.theta <= 0.91
    # the reported value understates the ratio by at most tail_bound
    assert est.tail_bound <= 1e-8


def test_theta_two_sided_tail_against_k2_closed_form():
    # oracle: for k = 2 the survival telescopes.  With B = ceil(x/3),
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
    # itself below the tail, so direct <= hi tests hi, and lo is tested
    # against the partial sum plus a first-order upper bound on the rest,
    # 2*N(1, 2T)**fleet*(1 + (T+1+δ)/c): each term past 2T is at most
    # b(τ-1)**fleet with b(τ) <= b(T)*((T+1+δ)/(τ+1+δ))**δ.  The pairs cover
    # c = δ*fleet - 1 below 1, at 1, and far above 1
    big_t = 20_000
    for k, fleets in ((2, (2, 3, 8)), (3, (2, 12)), (5, (3, 4))):
        p = SearchParams(k)
        row = SurvivalMatrix(StrategyKind.nested(), p).row(1, 2 * big_t)
        delta = F(2, k - 1)
        for fleet in fleets:
            tail_of = _tail_certificate(delta, fleet, (delta / 2,))
            c = delta * fleet - 1
            terms = np.array(row) ** fleet
            rest = 2 * terms[-1] * (1 + (big_t + 1 + float(delta)) / float(c))
            for tau0 in (1, 2, 3, 5, 10, 30):
                b = survival_row_exact(p, 1, 2 * tau0)[-1]
                lo, hi = tail_of(b, tau0)
                assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
                direct = math.fsum(terms[2 * tau0 + 1:])
                assert 0 <= lo <= (direct + rest) * (1 + 1e-12)
                assert direct <= hi
                assert hi - lo <= 2 * b ** fleet * (1 + (1 + delta + max(c, 1)) / c)


def _width_constant(delta, fleet, seqs, a):
    """seqs * Q(a) of :func:`matrix._tail_certificate`'s width bound: the
    bracket is at most seqs*Q(a)*b**fleet/a wide, with a = τ0 + (1+δ)/2."""
    c, p, alpha = delta * fleet - 1, delta * fleet, (1 + delta) / 2
    n, lam = math.floor(c), 2 * a / (2 * a - 1)
    r = c - n
    cube = abs(delta ** 3 - delta) / 24
    q0 = max(delta, 1) / (2 * a + 1)
    e_term = cube * (1 + q0 * q0 / 2) / ((1 - q0 * q0) * a * a)
    phi_hi = e_term + 2 * q0 ** 3 / (3 * (1 - q0 * q0))
    phi_lo = e_term + delta * alpha / (4 * a * a) + delta / (12 * a ** 3 - 3 * a)
    q = (a * a / c * lam ** (n + 1) * fleet
         * (phi_hi + 2 * phi_lo * math.exp(2 * fleet * phi_lo))
         + p * lam ** (p + 1) / 8 + r / c * (lam ** (n + 1) / 4 + 1) + r / (2 * a))
    return seqs * q


def test_second_order_tail_certificate_against_direct_sums():
    # oracle: with b(τ0) = 1 each sequence's terms, b(τ-1)*(τ+o)/(τ+δ) with
    # b(τ) = prod_{τ0<s<=τ} s/(s+δ), summed directly for n taus past τ0,
    # plus a first-order bracket on the rest past N = τ0 + n: for τ > N
    # b(τ) >= b(N)*(N/τ)**δ (log(1 + δ/s) <= δ/s), every term is at least
    # b(τ) and at most b(τ-1) <= b(N)*((N+1+δ)/(τ+δ))**δ, so each sequence's
    # rest lies in [b(N)**f * N**p*(N+1)**-c/c, b(N)**f*(1 + (N+1+δ)/c)],
    # an interval O(b(N)**f) wide.  The certificate must hold that
    # bracket in float and in Fraction arithmetic, and be at most
    # K*b**fleet/τ0 wide with K its proven constant.  The least fleets (c
    # down to 1/7 at δ = 2/7) make the tail heavy enough that E's sign
    # shows: a bracket built with E of the wrong sign misses the oracle
    for k in (2, 3, 4, 5, 8):
        delta = F(2, k - 1)
        d = float(delta)
        offsets = (F(0), delta / 4, delta / 2, 3 * delta / 4)
        for tau0 in (1, 2, 5, 30, 1000):
            n = 200 * max(tau0, 100)
            tau = np.arange(tau0 + 1, tau0 + n + 1, dtype=np.float64)
            b = np.cumprod(tau / (tau + d))
            b_prev = np.concatenate(([1.0], b[:-1]))
            seqs = {o: b_prev * ((tau + float(o)) / (tau + d)) for o in offsets}
            big_n = tau0 + n
            for fleet in ((k + 1) // 2, k, k + 1, 4 * k):  # the first has c <= 1
                c = d * fleet - 1
                direct = {o: float(np.sum(s ** fleet)) for o, s in seqs.items()}
                bf = b[-1] ** fleet
                rest = (bf * big_n ** (c + 1) * (big_n + 1) ** -c / c,
                        bf * (1 + (big_n + 1 + d) / c))
                for mids in ((), (delta / 2,), offsets[1:]):
                    near = sum(direct[o] for o in (F(0), *mids))
                    true_lo, true_hi = (near + len(mids) * r + r for r in rest)
                    width_k = _width_constant(d, fleet, 1 + len(mids), tau0 + (1 + d) / 2)
                    for exact in (True, False):
                        if exact:
                            lo, hi = _tail_certificate(delta, fleet, mids)(F(1), tau0)
                            assert isinstance(lo, F) and isinstance(hi, F)
                        else:
                            tail_of = _tail_certificate(d, fleet, tuple(map(float, mids)))
                            lo, hi = tail_of(1.0, tau0)
                        slack = 1e-12 * true_hi
                        assert 0 < lo <= true_hi + slack, (k, tau0, fleet, mids)
                        assert true_lo - slack <= hi, (k, tau0, fleet, mids)
                        assert hi - lo <= width_k / tau0, (k, tau0, fleet, mids)


def test_theta_work_stays_near_block_entry():
    # a work count, not a timing: the second-order tail bracket certifies
    # inside the first chunk of each pool block, which starts where the row
    # leaves 1 (step 2*block - 1, which is 499 999 for k = 3 at x = 1e6); a
    # rule that waits for the whole tail to drop below epsilon*x needs 1.6e8
    # steps (k = 8) and 7.9e8 steps (k = 3) here.  The block past 1e9 taus
    # (k = 2, x = 1e10) still certifies, as the step cap counts taus walked.
    # The first chunk is the power of two, 16 to 8192, above the taus the
    # bracket at the block's start says it needs: 16 far out, where b**fleet
    # falls fast against epsilon*x, up to 4096 for block 1 at epsilon 1e-11
    assert theta(SearchParams(8), 10_000, 1e-7).truncation_t <= 2 ** 18
    assert theta(SearchParams(3), 1_000_000, 1e-7).truncation_t <= 2 ** 22
    for k, x, eps, first in ((8, 10_000, 1e-7, 512), (3, 1_000_000, 1e-7, 16),
                             (2, 10 ** 8, 1e-10, 16), (3, 10 ** 8, 1e-10, 16),
                             (2, 10 ** 10, 1e-10, 16), (10, 1, 1e-11, 4096)):
        p = SearchParams(k)
        for est in (theta(p, x, eps), theta_window(p, x, eps)):
            assert est.truncation_t == 2 * (-(-est.x // (k + 1)) + first - 1)
            assert est.tail_bound <= eps


def _trigamma_bracket(z):
    """Rational (lo, hi) on sum_{j>=0} 1/(z+j)**2 for a large integer z: the
    asymptotic series 1/z + 1/(2z**2) + sum_j B_2j/z**(2j+1) through 1/z**7,
    whose remainder has the sign and at most the size of the next term,
    -1/(30 z**9)."""
    z = F(z)
    head = 1 / z + 1 / (2 * z ** 2) + 1 / (6 * z ** 3) - 1 / (30 * z ** 5) + 1 / (42 * z ** 7)
    return head - 1 / (30 * z ** 9), head


@pytest.mark.parametrize("x,eps", [
    *(pytest.param(x, 1e-10, id=str(x)) for x in (10 ** 8, 10 ** 9, 10 ** 10)),
    *(pytest.param(x, 1e-12, id=f"{x}-1e-12") for x in (10 ** 8, 10 ** 9, 10 ** 10)),
])
def test_theta_window_k2_large_x_against_closed_form(x, eps):
    # oracle: for k = 2 and fleet 2 the terms past the block entry B are
    # (B(B+1))**2 over (τ(τ+2))**2 and ((τ+1)(τ+2))**2, τ >= B; by partial
    # fractions their sum is (ψ1(B) + ψ1(B+2))/4 + ψ1(B+1) + ψ1(B+2)
    # - 1/(4B) - 1/(4(B+1)) - 2/(B+1) with ψ1 the trigamma function, so
    # theta(x) = (2B - 1 + (B(B+1))**2 * that)/x, exact up to ψ1's series.
    # The float bracket is compared in Fraction, with no slack: its width
    # must cover the rounding of a sum whose tail is about 4x.  Each block
    # certifies in a first chunk of 16 taus, whose rounding is small enough
    # for epsilon = 1e-12 too
    p = SearchParams(2)
    est = theta_window(p, x, eps)
    brackets = []
    for xi in range(x - 5, x + 1):
        blk = -(-xi // 3)
        psi = [_trigamma_bracket(blk + j) for j in range(3)]
        rest = F(-1, 4 * blk) - F(1, 4 * (blk + 1)) - F(2, blk + 1)
        ends = [(psi[0][e] + psi[2][e]) / 4 + psi[1][e] + psi[2][e] + rest for e in (0, 1)]
        brackets.append([(2 * blk - 1 + (blk * (blk + 1)) ** 2 * s) / xi for s in ends])
    lo, hi = max(b[0] for b in brackets), max(b[1] for b in brackets)
    assert hi - lo < F(1, 10 ** 30)  # the oracle is tight
    assert F(est.theta) <= hi and lo <= F(est.theta) + F(est.tail_bound)
    assert 0 < est.tail_bound <= eps
    assert est.truncation_t == 2 * (-(-est.x // 3) + matrix._MIN_CHUNK - 1)


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
    for bad in (0.0, -1e-6, math.inf, math.nan):
        for fn in (theta, theta_window, lambda p, x, eps: speedup_curve(p, [x], eps)):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                fn(p, 10, bad)
    with pytest.raises(ValueError):
        theta(p, 10, fleet=0)
    with pytest.raises(ValueError):
        theta(SearchParams(5), 10, fleet=1)  # survival tail too heavy for a mean
    # the float rounding of a sum near 8900 alone is above 1e-14 of x = 1e4
    with pytest.raises(RuntimeError, match="float rounding"):
        theta(p, 10_000, epsilon=1e-14)
    monkeypatch.setattr(matrix, "_MAX_STEPS", 1_000)
    with pytest.raises(RuntimeError, match="taus from tau"):  # 2 chunks uncapped
        theta(SearchParams(5), 100_000, epsilon=1e-10)


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
    # the pool rules that run dry, written out.  block-random(b), x in block
    # B = ceil(x/b): (B-1)b + 1 + sum_{0<i<b} ((b-i)/b)**f, to 1e-12 relative
    for b in (1, 2, 3, 5):
        for fleet in (1, 2, 3):
            for x in (1, b, b + 1, 10 * b + 1):
                blk = -(-x // b)
                want = (blk - 1) * b + 1 + sum(((b - i) / b) ** fleet for i in range(1, b))
                got = expected_discovery_time(StrategyKind.block_random(b), SearchParams(2), x,
                                              fleet=fleet)
                assert got == pytest.approx(want, rel=1e-12), (b, fleet, x)
    # nested at k = 1: theta(x) = (2*ceil(x/2) - 1 + 2**-f)/x, and a window's
    # theta is the largest over its 4 boxes
    k1 = SearchParams(1)
    for fleet in (1, 2, 3):
        def closed(x, fleet=fleet):
            return (2 * -(-x // 2) - 1 + 2.0 ** -fleet) / x
        for x in range(1, 61):
            assert theta(k1, x, fleet=fleet).theta == pytest.approx(closed(x), rel=1e-12)
            win = theta_window(k1, x, fleet=fleet)
            assert win.theta == pytest.approx(closed(win.x), rel=1e-12)
            assert win.theta == pytest.approx(max(map(closed, range(max(1, x - 3), x + 1))),
                                              rel=1e-12)
            assert win.tail_bound == 0.0


def test_theta_fleet_override_matches_design():
    # one extra searcher joins a k=2 design; exponent 3 decays fast enough
    # that the truncated rational row is an effectively exact oracle
    p2 = SearchParams(2)
    est = theta(p2, 200, epsilon=1e-10, fleet=3)
    brute = sum(float(v) ** 3 for v in survival_row_exact(p2, 200, 20_000)) / 200
    assert est.theta == pytest.approx(brute, abs=1e-8)
    # a fleet in the thousands overflows float64 in the bracket at block 1's
    # start: the first chunk then falls back to 8192 taus instead of raising
    big = theta(p2, 1, epsilon=1e-3, fleet=3000)
    assert big.truncation_t == 2 * matrix._TAU_CHUNK and big.theta == pytest.approx(1.0)
