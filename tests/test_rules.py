"""Random pool rules: the MC engine, the exact table and the float series
against the reference stepper and the exact bracket, beyond the four rules
that the strategy names produce."""

import random
from fractions import Fraction

import pytest

from boxsearch import sim
from boxsearch.matrix import SurvivalMatrix, _curve, _tail_certificate
from boxsearch.strategy import Rule, UniformStream, make_state, next_box, searcher_seed


def _draw_rules(seed: int, count: int) -> list[Rule]:
    rng = random.Random(seed)
    rules = []
    for _ in range(count):
        c = rng.randint(1, 16)
        n = rng.randint(1, 5)
        rules.append(Rule(c, rng.randint(1, c), rng.randint(1, n), n))
    return rules


RULES = _draw_rules(20261020, 24)
SEEDS = sim.trial_seeds(11, 0, 4)  # trial seeds, as the engine is handed them
SIDS = (1, 2)
LIMIT = 200  # steps each reference searcher is followed for
FLEETS = range(1, 6)
EPSILON = 1e-7


def targets(rule: Rule) -> list[int]:
    """Boxes of own index 1, c and c + 1, and one box off the list if any."""
    boxes = [rule.box(j) for j in sorted({1, rule.c, rule.c + 1})]
    return boxes + [rule.box(2) - 1] if rule.n > 1 else boxes


def reference_hit(rule: Rule, target: int, seed: int, sid: int) -> int:
    """The step at which strategy.next_box opens target, 0 if not by LIMIT."""
    state = make_state(rule, UniformStream(searcher_seed(seed, sid)))
    for t in range(1, LIMIT + 1):
        if next_box(state) == target:
            return t
    return 0


def test_engine_matches_the_reference_stepper():
    for rule in RULES:
        for target in targets(rule):
            for sid in SIDS:
                got = sim._pool_hit_times(rule, target, SEEDS, sid, LIMIT).tolist()
                want = [reference_hit(rule, target, int(seed), sid) for seed in SEEDS]
                assert got == want, (rule, target, sid)


def test_column_identity_and_support_limit():
    for rule in RULES:
        view = SurvivalMatrix(rule, exact=True)
        state = make_state(rule, UniformStream(searcher_seed(5, 1)))
        for t in range(41):
            if t:
                next_box(state)
            assert view.support_limit(t) == max(0, rule.box(state.pool_level)), (rule, t)
        for t in (0, 1, rule.p, rule.p + 1, 2 * rule.p + 1, 40):
            assert view.column_sum_residual(t) == 0, (rule, t)


def exact_bracket(view: SurvivalMatrix, j: int, fleet: int) -> tuple[Fraction, Fraction]:
    """theta of own index j as an exact rational bracket: the partial sum to
    t_max (a whole pool block 14 blocks past j's) plus the Fraction tail
    certificate, over j."""
    rule = view.rule
    c, p = rule.c, rule.p
    t_max = p * (-(-j // c) + 14)
    mids = tuple(Fraction(o, c - p) for o in range(p - 1, 0, -1))
    tail_of = _tail_certificate(Fraction(p, c - p), fleet, mids)
    partial = view.power_sum(rule.box(j), t_max, fleet)
    lo, hi = tail_of(view.value(rule.box(j), t_max), t_max // p)
    return (partial + lo) / j, (partial + hi) / j


def test_float_series_meets_the_exact_bracket():
    # c > p: the float bracket [theta, theta + tail_bound] and the exact one
    # both hold the true ratio, so they meet; the series diverges for
    # fleet*p/(c - p) <= 1.  c = p: the float sum is the exact finite one
    for rule in RULES:
        c, p = rule.c, rule.p
        view = SurvivalMatrix(rule, exact=True)
        for j in (1, c + 1):
            for fleet in FLEETS:
                if c == p:
                    [(_, th, _, tail)] = _curve(rule, [j], EPSILON, fleet, False)
                    whole = view.power_sum(rule.box(j), p * -(-j // c), fleet) / j
                    assert tail == 0 and th == pytest.approx(float(whole), rel=1e-12)
                elif fleet * p > c - p:
                    [(_, th, _, tail)] = _curve(rule, [j], EPSILON, fleet, False)
                    lo, hi = exact_bracket(view, j, fleet)
                    assert th <= hi and lo <= th + tail, (rule, j, fleet)
                else:
                    with pytest.raises(ValueError, match="series diverges"):
                        _curve(rule, [j], EPSILON, fleet, False)


@pytest.mark.parametrize("fields", [
    (2.0, 1), (2, 1.0), (3, 2, "1", 2), (3, 2, 1, None),  # not ints
    (1, 0), (0, 0), (3, -1),  # p < 1
    (2, 3), (1, 2),  # c < p: the pool runs dry at step p
    (1, 1, 1, 0), (1, 1, 0, 0),  # n < 1
    (1, 1, 0, 3), (1, 1, 4, 3), (2, 2, -1, 2),  # i outside 1..n
])
def test_rule_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        Rule(*fields)


def test_rule_accepts_the_edges():
    for fields in ((1, 1), (16, 16, 5, 5), (3, 1, 1, 5), (2, 2, 2, 2)):
        Rule(*fields)  # raises nothing
