"""Trial engine: baselines, MC/exact agreement, crashes, perturbations."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from boxsearch import sim
from boxsearch.matrix import expected_discovery_time, survival_row_exact, theta
from boxsearch.sim import (
    CrashSchedule,
    NonDiscoveryError,
    Perturbation,
    TrialConfig,
    cis_overlap,
    crash_experiment,
    estimate_speedup,
    robustness_experiment,
    run_trial,
)
from boxsearch.strategy import (
    SearchParams,
    StrategyKind,
    UniformStream,
    make_state,
    next_box,
    searcher_seed,
)


def config(k=2, kind=None, x=100, seed=0, **kw):
    return TrialConfig(params=SearchParams(k), kind=kind or StrategyKind.nested(),
                       treasure=x, seed=seed, **kw)


def test_solo_deterministic():
    out = run_trial(config(k=1, kind=StrategyKind.solo(), x=7))
    assert out.time == 7 and out.first_finder == 1 and out.discovered


def test_coordinated_hit():
    out = run_trial(config(k=3, kind=StrategyKind.coordinated(1), x=8))
    assert out.time == 3 and out.first_finder == 2


def test_trial_reproducible():
    cfg = config(k=3, x=500, seed=12345)
    assert run_trial(cfg) == run_trial(cfg)
    assert run_trial(cfg) != run_trial(config(k=3, x=500, seed=12346))


def reference_hit_time(kind, params, target, seed, sid, limit):
    """Step strategy.next_box until it returns ``target``; None after ``limit``."""
    state = make_state(kind, params, UniformStream(searcher_seed(seed, sid)))
    for t in range(1, limit + 1):
        if next_box(state) == target:
            return t
    return None


def test_hit_time_matches_strategy_reference():
    # (kind, params, target, step the treasure joins)
    cases = []
    for k in (1, 2, 3, 5):
        w = k + 1
        for x in (1, w, w + 1, 2 * w, 2 * w + 1, 173, 400):
            cases.append((StrategyKind.nested(), SearchParams(k), x, 2 * -(-x // w) - 1))
    for b in (1, 3, 5):
        for x in (1, b, b + 1, 40, 101):
            cases.append((StrategyKind.block_random(b), SearchParams(2), x,
                          (-(-x // b) - 1) * b + 1))
    for kind, params, x, join in cases:
        for seed in range(12):
            sid = 1 + seed % 3
            full = reference_hit_time(kind, params, x, seed, sid, 100_000)
            assert full is not None and full >= join
            for limit in (100_000, full, full - 1, join - 1):
                want = reference_hit_time(kind, params, x, seed, sid, limit)
                assert want == (full if limit >= full else None)
                assert sim._pool_hit_time(kind, params, x, searcher_seed(seed, sid),
                                          limit) == want


def test_mc_matches_exact_expected_time_x1():
    # k=2, treasure in the very first box: E[T] = sum_t N(1,t)^2
    exact = expected_discovery_time(StrategyKind.nested(), SearchParams(2), 1)
    stats = estimate_speedup(config(k=2, x=1, seed=404), 100_000)
    assert abs(stats.mean_time - exact) < 4 * stats.stderr


@pytest.mark.parametrize("kind,k,x", [
    (StrategyKind.block_random(3), 2, 10),
    (StrategyKind.block_random(5), 3, 17),
    (StrategyKind.coordinated(1), 3, 100),
    (StrategyKind.solo(), 2, 50),
])
def test_mc_matches_exact_all_strategies(kind, k, x):
    exact = expected_discovery_time(kind, SearchParams(k), x)
    stats = estimate_speedup(config(k=k, kind=kind, x=x, seed=7), 20_000)
    if stats.stderr == 0:
        assert stats.mean_time == exact
    else:
        assert abs(stats.mean_time - exact) < 4 * stats.stderr


def test_solo_stats_degenerate():
    stats = estimate_speedup(config(k=1, kind=StrategyKind.solo(), x=33, seed=1), 100)
    assert stats.stderr == 0.0
    assert stats.speedup_point == 1.0
    assert stats.non_discovery_count == 0


def test_monotone_in_fleet_size():
    # more searchers never hurt: mean time non-increasing in k (3 se slack)
    means = []
    ses = []
    for k in (1, 2, 3, 4):
        stats = estimate_speedup(config(k=k, x=200, seed=888), 10_000)
        means.append(stats.mean_time)
        ses.append(stats.stderr)
    for a, b, sa, sb in zip(means, means[1:], ses, ses[1:]):
        assert b <= a + 3 * math.hypot(sa, sb)


def test_non_discovery_reported_not_raised_when_allowed():
    # the whole fleet crashes at step 5, long before box 1000 joins the pool
    cfg = config(k=2, x=1000, seed=3, crashes=CrashSchedule(((1, 5), (2, 5))))
    out = run_trial(cfg)
    assert out.time is None and not out.discovered
    with pytest.raises(NonDiscoveryError):
        estimate_speedup(cfg, 50)
    stats = estimate_speedup(cfg, 50, allow_non_discovery=True)
    assert stats.non_discovery_count == 50


def test_outcome_does_not_depend_on_first_horizon(monkeypatch):
    # a pool-sampler fleet that hits nothing within the horizon reruns with
    # it doubled, so a horizon of 5 steps changes no outcome
    shifted = (Perturbation(kind="shift", shift=3), Perturbation(kind="extra-boxes"))
    cases = [config(k=2, x=40), config(k=3, x=7), config(k=5, x=60),
             config(k=2, kind=StrategyKind.block_random(4), x=30),
             config(k=3, x=25, crashes=CrashSchedule(((1, 1), (3, 9)))),
             config(k=2, x=30, crashes=CrashSchedule(((1, 20), (2, 25)))),
             config(k=2, x=20, perturbations=shifted)]
    seeds = [sim.trial_seed(2718, i) for i in range(40)]
    want = [run_trial(replace(c, seed=s)) for c in cases for s in seeds]
    monkeypatch.setattr(TrialConfig, "step_cap", property(lambda self: 5))
    assert [run_trial(replace(c, seed=s)) for c in cases for s in seeds] == want
    times = [o.time for o in want]
    assert None in times and max(t for t in times if t is not None) > 5 * 2 ** 3


def test_trial_past_the_first_horizon_is_found():
    # trial 31 of `robustness --k 3 --x 27 --trials 150 --seed 1515142311`
    # under extra-boxes: no searcher hits within 50*x*(k+1) steps
    cfg = config(k=3, x=27, seed=sim.trial_seed(1515142311, 31),
                 perturbations=(Perturbation(kind="extra-boxes"),) * 3)
    out = run_trial(cfg)
    assert out.discovered and out.time > cfg.step_cap


def test_coordinated_fleet_is_the_whole_partition():
    for n in (1, 2, 4):
        with pytest.raises(ValueError):
            config(k=3, kind=StrategyKind.coordinated(1), x=8, searchers=n)
        with pytest.raises(ValueError):
            expected_discovery_time(StrategyKind.coordinated(1), SearchParams(3), 8, fleet=n)
    cfg = config(k=3, kind=StrategyKind.coordinated(1), x=8, searchers=3)
    assert run_trial(cfg).time == expected_discovery_time(cfg.kind, cfg.params, 8, fleet=3) == 3


def test_crash_schedule_validation():
    with pytest.raises(ValueError):
        CrashSchedule(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        CrashSchedule(((0, 1),))
    with pytest.raises(ValueError):
        config(k=2, crashes=CrashSchedule(((3, 1),)))


def test_crashed_searcher_makes_no_peeks():
    # everyone crashed at t=1: nothing is ever found
    cfg = config(k=2, x=5, seed=9, crashes=CrashSchedule(((1, 1), (2, 1))))
    assert run_trial(cfg).time is None
    # box 8 is member 2's in the 3-way partition, and no other member opens it
    cfg = config(k=3, kind=StrategyKind.coordinated(1), x=8,
                 crashes=CrashSchedule(((2, 1),)))
    assert run_trial(cfg) == sim.TrialOutcome(None, None)


def test_crash_experiment_kprime_zero_identical():
    rep = crash_experiment(3, 0, 300, 400, base_seed=5)
    assert rep.with_crashes == rep.control
    assert rep.overlap


def test_crash_experiment_ci_overlap_small():
    rep = crash_experiment(2, 1, 400, 3_000, base_seed=21)
    assert rep.overlap


def test_crash_survivor_matches_k1_exact():
    # lone survivor of a pair: expected time is the exact k=1 sum
    rep = crash_experiment(2, 1, 1000, 3_000, base_seed=77)
    exact = sum(float(v) for v in survival_row_exact(SearchParams(1), 1000, 1000))
    lo, hi = rep.with_crashes.ci95
    assert lo <= exact <= hi


def test_perturbation_maps():
    assert Perturbation().map_index(12) == 12
    assert Perturbation(kind="shift", shift=5).map_index(12) == 17
    assert Perturbation(kind="extra-boxes").map_index(9) == 12
    assert Perturbation(kind="extra-boxes").map_index(10) == 14
    assert Perturbation(kind="extra-boxes").describe() == "extra-boxes:ceil-sqrt"
    with pytest.raises(ValueError):
        Perturbation(kind="warp")
    with pytest.raises(ValueError):
        Perturbation().map_index(0)


def test_perturbation_injective_and_asymptotically_identity():
    for pert in (Perturbation(kind="shift", shift=7),
                 Perturbation(kind="extra-boxes"),
                 Perturbation(kind="local-shuffle", window=8, seed=3)):
        seen = {pert.map_index(i) for i in range(1, 5_000)}
        assert len(seen) == 4_999
        for i in (10_000, 100_000, 1_000_000):
            assert abs(pert.map_index(i) / i - 1.0) < 0.02


def test_local_shuffle_matches_fresh_permutation():
    for seed in (0, 3, 11):
        for window in (1, 4, 9):
            pert = Perturbation(kind="local-shuffle", window=window, seed=seed)
            for blk in (0, 1, 7, 1000):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(blk,))
                perm = np.random.default_rng(ss).permutation(window)
                want = [blk * window + int(v) + 1 for v in perm]
                for _ in range(2):
                    got = [pert.map_index(blk * window + j + 1) for j in range(window)]
                    assert got == want


def test_local_shuffle_displacement_bounded():
    pert = Perturbation(kind="local-shuffle", window=6, seed=11)
    for i in range(1, 600):
        assert abs(pert.map_index(i) - i) < 6


def test_identity_perturbation_bit_identical():
    base = config(k=2, x=300, seed=55)
    perturbed = config(k=2, x=300, seed=55,
                       perturbations=(Perturbation(), Perturbation()))
    for i in range(50):
        s = sim.trial_seed(55, i)
        assert run_trial(replace(base, seed=s)) == run_trial(replace(perturbed, seed=s))


def test_robustness_experiment_small():
    report = robustness_experiment(
        SearchParams(2), 800,
        [Perturbation(), Perturbation(kind="shift", shift=5)],
        trials=800, base_seed=99)
    identity = report.entries[0]
    assert identity.speedup_ratio == 1.0 and not identity.violation
    shift = report.entries[1]
    assert shift.speedup_ratio > 0.9


def test_robustness_shift5_within_3_percent_x5000():
    # shared base seeds pair the runs, so a 5-box shift barely moves x=5000
    report = robustness_experiment(
        SearchParams(2), 5000, [Perturbation(kind="shift", shift=5)],
        trials=1_000, base_seed=616)
    assert abs(report.entries[0].speedup_ratio - 1.0) <= 0.03


def test_perturbation_list_length_checked():
    with pytest.raises(ValueError):
        config(k=2, perturbations=(Perturbation(),))


def test_run_stats_aggregation_exact():
    stats = estimate_speedup(config(k=1, kind=StrategyKind.solo(), x=10, seed=0), 10)
    assert stats.mean_time == 10.0
    assert stats.ci95 == (10.0, 10.0)
    assert cis_overlap(stats, stats)


def test_stderr_exact_for_large_times():
    # every time is 1e8 + 1 or 1e8 + 2, where a float sum of squares cancels
    x = 10 ** 8 + 1
    template = config(k=1, kind=StrategyKind.block_random(2), x=x, seed=3)
    stats = estimate_speedup(template, 200)
    times = [run_trial(replace(template, seed=sim.trial_seed(3, i))).time
             for i in range(200)]
    assert set(times) == {x, x + 1}
    mean = Fraction(sum(times), len(times))
    var = sum((t - mean) ** 2 for t in times) / (len(times) - 1)
    assert stats.mean_time == float(mean)
    assert stats.stderr == pytest.approx(math.sqrt(var / len(times)), rel=1e-12)


def test_mc_matches_theta_exact_k2():
    # nested strategy against the exact ratio via an independent route
    x = 500
    exact = theta(SearchParams(2), x, epsilon=1e-9).theta * x
    stats = estimate_speedup(config(k=2, x=x, seed=1717), 20_000)
    assert abs(stats.mean_time - exact) < 4 * stats.stderr
