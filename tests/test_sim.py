"""Trial engine: baselines, MC/exact agreement, crashes, perturbations."""

import hashlib
import math
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from boxsearch import cli, sim
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
    state = make_state(kind.rule(params), UniformStream(searcher_seed(seed, sid)))
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
                got = sim._pool_hit_times(kind.rule(params), x, np.array([seed], np.uint64), sid,
                                          limit)
                assert got.tolist() == [want or 0]
    # a partition member runs the same engine as the rule (1, 1) over its own
    # boxes: solo, and fleet searcher i as coordinated member i, at boxes it
    # opens (to its visit step and one below) and at boxes it never opens
    seeds = np.arange(4, dtype=np.uint64)
    for k in (2, 3, 5):
        params = SearchParams(k)
        members = [(StrategyKind.solo(), sid) for sid in (1, 2)]
        members += [(StrategyKind.coordinated(i), i) for i in range(1, k + 1)]
        for kind, sid in members:
            for x in (1, 2, k, k + 1, 2 * k + 1, 40, 101):
                full = reference_hit_time(kind, params, x, 0, sid, 500)
                assert full == kind.rule(params).own_index(x)  # (1, 1): own index j enters at j
                for limit in (500, full, full - 1) if full else (500,):
                    want = reference_hit_time(kind, params, x, 0, sid, limit)
                    assert want == (full if full and limit >= full else None)
                    got = sim._pool_hit_times(kind.rule(params), x, seeds, sid, limit)
                    assert got.tolist() == [want or 0] * len(seeds), (kind, sid, x, limit)


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


def shift(c):
    return Perturbation(kind="shift", shift=c)


def horizon_cases():
    """Fleets with crashes, per-searcher perturbations, block-random, k = 2, 3, 5,
    and partitions: a solo fleet whose targets lie past 50*x*(k+1) = 150
    steps, and a coordinated fleet whose crash drops the member that would
    hit first (members 1 and 3 then tie at step 8)."""
    shifted = (shift(3), Perturbation(kind="extra-boxes"))
    return [config(k=2, x=40), config(k=3, x=7), config(k=5, x=60),
            config(k=2, kind=StrategyKind.block_random(4), x=30),
            config(k=3, x=25, crashes=CrashSchedule(((1, 1), (3, 9)))),
            config(k=2, x=30, crashes=CrashSchedule(((1, 20), (2, 25)))),
            config(k=2, x=20, perturbations=shifted),
            config(k=2, kind=StrategyKind.solo(), x=1, perturbations=(shift(200), shift(150))),
            config(k=3, kind=StrategyKind.coordinated(1), x=20,
                   crashes=CrashSchedule(((2, 5),)),
                   perturbations=(shift(2), Perturbation(), shift(4)))]


def test_outcome_does_not_depend_on_first_horizon():
    # no fleet has a horizon: the case mix holds a trial in which every
    # searcher crashed first and trials longer than 40 steps
    cases = horizon_cases()
    seeds = [sim.trial_seed(2718, i) for i in range(40)]
    want = [run_trial(replace(c, seed=s)) for c in cases for s in seeds]
    times = [o.time for o in want]
    assert None in times and max(t for t in times if t is not None) > 5 * 2 ** 3


def test_partition_past_the_old_step_cap_is_found():
    # solo x = 1 under shift:200 opens the treasure at step 201, past the
    # 50*x*(k+1) = 100 steps that once capped a partition trial
    cfg = config(k=1, kind=StrategyKind.solo(), x=1, seed=5, perturbations=(shift(200),))
    assert run_trial(cfg) == sim.TrialOutcome(201, 1)
    stats = estimate_speedup(cfg, 10)
    assert stats.mean_time == 201 and stats.non_discovery_count == 0


def batch_outcomes(template, trials):
    return [sim.TrialOutcome(t or None, f or None)
            for times, finders in sim._trial_blocks([template], trials)
            for t, f in zip(times[0].tolist(), finders[0].tolist())]


def test_batch_outcomes_equal_run_trial(monkeypatch):
    # the engine at any block size gives each trial run_trial's outcome; the
    # x = 1e8 + 1 block-random trials jump past 1e8 draws first
    cases = [replace(c, seed=2718) for c in horizon_cases()]
    cases.append(config(k=1, kind=StrategyKind.block_random(2), x=10 ** 8 + 1, seed=3))
    for rows in (sim.BLOCK_ROWS, 7, 1):
        monkeypatch.setattr(sim, "BLOCK_ROWS", rows)
        for c in cases:
            want = [run_trial(replace(c, seed=sim.trial_seed(c.seed, i))) for i in range(40)]
            assert batch_outcomes(c, 40) == want


def fused_sets():
    """Template sets that share kind, params and seed: a crash pair with
    searcher 1 of 3 crashed at t = 1 and its 2-searcher control; a robustness
    set whose perturbations enter the pool at different steps; block-random
    sets; mid-run crashes beside a fleet that always crashes first; a solo
    partition."""
    br = StrategyKind.block_random(4)
    local = Perturbation(kind="local-shuffle", window=4, seed=2)
    robust = [config(k=2, x=20, perturbations=(p, p)) for p in (
        Perturbation(), shift(3), Perturbation(kind="extra-boxes"), local)]
    return [
        [config(k=2, x=40, searchers=3, crashes=CrashSchedule(((1, 1),))), config(k=2, x=40)],
        [config(k=2, x=20)] + robust,
        [config(k=2, kind=br, x=30), config(k=2, kind=br, x=30, perturbations=(shift(5), local)),
         config(k=2, kind=br, x=9, searchers=3)],
        [config(k=3, x=25, crashes=CrashSchedule(((1, 1), (3, 9)))), config(k=3, x=25),
         config(k=3, x=25, crashes=CrashSchedule(((2, 14),))),
         config(k=3, x=1000, crashes=CrashSchedule(((1, 5), (2, 5), (3, 5))))],
        [config(k=1, kind=StrategyKind.solo(), x=7),
         config(k=1, kind=StrategyKind.solo(), x=7, perturbations=(shift(3),))],
    ]


def test_fused_estimates_equal_separate(monkeypatch):
    # one pass over several templates gives each template's own RunStats,
    # at any block size; the robustness set's rows enter at different steps
    entries = {first for plan in sim._plans(fused_sets()[1]) for _, _, first, _ in plan}
    assert len(entries) > 1
    for rows in (sim.BLOCK_ROWS, 7, 1):
        monkeypatch.setattr(sim, "BLOCK_ROWS", rows)
        for templates in fused_sets():
            templates = [replace(c, seed=2718) for c in templates]
            want = [estimate_speedup(c, 40, allow_non_discovery=True) for c in templates]
            assert sim.estimate_speedups(templates, 40, allow_non_discovery=True) == want
    with pytest.raises(ValueError, match="must share kind, params and seed"):
        sim.estimate_speedups([config(seed=1), config(seed=2)], 40)


def test_fusion_runs_each_round_once(monkeypatch):
    # a fused pass runs as many rounds as its slowest template alone, not
    # their sum, derives each block's trial seeds once, seeds each (trial,
    # sid) stream once, and hands the event search one list-size vector
    calls = {}
    for name in ("_fleet_round", "trial_seeds", "_seeded_streams", "_event_search"):
        def counted(*args, _name=name, _fn=getattr(sim, name)):
            calls[_name] = calls.get(_name, 0) + 1
            if _name == "_event_search":
                assert args[1].ndim == 1
            return _fn(*args)
        monkeypatch.setattr(sim, name, counted)
    for templates in fused_sets()[:2]:
        alone = []
        for c in templates:
            calls.clear()
            estimate_speedup(c, 200)
            alone.append(calls["_fleet_round"])
        calls.clear()
        sim.estimate_speedups(templates, 200)
        assert calls["_fleet_round"] == max(alone) < sum(alone)
        assert calls["trial_seeds"] == calls["_seeded_streams"] == 1
    monkeypatch.setattr(sim, "BLOCK_ROWS", 64)
    calls.clear()
    sim.estimate_speedups(fused_sets()[1], 200)
    assert calls["trial_seeds"] == 200 // 32 + 1


def in_new_thread(fn):
    """fn() run in a thread of its own, which starts with an empty
    generator pool; its result, or its exception raised here."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised in the calling thread
            out["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_threads_draw_on_their_own_generators():
    # blocks that run in several threads at once never share a native
    # generator: each thread's results equal its serial run.  A short switch
    # interval makes the four threads interleave their rounds
    robust = [config(k=2, x=600, seed=41, perturbations=(p, p))
              for p in (Perturbation(), shift(7), Perturbation(kind="extra-boxes"))]
    crash = [config(k=3, x=900, seed=43, searchers=4, crashes=CrashSchedule(((1, 1), (4, 300)))),
             config(k=3, x=900, seed=43)]
    sets = [robust, crash, robust[:2], [replace(c, treasure=700) for c in crash]]
    want = [sim.estimate_speedups(s, 150) for s in sets]
    results = [None] * len(sets)
    start = threading.Barrier(len(sets))

    def run(i):
        start.wait(timeout=60)
        results[i] = [sim.estimate_speedups(sets[i], 150) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(sets))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert results == [[w] * 3 for w in want]


def test_row_groups_change_no_outcome(monkeypatch):
    # rows run in groups of at most BLOCK_ROWS on shared keys: a 12-searcher
    # fleet split 8 + 4 gives the outcomes of one pass, and the thread's
    # pool never holds more than 8 generators
    perts = [Perturbation(), shift(3), Perturbation(kind="extra-boxes"),
             Perturbation(kind="local-shuffle", window=8, seed=5)] * 3
    cfg = config(k=3, x=400, seed=77, searchers=12, perturbations=tuple(perts),
                 crashes=CrashSchedule(((2, 1), (5, 40), (9, 250), (12, 600))))
    seeds = [sim.trial_seed(cfg.seed, i) for i in range(30)]
    want = ([run_trial(replace(cfg, seed=s)) for s in seeds], estimate_speedup(cfg, 30))
    group_rows = []
    fleet_round = sim._fleet_round

    def record(rule, rows, *args):
        group_rows.append(len(rows[0]))
        return fleet_round(rule, rows, *args)

    monkeypatch.setattr(sim, "BLOCK_ROWS", 8)
    monkeypatch.setattr(sim, "_fleet_round", record)

    def grouped():
        got = ([run_trial(replace(cfg, seed=s)) for s in seeds], estimate_speedup(cfg, 30))
        return got, len(sim._POOL.generators)

    got, pool = in_new_thread(grouped)
    assert got == want
    assert 0 < pool <= 8 and max(group_rows) <= 8


NATIVE_STATE = np.random.PCG64.state


class PCG64(np.random.PCG64):  # the name .state checks against
    """A PCG64 that counts the states set on it."""

    sets = 0

    @property
    def state(self):
        return NATIVE_STATE.__get__(self)

    @state.setter
    def state(self, value):
        PCG64.sets += 1
        NATIVE_STATE.__set__(self, value)


def count_work(monkeypatch, fn):
    """fn() run in a new thread, whose generators count their handoffs, and
    the work it did: its rounds as (first, rows, width, emulated) tuples,
    the generators of the rows of each group that reach a native round, the
    rows of each native round, each _affine call as (caller, emulated,
    first) of the round it falls in, and the ``.state`` sets."""
    rounds, groups, native_rows, affine_calls = [], [], [], []
    fleet_round, native, affine = sim._fleet_round, sim._native_uniforms, sim._affine

    def record_round(rule, rows, key, span, width, first):
        rounds.append((first, len(rows[0]), width, rows[5].dtype != object))
        if first:
            groups.append(set())
        return fleet_round(rule, rows, key, span, width, first)

    def record_native(gens, end, width):
        groups[-1].update(map(id, gens))
        native_rows.append(len(gens))
        return native(gens, end, width)

    def record_affine(*args):
        first, _, _, emulated = rounds[-1] if rounds else (None,) * 4
        affine_calls.append((sys._getframe(1).f_code.co_name, emulated, first))
        return affine(*args)

    PCG64.sets = 0
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "PCG64", PCG64)
        patch.setattr(sim, "_fleet_round", record_round)
        patch.setattr(sim, "_native_uniforms", record_native)
        patch.setattr(sim, "_affine", record_affine)
        got = in_new_thread(fn)
    return got, dict(rounds=rounds, groups=groups, native_rows=native_rows,
                     affine_calls=affine_calls, handoffs=PCG64.sets)


def test_each_row_is_handed_over_once(monkeypatch):
    # a fused robustness-shaped pass sets a native generator's state once per
    # row that reaches a native round, not once per round, and only the
    # seeding and the emulated rounds jump states with _affine.  Long-lived
    # rows (x = 2000) go native after round 1 and draw in several native
    # rounds; short-lived ones (k = 3, x = 20) run later emulated rounds too,
    # which jump from the state past the row's last round
    def robust(k, x, seed):
        return [config(k=k, x=x, seed=seed)] + [
            config(k=k, x=x, seed=seed, perturbations=(p,) * k) for p in (
                Perturbation(), shift(5), Perturbation(kind="extra-boxes"),
                Perturbation(kind="local-shuffle", window=64, seed=3))]

    for templates, trials, long_lived in ((robust(2, 2000, 29), 200, True),
                                          (robust(3, 20, 31), 300, False)):
        got, work = count_work(monkeypatch, lambda: sim.estimate_speedups(templates, trials))
        assert got == [estimate_speedup(c, trials) for c in templates]
        rows = sum(len(g) for g in work["groups"])
        assert work["handoffs"] == rows > 0
        calls = work["affine_calls"]
        assert {caller for caller, *_ in calls} == {"_seeded_streams", "_fleet_round"}
        assert all(emulated for caller, emulated, _ in calls if caller == "_fleet_round")
        later = any(not first for caller, _, first in calls if caller == "_fleet_round")
        if long_lived:  # most rows that go native draw in several rounds
            assert sum(work["native_rows"]) > 2 * rows
            assert not later
        else:
            assert later


def reference_outcome(cfg):
    """The fleet rule on strategy.next_box: searchers in id order, each run to
    the best hit so far, searcher sid on partition member sid's program; while
    nothing is found and a searcher stopped at the horizon rather than at its
    crash, all rerun with the horizon doubled."""
    perts = cfg.perturbations
    horizon = 50 * cfg.treasure * (cfg.params.k + 1)
    while True:
        best = finder = None
        capped = False
        for sid in range(1, cfg.fleet_size + 1):
            limit = horizon
            crash = cfg.crashes.crash_time(sid)
            if crash is not None:
                limit = min(limit, crash - 1)
            if best is not None:
                limit = min(limit, best - 1)
            target = perts[sid - 1].map_index(cfg.treasure) if perts else cfg.treasure
            t = reference_hit_time(replace(cfg.kind, searcher_id=sid), cfg.params, target,
                                   cfg.seed, sid, limit)
            if t is not None:
                best, finder = t, sid
            elif limit == horizon:
                capped = True
        if best is not None or not capped:
            return sim.TrialOutcome(best, finder)
        horizon *= 2


def test_batch_outcomes_equal_strategy_reference():
    # ties the fleet rule (earliest hit, lowest id on ties, crashes) to next_box
    for c in horizon_cases():
        c = replace(c, seed=31)
        want = [reference_outcome(replace(c, seed=sim.trial_seed(31, i))) for i in range(40)]
        assert batch_outcomes(c, 40) == want


def test_tie_goes_to_the_lower_id():
    # searchers 1 and 3 both hit at step 35
    cfg = config(k=3, x=20, seed=4365786631076934312)
    assert [reference_hit_time(cfg.kind, cfg.params, 20, cfg.seed, sid, 100)
            for sid in (1, 2, 3)] == [35, None, 35]
    assert run_trial(cfg) == sim.TrialOutcome(35, 1)


def test_tie_across_target_groups_goes_to_the_lower_id():
    # searcher 1 (target 23) and searcher 2 (target 25) both hit at step 32;
    # their targets join the pool at different steps, so the two rows reach
    # step 32 in different rounds
    shifted = (Perturbation(kind="shift", shift=3), Perturbation(kind="extra-boxes"))
    cfg = config(k=2, x=20, seed=12645929693988880703, perturbations=shifted)
    assert [reference_hit_time(cfg.kind, cfg.params, target, cfg.seed, sid, 100)
            for sid, target in ((1, 23), (2, 25))] == [32, 32]
    assert run_trial(cfg) == sim.TrialOutcome(32, 1)


def check_schedule(rounds):
    """Each round of count_work's ``rounds`` follows the schedule: a group
    starts emulated at BATCH_CHUNK; an emulated round's rows that go on are
    handed over once at least half of its rows go on, or once the next
    emulated round would be wider than EMULATED_MAX; emulated rounds double,
    the first native round is 8x as wide as the round that handed over, and
    each native round after it 4x, up to CHUNK_MAX."""
    for (first, rows, width, emulated), after in zip(rounds, rounds[1:] + [(True,) * 4]):
        if first:
            assert width == sim.BATCH_CHUNK and emulated
        if after[0]:  # the group's last round
            continue
        _, going, next_width, still = after
        if emulated:
            assert still == (2 * going < rows and 2 * width <= sim.EMULATED_MAX)
        else:
            assert not still
        assert next_width == min((2 if still else 8 if emulated else 4) * width, sim.CHUNK_MAX)


def record_draws(monkeypatch):
    """The shape of every draw matrix that the event search reads."""
    shapes = []
    search = sim._event_search

    def record(j, m, p, end):
        shapes.append(j.shape)
        return search(j, m, p, end)

    monkeypatch.setattr(sim, "_event_search", record)
    return shapes


def test_rounds_widen_within_the_draw_budget(monkeypatch):
    # every draw matrix holds at most CHUNK_MAX uniforms, and a round's
    # width does not depend on how many rows are open: a full block of long
    # one-searcher tails goes native after round 1, draws its first native
    # round of 1024 or more with hundreds of rows still open, and a lone
    # open row reaches CHUNK_MAX-wide rounds
    shapes = record_draws(monkeypatch)
    rule = StrategyKind.nested().rule(SearchParams(5))
    seeds = sim.trial_seeds(4, 0, sim.BLOCK_ROWS)
    times, work = count_work(monkeypatch,
                             lambda: sim._pool_hit_times(rule, 1000, seeds, 1, 40_000))
    rounds = work["rounds"]
    check_schedule(rounds)
    assert all(rows * width <= sim.CHUNK_MAX for rows, width in shapes)
    assert [emulated for *_, emulated in rounds[:2]] == [True, False]
    assert rounds[-1][2] == sim.CHUNK_MAX
    assert next(rows for _, rows, width, _ in rounds if width >= 1024) >= 500
    lone = seeds[np.flatnonzero(times == 0)[:1]]
    shapes.clear()
    assert sim._pool_hit_times(rule, 1000, lone, 1, 40_000).tolist() == [0]
    assert (1, sim.CHUNK_MAX) in shapes


def test_short_lived_rows_stay_emulated(monkeypatch):
    # a nested k = 3 fleet at x = 20 mostly ends within a few steps: fewer
    # than half of each round's rows go on, so its rows run emulated rounds
    # of 8, 16 and 32, and only the rows still open past the 32-wide round
    # are handed over; no draw matrix holds more than CHUNK_MAX uniforms
    shapes = record_draws(monkeypatch)
    cfg = config(k=3, x=20, seed=31)
    got, work = count_work(monkeypatch, lambda: estimate_speedup(cfg, 300))
    rounds = work["rounds"]
    check_schedule(rounds)
    assert all(rows * width <= sim.CHUNK_MAX for rows, width in shapes)
    assert len(work["groups"]) == 1
    assert [width for *_, width, emulated in rounds if emulated] == [8, 16, 32]
    native = [rows for _, rows, _, emulated in rounds if not emulated]
    assert native and work["handoffs"] == native[0]
    monkeypatch.undo()
    assert got == estimate_speedup(cfg, 300)


# (exit status, rounds, emulated row-columns, .state handoffs, native
# row-rounds) of three CLI ops: the first two end within a few dozen steps,
# the robustness run at x = 2000 goes native after round 1
WORK_PINS = {
    "speedup --mode mc --k 3 --x 30 --trials 300 --seed 5": (0, 4, 12192, 9, 9),
    "crash --k 5 --k-prime 2 --x 40 --trials 150 --seed 5": (0, 4, 15744, 33, 33),
    "robustness --k 2 --x 2000 --trials 40 --perturbation shift:5 "
    "--perturbation extra-boxes --seed 5": (1, 5, 1920, 230, 490),
}


@pytest.mark.parametrize("argv", WORK_PINS)
def test_mc_work_is_pinned(monkeypatch, capsys, argv):
    status, work = count_work(monkeypatch, lambda: cli.main(argv.split()))
    capsys.readouterr()
    rounds = work["rounds"]
    emulated = sum(rows * width for _, rows, width, emu in rounds if emu)
    got = (status, len(rounds), emulated, work["handoffs"], sum(work["native_rows"]))
    assert got == WORK_PINS[argv]


def test_one_box_pools_seed_no_stream(monkeypatch):
    # a (1, 1) row (solo, a coordinated member, block-random(1)) hits at its
    # entry step whatever it draws, so its fleet derives no trial seed and
    # seeds no stream; a nested fleet, run last, shows that the wrappers see
    # the seeds and streams that are made
    seeded, derived = [], []
    seed_streams, derive = sim._seeded_streams, sim.trial_seeds

    def record(words, sids):
        seeded.append(sids.size)
        return seed_streams(words, sids)

    def record_seeds(base, start, stop):
        derived.append(stop - start)
        return derive(base, start, stop)

    monkeypatch.setattr(sim, "_seeded_streams", record)
    monkeypatch.setattr(sim, "trial_seeds", record_seeds)
    fleets = [config(k=1, kind=StrategyKind.solo(), x=9, seed=1),
              config(k=2, kind=StrategyKind.solo(), x=40, seed=2,
                     perturbations=(shift(3), Perturbation(kind="extra-boxes"))),
              config(k=3, kind=StrategyKind.coordinated(1), x=100, seed=4),
              config(k=3, kind=StrategyKind.coordinated(2), x=20, seed=5,
                     crashes=CrashSchedule(((2, 5),))),
              config(k=1, kind=StrategyKind.block_random(1), x=5, seed=3)]
    for c in fleets:
        estimate_speedup(c, 50, allow_non_discovery=True)
        run_trial(c)
    sim.estimate_speedups(fused_sets()[4], 40)
    assert seeded == derived == []
    with pytest.raises(ValueError, match="expected non-negative integer"):
        estimate_speedup(config(k=2, kind=StrategyKind.solo(), x=9, seed=-1), 50)
    estimate_speedup(config(k=2, x=30, seed=6), 50)
    assert seeded and all(seeded) and derived == [50]


def column_walk(j, m, p, end):
    """_event_search's reference: each row walks its columns one by one."""
    hits, slots = [], []
    for row, slot, stop in zip(j.tolist(), p.tolist(), end.tolist()):
        hit = -1
        for c in range(stop):
            if row[c] == slot:
                hit = c
                break
            if slot == m[c] - 1:  # the treasure is last: the draw's slot takes it
                slot = row[c]
        hits.append(hit)
        slots.append(slot)
    return hits, slots


@pytest.mark.parametrize("kind, k", [(StrategyKind.nested(), 1), (StrategyKind.nested(), 2),
                                     (StrategyKind.nested(), 5),
                                     (StrategyKind.block_random(3), 2),
                                     (StrategyKind.solo(), 1)])
def test_event_search_matches_column_walk(kind, k):
    # random draws over the rule's own list sizes, with treasures last at
    # entry, rows that stop before the round's end, and one-column rounds
    rng = np.random.default_rng(k * 7 + kind.block_len)
    params = SearchParams(k)
    for width in (1, 2, 16, 64):
        for t in (1, 2, 3, 4, 7, 40, 1001):
            m = sim._list_sizes(kind.rule(params), t, width)[0]
            rows = 40
            j = (rng.random((rows, width)) * m).astype(np.int64)
            p = rng.integers(0, m[0], rows)
            p[:8] = m[0] - 1
            end = rng.integers(1, width + 1, rows)
            end[::3] = width
            given = p.copy()
            hit, slot = sim._event_search(j, m, p, end)
            assert (hit.tolist(), slot.tolist()) == column_walk(j, m, p, end), (width, t)
            assert p.tolist() == given.tolist()


def test_list_sizes_follow_the_pool_rule():
    # the windows lifted from one pool period equal pool_limit(s) - s + 1,
    # with an equal float copy, far into the run and at every round width
    kinds = [(StrategyKind.nested(), SearchParams(k)) for k in (1, 2, 3, 5)]
    kinds += [(StrategyKind.block_random(b), SearchParams(2)) for b in (1, 2, 3, 5)]
    kinds += [(StrategyKind.solo(), SearchParams(1)), (StrategyKind.coordinated(2), SearchParams(3))]
    for kind, params in kinds:
        for t in [*range(1, 41), 999, 7001, 10 ** 9 + 1]:
            for n in (1, 16, 8192):
                steps = np.arange(t, t + n)
                m, mf = sim._list_sizes(kind.rule(params), t, n)
                assert m.dtype == np.int64 and mf.dtype == np.float64
                assert m.tolist() == (kind.rule(params).pool_limit(steps) - steps + 1).tolist()
                assert mf.tolist() == m.astype(np.float64).tolist()
                assert not m.flags.writeable and not mf.flags.writeable


def test_negative_base_seed_raises_value_error():
    for kind in (StrategyKind.nested(), StrategyKind.block_random(3), StrategyKind.solo()):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            estimate_speedup(config(k=1, kind=kind, x=5, seed=-1), 10)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_trial(config(k=2, x=5, seed=-3))


def test_block_random_stats_pinned():
    # RunStats reprs from the engine that ran each searcher on its own Generator
    reprs = []
    for b, k, x, seed in ((1, 1, 5, 3), (2, 2, 37, 4), (3, 2, 50, 5), (4, 3, 17, 6),
                          (2, 1, 10 ** 8 + 1, 3)):
        cfg = config(k=k, kind=StrategyKind.block_random(b), x=x, seed=seed)
        reprs.append(repr(estimate_speedup(cfg, 200)))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == "3af00ee3317dc2da1805cf1828b85a7fd956b65b3eefc6dbe40894473f6765b2"


def test_partition_stats_pinned():
    # RunStats reprs of solo and coordinated fleets from the closed-form
    # partition outcome (earliest visit step, lowest id on a tie): per-searcher
    # shifts, crash schedules, a solo fleet of three, and fleets whose only
    # member that opens x crashes first (members 1 and 3 of k = 3 never open 8)
    local = Perturbation(kind="local-shuffle", window=4, seed=2)
    extra = Perturbation(kind="extra-boxes")
    solo, coordinated = StrategyKind.solo(), StrategyKind.coordinated
    cases = [
        config(k=1, kind=solo, x=9, seed=1),
        config(k=2, kind=solo, x=40, seed=2, perturbations=(shift(3), extra)),
        config(k=1, kind=solo, x=12, seed=3, searchers=3, crashes=CrashSchedule(((1, 4), (2, 20))),
               perturbations=(shift(1), Perturbation(), shift(2))),
        config(k=3, kind=coordinated(1), x=100, seed=4),
        config(k=3, kind=coordinated(2), x=20, seed=5, crashes=CrashSchedule(((2, 5),)),
               perturbations=(shift(2), Perturbation(), shift(4))),
        config(k=5, kind=coordinated(1), x=23, seed=6,
               perturbations=(local, extra, shift(1), local, shift(7))),
        config(k=3, kind=coordinated(1), x=8, seed=7, searchers=3,
               crashes=CrashSchedule(((2, 3),))),
        config(k=2, kind=coordinated(2), x=9, seed=8, crashes=CrashSchedule(((1, 5),))),
    ]
    reprs = [repr(estimate_speedup(c, 50, allow_non_discovery=True)) for c in cases]
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == "6ba2ced05652ec516b107e83eef1fa072f01725ce8f18e08814766993f7a19e1"


def test_trial_past_the_first_horizon_is_found():
    # trial 31 of `robustness --k 3 --x 27 --trials 150 --seed 1515142311`
    # under extra-boxes: no searcher hits within 50*x*(k+1) = 5400 steps
    cfg = config(k=3, x=27, seed=sim.trial_seed(1515142311, 31),
                 perturbations=(Perturbation(kind="extra-boxes"),) * 3)
    out = run_trial(cfg)
    assert out.discovered and out.time > 5400


def test_target_past_the_hit_keys_is_rejected():
    # a hit is kept as the int64 key step*span + sid, so a target appended
    # past it raises before any draw rather than reading as not found; the
    # check reads each searcher's target, which extra-boxes moves above the
    # treasure, and skips a searcher that crashes before its target enters
    params, kind = SearchParams(2), StrategyKind.nested()
    extra = (Perturbation(kind="extra-boxes"),) * 2
    for cfg in (TrialConfig(params, kind, 2 ** 62, seed=1),
                TrialConfig(params, kind, 2 ** 62 - 10, seed=1, perturbations=extra)):
        for run in (run_trial, lambda c: estimate_speedup(c, 2)):
            with pytest.raises(ValueError, match=f"treasure {cfg.treasure} is beyond"):
                run(cfg)
    crashed = TrialConfig(params, kind, 2 ** 62, seed=1,
                          crashes=CrashSchedule(((1, 5), (2, 5))))
    assert run_trial(crashed).time is None


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


@pytest.mark.parametrize("call,message", [
    (lambda: Perturbation(kind="shift", shift=-1), "shift must be >= 0, got -1"),
    (lambda: Perturbation(kind="local-shuffle", window=0), "window must be >= 1, got 0"),
    (lambda: CrashSchedule(((1, 0),)), "crash time must be >= 1, got 0"),
    (lambda: config(k=2, searchers=-1), "fleet size must be >= 1, got -1"),
    (lambda: sim.trial_seeds(1, 2**32 - 1, 2**32 + 1),
     "trial index must be below 2**32, got 4294967296"),
])
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


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
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Perturbation(kind="local-shuffle", window=3, seed=-1)
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


@pytest.mark.parametrize("hits", [
    [],
    [1],
    [3037000499],  # len * max**2 just below 2**63: summed in int64
    [1518500249] * 4,
    [1518500250] * 4,  # just above: int64 squares would wrap, so Python ints
    [3037000500],
    [2 ** 62, 1],
    list(range(1, 20_001)),
])
def test_moments_equal_python_int_sums(hits):
    got = sim._moments(np.array(hits, np.int64))
    assert got == (len(hits), sum(hits), sum(t * t for t in hits))
    assert all(type(v) is int for v in got)  # RunStats divides them as ints


def test_mc_matches_theta_exact_k2():
    # nested strategy against the exact ratio via an independent route
    x = 500
    exact = theta(SearchParams(2), x, epsilon=1e-9).theta * x
    stats = estimate_speedup(config(k=2, x=x, seed=1717), 20_000)
    assert abs(stats.mean_time - exact) < 4 * stats.stderr
