"""Sampler-level behavior: distributions, coverage, determinism."""

import math

import numpy as np
import pytest

from boxsearch.matrix import SurvivalMatrix
from boxsearch.strategy import (
    UNIFORM_CHUNK,
    UNIFORM_FIRST,
    SearchParams,
    StrategyKind,
    UniformStream,
    make_state,
    next_box,
    searcher_seed,
)


def fresh_state(kind, params, seed=0, sid=1):
    return make_state(kind, params, UniformStream(searcher_seed(seed, sid)))


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(0)
    p = SearchParams(4)
    assert StrategyKind.nested().pool_rule(p) == (5, 2)
    assert p.delta == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        SearchParams(1).delta


def test_strategy_kind_validation():
    with pytest.raises(ValueError):
        StrategyKind("bogus")
    with pytest.raises(ValueError):
        StrategyKind.block_random(0)
    with pytest.raises(ValueError):
        StrategyKind.coordinated(0)
    assert StrategyKind.block_random(4).describe() == "block-random(4)"


def opened(kind, params, steps):
    state = make_state(kind, params)
    return [next_box(state) for _ in range(steps)]


def test_coordinated_examples():
    p3 = SearchParams(3)
    assert opened(StrategyKind.coordinated(1), p3, 1) == [1]
    assert opened(StrategyKind.coordinated(2), p3, 3)[2] == 8
    assert opened(StrategyKind.coordinated(3), p3, 1) == [3]
    with pytest.raises(ValueError):
        StrategyKind.coordinated(0)
    with pytest.raises(ValueError):
        make_state(StrategyKind.coordinated(4), p3)


def test_solo_prefix():
    assert opened(StrategyKind.solo(), SearchParams(1), 7) == [1, 2, 3, 4, 5, 6, 7]
    assert opened(StrategyKind.solo(), SearchParams(3), 5) == [1, 2, 3, 4, 5]


def test_partition_rule():
    # the rule written out: member i of an n-way partition opens i + (t-1)*n at
    # step t, own index t of the box list (i, n); coordinated searcher i is
    # member i of k, solo is member 1 of 1
    for k in (1, 2, 3, 5):
        params = SearchParams(k)
        members = [(StrategyKind.solo(), 1, 1)]
        members += [(StrategyKind.coordinated(i), i, k) for i in range(1, k + 1)]
        for kind, i, n in members:
            assert kind.box_list(params) == (i, n)
            boxes = opened(kind, params, 200)
            assert boxes == [i + (t - 1) * n for t in range(1, 201)]
            for x in range(1, 201):
                want = boxes.index(x) + 1 if x in boxes else None
                assert kind.own_index(params, x) == want
        outside = StrategyKind.coordinated(k + 1)
        with pytest.raises(ValueError):
            outside.box_list(params)
        with pytest.raises(ValueError):
            outside.own_index(params, 1)
        with pytest.raises(ValueError):
            make_state(outside, params)
    # a sampler's own list is the boxes themselves
    for kind in (StrategyKind.nested(), StrategyKind.block_random(3)):
        assert kind.box_list(SearchParams(2)) == (1, 1)
        assert [kind.own_index(SearchParams(2), x) for x in range(1, 201)] == list(range(1, 201))


# every strategy a fleet can run: nested k, block-random b, solo, and every
# coordinated member of k = 2, 3, 5
BOX_MAP_KINDS = [(StrategyKind.nested(), SearchParams(k)) for k in (1, 2, 3, 5)]
BOX_MAP_KINDS += [(StrategyKind.block_random(b), SearchParams(2)) for b in (1, 2, 3, 5)]
BOX_MAP_KINDS += [(StrategyKind.solo(), SearchParams(2))]
BOX_MAP_KINDS += [(StrategyKind.coordinated(i), SearchParams(k))
                  for k in (2, 3, 5) for i in range(1, k + 1)]


def test_box_and_own_index_are_inverse():
    # box maps own indices onto the boxes one to one, and own_index undoes
    # it: on the boxes it reaches, and on every own index
    for kind, params in BOX_MAP_KINDS:
        for x in range(1, 201):
            own = kind.own_index(params, x)
            if own is not None:
                assert kind.box(params, own) == x, (kind, x)
        for j in range(1, 201):
            assert kind.own_index(params, kind.box(params, j)) == j, (kind, j)


def test_support_limit_is_the_reference_reach():
    # the largest box the reference stepper can have opened by step t: any
    # box its candidate list has held (pool_level) or any box it opened
    for kind, params in BOX_MAP_KINDS:
        view = SurvivalMatrix(kind, params)
        state = fresh_state(kind, params, seed=7)
        for t in range(121):
            if t:
                next_box(state)
            reach = max(state.pool_level, max(state.visited, default=0))
            assert view.support_limit(t) == reach, (kind, params.k, t)


def test_nested_first_step_uniform_over_first_pool():
    # k=2, t=1: uniform over {1, 2, 3}
    trials = 100_000
    counts = {1: 0, 2: 0, 3: 0}
    p = SearchParams(2)
    for seed in range(trials):
        st = fresh_state(StrategyKind.nested(), p, seed=seed)
        counts[next_box(st)] += 1
    se = math.sqrt((1 / 3) * (2 / 3) / trials)
    for box in (1, 2, 3):
        assert abs(counts[box] / trials - 1 / 3) < 4 * se


def test_nested_third_step_uniform_over_remaining_pool():
    # k=2, t=3: pool is 1..6 minus the 2 visited; each remaining ~1/4
    trials = 100_000
    p = SearchParams(2)
    freq: dict[tuple, int] = {}
    for seed in range(trials):
        st = fresh_state(StrategyKind.nested(), p, seed=seed)
        first_two = frozenset((next_box(st), next_box(st)))
        third = next_box(st)
        freq[(first_two, third)] = freq.get((first_two, third), 0) + 1
    # condition on the two visited boxes being {1, 2}; remaining candidates 3..6
    cond_total = sum(c for (fs, _), c in freq.items() if fs == frozenset((1, 2)))
    se = math.sqrt((1 / 4) * (3 / 4) / cond_total)
    for box in (3, 4, 5, 6):
        got = freq.get((frozenset((1, 2)), box), 0) / cond_total
        assert abs(got - 1 / 4) < 4 * se


def test_nested_forced_step_k1():
    # k=1, t=2: the one unvisited box of {1, 2} is forced
    p = SearchParams(1)
    for seed in range(50):
        st = fresh_state(StrategyKind.nested(), p, seed=seed)
        first = next_box(st)
        second = next_box(st)
        assert {first, second} == {1, 2}


def test_no_revisit_long_runs():
    for kind, params in [
        (StrategyKind.nested(), SearchParams(3)),
        (StrategyKind.block_random(3), SearchParams(2)),
        (StrategyKind.solo(), SearchParams(1)),
        (StrategyKind.coordinated(2), SearchParams(4)),
    ]:
        st = fresh_state(kind, params) if kind.randomized else make_state(kind, params)
        seq = [next_box(st) for _ in range(10_000)]
        assert len(set(seq)) == len(seq)
        assert len(st.visited) == st.step_count == 10_000


def test_nested_coverage_invariant():
    # visited stays inside the current pool and fills it on schedule
    for kind, limit in ((StrategyKind.nested(), lambda t: math.ceil(t / 2) * 3),
                        (StrategyKind.block_random(3), lambda t: math.ceil(t / 3) * 3)):
        st = fresh_state(kind, SearchParams(2), seed=11)
        for t in range(1, 2_000):
            next_box(st)
            assert len(st.visited) == t
            assert max(st.visited) <= limit(t)


def test_pool_rule():
    # the rules written out: pool limit ceil(t/2)*(k+1) nested, ceil(t/b)*b block
    rules = [(StrategyKind.nested(), SearchParams(k), lambda t, k=k: math.ceil(t / 2) * (k + 1))
             for k in (1, 2, 3, 5, 7)]
    rules += [(StrategyKind.block_random(b), SearchParams(2), lambda t, b=b: math.ceil(t / b) * b)
              for b in (1, 2, 3, 5)]
    steps = np.arange(0, 401)
    for kind, params, limit in rules:
        want = [limit(t) for t in range(401)]
        assert [kind.pool_limit(params, t) for t in range(401)] == want
        assert kind.pool_limit(params, steps).tolist() == want
        for t in range(1, 401):
            assert want[t] - (t - 1) >= 1  # the candidate list is never empty
            assert want[t] >= want[t - 1]
        for x in range(1, 201):
            first = next(t for t in range(1, 401) if limit(t) >= x)
            assert kind.entry_step(params, x) == first
    # a partition member is the rule (1, 1) over its own boxes i, i + k, ...:
    # the pool holds t own boxes at step t, and box x enters at its visit step
    for k in (1, 2, 3, 5):
        params = SearchParams(k)
        members = [(StrategyKind.solo(), 1, 1)]
        members += [(StrategyKind.coordinated(i), i, k) for i in range(1, k + 1)]
        for kind, i, n in members:
            assert kind.pool_rule(params) == (1, 1)
            assert [kind.pool_limit(params, t) for t in range(401)] == list(range(401))
            boxes = opened(kind, params, 200)
            for x in range(1, 201):
                own = kind.own_index(params, x)
                if (x - i) % n:
                    assert own is None
                else:
                    assert own == (x - i) // n + 1
                    assert kind.entry_step(params, own) == boxes.index(x) + 1


def test_nested_k1_fills_pools_exactly():
    p = SearchParams(1)
    st = fresh_state(StrategyKind.nested(), p, seed=5)
    for j in range(1, 101):
        next_box(st)
        next_box(st)
        assert st.visited == set(range(1, 2 * j + 1))


def test_nested_marginal_survival_k2():
    # P(box 1 unvisited after t steps) for t = 1..4 is (2/3, 1/3, 1/4, 1/6)
    expected = {1: 2 / 3, 2: 1 / 3, 3: 1 / 4, 4: 1 / 6}
    trials = 100_000
    p = SearchParams(2)
    unvisited = {t: 0 for t in expected}
    for seed in range(trials):
        st = fresh_state(StrategyKind.nested(), p, seed=seed)
        for t in range(1, 5):
            next_box(st)
            if 1 not in st.visited:
                unvisited[t] += 1
    for t, prob in expected.items():
        se = math.sqrt(prob * (1 - prob) / trials)
        assert abs(unvisited[t] / trials - prob) < 4 * se


def test_block_random_first_and_second_block():
    p = SearchParams(2)
    trials = 50_000
    counts1 = {1: 0, 2: 0, 3: 0}
    counts4 = {4: 0, 5: 0, 6: 0}
    for seed in range(trials):
        st = fresh_state(StrategyKind.block_random(3), p, seed=seed)
        counts1[next_box(st)] += 1
        next_box(st)
        next_box(st)
        counts4[next_box(st)] += 1  # t=4 opens the next block
    se = math.sqrt((1 / 3) * (2 / 3) / trials)
    for box in (1, 2, 3):
        assert abs(counts1[box] / trials - 1 / 3) < 4 * se
    for box in (4, 5, 6):
        assert abs(counts4[box] / trials - 1 / 3) < 4 * se


def test_block_random_len1_is_solo():
    p = SearchParams(2)
    st = fresh_state(StrategyKind.block_random(1), p, seed=9)
    assert [next_box(st) for _ in range(20)] == list(range(1, 21))


def test_deterministic_replay():
    p = SearchParams(3)
    for kind in (StrategyKind.nested(), StrategyKind.block_random(4)):
        a = fresh_state(kind, p, seed=77)
        b = fresh_state(kind, p, seed=77)
        assert [next_box(a) for _ in range(500)] == [next_box(b) for _ in range(500)]
        c = fresh_state(kind, p, seed=78)
        assert [next_box(c) for _ in range(500)] != [next_box(b) for _ in range(500)]


def test_randomized_kind_requires_stream():
    with pytest.raises(ValueError):
        make_state(StrategyKind.nested(), SearchParams(2))


def test_uniform_stream_is_chunking_invariant():
    # the simulator skips and chunks draws on the strength of these three facts
    ss = searcher_seed(2024, 3)
    whole = np.random.Generator(np.random.PCG64(ss)).random(3 * UNIFORM_CHUNK + 7)
    rng = np.random.Generator(np.random.PCG64(ss))
    parts = np.concatenate([rng.random(5), rng.random(1), rng.random(whole.size - 6)])
    assert np.array_equal(parts, whole)
    for n in (0, 1, 7, 8, 9, 63, UNIFORM_CHUNK + 1):
        bits = np.random.PCG64(ss)
        bits.advance(n)
        assert np.array_equal(np.random.Generator(bits).random(whole.size - n), whole[n:])
    # either side of the stream's first two refill boundaries
    for n in (UNIFORM_FIRST - 1, UNIFORM_FIRST, UNIFORM_FIRST + 1,
              UNIFORM_FIRST + UNIFORM_CHUNK, UNIFORM_FIRST + UNIFORM_CHUNK + 1):
        stream = UniformStream(ss)
        assert [stream.uniform() for _ in range(n)] == whole[:n].tolist()
    stream = UniformStream(ss)
    assert [stream.uniform() for _ in range(whole.size)] == whole.tolist()
