"""Batched seeding and PCG64 streams: bit for bit equal to numpy's own."""

import numpy as np
import pytest

from boxsearch import sim
from boxsearch.strategy import searcher_seed

EDGE_BASES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5]


def random_u64(n, seed):
    return np.random.default_rng(seed).integers(0, 2**64 - 1, n, dtype=np.uint64,
                                                endpoint=True)


def test_trial_seeds_match_numpy():
    for base in EDGE_BASES + random_u64(8, 1).tolist():
        got = sim.trial_seeds(base, 0, 40)
        assert got.dtype == np.uint64
        assert got.tolist() == [sim.trial_seed(base, i) for i in range(40)], base
    assert sim.trial_seeds(7, 1000, 1003).tolist() == [sim.trial_seed(7, i)
                                                        for i in (1000, 1001, 1002)]


def test_negative_base_seed_raises_like_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        sim.trial_seeds(-1, 0, 4)


# trial seeds with a zero high word, a zero low word, all ones, random
STREAM_SEEDS = np.concatenate([np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], np.uint64),
                               random_u64(40, 2), sim.trial_seeds(5, 0, 20)])


def column(pair):
    hi, lo = pair
    return hi[:, None], lo[:, None]


def batch_streams(seeds, sid, skip, n):
    """States after skip + 1 .. skip + n steps, uniforms drawn at them, and inc."""
    state, inc = sim._seeded_streams(sim._seed_words(seeds),
                                     np.full(len(seeds), sid, np.uint64))
    after = sim._affine(column(state), column(inc), *sim._jump_table(skip, n))
    return after, sim._uniforms(after), inc


def as_int(pair, r, col=None):
    hi, lo = (v[r] if col is None else v[r, col] for v in pair)
    return int(hi) << 64 | int(lo)


def test_first_uniforms_match_numpy_generators():
    for sid in (1, 2, 5):
        after, u, inc = batch_streams(STREAM_SEEDS, sid, 0, 8)
        for r, seed in enumerate(STREAM_SEEDS.tolist()):
            bits = np.random.PCG64(searcher_seed(seed, sid))
            assert bits.state["state"]["inc"] == as_int(inc, r)
            assert u[r].tolist() == np.random.Generator(bits).random(8).tolist()
            assert bits.state["state"]["state"] == as_int(after, r, -1)


def test_seeds_wider_than_64_bits():
    for seed in (2**64, 2**96 + 3, 2**128 + 5):
        state, inc = sim._seeded_streams(sim._seed_words(seed), np.array([1, 3], np.uint64))
        for r, sid in enumerate((1, 3)):
            want = np.random.PCG64(searcher_seed(seed, sid)).state["state"]
            assert (as_int(state, r), as_int(inc, r)) == (want["state"], want["inc"])


@pytest.mark.parametrize("skip", [0, 1, 2**32, 10**8 + 7])
def test_jumps_match_advance(skip):
    after, u, _ = batch_streams(STREAM_SEEDS[::5], 3, skip, 4)
    for r, seed in enumerate(STREAM_SEEDS[::5].tolist()):
        bits = np.random.PCG64(searcher_seed(seed, 3))
        bits.advance(skip)
        assert u[r].tolist() == np.random.Generator(bits).random(4).tolist()
        assert bits.state["state"]["state"] == as_int(after, r, -1)


def test_state_handoff_continues_the_stream():
    # a native PCG64 given a batch row's state draws on exactly where the
    # row's own Generator would
    after, _, inc = batch_streams(STREAM_SEEDS[:6], 2, 40, 16)
    bits = np.random.PCG64(0)
    for r, seed in enumerate(STREAM_SEEDS[:6].tolist()):
        own = np.random.PCG64(searcher_seed(seed, 2))
        own.advance(56)
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": as_int(after, r, -1), "inc": as_int(inc, r)},
                      "has_uint32": 0, "uinteger": 0}
        want = np.random.Generator(own).random(300)
        assert np.random.Generator(bits).random(300).tolist() == want.tolist()
