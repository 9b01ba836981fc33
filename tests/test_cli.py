"""Command-line surfaces: schemas, reference tables, determinism, exit codes."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import boxsearch
from boxsearch import bounds, cli, matrix
from boxsearch.cli import MAX_SLAB_CELLS, SEED_ENV_VAR, _fmt, _json, build_parser, main
from boxsearch.strategy import SearchParams, StrategyKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matrix_reproduces_k2_table(capsys):
    code, out = run_cli(capsys, "matrix", "--k", "2", "--xmax", "6", "--tmax", "4",
                        "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,0,1,2,3,4"
    for x in (1, 2, 3):
        assert lines[x] == f"{x},1,2/3,1/3,1/4,1/6"
    for x in (4, 5, 6):
        assert lines[x] == f"{x},1,1,1,3/4,1/2"


def test_matrix_reproduces_block_table(capsys):
    code, out = run_cli(capsys, "matrix", "--strategy", "block-random", "--block", "3",
                        "--xmax", "6", "--tmax", "6", "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    for x in (1, 2, 3):
        assert lines[x] == f"{x},1,2/3,1/3,0,0,0,0"
    for x in (4, 5, 6):
        assert lines[x] == f"{x},1,1,1,1,2/3,1/3,0"


def test_matrix_k1_row(capsys):
    code, out = run_cli(capsys, "matrix", "--k", "1", "--xmax", "2", "--tmax", "2",
                        "--exact")
    assert code == 0
    assert out.strip().splitlines()[1] == "1,1,1/2,0"


def usage_error(capsys, *argv) -> str:
    """Run a CLI call that must exit 2 (bad input); return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err
    return err


def test_matrix_cell_cap_names_flags(capsys):
    err = usage_error(capsys, "matrix", "--xmax", "100000", "--tmax", "1000")
    assert "--max-cells" in err and "--xmax" in err


def test_matrix_bad_slab_names_flags(capsys):
    err = usage_error(capsys, "matrix", "--xmax", "0", "--tmax", "3")
    assert "--xmax" in err


@pytest.mark.parametrize("argv,message", [
    (("--strategy", "nested", "--searcher-id", "9", "--block", "0"),
     "--block applies to --strategy block-random only"),
    (("--strategy", "nested", "--block", "3"), "--block applies to --strategy block-random only"),
    (("--strategy", "coordinated", "--block", "3"),
     "--block applies to --strategy block-random only"),
    (("--strategy", "solo", "--searcher-id", "9"),
     "--searcher-id applies to --strategy coordinated only"),
    (("--strategy", "block-random", "--searcher-id", "4"),
     "--searcher-id applies to --strategy coordinated only"),
    (("--strategy", "block-random", "--block", "0"), "block_len must be >= 1"),
    (("--strategy", "coordinated", "--searcher-id", "9"), "searcher_id 9 out of range 1..2"),
])
def test_matrix_bad_input_exits_2(capsys, argv, message):
    assert message in usage_error(capsys, "matrix", "--k", "2", "--xmax", "2", "--tmax", "2",
                                  *argv)


# SHA-256 of the stdout of `matrix` slabs: every strategy, float and exact,
# CSV and JSON.  The cells are pure Python arithmetic, so any change to a
# recurrence, a default or a format shows here.  Block-random float cells are
# the telescoped product of the pool recurrence, so JSON prints the rounding
# of (b - done)/b in full (0.6000000000000001 at b = 5, done = 2).
MATRIX_STDOUT_SHA256 = [
    ("--k 2 --xmax 12 --tmax 12",
     "19e3992bb10f2605013d5c735953a37e6dc894c5324a914e110953e5d9e7609f"),
    ("--k 3 --xmax 20 --tmax 24 --exact",
     "9ecc1b42d82156cbacd3ff850f89eb0cd8a74ad14fa059453fff2796bff4e6e6"),
    ("--k 1 --xmax 9 --tmax 9 --format json",
     "e666a7b2a9d9e453acc2ab82089c49808554556f5b428751e9feae7826f947cc"),
    ("--k 5 --xmax 14 --tmax 14 --exact --format json",
     "670a040e6f9c6b1601133fa377c77a36ce2ef5df78fd68225d3e033af1b8a230"),
    ("--strategy block-random --xmax 12 --tmax 12",
     "7ba0536c33c0a6203235bfa40d501a8091b50939259e9b6b8244df5e249a56c2"),
    ("--strategy block-random --block 5 --xmax 12 --tmax 12 --exact",
     "c354ffe0fe07504dd2dda0ffc7a045720108ae388fcff4434d92e19618c9f04a"),
    ("--strategy block-random --block 3 --xmax 9 --tmax 9 --format json",
     "8cd91cd97be9c2c584848f610b456ff40aa4fe88deba5738e0421428d8139dd6"),
    ("--strategy block-random --block 5 --xmax 12 --tmax 12 --format json",
     "19950fb7166eedbcb2a583f4fcd6d9eae289ac7b488cec2f02526d6612556f98"),
    ("--strategy block-random --block 7 --xmax 15 --tmax 15 --exact --format json",
     "f2a15871910a637d3ca4315ff57dabc53024f70350812dc899260ff4d92e92d7"),
    ("--strategy solo --k 3 --xmax 8 --tmax 8",
     "b61029e34ec52e4fe6da9cbfb5724fbdf7282b29226d11f92c534bacfa338482"),
    ("--strategy solo --xmax 8 --tmax 8 --exact --format json",
     "54331a89000e30a45be502bdd30679dd085618325953b11f657421523ecbe742"),
    ("--strategy coordinated --k 3 --searcher-id 2 --xmax 10 --tmax 5",
     "2e61855957853cca4c6acd185c7596307e64e50281fa519797893879ddde5bf8"),
    ("--strategy coordinated --k 3 --xmax 10 --tmax 5 --exact --format json",
     "d4f309143e8dc800871ca98daf5e4294a521a0c8248d1f8734dc424e5a59992d"),
    # slab shapes the pins above miss: rows whose entry step is past --tmax,
    # a single column, the one-box block, k = 4, and a partition slab wider
    # than 100 columns
    ("--k 2 --xmax 300 --tmax 40 --exact",
     "7543707ae600a5fc4b2e4a3925cf560ab65e58dea48558c48ecae8902731286b"),
    ("--k 3 --xmax 7 --tmax 0 --exact --format json",
     "90f30921c06bd98f65cfcd5980a0a610e6d8abca94b02f2ad02708cc321ba5de"),
    ("--k 2 --xmax 5 --tmax 0",
     "d1773fb0bc2a99a029a87c3061e88af56b1e14a3ff58f65e49c4c9ccae0c0358"),
    ("--strategy block-random --block 1 --xmax 6 --tmax 6 --exact",
     "4bd87b8edbf140f902bb8e4146a9672a5aac796220adc90f856282118c2d9bd5"),
    ("--k 4 --xmax 15 --tmax 15",
     "906ab05128db78d3487067725c95446d3c8c7bb845bebe260b6f1b6086aae950"),
    ("--strategy coordinated --k 3 --searcher-id 3 --xmax 12 --tmax 120 --exact --format json",
     "8a3190487cbe0e38d29c4695ace5a76bc0d96e387e11c58ac544fa4a3c8d8fec"),
    # rows that run dry (N reaches 0 at a step where m = 1) with --tmax past
    # the zero: block-random b = 1, 2, nested k = 1, solo and every
    # coordinated id of k = 2, 3.  A 0/1 slab's CSV is the same in both modes.
    ("--strategy block-random --block 1 --xmax 7 --tmax 12",
     "27cae0b94aff42f414402da067dc29baf823a13a874d00bc0c020b6e3a4a31fb"),
    ("--strategy block-random --block 1 --xmax 7 --tmax 12 --format json",
     "9b343f84d11e4c318dc5574c4040fbcec575be8f4f7b30d4213a76d714bf5655"),
    ("--strategy block-random --block 1 --xmax 7 --tmax 12 --exact --format json",
     "8ec1d4fcdb1ba6b6d1efa09c33f09fdd89824a39679e6a3e94ba5cd87de6c01e"),
    ("--strategy block-random --block 2 --xmax 9 --tmax 14",
     "743056936f61ff6d83c971ce7a202335c1275eca2c1c3b10c2f3237abb6d4b5c"),
    ("--strategy block-random --block 2 --xmax 9 --tmax 14 --exact",
     "916a4fe37f8c951a5e5e44db43a0a14ec1fddf4c56c4ee036b2fc46226c72ee9"),
    ("--strategy block-random --block 2 --xmax 9 --tmax 14 --format json",
     "6b101c73873c8de6f5382db6d7f525fdbfd3aa48c6d277fb268a45e7f1f375c8"),
    ("--strategy block-random --block 2 --xmax 9 --tmax 14 --exact --format json",
     "be7b50344f7f4b41e46fddaef604e56b1052e591e93035d3168af126a0ab99b4"),
    ("--k 1 --xmax 9 --tmax 14 --format json",
     "0f0e5137c8d8070471bc65c7a1f80b4abe9700672103250f87d8979d4ac44c89"),
    ("--k 1 --xmax 9 --tmax 14 --exact --format json",
     "e1300ca5bb486897e6d4c579a9fd4a85369e41ca6587d3b9e3feab3023a1f2d4"),
    ("--strategy solo --xmax 6 --tmax 11",
     "148e230afc6be59f3c686c7cad2451f280829cd3ed4f7739f540a6473dfd8a91"),
    ("--strategy solo --xmax 6 --tmax 11 --format json",
     "ff763eadd945ae25da6f4ea0d41e43fcdac52ee6300dafbc65e4acb6440e34ad"),
    ("--strategy solo --xmax 6 --tmax 11 --exact --format json",
     "8466a46e6e0a31794a486465722bbdb1fbe8bfbbe1f242e52bf47fc317751139"),
    ("--strategy coordinated --k 2 --searcher-id 1 --xmax 9 --tmax 8",
     "94ab8424eef3540ea2fa524898fe0569d727e7e06ef91c2fae7a6b46faffef71"),
    ("--strategy coordinated --k 2 --searcher-id 1 --xmax 9 --tmax 8 --exact --format json",
     "bd108b95a02b36c5727f73161f5fc105a7bab9d49996223bb68b0d9f91edb5b5"),
    ("--strategy coordinated --k 2 --searcher-id 2 --xmax 9 --tmax 8 --exact",
     "55eb239f0a47764e671eceaa1810e5f41a504aacd23ec351418746a54b97a983"),
    ("--strategy coordinated --k 2 --searcher-id 2 --xmax 9 --tmax 8 --format json",
     "e4a4bcba0b0fd1367312140bba1bcb94bdbe7f1a55a27ea60ae8bebd08229c98"),
    ("--strategy coordinated --k 3 --searcher-id 1 --xmax 10 --tmax 6",
     "f6a856f53c14ca07dae2156b0499991cebd477cb00b9a3d79d84a82bf9aeb096"),
    ("--strategy coordinated --k 3 --searcher-id 1 --xmax 10 --tmax 6 --format json",
     "4e1f95910a2199a590112a8cd31a664df3a90289bacfc1e7ddb68d97d83b865f"),
    ("--strategy coordinated --k 3 --searcher-id 2 --xmax 10 --tmax 6 --exact",
     "4379517c839b67d133d56e2475b8b07e8e369af1a8afb80b9553af2382703256"),
    ("--strategy coordinated --k 3 --searcher-id 2 --xmax 10 --tmax 6 --exact --format json",
     "5a73a977018dcf96a89456102977962929978507732acd3b70774ea0b9df2ed6"),
    ("--strategy coordinated --k 3 --searcher-id 3 --xmax 10 --tmax 6",
     "ee09c1c977464d42bc7a9d29c896423cc7778edb5c070882b68835ca22b2f920"),
    ("--strategy coordinated --k 3 --searcher-id 3 --xmax 10 --tmax 6 --format json",
     "2cb436be0576ffffe70d1fa0cbe1b9bdc034c2b5074e1def6668ac4a14bb7580"),
    # float slabs of one-box pools, whose rows hold 1.0 and 0.0 only, pinned
    # before each cell value was formatted once
    ("--strategy solo --xmax 120 --tmax 90",
     "14fa8c8da2341970626f464ba41ac38728087487bfa8cb16e0f19784a7401891"),
    ("--strategy solo --xmax 120 --tmax 90 --format json",
     "2e55bd6a16ebf868e2143e6c6caeedc64ea5c51c936e2b5873094e202ba0c12a"),
    ("--strategy coordinated --k 4 --searcher-id 3 --xmax 70 --tmax 40",
     "87169f650ed234011f37c110ac7385bb7b28ebc0176f671c7fceff8e339e9c39"),
    ("--strategy coordinated --k 4 --searcher-id 3 --xmax 70 --tmax 40 --format json",
     "6942b32fc0bb8013f737b7575ba3f0c8c6f20b7eec7aaf16711a76da41a5b49d"),
    ("--strategy block-random --block 1 --xmax 50 --tmax 60",
     "d62fa30003b484bf326f4a93bf556997b6ba08f6fa45ea2016cb2f0e1503353e"),
    ("--strategy block-random --block 1 --xmax 50 --tmax 60 --format json",
     "619cd273f09de3cb34bbaf466cd59f7922f2c4eea46af151e0c9d685a480e2f6"),
    # float slabs with long runs of leading ones, rows clipped at --tmax + 1
    # and rows that run dry, pinned before rows were cached from their entry
    # step
    ("--k 2 --xmax 90 --tmax 30",
     "69094fc0cb0b3840be9b1281eca8ec8d47514110116e0dd78f3b88f92922f784"),
    ("--k 3 --xmax 40 --tmax 40 --format json",
     "39445f862488eca18c98dc8325a189944245f07c8415bc0f572f0e24da2ece60"),
    ("--strategy block-random --block 3 --xmax 20 --tmax 45",
     "f943ba0fff516d11b42dfb586ea7ed0af55fa17f704e18760de3f30b303b9dda"),
    ("--strategy coordinated --k 3 --searcher-id 2 --xmax 30 --tmax 12 --format json",
     "d72d39618a5f3a51c8037269537cd5db8f9161ccdf7c61f335456f776f683504"),
]


def test_matrix_stdout_pinned(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)  # JSON echoes the seed
    for argv, digest in MATRIX_STDOUT_SHA256:
        code, out = run_cli(capsys, "matrix", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# every strategy a slab can show: nested k, block-random b, solo, and each
# coordinated searcher id of k = 3
SLAB_KINDS = [(("--k", str(k)), StrategyKind.nested(), SearchParams(k)) for k in (1, 2, 3, 5)]
SLAB_KINDS += [(("--strategy", "block-random", "--block", str(b)), StrategyKind.block_random(b),
                SearchParams(2)) for b in (1, 2, 3, 5)]
SLAB_KINDS += [(("--strategy", "solo"), StrategyKind.solo(), SearchParams(2))]
SLAB_KINDS += [(("--strategy", "coordinated", "--k", "3", "--searcher-id", str(i)),
                StrategyKind.coordinated(i), SearchParams(3)) for i in (1, 2, 3)]


def test_matrix_cells_equal_view_values(capsys):
    # each slab row is rendered once and shared by every x with the same first
    # step, so check every cell against its own value: str of the Fraction
    # when exact, the float (in full in JSON, through _fmt in CSV) otherwise;
    # x up to 40 and t up to 14 include rows that do not fall by --tmax
    xmax, tmax = 40, 14
    for argv, kind, params in SLAB_KINDS:
        for exact in (False, True):
            view = matrix.SurvivalMatrix(kind.rule(params), exact)
            want = {x: [view.value(x, t) for t in range(tmax + 1)] for x in range(1, xmax + 1)}
            flags = [*argv, "--xmax", str(xmax), "--tmax", str(tmax)] + ["--exact"] * exact
            code, out = run_cli(capsys, "matrix", *flags)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "x," + ",".join(map(str, range(tmax + 1)))
            cell = str if exact else (lambda v: _fmt(float(v)))
            assert lines[1:] == [",".join([str(x), *map(cell, want[x])]) for x in want], flags
            code, out = run_cli(capsys, "matrix", *flags, "--format", "json")
            assert code == 0
            results = json.loads(out)["results"]
            assert [r["x"] for r in results] == list(want)
            for r in results:
                got, cells = r["n"], want[r["x"]]
                if exact:
                    assert got == [str(v) for v in cells], flags
                else:
                    assert [v.hex() for v in got] == [float(v).hex() for v in cells], flags


def test_exact_pool_slab_builds_no_fraction(capsys, monkeypatch):
    # an exact pool-sampler slab is written straight from the lowest-terms
    # integer pairs: no Fraction is built in boxsearch.matrix while it renders
    built = []

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(matrix, "Fraction", CountedFraction)
    for argv in (("--k", "2"), ("--k", "5", "--format", "json"),
                 ("--strategy", "block-random", "--block", "3"),
                 ("--strategy", "block-random", "--block", "1", "--format", "json")):
        code, _ = run_cli(capsys, "matrix", *argv, "--xmax", "30", "--tmax", "30", "--exact")
        assert code == 0
    assert built == []
    # the counter does see the Fractions that the exact view's rows are made of
    matrix.SurvivalMatrix(StrategyKind.nested().rule(SearchParams(2)), exact=True).row(1, 3)
    assert len(built) == 4


# SHA-256 and exit status of Monte Carlo stdouts, computed with the engine
# that ran each searcher on its own numpy Generator: the batched engine
# reproduces numpy's streams bit for bit, so every per-trial time and every
# printed digit stays the same.  The last speedup seed is above 2**64.
MC_STDOUT_SHA256 = [
    ("speedup --mode mc --k 1 --x 9 --x 30 --trials 200", 0,
     "07ef9dd8ec11413fe0873d642bb6b6246980877fb71b4ca5be449b805a273ab6"),
    ("speedup --mode mc --k 2 --x-range 1:50:7 --trials 300 --seed 5", 0,
     "4e51fa7266b40e85f5bfefd58e20420ec47701bbd5c8a8e112143c211bc43819"),
    ("speedup --mode mc --k 3 --x 20 --x 400 --trials 200 --format json --seed 99", 0,
     "5daa52faa6d7a1f358709b716e2eef2252508482900c119db7f81151abc6deed"),
    ("speedup --mode mc --k 5 --x 45 --trials 300 --seed 2024", 0,
     "dc946a9c72f0beb4398e9350dc144200523fbdcbe31c47e62bc493d9dc04f0b9"),
    ("speedup --mode mc --k 2 --x 2000 --trials 16 --format json --seed 3", 0,
     "07eb7b8ebcb3f4c28d11c61d651b63a9f5bcb5a6527f7ad4155bfa015b4d041c"),
    ("crash --k 2 --k-prime 1 --x 1000 --trials 40 --seed 9", 0,
     "de0a14fac53d9abb653fec21f1dcab97484b34a659b97bb62bbf56a876467827"),
    ("crash --k 3 --k-prime 1 --x 30 --trials 300 --seed 7", 0,
     "86e43d2bf3c8d2362a30fa15fd535e5ddb0c92ed7b5720c9b4ffb400a803eba4"),
    ("crash --k 5 --k-prime 2 --x 25 --trials 150 --format csv --seed 8", 0,
     "013d20a593a5f7fec379ce54755087ba6fc0aebed3f9314603254109a0f5100c"),
    ("robustness --k 2 --x 35 --trials 200 --perturbation identity --perturbation shift:4"
     " --perturbation extra-boxes --perturbation local-shuffle:5"
     " --perturbation local-shuffle:3:11 --seed 1234", 1,
     "d695ac9af3b1726a6177028c33257657ff8d2489aca755fda44a2ac53db4e7be"),
    ("robustness --k 3 --x 27 --trials 150 --perturbation extra-boxes --format csv"
     " --seed 1515142311", 1,
     "9564a5a79409fe86c2e1a05fbbc8f8b137e7c53f748ecdfb36fc95a59d320bc8"),
    ("speedup --mode mc --k 2 --x 12 --trials 200 --seed 18446744073709551616", 0,
     "01fcd9156942393946592b86923a3d5e4953d5ba52f9f54e3e638798679e030d"),
]


def test_mc_stdout_pinned(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    for argv, status, digest in MC_STDOUT_SHA256:
        code, out = run_cli(capsys, *argv.split())
        assert code == status, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# SHA-256 of verify-bounds stdouts: the benchmark's argv for its seeds 1-6, and
# the bare check at k = 1, 2, 10.  The column-identity entries sum exact cells;
# the claim1-tail and lower-bound-dominance values come from series summed
# with the second-order tail bracket, each in a first chunk sized from it.
VERIFY_STDOUT_SHA256 = [
    *((f"--instances 1 --theta-x 10000 --k 2 --k 3 --k 5 --seed {seed}", digest)
      for seed, digest in enumerate([
          "01426dc0dc56b2b139d80c8057a2a0ef02ddd0bbae325a05ec25d03d9c8e1e25",
          "999fd39c9ff25cb870ad46d298844f367ead90c46b3e1ae9c0356880475653fc",
          "cd2f4958a7bb026d27f17aff3512f9baca2429de4079a14114aaa46c968152f6",
          "d107334db7783c94c5b51353b19e6ca801f12777460ccfcdc19ca71769a9385d",
          "9942bfbb8e6a236d8dcfa0921533a934880b559bc90a31784e81b2d85c312db4",
          "a451004835519db402bf8bc0f79f44a60f3bc5cd390686338ef6569385f7947d",
      ], start=1)),
    ("--k 1 --k 2 --k 10", "3169f6872a8a4501ec16c8a46af6fa08858f13455092866c030f9ae2e523f76b"),
]


def test_verify_bounds_stdout_pinned(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)  # JSON echoes the seed
    for argv, digest in VERIFY_STDOUT_SHA256:
        code, out = run_cli(capsys, "verify-bounds", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        identity = [e for e in json.loads(out)["results"] if e["name"] == "column-identity(t<=100)"]
        assert identity and all(e["value"] == 0.0 and e["status"] == "pass" for e in identity)


# SHA-256 of exact speedup stdouts: dense curves at k = 1 (whose pool runs
# dry, a finite sum), 2, 3 and 5, with and without windows, and two blocks
# far out at a tight epsilon.  Each row is a pool block's certified series.
EXACT_SPEEDUP_STDOUT_SHA256 = [
    ("--k 1 --x-range 1:300:1 --format json",
     "78d9eae2df2acc614669b115eef5d645d48f98476d6b29adc4fec96cd29352a1"),
    ("--k 1 --x-range 1:300:1 --format json --window",
     "f5c40b590ba77e9075364004b9e0c57ff03da4d3944a6adf94687cc77e632ece"),
    ("--k 2 --x-range 1:300:1 --format json",
     "402cff0d4b45ee05b0c5a34a68a680619993240b95dfb3dd7d4ce2fb97dcb3ab"),
    ("--k 2 --x-range 1:300:1 --format json --window",
     "6c7ea3cc3ca4826ecc764cee209461b3a1dac431ff0c316e5590a3d98e36c4a3"),
    ("--k 3 --x-range 1:300:1 --format json",
     "b6c278fb65c55de48139b19dd2c5ed3d487f4c5b7b2860060f381fdb763a40a1"),
    ("--k 3 --x-range 1:300:1 --format json --window",
     "e644fff2e0842e6160ea00b9f0b6f8c787551c3f68abb960211e2e488f7eac01"),
    ("--k 5 --x-range 1:300:1 --format json",
     "8eb67446f640b51513342e449341b65d3eff8cf78bfe007df0da51f8a46ea38f"),
    ("--k 5 --x-range 1:300:1 --format json --window",
     "80b01a8ef86e015d1c9858dcae6cd7914dfc3576144886462d1378f21944b784"),
    ("--k 3 --x 100000000 --epsilon 1e-10",
     "27bd42cf83652ec3d39b311f25d79a1e3b208a34a7b7167f44f37f1f480a167f"),
    ("--k 2 --x 10000000000 --epsilon 1e-10",
     "80bac3ce66d169e519b0636eda867d164faa27d52b1ccb534f8ff7a8de5f81ec"),
]


def test_exact_speedup_stdout_pinned(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)  # JSON echoes the seed
    for argv, digest in EXACT_SPEEDUP_STDOUT_SHA256:
        code, out = run_cli(capsys, "speedup", *argv.split())
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_matrix_json_format(capsys):
    code, out = run_cli(capsys, "matrix", "--k", "2", "--xmax", "2", "--tmax", "2",
                        "--exact", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "matrix"
    assert payload["version"]
    assert payload["results"][0] == {"x": 1, "n": ["1", "2/3", "1/3"]}


JSON_LEAVES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3,
               np.float64(2.5), 0, -7, 2 ** 70, -(2 ** 70), True, False, None, "",
               "plain", "é ü ∑ 😀", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f\n\t\r",
               "\u2028\ud800", [], {}, ()]


def _random_payload(rng: random.Random, depth: int, shared: list):
    """A nested payload of dicts, lists and tuples over JSON_LEAVES, with
    ``shared`` (one list object) placed at several depths."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(JSON_LEAVES)
    if roll < 0.4:
        return shared
    items = [_random_payload(rng, depth - 1, shared) for _ in range(rng.randrange(1, 5))]
    if roll < 0.6:
        return items
    if roll < 0.7:
        return tuple(items)
    keys = [rng.choice(["x", "n", "", "ké", 'q"', "a\\b", "\n"]) + str(i) for i in range(len(items))]
    return dict(zip(keys, items))


def test_json_writer_equals_json_dumps():
    rng = random.Random(27)  # fixed before any run
    for _ in range(400):
        shared = [rng.choice(JSON_LEAVES) for _ in range(rng.randrange(1, 4))]
        payload = _random_payload(rng, 4, shared)
        assert _json(payload) == json.dumps(payload, indent=2)
    # one list at two indents, and twice at the same indent
    shared = ["1", "2/3", 0.5]
    payload = {"a": shared, "b": [shared, shared, {"c": shared}], "d": [["s"], ["s"]]}
    assert _json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("row", [
    [0.5, 1.0, 1e-05, 1e16, 123456789.125, 2.0 ** -1074],
    [-0.0, 5e-324, -1.7976931348623157e308, 0.1 + 0.2],
    [0.5, math.nan], [math.inf, 0.25], [0.25, -math.inf], [math.nan],
    [np.float64(0.1), np.float64(-0.0), 0.75], [np.float64(math.inf), 1.5],
    [0.5, True], [False, 0.5], [0.5, 2], [3, 0.5], [0.5, None], [0.5, "n"], [0.5, [0.25]],
    (0.5, 0.25),
])
def test_json_writer_float_lists_equal_json_dumps(row):
    # a list of finite floats is written in one pass; a NaN, an infinity or
    # a value of another type sends the list back through the type dispatch
    shared = list(row)
    for payload in (row, shared, {"a": shared, "b": [shared, {"c": shared}, shared]}):
        assert _json(payload) == json.dumps(payload, indent=2)


def test_json_float_slab_equals_json_dumps(capsys):
    # a float slab's rows are shared by many x, and each is written as
    # json.dumps writes it
    code, out = run_cli(capsys, "matrix", "--k", "3", "--xmax", "40", "--tmax", "40",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = [r["n"] for r in payload["results"]]
    assert len({tuple(r) for r in rows}) == 10 and all(type(c) is float for c in rows[0])
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("bad", [Fraction(1, 3), np.int64(3)])
def test_json_writer_rejects_what_json_dumps_rejects(bad):
    for payload in (bad, [bad], ["a", bad], {"k": [1, bad]}, ("t", {"k": bad})):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError):
            _json(payload)


def test_json_slab_encodes_each_shared_row_once(capsys, monkeypatch):
    # the 40 x of this slab share 10 rows: each row's cells are encoded once,
    # not once per x
    calls = []

    def counted(text):
        calls.append(text)
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "_encode_str", counted)
    code, out = run_cli(capsys, "matrix", "--exact", "--k", "3", "--xmax", "40", "--tmax", "40",
                        "--format", "json")
    assert code == 0
    rows = [r["n"] for r in json.loads(out)["results"]]
    assert len(rows) == 40 and len({tuple(r) for r in rows}) == 10
    cells = [c for c in calls if isinstance(c, str) and re.fullmatch(r"\d+(/\d+)?", c)]
    assert len(cells) == 10 * 41


def test_speedup_exact_k1(capsys):
    code, out = run_cli(capsys, "speedup", "--k", "1", "--x", "100", "--mode", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,x,strategy,mode,theta,speedup,stderr,trials,truncation_t,tail_bound"
    fields = lines[1].split(",")
    assert 0.97 <= float(fields[5]) <= 1.03


def test_speedup_exact_k2_window(capsys):
    code, out = run_cli(capsys, "speedup", "--k", "2", "--x", "9999", "--mode", "exact",
                        "--window")
    assert code == 0
    speedup = float(out.strip().splitlines()[1].split(",")[5])
    assert abs(speedup - 9 / 8) <= 0.02 * 9 / 8


def test_speedup_mc_requires_trials(capsys):
    err = usage_error(capsys, "speedup", "--k", "2", "--x", "100", "--mode", "mc")
    assert "--trials" in err


@pytest.mark.parametrize("argv,message", [
    (("--k", "2"), "needs --x or --x-range"),
    (("--k", "0", "--x", "5"), "k must be a positive integer"),
    (("--x", "0"), "box index must be >= 1"),
    (("--x", "5", "--epsilon", "0"), "epsilon must be positive"),
    (("--x", "5", "--mode", "mc", "--trials", "1"), "need at least 2 trials"),
    (("--x", "0", "--window"), "box index must be >= 1"),
    (("--x", "10", "--epsilon", "0", "--window"), "epsilon must be positive"),
    (("--x", "5", "--mode", "mc", "--trials", "10", "--window"),
     "--window applies to --mode exact only"),
    (("--x", "5", "--mode", "mc", "--trials", "10", "--epsilon", "0"),
     "--epsilon applies to --mode exact only"),
    (("--x", "5", "--mode", "exact", "--trials", "7"), "--trials applies to --mode mc only"),
    (("--x", "10", "--epsilon", "inf", "--format", "json"), "epsilon must be positive and finite"),
    (("--x", "10", "--epsilon", "nan"), "epsilon must be positive and finite"),
    (("--x", "5", "--mode", "mc", "--trials", "0"), "need at least 2 trials, got 0"),
    # a hit past the simulator's int64 keys could never be recorded
    (("--k", "2", "--x", "4611686018427387904", "--mode", "mc", "--trials", "2"),
     "treasure 4611686018427387904 is beyond the simulator's range"),
    (("--k", "2", "--x", "99999999999999999999", "--mode", "mc", "--trials", "2"),
     "treasure 99999999999999999999 is beyond the simulator's range"),
    # keyable at its entry step, but with no room for a hit past it
    (("--k", "2", "--x", "4611686018427387903", "--mode", "mc", "--trials", "2"),
     "treasure 4611686018427387903 is beyond the simulator's range"),
])
def test_speedup_bad_input_exits_2(capsys, argv, message):
    assert message in usage_error(capsys, "speedup", *argv)


def test_uncertified_result_exits_3(capsys, monkeypatch):
    # the ends of the float epsilon range run the first-chunk guess at its
    # extremes: an epsilon below any sum's rounding exits 3, the largest exits 0
    code = main(["speedup", "--k", "2", "--x", "10", "--epsilon", "5e-324"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "could not certify" in captured.err and "Traceback" not in captured.err
    assert main(["speedup", "--k", "2", "--x", "10", "--epsilon", "1.7976931348623157e308"]) == 0
    capsys.readouterr()

    def uncertified(*args, **kwargs):
        raise RuntimeError("tail bound 1e-3 still above 1e-5 after 1000 steps")

    monkeypatch.setattr(matrix, "_series", uncertified)  # the one series kernel
    for argv in (("--x", "10"), ("--x-range", "1:50:1", "--window")):
        code = main(["speedup", "--k", "2", *argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "could not certify: tail bound 1e-3 still above" in captured.err
        assert "Traceback" not in captured.err


def test_exact_ops_sum_one_chunk_per_block(capsys, monkeypatch):
    # a work count: every series behind the exact speedup op kinds and
    # verify-bounds (Claim 1's tail, the dominance windows) certifies inside
    # its first chunk, sized from its own tail bracket to a power of two of at
    # most 512 taus (a second chunk would add 8192)
    walked = []

    def counted(start, *args):
        total, width, last = series(start, *args)
        walked.append(last - start + 1)
        return total, width, last

    series = matrix._series
    monkeypatch.setattr(matrix, "_series", counted)
    runs = [(k, x, eps, window) for k, xs, eps, window in (
        (8, (997, 1000), 1e-5, False), (2, (9997, 10000), 1e-7, False),
        (5, (997, 1000), 1e-5, True), (3, (9997, 10000), 1e-6, True),
        (3, (9997, 10000), 1e-7, False), (5, (9997, 10000), 1e-6, False),
        (2, (99997, 100000), 1e-7, True), (8, (10000,), 1e-7, False)) for x in xs]
    for k, x, eps, window in runs:
        argv = ["speedup", "--k", str(k), "--x", str(x), "--epsilon", repr(eps),
                *(["--window"] if window else [])]
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert run_cli(capsys, "verify-bounds", "--instances", "1")[0] == 0
    assert len(walked) > len(runs) and max(walked) <= 512
    assert all(n >= matrix._MIN_CHUNK and n & (n - 1) == 0 for n in walked)


def test_block_past_1e9_taus_certifies(capsys):
    # the step cap counts the taus walked from the block's start
    code, out = run_cli(capsys, "speedup", "--k", "2", "--x", "10000000000",
                        "--epsilon", "1e-10", "--format", "json")
    assert code == 0
    row, = json.loads(out)["results"]
    assert row["tail_bound"] <= 1e-10


def test_speedup_exact_vs_mc_rows_agree(capsys):
    code, exact_out = run_cli(capsys, "speedup", "--k", "2", "--x", "500",
                              "--mode", "exact", "--epsilon", "1e-9")
    assert code == 0
    code, mc_out = run_cli(capsys, "speedup", "--k", "2", "--x", "500", "--mode", "mc",
                           "--trials", "4000", "--seed", "31")
    assert code == 0
    exact_theta = float(exact_out.strip().splitlines()[1].split(",")[4])
    mc = mc_out.strip().splitlines()[1].split(",")
    mc_theta, mc_stderr = float(mc[4]), float(mc[6])
    assert abs(mc_theta * 500 - exact_theta * 500) <= 4 * mc_stderr


def test_speedup_x_range(capsys):
    code, out = run_cli(capsys, "speedup", "--k", "2", "--x-range", "100:300:100")
    assert code == 0
    xs = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert xs == [100, 200, 300]


def test_robustness_identity_and_exit(capsys):
    code, out = run_cli(capsys, "robustness", "--k", "2", "--x", "200", "--trials",
                        "300", "--seed", "5", "--perturbation", "identity")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    entries = payload["results"]
    assert entries[1]["perturbation"] == "identity"
    assert entries[1]["speedup_ratio"] == 1.0


def test_robustness_violation_exit_code(capsys):
    # tolerance -1 flags any entry whose ratio is below 1 + 1 = impossible bar
    code, out = run_cli(capsys, "robustness", "--k", "2", "--x", "200", "--trials",
                        "200", "--seed", "5", "--perturbation", "shift:400",
                        "--tolerance", "-1")
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == ["shift:400"]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
def test_robustness_bad_tolerance_exits_2(capsys, tolerance):
    err = usage_error(capsys, "robustness", "--k", "2", "--x", "200", "--trials", "200",
                      "--seed", "5", "--perturbation", "shift:400", f"--tolerance={tolerance}")
    assert "tolerance must be finite" in err


def test_robustness_negative_shuffle_seed_exits_2(capsys):
    err = usage_error(capsys, "robustness", "--k", "2", "--x", "20", "--trials", "20",
                      "--perturbation", "local-shuffle:3:-1")
    assert "bad perturbation spec 'local-shuffle:3:-1': seed must be >= 0" in err


def test_crash_report(capsys):
    code, out = run_cli(capsys, "crash", "--k", "2", "--k-prime", "0", "--x", "150",
                        "--trials", "200", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    crashed, control, check = payload["results"]
    assert set(crashed) == {"fleet", "k", "crashed", "trials", "mean_time", "stderr",
                            "speedup", "ci95", "non_discovery_count"}
    assert crashed["mean_time"] == control["mean_time"]
    assert check["passed"] is True


def test_crash_validation(capsys):
    err = usage_error(capsys, "crash", "--k", "2", "--k-prime", "2", "--x", "100",
                      "--trials", "100")
    assert "--k-prime" in err


@pytest.mark.parametrize("argv,message", [
    (("robustness", "--k", "2", "--x", "10", "--perturbation", "swap:3"),
     "unknown perturbation 'swap'"),
    (("speedup", "--x-range", "1:2"), "bad range '1:2'; expected LO:HI:STEP"),
    (("speedup", "--x-range", "5:1:1"), "bad range '5:1:1'; need 1 <= LO <= HI, STEP >= 1"),
])
def test_bad_option_value_exits_2(capsys, argv, message):
    assert message in usage_error(capsys, *argv)


def test_crash_large_fleet_sets_up_in_linear_time(capsys):
    # a fleet of 32000 searchers: each searcher's crash time and stream
    # column are looked up, not searched for
    argv = ("crash", "--k", "32000", "--k-prime", "1", "--x", "10", "--trials", "2")
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert run_cli(capsys, *argv) == (code, out)


def test_crash_bad_treasure_exits_2(capsys):
    err = usage_error(capsys, "crash", "--k", "2", "--k-prime", "1", "--x", "0",
                      "--trials", "10")
    assert "treasure index must be >= 1" in err


@pytest.mark.parametrize("argv,message", [
    # the crashed fleet (ids 2 and 3, span 4) overflows where its control
    # (ids 1 and 2) alone would not; the message is the one of a lone run
    (("crash", "--k", "3", "--k-prime", "1", "--x", "1800000000000000000"),
     "treasure 1800000000000000000 is beyond the simulator's range: searcher 2 sees it at "
     "box 1800000000000000000 from step 1199999999999999999, and twice that step must stay "
     "below 2305843009213693951"),
    (("robustness", "--k", "2", "--x", "2400000000000000000", "--perturbation", "shift:5"),
     "treasure 2400000000000000000 is beyond the simulator's range: searcher 1 sees it at "
     "box 2400000000000000000 from step 1599999999999999999, and twice that step must stay "
     "below 3074457345618258602"),
    # only the shifted fleet overflows: rejected before the baseline draws
    (("robustness", "--k", "2", "--x", "2200000000000000000",
      "--perturbation", "shift:400000000000000000"),
     "treasure 2200000000000000000 is beyond the simulator's range: searcher 1 sees it at "
     "box 2600000000000000000 from step 1733333333333333333"),
])
def test_fused_experiment_checks_key_range_first(capsys, argv, message):
    assert message in usage_error(capsys, *argv, "--trials", "10", "--seed", "1")


def test_huge_local_shuffle_window_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["robustness", "--k", "2", "--x", "3", "--trials", "7",
              "--perturbation", "local-shuffle:1000000000"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert ("argument --perturbation: bad perturbation spec 'local-shuffle:1000000000': "
            "window must be <= 1048576, got 1000000000") in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,flag", [
    (("--k", "9223372036854775807"), "--k 9223372036854775807 is too large"),
    (("--k", "9223372036854775806"), "--k 9223372036854775806 is too large"),
    (("--strategy", "block-random", "--block", "9223372036854775807", "--exact"),
     "--block 9223372036854775807 is too large"),
])
def test_matrix_pool_past_int64_exits_2(capsys, argv, flag):
    err = usage_error(capsys, "matrix", *argv, "--xmax", "100", "--tmax", "3")
    assert flag in err and "below 2**63 up to --tmax 3" in err


@pytest.mark.parametrize("argv", [("--strategy", "solo"), ("--k", "2")])
def test_matrix_slab_ceiling_names_tmax(capsys, argv):
    # a --tmax near 2**63 is refused by the slab ceiling, whatever --max-cells
    # says, before any row is built or the int64 guard names --k
    err = usage_error(capsys, "matrix", *argv, "--xmax", "1", "--tmax", "9223372036854775806",
                      "--max-cells", "99999999999999999999")
    assert ("--xmax 1 x --tmax 9223372036854775806 is 9223372036854775807 cells, above the "
            f"ceiling of {MAX_SLAB_CELLS} cells") in err
    assert "too large" not in err


def test_matrix_slab_ceiling_caps_every_max_cells(capsys):
    # the default cap lies under the ceiling, and a larger cap cannot lift it
    assert build_parser().parse_args(["matrix", "--xmax", "1", "--tmax", "0"]).max_cells \
        <= MAX_SLAB_CELLS
    err = usage_error(capsys, "matrix", "--xmax", "1", "--tmax", str(MAX_SLAB_CELLS),
                      "--max-cells", str(2 * MAX_SLAB_CELLS))
    assert f"is {MAX_SLAB_CELLS + 1} cells, above the ceiling of {MAX_SLAB_CELLS} cells" in err


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_verify_bounds_bad_instances_exits_2(capsys, instances):
    err = usage_error(capsys, "verify-bounds", "--instances", instances, "--skip-theta")
    assert "--instances must be >= 1" in err


def test_verify_bounds_passes_k2(capsys):
    code, out = run_cli(capsys, "verify-bounds", "--k", "2", "--instances", "5",
                        "--skip-theta", "--seed", "123")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    names = {e["name"] for e in payload["results"]}
    assert "claim1-tail" in names
    assert any(n.startswith("water-filling") for n in names)


def test_verify_bounds_fails_when_quadrature_cannot_certify(capsys, monkeypatch):
    def uncertified(f, t_max, scale):
        return 0.5, 1.0  # error estimate far above any tolerance

    monkeypatch.setattr(bounds, "_piecewise_quad", uncertified)
    code, out = run_cli(capsys, "verify-bounds", "--k", "2", "--instances", "1",
                        "--skip-theta", "--seed", "123", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    entries = [e for e in payload["results"] if e["name"] == "lower-bound-quadrature(a=3)"]
    assert [e["status"] for e in entries] == ["fail"]
    assert "quadrature did not converge" in entries[0]["note"]
    assert payload["failures"]


def test_verify_bounds_theta_dominance_entry(capsys):
    code, out = run_cli(capsys, "verify-bounds", "--k", "2", "--instances", "2",
                        "--theta-x", "2000", "--seed", "123")
    assert code == 0
    payload = json.loads(out)
    entries = [e for e in payload["results"] if e["name"] == "lower-bound-dominance"]
    assert entries and entries[0]["status"] == "pass"


def test_verify_bounds_k1_not_applicable(capsys):
    code, out = run_cli(capsys, "verify-bounds", "--k", "1", "--k", "2", "--instances", "2",
                        "--skip-theta", "--seed", "123")
    assert code == 0
    payload = json.loads(out)
    skipped = [e for e in payload["results"] if e["status"] == "skip"]
    assert skipped and all("k >= 2 required" in e["note"] and e["k"] == 1 for e in skipped)
    # a skip carries the name of the check it stands for
    at_k2 = {e["name"] for e in payload["results"] if e["k"] == 2}
    assert {e["name"] for e in skipped} <= at_k2
    # the column identity still applies at k = 1
    assert any(e["name"].startswith("column-identity") and e["status"] == "pass"
               and e["k"] == 1 for e in payload["results"])


def test_seed_env_var_override(capsys, monkeypatch):
    monkeypatch.setenv("BOXSEARCH_SEED", "777")
    code, out = run_cli(capsys, "robustness", "--k", "2", "--x", "100", "--trials",
                        "200", "--perturbation", "identity")
    assert code == 0
    assert json.loads(out)["seed"] == 777
    # explicit flag wins over the environment
    code, out = run_cli(capsys, "robustness", "--k", "2", "--x", "100", "--trials",
                        "200", "--perturbation", "identity", "--seed", "3")
    assert json.loads(out)["seed"] == 3


def test_seed_env_var_not_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("BOXSEARCH_SEED", "abc")
    err = usage_error(capsys, "matrix", "--xmax", "2", "--tmax", "2")
    assert "BOXSEARCH_SEED" in err


@pytest.mark.parametrize("argv", [
    ("speedup", "--mode", "mc", "--k", "2", "--x", "5", "--trials", "10"),
    ("crash", "--k", "3", "--k-prime", "1", "--x", "5", "--trials", "10"),
    ("robustness", "--k", "2", "--x", "5", "--trials", "10"),
    ("verify-bounds", "--instances", "1", "--skip-theta"),
])
def test_negative_seed_exits_2(capsys, monkeypatch, argv):
    err = usage_error(capsys, *argv, "--seed", "-1")
    assert "--seed must be >= 0, got -1" in err
    monkeypatch.setenv(SEED_ENV_VAR, "-5")
    err = usage_error(capsys, *argv)
    assert f"{SEED_ENV_VAR} must be >= 0, got -5" in err


def test_rerun_byte_identical(capsys):
    commands = [
        ("matrix", "--k", "2", "--xmax", "6", "--tmax", "4", "--exact"),
        ("speedup", "--k", "2", "--x", "500", "--mode", "mc", "--trials", "500",
         "--seed", "88"),
        ("robustness", "--k", "2", "--x", "150", "--trials", "200", "--seed", "88"),
        ("crash", "--k", "3", "--k-prime", "1", "--x", "150", "--trials", "200",
         "--seed", "88"),
        ("verify-bounds", "--k", "2", "--instances", "3", "--skip-theta",
         "--seed", "88"),
    ]
    for argv in commands:
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second, f"non-deterministic output for {argv[0]}"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out = run_cli(capsys, "matrix", "--k", "2", "--xmax", "3", "--tmax", "2",
                        "--exact", "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("x,0,1,2\n1,1,2/3,1/3")


SMALL_COMMANDS = {
    "matrix": ("matrix", "--k", "2", "--xmax", "3", "--tmax", "3", "--exact"),
    "speedup": ("speedup", "--k", "2", "--x", "50", "--x", "7"),
    "robustness": ("robustness", "--k", "2", "--x", "20", "--trials", "20", "--seed", "1",
                   "--perturbation", "shift:2"),
    "crash": ("crash", "--k", "2", "--k-prime", "1", "--x", "20", "--trials", "20",
              "--seed", "1"),
    "verify-bounds": ("verify-bounds", "--k", "2", "--instances", "1", "--skip-theta",
                      "--seed", "1"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(SMALL_COMMANDS))
def test_output_file_bytes_equal_stdout(tmp_path, capsys, name, fmt):
    argv = (*SMALL_COMMANDS[name], "--format", fmt)
    code, out = run_cli(capsys, *argv)
    path = tmp_path / "out.txt"
    file_code, file_out = run_cli(capsys, *argv, "--output", str(path))
    assert file_out == "" and file_code == code
    assert path.read_bytes() == out.encode("utf-8")


def test_unwritable_output_exits_2(tmp_path, capsys):
    err = usage_error(capsys, "matrix", "--xmax", "2", "--tmax", "2",
                      "--output", str(tmp_path / "missing" / "x.csv"))
    assert "--output" in err


def test_sweep_csv_shapes(capsys):
    header = "k,x,strategy,perturbation,trials,mean_time,stderr,speedup"
    code, out = run_cli(capsys, "crash", "--k", "3", "--k-prime", "1", "--x", "50",
                        "--trials", "50", "--seed", "4", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == header and len(lines) == 3
    assert lines[1].startswith("3,50,nested,crashed:1,50,")
    assert lines[2].startswith("2,50,nested,control,50,")
    code, out = run_cli(capsys, "robustness", "--k", "2", "--x", "50", "--trials", "50",
                        "--seed", "4", "--perturbation", "shift:3", "--format", "csv")
    lines2 = out.strip().splitlines()
    assert lines2[0] == header and len(lines2) == 3
    assert lines2[1].startswith("2,50,nested,identity,50,")
    assert lines2[2].startswith("2,50,nested,shift:3,50,")
    for line in lines[1:] + lines2[1:]:
        fields = line.split(",")
        assert len(fields) == 8 and all(float(v) > 0 for v in fields[5:])


def shared_parser_between_runs(capsys, monkeypatch) -> None:
    """Calls that end in SystemExit or change the environment, made between
    pinned runs so that anything they leave on the shared parser shows."""
    usage_error(capsys, "crash", "--k", "2", "--k-prime", "2", "--x", "5")
    for flag, start in (("--help", "usage: boxsearch"), ("--version", "boxsearch ")):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith(start)
    monkeypatch.setenv(SEED_ENV_VAR, "4242")
    code, out = run_cli(capsys, "matrix", "--xmax", "1", "--tmax", "1", "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == 4242
    monkeypatch.delenv(SEED_ENV_VAR)


def test_shared_parser_keeps_pinned_stdout(capsys, monkeypatch):
    # main parses every call with one parser built per process; calls in any
    # order, with errors, --help, --version and a seed change in between,
    # print what each prints alone
    assert build_parser() is build_parser()
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    runs = [(f"matrix {argv}", 0, digest) for argv, digest in MATRIX_STDOUT_SHA256]
    runs += MC_STDOUT_SHA256
    for order in (runs, runs[::-1]):
        for i, (argv, status, digest) in enumerate(order):
            if i % 4 == 0:
                shared_parser_between_runs(capsys, monkeypatch)
            code, out = run_cli(capsys, *argv.split())
            assert code == status, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_shared_parser_resets_options(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def options(*argv):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code in (0, 1), argv  # 1: robustness flagged a speed-up loss
        return json.loads(out)["options"]

    # append actions start from their default on every call
    assert options("speedup", "--x", "5", "--x", "7")["x"] == [5, 7]
    assert options("speedup", "--x", "9")["x"] == [9]
    quick = ("--instances", "1", "--skip-theta")
    assert options("verify-bounds", "--k", "2", "--k", "3", *quick)["k"] == [2, 3]
    assert options("verify-bounds", "--k", "3", *quick)["k"] == [3]
    robust = ("robustness", "--k", "2", "--x", "20", "--trials", "20")
    assert options(*robust, "--perturbation", "shift:2", "--perturbation",
                   "identity")["perturbations"] == ["shift:2", "identity"]
    assert options(*robust, "--perturbation", "extra-boxes")["perturbations"] == [
        "extra-boxes:ceil-sqrt"]
    assert options(*robust)["perturbations"] == ["shift:5", "extra-boxes:ceil-sqrt"]
    # None defaults stay None after a call that set them
    slab = ("--xmax", "3", "--tmax", "3")
    options("matrix", "--strategy", "block-random", "--block", "5", *slab)
    options("matrix", "--strategy", "coordinated", "--k", "3", "--searcher-id", "2", *slab)
    assert options("matrix", "--strategy", "nested", *slab)["strategy"] == "nested"
    assert options("speedup", "--x", "5", "--epsilon", "1e-3")["epsilon"] == 1e-3
    mc = options("speedup", "--x", "5", "--mode", "mc", "--trials", "10")
    assert mc["epsilon"] == 1e-6 and mc["trials"] == 10
    assert options("speedup", "--x", "5")["trials"] is None
    args = build_parser().parse_args(["matrix", *slab])
    assert args.block is None and args.searcher_id is None
    args = build_parser().parse_args(["speedup"])
    assert args.x is None and args.epsilon is None and args.trials is None
    assert build_parser().parse_args(["verify-bounds"]).k is None
    assert build_parser().parse_args(["robustness", "--x", "5"]).perturbation is None


def checkout_env() -> dict:
    """This process's environment with the package's source directory first
    on PYTHONPATH and no seed override."""
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    src = os.path.dirname(os.path.dirname(os.path.abspath(boxsearch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Every subcommand in one interpreter; the last line reports each exit code
# and the scipy modules loaded after it.
IMPORT_BOUNDARY_SCRIPT = """
import json, sys
import boxsearch, boxsearch.cli as cli
cli.build_parser()
report = []
for argv in (
    "matrix --k 3 --xmax 8 --tmax 8 --exact",
    "speedup --k 2 --x 50",
    "speedup --mode mc --k 3 --x 20 --trials 50",
    "crash --k 3 --k-prime 1 --x 20 --trials 50",
    "robustness --k 2 --x 20 --trials 50 --perturbation identity",
    "verify-bounds --instances 1 --k 2",
):
    code = cli.main(argv.split())
    report.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(report))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # the quadrature of verify-bounds runs on numpy alone, so no subcommand,
    # verify-bounds included, may load any scipy module
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT], cwd=tmp_path,
                          env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == [[0, []]] * 6


def test_python_m_boxsearch(tmp_path, capsys):
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "boxsearch", *argv], cwd=tmp_path,
                              env=checkout_env(), capture_output=True, text=True,
                              timeout=120)

    version = run("--version")
    assert version.returncode == 0
    assert version.stdout == f"boxsearch {boxsearch.__version__}\n"
    proc = run("speedup", "--k", "2", "--x", "5")
    code, out = run_cli(capsys, "speedup", "--k", "2", "--x", "5")
    assert proc.returncode == code == 0
    assert proc.stdout == out and proc.stderr == ""
