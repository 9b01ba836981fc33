"""Command-line surfaces: schemas, reference tables, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import boxsearch
from boxsearch import bounds, matrix
from boxsearch.cli import SEED_ENV_VAR, build_parser, main


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
]


def test_matrix_stdout_pinned(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)  # JSON echoes the seed
    for argv, digest in MATRIX_STDOUT_SHA256:
        code, out = run_cli(capsys, "matrix", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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
# the bare check at k = 1, 2, 10.  The column-identity entries sum exact cells.
VERIFY_STDOUT_SHA256 = [
    *((f"--instances 1 --theta-x 10000 --k 2 --k 3 --k 5 --seed {seed}", digest)
      for seed, digest in enumerate([
          "f7b070663333053a7653b19cd88ab3b8e49c9feb666933f7acfe1d091e0fc037",
          "21ce3299d9ecf227e05d192566e2123d51a74cfb93760041d385adea9dd04497",
          "860fba40f869bf7eb45568c686d7bbb7dd086ef40e4ea3a581dcfd907dd7c585",
          "c4b16bb26db9d2bf7c36e72155441773565b2fa7f733c39e5515d68a3308c466",
          "3412625e453badf7a4b7723f9ca19efa224d2cc22d58ac1fe26ff8ad8fd840c4",
          "8e9a67f852b104cae455d8a689f079e1dd8d1a596c5c7c0bbb5443ab830ffd91",
      ], start=1)),
    ("--k 1 --k 2 --k 10", "4a9d9b38069b603fb1854ba18a5a2f57807a51dfb11433bc3ad737174cb95b81"),
]


def test_verify_bounds_stdout_pinned(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)  # JSON echoes the seed
    for argv, digest in VERIFY_STDOUT_SHA256:
        code, out = run_cli(capsys, "verify-bounds", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        identity = [e for e in json.loads(out)["results"] if e["name"] == "column-identity(t<=100)"]
        assert identity and all(e["value"] == 0.0 and e["status"] == "pass" for e in identity)


def test_matrix_json_format(capsys):
    code, out = run_cli(capsys, "matrix", "--k", "2", "--xmax", "2", "--tmax", "2",
                        "--exact", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "matrix"
    assert payload["version"]
    assert payload["results"][0] == {"x": 1, "n": ["1", "2/3", "1/3"]}


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
])
def test_speedup_bad_input_exits_2(capsys, argv, message):
    assert message in usage_error(capsys, "speedup", *argv)


def test_uncertified_result_exits_3(capsys, monkeypatch):
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


def test_crash_bad_treasure_exits_2(capsys):
    err = usage_error(capsys, "crash", "--k", "2", "--k-prime", "1", "--x", "0",
                      "--trials", "10")
    assert "treasure index must be >= 1" in err


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
    code, out = run_cli(capsys, "verify-bounds", "--k", "1", "--instances", "2",
                        "--skip-theta", "--seed", "123")
    assert code == 0
    payload = json.loads(out)
    skipped = [e for e in payload["results"] if e["status"] == "skip"]
    assert skipped and all("k >= 2 required" in e["note"] for e in skipped)
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
