"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible under
``pytest -s``) and fails the suite if its criterion is not met.
"""

import time
from fractions import Fraction

import numpy as np

from boxsearch import bounds, matrix, sim
from boxsearch.cli import main
from boxsearch.strategy import SearchParams, StrategyKind


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


K2_TABLE = {x: ["1", "2/3", "1/3", "1/4", "1/6"] for x in (1, 2, 3)}
K2_TABLE.update({x: ["1", "1", "1", "3/4", "1/2"] for x in (4, 5, 6)})
BLOCK_TABLE = {x: ["1", "2/3", "1/3", "0", "0", "0", "0"] for x in (1, 2, 3)}
BLOCK_TABLE.update({x: ["1", "1", "1", "1", "2/3", "1/3", "0"] for x in (4, 5, 6)})


def test_criterion_01_matrix_reproduction(capsys):
    t0 = time.perf_counter()
    _, out = run_cli(capsys, "matrix", "--k", "2", "--xmax", "6", "--tmax", "4",
                     "--exact")
    nested_rows = {int(line.split(",")[0]): line.split(",")[1:]
                   for line in out.strip().splitlines()[1:]}
    _, out = run_cli(capsys, "matrix", "--strategy", "block-random", "--block", "3",
                     "--xmax", "6", "--tmax", "6", "--exact")
    block_rows = {int(line.split(",")[0]): line.split(",")[1:]
                  for line in out.strip().splitlines()[1:]}
    elapsed = time.perf_counter() - t0
    ok = nested_rows == K2_TABLE and block_rows == BLOCK_TABLE and elapsed < 1.0
    check("criterion-1 matrix reproduction", ok, f"{elapsed:.2f}s")


def test_criterion_02_column_identity():
    t0 = time.perf_counter()
    worst = Fraction(0)
    for k in (1, 2, 3, 5, 10):
        params = SearchParams(k)
        view = matrix.SurvivalMatrix(StrategyKind.nested(), params, exact=True)
        for t in range(1, 201):
            worst = max(worst, view.column_sum_residual(t))
    elapsed = time.perf_counter() - t0
    check("criterion-2 column identity", worst == 0 and elapsed < 10.0,
          f"worst residual {worst}, {elapsed:.2f}s")


def test_criterion_03_product_formula_equivalence():
    worst = 0.0
    for k in (2, 3, 5):
        params = SearchParams(k)
        delta = params.delta
        for xp in range(1, 61):
            for tp in range(xp, 61):
                rec = matrix.nested_survival(params, (k + 1) * xp, 2 * tp)
                prod = bounds.gamma_ratio_product(xp, tp, delta)
                worst = max(worst, abs(rec - prod) / prod)
    check("criterion-3 product formula", worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_04_speedup_limits():
    t0 = time.perf_counter()
    s2 = 1.0 / matrix.theta_window(SearchParams(2), 10_000, epsilon=1e-7).theta
    s3 = 1.0 / matrix.theta_window(SearchParams(3), 10_000, epsilon=1e-7).theta
    t1 = matrix.theta(SearchParams(1), 1_000).theta
    elapsed = time.perf_counter() - t0
    ok = (abs(s2 - 9 / 8) <= 0.02 * 9 / 8
          and abs(s3 - 4 / 3) <= 0.02 * 4 / 3
          and abs(t1 - 1.0) <= 0.03
          and elapsed < 60.0)
    check("criterion-4 speed-up limits", ok,
          f"s2={s2:.5f} s3={s3:.5f} theta1={t1:.5f}, {elapsed:.1f}s")


def test_criterion_05_general_k_formula():
    details = []
    ok = True
    for k in (2, 3, 5, 8):
        est = matrix.theta_window(SearchParams(k), 10_000, epsilon=1e-5)
        target = (k + 1) ** 2 / (4 * k)
        rel = abs(1.0 / est.theta - target) / target
        details.append(f"k={k}: {1.0 / est.theta:.4f} vs {target:.4f}")
        ok = ok and rel <= 0.02
    check("criterion-5 general-k speed-up", ok, "; ".join(details))


def test_criterion_06_mc_exact_agreement():
    details = []
    ok = True
    for k, x, seed in ((2, 500, 1001), (3, 1000, 1002)):
        exact = matrix.theta(SearchParams(k), x, epsilon=1e-9).theta * x
        template = sim.TrialConfig(params=SearchParams(k), kind=StrategyKind.nested(),
                                   treasure=x, seed=seed)
        stats = sim.estimate_speedup(template, 10_000)
        gap = abs(stats.mean_time - exact) / stats.stderr
        details.append(f"(k={k},x={x}): {gap:.2f} se")
        ok = ok and gap <= 4.0
    check("criterion-6 MC/exact agreement", ok, "; ".join(details))


def test_criterion_07_crash_ci_overlap():
    details = []
    ok = True
    for k, kp, seed in ((2, 1, 2001), (3, 1, 2002), (3, 2, 2003)):
        rep = sim.crash_experiment(k, kp, 2000, 10_000, base_seed=seed)
        details.append(f"(k={k},k'={kp}): "
                       f"[{rep.with_crashes.ci95[0]:.1f},{rep.with_crashes.ci95[1]:.1f}] vs "
                       f"[{rep.control.ci95[0]:.1f},{rep.control.ci95[1]:.1f}]")
        ok = ok and rep.overlap
    check("criterion-7 crash robustness", ok, "; ".join(details))


def test_criterion_08_ordering_robustness():
    report = sim.robustness_experiment(
        SearchParams(2), 10_000,
        [sim.Perturbation(kind="shift", shift=5), sim.Perturbation(kind="extra-boxes")],
        trials=2_000, base_seed=3001, tolerance=0.05)
    details = "; ".join(f"{e.perturbation}: ratio {e.speedup_ratio:.4f}"
                        for e in report.entries)
    check("criterion-8 ordering robustness", not report.any_violation, details)


def test_criterion_09_claim1_tail():
    details = []
    ok = True
    for k in (2, 3, 5):
        delta = 2.0 / (k - 1)
        limit = 1.0 / (delta * k - 1.0)
        value = bounds.claim1_tail_sum(10_000, delta, k, tolerance=1e-5)
        details.append(f"k={k}: {value:.5f} <= {limit:.5f}*1.01")
        ok = ok and value <= limit * 1.01
    check("criterion-9 tail-sum bound", ok, "; ".join(details))


def test_criterion_10_water_filling():
    rng = np.random.default_rng(424242)
    worst_obj = 0.0
    worst_resid = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        prob = bounds.WaterFillProblem(
            tuple(float(v) for v in rng.uniform(0.2, 5.0, n)),
            float(rng.uniform(0.1, n - 0.1)), k)
        f, _ = bounds.waterfill_closed_form(prob)
        closed = bounds.waterfill_objective(prob, f)
        _, grid = bounds.waterfill_grid_oracle(prob, resolution=1e-6)
        worst_obj = max(worst_obj, abs(closed - grid))
        worst_resid = max(worst_resid, abs(sum(1.0 - v for v in f) - prob.budget))
    ok = worst_obj <= 1e-4 and worst_resid <= 1e-10
    check("criterion-10 water-filling", ok,
          f"worst |closed-grid| {worst_obj:.2e}, worst residual {worst_resid:.2e}")


def test_criterion_11_lower_bound():
    details = []
    ok = True
    for k in (2, 3, 5):
        a = 2.001
        leading = k / (a - 1) * (a / (a + k - 1)) ** a
        target = 4 * k / (k + 1) ** 2
        rel = abs(leading - target) / target
        details.append(f"k={k}: {leading:.5f} vs {target:.5f}")
        ok = ok and rel <= 0.01
        res = bounds.lowerbound_value(bounds.LowerBoundConfig(k=k, a=3.0),
                                      tolerance=1e-6)
        ok = ok and res.rel_gap <= 1e-6
    check("criterion-11 lower bound", ok, "; ".join(details))


def test_criterion_12_determinism(capsys):
    commands = [
        ("matrix", "--k", "2", "--xmax", "6", "--tmax", "4", "--exact"),
        ("matrix", "--strategy", "block-random", "--block", "3", "--xmax", "6",
         "--tmax", "6", "--exact"),
        ("speedup", "--k", "2", "--x", "2000", "--mode", "exact", "--window"),
        ("speedup", "--k", "2", "--x", "500", "--mode", "mc", "--trials", "1000",
         "--seed", "4001"),
        ("robustness", "--k", "2", "--x", "300", "--trials", "300", "--seed", "4001"),
        ("crash", "--k", "3", "--k-prime", "1", "--x", "300", "--trials", "300",
         "--seed", "4001"),
        ("verify-bounds", "--k", "2", "--instances", "5", "--skip-theta",
         "--seed", "4001"),
    ]
    ok = True
    for argv in commands:
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        if first != second or not first:
            ok = False
            break
    check("criterion-12 determinism", ok,
          f"{len(commands)} commands rerun byte-identical")
