"""Compute the reference values every benchmark op is checked against.

Run once from the repository root, at a commit whose ``boxsearch.matrix`` is
trusted, and commit the result:

    python3 perfbench/make_references.py

It enumerates every reference key the workloads in ``workloads.py`` may ask
for and writes ``perfbench/references.json``.  The benchmark only reads that
file, so no reference is computed while it runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from boxsearch import matrix, sim  # noqa: E402
from boxsearch.strategy import SearchParams  # noqa: E402

import workloads  # noqa: E402

MEAN_EPS = 1e-9  # theta truncation error allowed in an MC reference mean
_CHUNK = 1 << 20


def _perturbation(spec: str) -> sim.Perturbation:
    kind, _, arg = spec.partition(":")
    if kind == "shift":
        return sim.Perturbation(kind="shift", shift=int(arg))
    if kind == "local-shuffle":
        return sim.Perturbation(kind="local-shuffle", window=int(arg))
    return sim.Perturbation(kind=kind)


def _nested_second_moment(k: int, fleet: int, x: int) -> tuple[float, float]:
    """(E[T], E[T^2]) for S(t) = N(x, t)**fleet, by the pool-size recurrence.

    N is built here with numpy from m(t) = ceil(t/2)(k+1) - (t-1), apart from
    matrix.py; its mean is compared with matrix.theta as a cross-check.  The
    sum runs to t = 1000 x, where S(t) follows its power law t**-a,
    a = 2*fleet/(k-1), up to a 1 + O(1/t) factor; the tail beyond is added in
    closed form.
    """
    first = 2 * ((x + k) // (k + 1)) - 1
    m1, m2 = [1.0], [1.0]  # the t = 0 term, S(0) = 1
    carry = 1.0
    t0 = 1
    while True:
        t = np.arange(t0, t0 + _CHUNK, dtype=np.float64)
        pool = ((t + 1) // 2) * (k + 1) - (t - 1)
        n = carry * np.cumprod(np.where(t >= first, (pool - 1) / pool, 1.0))
        s = n ** fleet
        m1.append(float(np.sum(s)))
        m2.append(float(np.sum((2 * t + 1) * s)))
        carry = float(n[-1])
        t_end = t0 + _CHUNK - 1
        if carry == 0.0:
            return math.fsum(m1), math.fsum(m2)
        if t_end >= 1000 * x:
            a = 2.0 * fleet / (k - 1)
            s_end = float(s[-1])
            return (math.fsum(m1) + s_end * t_end / (a - 1),
                    math.fsum(m2) + 2 * s_end * t_end ** 2 / (a - 2))
        t0 = t_end + 1


def mc_nested(k: int, fleet: int, x: int, pert: str) -> list[float]:
    target = _perturbation(pert).map_index(x)
    mean = matrix.theta(SearchParams(k), target, MEAN_EPS, fleet=fleet).theta * target
    mean_np, second = _nested_second_moment(k, fleet, target)
    if abs(mean_np - mean) > 1e-6 * mean:
        raise RuntimeError(f"mean cross-check failed for k={k} fleet={fleet} x={x}: "
                           f"{mean!r} vs {mean_np!r}")
    return [mean, math.sqrt(second - mean * mean)]


def mc_block(b: int, fleet: int, x: int) -> list[float]:
    m1 = m2 = Fraction(0)
    t = 0
    while True:
        s = matrix.block_random_survival(b, x, t, exact=True) ** fleet
        if s == 0:
            break
        m1 += s
        m2 += (2 * t + 1) * s
        t += 1
    return [float(m1), math.sqrt(m2 - m1 * m1)]


def theta_ref(k: int, x: int, eps: float, window: bool) -> float:
    tight = eps / workloads.THETA_REF_FACTOR
    fn = matrix.theta_window if window else matrix.theta
    return fn(SearchParams(k), x, tight).theta


def matrix_rows(strategy: str, param: int, xmax: int, tmax: int) -> list[list[str]]:
    rows = []
    x = 1
    while x <= xmax:
        if strategy == "nested":
            row = matrix.survival_row_exact(SearchParams(param), x, tmax)
            x += param + 1
        else:
            row = [matrix.block_random_survival(param, x, t, exact=True)
                   for t in range(tmax + 1)]
            x += param
        rows.append([str(v) for v in row])
    return rows


def compute(key: str):
    fields = key.split("/")
    kv = dict(f.split("=", 1) for f in fields if "=" in f)
    kind = fields[0]
    if kind == "mc" and fields[1] == "nested":
        return mc_nested(int(kv["k"]), int(kv["fleet"]), int(kv["x"]), kv["pert"])
    if kind == "mc":
        return mc_block(int(kv["block"]), int(kv["fleet"]), int(kv["x"]))
    if kind == "theta":
        return theta_ref(int(kv["k"]), int(kv["x"]), float(kv["eps"]), kv["window"] == "1")
    if kind == "matrix":
        param = int(kv.get("k") or kv["b"])
        return matrix_rows(fields[1], param, int(kv["xmax"]), int(kv["tmax"]))
    raise ValueError(f"unknown reference key {key!r}")


def main() -> int:
    keys = sorted({key for templates in workloads.WORKLOADS.values()
                   for t in templates for key in t.all_ref_keys()})
    refs = {}
    for key in keys:
        t0 = time.perf_counter()
        refs[key] = compute(key)
        dt = time.perf_counter() - t0
        if dt > 1.0:
            print(f"{key}: {dt:.1f} s", file=sys.stderr)
    path = os.path.join(HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
