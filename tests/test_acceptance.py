"""Acceptance suite: the headline claims, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Each criterion pins its
expected values and tolerances here; the whole suite is exact integer
arithmetic, so every tolerance is equality or a stated inequality.
"""

import numpy as np
import pytest

from geostab.bounds import zigzag_inst_formula, zigzag_winst_formula
from geostab.colourings import (
    ColouringSpec,
    balanced_partition,
    majority_grid,
    make,
    partition_grid,
)
from geostab.constructions import (
    ConstructionResult,
    construction_jumps,
    majority_witness,
    partition_witness,
    strip_extend,
    strip_reduction,
    zigzag_witness,
)
from geostab.hypercube import expand, is_geodesic, weight
from geostab.instability import (
    inst_bruteforce,
    inst_exact,
    inst_values_batch,
    winst_exact,
    winst_values_batch,
)
from geostab.search import (
    min_inst_exhaustive,
    min_winst_exhaustive,
    random_colouring,
)

MAX_N = 11


def _line(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_majority_optimality():
    bad = []
    cases = 0
    for n, t, k in majority_grid(MAX_N):
        f = make(ColouringSpec(kind="majority", n=n, t=t, k=k))
        cases += 1
        if inst_exact(f).value != 2 * t + 1:
            bad.append((n, t, k))
    _line(1, not bad and cases == 146,
          f"inst(maj_t(k)) = 2t+1 on all {cases} grids with n <= {MAX_N}"
          + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_2_partition_optimality():
    bad = []
    cases = 0
    for n, t, k in partition_grid(MAX_N):
        f = make(
            ColouringSpec(
                kind="partition", n=n, t=t, k=k, partition=balanced_partition(n, t, k)
            )
        )
        cases += 1
        if inst_exact(f).value != 2 * t + 1:
            bad.append((n, t, k))
    _line(2, not bad and cases == 30,
          f"inst(b_t^k) = 2t+1 on all {cases} balanced grids with n <= {MAX_N}"
          + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_3_known_exact_values():
    checks = []
    for n, t, expected in [(3, 0, 1), (4, 0, 1), (4, 1, 3), (5, 1, 3)]:
        checks.append(min_inst_exhaustive(n, t).minimum == expected)
    for t in range(1, 6):
        checks.append(min_inst_exhaustive(2 * t + 1, t).minimum == 2 * t + 1)
    _line(3, all(checks),
          "exhaustive minima: inst(n,0)=1, inst(n,1)=3, inst(2t+1,t)=2t+1 for t <= 5")


def test_criterion_4_conjecture_instance_6_2():
    ri = min_inst_exhaustive(6, 2)
    rw = min_winst_exhaustive(6, 2)
    ok = ri.minimum == 5 and rw.minimum == 5 and ri.colourings_scanned == 1 << 20
    _line(4, ok,
          f"inst(6,2) = {ri.minimum} and winst(6,2) = {rw.minimum} over 2^20 colourings")


def _sampled_tables(n, t, seeds):
    """The colourings of exact radius t drawn from ``seeds``, and their tables."""
    fs = [random_colouring(n, t, seed=seed, exact_tf=True) for seed in seeds]
    return fs, np.stack([f.table() for f in fs])


def _sampled_winst(n, t, seed, count):
    return winst_values_batch(_sampled_tables(n, t, range(seed, seed + count))[1], n, t)


def test_criterion_5_winst_base_cases():
    checks = [
        min_winst_exhaustive(2, 0).minimum == 1,
        min_winst_exhaustive(3, 0).minimum == 1,
        min_winst_exhaustive(4, 1).minimum == 3,
        min_winst_exhaustive(5, 1).minimum == 3,
    ]
    sampled_7_2 = (_sampled_winst(7, 2, 10_000, 1000) >= 4).all()
    sampled_9_3 = (_sampled_winst(9, 3, 20_000, 100) >= 4).all()
    ok = all(checks) and sampled_7_2 and sampled_9_3
    _line(5, ok,
          "winst minima 1,1,3,3 at (2,0),(3,0),(4,1),(5,1); sampled winst >= 4 "
          "on 1000 colourings at (7,2) and 100 at (9,3)")


def test_criterion_6_zigzag_bounds_sampled():
    bad = []
    pairs = 0
    for n in range(3, 11):
        for t in range(1, (n - 1) // 2 + 1):
            pairs += 1
            lb_w = zigzag_winst_formula(n, t)
            lb_i = zigzag_inst_formula(n, t)
            fs, tables = _sampled_tables(
                n, t, [1_000_000 + 1000 * n + 100 * t + i for i in range(100)])
            wv = winst_values_batch(tables, n, t)
            iv = inst_values_batch(tables, n)
            for i, f in enumerate(fs):
                if wv[i] < lb_w or iv[i] < lb_i:
                    bad.append((n, t, i, "bound"))
                    break
                for mode in ("a", "b"):
                    res = zigzag_witness(f, mode)
                    if construction_jumps(f, res) < res.guaranteed_jumps:
                        bad.append((n, t, i, f"witness-{mode}"))
                        break
                else:
                    continue
                break
    _line(6, not bad,
          f"zig-zag bounds and witness guarantees on 100 colourings x {pairs} pairs, n <= 10"
          + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_7_construction_contracts():
    bad = []
    for n, t, k in majority_grid(MAX_N):
        f = make(ColouringSpec(kind="majority", n=n, t=t, k=k))
        res = majority_witness(f)
        pts = expand(res.geodesic)
        if not (
            is_geodesic(pts)
            and weight(pts[0]) == t + 1
            and construction_jumps(f, res) >= 2 * t + 1
            and f.evaluate(pts[-1]) == 0
        ):
            bad.append(("majority", n, t, k))
    for n, t, k in partition_grid(MAX_N):
        f = make(
            ColouringSpec(
                kind="partition", n=n, t=t, k=k, partition=balanced_partition(n, t, k)
            )
        )
        if construction_jumps(f, partition_witness(f)) != 2 * t + 1:
            bad.append(("partition", n, t, k))

    # strip guarantees must equal the chain arithmetic and be achieved
    f8 = make(ColouringSpec(kind="majority", n=8, t=3, k=7))
    g6 = strip_reduction(f8, "one_strip")
    w6 = winst_exact(g6)
    ext = strip_extend(f8, ConstructionResult(w6.witness, w6.value, ""), "one_strip")
    if not (ext.guaranteed_jumps == w6.value + 1 >= 6
            and construction_jumps(f8, ext) >= ext.guaranteed_jumps):
        bad.append(("one_strip", 8, 3))

    f10 = make(ColouringSpec(kind="majority", n=10, t=4, k=9))
    g8 = strip_reduction(f10, "one_strip")
    g6b = strip_reduction(g8, "one_strip")
    w6b = winst_exact(g6b)
    c8 = strip_extend(g8, ConstructionResult(w6b.witness, w6b.value, ""), "one_strip")
    c10 = strip_extend(f10, c8, "one_strip")
    if not (c10.guaranteed_jumps == w6b.value + 2 == 7
            and construction_jumps(f10, c10) >= 7):
        bad.append(("one_strip-chain", 10, 4))

    for n, t, k in [(8, 3, 7), (9, 3, 7), (10, 4, 9)]:
        fN = make(ColouringSpec(kind="majority", n=n, t=t, k=k))
        gR = strip_reduction(fN, "multi_strip")
        wR = winst_exact(gR)
        ext = strip_extend(fN, ConstructionResult(wR.witness, wR.value, ""), "multi_strip")
        if not (ext.guaranteed_jumps == wR.value + 2
                and construction_jumps(fN, ext) >= ext.guaranteed_jumps):
            bad.append(("multi_strip", n, t))
    _line(7, not bad, "construction contracts (majority, partition, strip chains)"
          + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_8_oracle_equivalence():
    bad = []
    for n in (3, 4, 5):
        for i in range(50):
            t = i % ((n - 1) // 2 + 1)
            f = random_colouring(n, t, seed=30_000 + 100 * n + i)
            if inst_exact(f).value != inst_bruteforce(f):
                bad.append((n, t, i))
    _line(8, not bad, "inst_exact = inst_bruteforce on 50 seeded colourings per n in {3,4,5}")


def test_criterion_9_odd_large_k_remark():
    v5 = inst_exact(make(ColouringSpec(kind="majority", n=5, t=1, k=5))).value
    v7 = inst_exact(make(ColouringSpec(kind="majority", n=7, t=1, k=5))).value
    _line(9, v5 >= 5 and v7 >= 5,
          f"inst(maj_1(5)) >= 5 on H_5 and H_7 (got {v5}, {v7})")


def test_criterion_10_coverage_of_non_reproducible_results():
    # The general conjecture, the exhaustive winst(7,2)/(9,3) minima, and the
    # universally quantified reduction hypothesis are out of desk-scale reach;
    # their surrogates are the property suites exercised above.  This check
    # re-runs one instance of each surrogate to pin the coverage.
    f = random_colouring(4, 1, seed=4)
    surrogate_oracle = inst_exact(f).value == inst_bruteforce(f)
    f72 = random_colouring(7, 2, seed=42, exact_tf=True)
    surrogate_sampled = winst_exact(f72).value >= 4
    surrogate_invariant = winst_exact(f72).value <= inst_exact(f72).value
    ok = surrogate_oracle and surrogate_sampled and surrogate_invariant
    _line(10, ok,
          "results beyond desk scale are covered by the oracle, sampled-bound, "
          "and invariant suites rather than exact reproduction")
