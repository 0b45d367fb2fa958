"""Closed-form bound arithmetic and the bound combinator."""

import pytest

from geostab.bounds import (
    WINST_BASE_CASES,
    best_lower_bound,
    formula_bounds,
    known_exact_value,
    morestrips_lb,
    stronger_lb,
    zigzag_inst_formula,
    zigzag_winst_formula,
)
from geostab.errors import ValidationError


def test_formula_bounds_examples():
    bt = formula_bounds(5, 2)
    assert bt.known_exact == 5
    assert bt.zigzag_winst_lb == 5

    bt = formula_bounds(8, 3)
    assert bt.zigzag_winst_lb == 4
    assert bt.zigzag_inst_lb == 5
    assert bt.one_strip_lb == 6

    bt = formula_bounds(5, 1)
    assert bt.two_strip_lb == 3
    assert bt.known_exact == 3


def test_formula_bounds_validation():
    with pytest.raises(ValidationError):
        formula_bounds(4, 2)
    with pytest.raises(ValidationError):
        formula_bounds(5, -1)


def test_stronger_lb():
    assert stronger_lb(5, 2, 5) == 8
    assert stronger_lb(2, 2, 5) == 5
    assert stronger_lb(3, 0, 1) == 4
    with pytest.raises(ValidationError):
        stronger_lb(1, 2, 5)


def test_morestrips_lb():
    assert morestrips_lb(11, 4, 1, 3) == 5
    assert morestrips_lb(9, 3, 3, 4) == 4
    with pytest.raises(ValidationError):
        morestrips_lb(7, 2, 1, 3)  # 3 does not divide 1


def test_best_lower_bound_examples():
    assert best_lower_bound(6, 2, "winst").value == 5
    assert best_lower_bound(5, 1, "winst").value == 3
    assert best_lower_bound(9, 2, "winst").value == 2
    assert "zig-zag" in best_lower_bound(9, 2, "winst").via


def test_two_strip_corollary_matches_chains():
    # 2 + (2t + t mod 3)/3 at n = 2t+3 equals the best multi-strip chain
    for t in range(1, 12):
        n = 2 * t + 3
        cor = 2 + (2 * t + t % 3) // 3
        assert formula_bounds(n, t).two_strip_lb == cor
        assert best_lower_bound(n, t, "winst").value >= cor


def test_one_strip_bound():
    for t in range(2, 10):
        assert formula_bounds(2 * t + 2, t).one_strip_lb == t + 3
        assert best_lower_bound(2 * t + 2, t, "winst").value >= t + 3
    assert formula_bounds(4, 1).one_strip_lb is None
    assert best_lower_bound(4, 1, "winst").value == 3  # l:base via the base table


def test_known_exact_values():
    assert known_exact_value(7, 0) == 1
    assert known_exact_value(9, 1) == 3
    assert known_exact_value(9, 4) == 9
    assert known_exact_value(9, 3) is None


def test_bounds_never_exceed_conjecture():
    for n in range(2, 14):
        for t in range(0, (n - 1) // 2 + 1):
            bt = formula_bounds(n, t)
            cap = bt.conjecture
            for value in (
                bt.zigzag_winst_lb,
                bt.zigzag_inst_lb,
                bt.one_strip_lb,
                bt.two_strip_lb,
                bt.known_exact,
                bt.best_winst_lb,
                bt.best_inst_lb,
            ):
                assert value is None or value <= cap


def test_table_bests_carry_their_provenance():
    # the grid of ``geostab bounds --n 1:15``
    for n in range(1, 16):
        for t in range(0, (n - 1) // 2 + 1):
            bt = formula_bounds(n, t)
            for mode in ("winst", "inst"):
                best = best_lower_bound(n, t, mode)
                assert getattr(bt, f"best_{mode}_lb") == best.value, (n, t, mode)
                assert getattr(bt, f"best_{mode}_via") == best.via, (n, t, mode)


def test_g_compatibility_of_chain_steps():
    # with g(s) = 2s+1 both chain rules satisfy g(s) + 2(t-s) >= g(t)
    for t in range(0, 10):
        for s in range(0, t + 1):
            assert (2 * s + 1) + 2 * (t - s) >= 2 * t + 1
            assert stronger_lb(t, s, 2 * s + 1) >= min(2 * t + 1, 2 * s + 1 + t - s)
    for n0, t0, y0 in WINST_BASE_CASES:
        gap = n0 - 2 * t0
        for i in range(0, 4):
            t = t0 + i * gap
            n = 2 * t + gap
            assert morestrips_lb(n, t, t0, y0) == y0 + 2 * i


def test_zigzag_formula_validation():
    assert zigzag_winst_formula(9, 0) == 1
    with pytest.raises(ValidationError):
        zigzag_inst_formula(9, 0)


def test_random_colourings_respect_best_bounds():
    # sampled form of the module invariant: exact engines never fall below
    # the combined bound at the colouring's own radius
    from geostab.instability import inst_exact, winst_exact
    from geostab.search import random_colouring

    for n, t in [(5, 1), (6, 2), (7, 3), (8, 3), (9, 4)]:
        blb = best_lower_bound(n, t, "winst").value
        zi = zigzag_inst_formula(n, t)
        for i in range(15):
            f = random_colouring(n, t, seed=8000 + 100 * n + 10 * t + i, exact_tf=True)
            assert winst_exact(f).value >= blb
            assert inst_exact(f).value >= zi
