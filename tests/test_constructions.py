"""Constructive witnesses: every result must re-validate and meet its guarantee."""

import numpy as np
import pytest

from geostab.colourings import (
    ColouringSpec,
    balanced_partition,
    free_point_codes,
    make,
    table_from_free_layers,
)
from geostab.constructions import (
    ConstructionResult,
    construction_jumps,
    kdefined_witness,
    majority_witness,
    partition_witness,
    prefix_colouring,
    strip_extend,
    strip_reduction,
    zigzag_witness,
)
from geostab.errors import UndefinedRadiusError, ValidationError
from geostab.hypercube import Geodesic, Point, expand, is_geodesic, weight, weights_vector
from geostab.instability import winst_exact, winst_values_batch
from geostab.search import random_colouring


def maj(n, t, k, tie=None):
    return make(ColouringSpec(kind="majority", n=n, t=t, k=k, tie=tie))


def _check(f, result, min_jumps=None):
    pts = expand(result.geodesic)
    assert is_geodesic(pts)
    actual = construction_jumps(f, result)
    assert actual >= result.guaranteed_jumps
    if min_jumps is not None:
        assert result.guaranteed_jumps >= min_jumps
    return pts, actual


# --- zig-zag ---------------------------------------------------------------


def test_zigzag_mode_a_unique_h5():
    f = table_from_free_layers(5, 2, [])
    res = zigzag_witness(f, "a")
    assert res.guaranteed_jumps == 5  # floor(2/1)+ceil(2/1)+1
    pts, actual = _check(f, res)
    assert weight(pts[0]) == 3
    assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_zigzag_mode_b_guarantees():
    f = maj(5, 1, 3)
    res = zigzag_witness(f, "b")
    assert res.guaranteed_jumps == 3  # 2*floor(0/3)+3
    _check(f, res)
    # divisible case matches the floor+ceil+3 statement
    f = maj(8, 3, 7)
    res = zigzag_witness(f, "b")
    assert res.guaranteed_jumps == 2 * ((3 - 1) // 2) + 3 == 5
    _check(f, res)


def test_zigzag_mode_a_formula_h8():
    f = maj(8, 3, 7)
    res = zigzag_witness(f, "a")
    assert res.guaranteed_jumps == 3 // 2 + -(-3 // 2) + 1 == 4
    _check(f, res)


def test_zigzag_complemented_case():
    # force the radius witness onto the far side: near layer all 0
    n, t = 5, 1
    free = free_point_codes(n, t)
    w = np.array([bin(c).count("1") for c in free])
    bits = np.where(w == t + 1, 0, np.where(w == n - t - 1, 0, 1))
    f = table_from_free_layers(n, t, bits)
    assert f.t_f == t
    res = zigzag_witness(f, "a")
    pts, _ = _check(f, res)
    assert weight(pts[0]) == t + 1
    assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0
    res = zigzag_witness(f, "b")
    _check(f, res)


def test_zigzag_random_colourings():
    for i, (n, t) in enumerate([(4, 1), (5, 2), (6, 2), (7, 3), (8, 2)]):
        for trial in range(5):
            f = random_colouring(n, t, seed=100 * i + trial, exact_tf=True)
            for mode in ("a", "b"):
                res = zigzag_witness(f, mode)
                pts, _ = _check(f, res)
                if mode == "a":
                    assert weight(pts[0]) == t + 1
                    assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_zigzag_errors():
    with pytest.raises(UndefinedRadiusError):
        zigzag_witness(make(ColouringSpec(kind="constant", n=3, j=0)), "a")
    f = table_from_free_layers(3, 0, [1, 0, 1, 0, 1, 0])
    assert f.t_f == 0
    with pytest.raises(ValidationError):
        zigzag_witness(f, "b")


# --- majority --------------------------------------------------------------


def test_majority_witness_base_path_k1():
    f = maj(4, 1, 1)
    res = majority_witness(f)
    pts = [p.bit_string() for p in expand(res.geodesic)]
    assert pts == ["1100", "1000", "1010", "0010", "0011"]
    assert construction_jumps(f, res) == 3
    assert f.evaluate(expand(res.geodesic)[-1]) == 0


def test_majority_witness_examples():
    f = maj(6, 2, 2)
    res = majority_witness(f)
    pts, actual = _check(f, res, min_jumps=5)
    assert weight(pts[0]) == 3

    f = maj(7, 3, 3)
    res = majority_witness(f)
    pts, actual = _check(f, res, min_jumps=7)
    assert weight(pts[0]) == 4
    assert f.evaluate(pts[-1]) == 0


@pytest.mark.parametrize("tie", ["first-entry", "one", "zero"])
def test_majority_witness_grid(tie):
    for t in range(0, 4):
        for k in range(1, 2 * t + 2):
            for n in range(max(2 * t + 1, k), 9):
                f = maj(n, t, k, tie=None if k % 2 else tie)
                if f.spec.tie == "zero":
                    with pytest.raises(ValidationError, match="tie rule"):
                        majority_witness(f)
                    continue
                res = majority_witness(f)
                pts, _ = _check(f, res, min_jumps=2 * t + 1)
                assert weight(pts[0]) == t + 1
                assert f.evaluate(pts[-1]) == 0


def test_majority_witness_validation():
    with pytest.raises(ValidationError, match="k <= 2t\\+1"):
        majority_witness(maj(5, 1, 4))
    with pytest.raises(ValidationError, match="tie rule"):
        majority_witness(maj(5, 1, 2, tie="zero"))
    with pytest.raises(ValidationError, match="majority"):
        majority_witness(make(ColouringSpec(kind="constant", n=3, j=0)))


# --- partition -------------------------------------------------------------


def test_partition_witness_examples():
    cases = [
        (3, 1, 1, ((2, 3),)),
        (6, 2, 3, ((4, 5, 6),)),
        (5, 2, 5, ()),
    ]
    for n, t, k, part in cases:
        f = make(ColouringSpec(kind="partition", n=n, t=t, k=k, partition=part))
        res = partition_witness(f)
        pts = expand(res.geodesic)
        assert is_geodesic(pts)
        assert construction_jumps(f, res) == 2 * t + 1 == res.guaranteed_jumps


def test_partition_witness_grid_exact():
    for t in range(0, 4):
        for k in range(1, 2 * t + 2, 2):
            s = t - (k + 1) // 2
            n = k if s == -1 else (s + 1) * (t + 1) + k
            if n > 10:
                continue
            part = balanced_partition(n, t, k)
            f = make(ColouringSpec(kind="partition", n=n, t=t, k=k, partition=part))
            res = partition_witness(f)
            assert construction_jumps(f, res) == 2 * t + 1


def test_partition_witness_wrong_kind():
    with pytest.raises(ValidationError):
        partition_witness(maj(5, 1, 3))


# --- strip extensions ------------------------------------------------------


def _winst_inner(g):
    rep = winst_exact(g)
    return ConstructionResult(rep.witness, rep.value, "winst witness")


def test_one_strip_t3_h8():
    f = maj(8, 3, 7)
    g = strip_reduction(f, "one_strip")
    assert g.n == 6 and g.t_f == 2
    inner = _winst_inner(g)
    assert inner.guaranteed_jumps >= 5
    res = strip_extend(f, inner, "one_strip")
    assert res.guaranteed_jumps == inner.guaranteed_jumps + 1 >= 6  # t+3
    pts, _ = _check(f, res)
    assert weight(pts[0]) == 4
    assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_one_strip_chained_twice():
    f10 = maj(10, 4, 9)
    g8 = strip_reduction(f10, "one_strip")
    g6 = strip_reduction(g8, "one_strip")
    c6 = _winst_inner(g6)
    c8 = strip_extend(g8, c6, "one_strip")
    c10 = strip_extend(f10, c8, "one_strip")
    assert c10.guaranteed_jumps == c6.guaranteed_jumps + 2 >= 7
    _check(f10, c10)


def test_multi_strip_examples():
    for n, t, k in [(8, 3, 7), (9, 3, 7), (10, 4, 9)]:
        f = make(ColouringSpec(kind="majority", n=n, t=t, k=k))
        g = strip_reduction(f, "multi_strip")
        w = n - 2 * t
        assert g.n == n - 2 * w and g.t_f == t - w
        inner = _winst_inner(g)
        res = strip_extend(f, inner, "multi_strip")
        assert res.guaranteed_jumps == inner.guaranteed_jumps + 2
        pts, _ = _check(f, res)
        assert weight(pts[0]) == t + 1
        assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_one_strip_random_colourings():
    # both sides of the extension, each with and without the final reversal
    seen = set()
    for n, t in [(6, 2), (8, 3)]:
        for trial in range(4):
            f = random_colouring(n, t, seed=600 + trial, exact_tf=True)
            inner = _winst_inner(strip_reduction(f, "one_strip"))
            res = strip_extend(f, inner, "one_strip")
            assert res.guaranteed_jumps == inner.guaranteed_jumps + 1
            pts, _ = _check(f, res)
            assert weight(pts[0]) == t + 1
            assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0
            side = "start" if "start side" in res.notes else "end"
            reversed_ = res.geodesic.start.code >> 2 != inner.geodesic.start.code
            seen.add((side, reversed_))
    assert {side for side, _ in seen} == {"start", "end"}
    assert {rev for _, rev in seen} == {False, True}


def test_multi_strip_random_colourings():
    for trial in range(8):
        f = random_colouring(8, 3, seed=500 + trial, exact_tf=True)
        g = strip_reduction(f, "multi_strip")
        inner = _winst_inner(g)
        res = strip_extend(f, inner, "multi_strip")
        pts, _ = _check(f, res)
        assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_multi_strip_refuses_a_reduced_colouring_of_larger_radius():
    # f(0^w 1^w x) with w = n-2t = 3 has radius 1 > t-w = 0 here, so every
    # 1-geodesic of it starts coloured 0 and ends coloured 1: none ends well
    f = random_colouring(9, 3, seed=124, exact_tf=True)
    assert f.t_f == 3
    message = ("multi_strip needs the reduced colouring's radius to be t-w = 0, got 1 "
               "(f has radius 3, strip width 3)")
    with pytest.raises(ValidationError) as exc:
        strip_reduction(f, "multi_strip")
    assert str(exc.value) == message


def test_strip_matches_chain_arithmetic():
    # l:stronger: winst(2t+2, t) >= y0 + t - t0 realised by chaining
    from geostab.bounds import stronger_lb, morestrips_lb

    f8 = maj(8, 3, 7)
    g6 = strip_reduction(f8, "one_strip")
    inner = _winst_inner(g6)
    res = strip_extend(f8, inner, "one_strip")
    assert res.guaranteed_jumps == stronger_lb(3, 2, inner.guaranteed_jumps)

    f = maj(8, 3, 5)
    g = strip_reduction(f, "multi_strip")
    inner = _winst_inner(g)
    res = strip_extend(f, inner, "multi_strip")
    assert res.guaranteed_jumps == morestrips_lb(8, 3, 1, inner.guaranteed_jumps)


def test_strip_errors():
    f = maj(7, 2, 3)
    with pytest.raises(ValidationError):
        strip_reduction(f, "one_strip")  # n != 2t+2
    f8 = maj(8, 3, 7)
    g6 = strip_reduction(f8, "one_strip")
    inner = _winst_inner(g6)
    with pytest.raises(ValidationError):
        strip_extend(maj(10, 4, 9), inner, "one_strip")  # dimension mismatch
    # an inner witness that does not end well must be rejected
    bad = ConstructionResult(inner.geodesic, 0, "x")
    t6 = g6.table().copy()
    start = inner.geodesic.start.code
    end = start ^ 63
    t6[start] = 0
    t6[end] = 1
    g_bad = make(ColouringSpec(kind="table", n=6, table=t6.tobytes()))
    f8_bad_table = f8.table().copy()
    codes = (np.arange(64) << 2) | 2
    f8_bad_table[codes] = t6
    f8_bad = make(ColouringSpec(kind="table", n=8, table=f8_bad_table.tobytes()))
    if f8_bad.t_f == 3:
        with pytest.raises(ValidationError):
            strip_extend(f8_bad, bad, "one_strip")


# --- k-defined -------------------------------------------------------------


def test_kdefined_lifted_example():
    f = maj(5, 1, 1)
    fp = prefix_colouring(f, 1)
    assert fp.table()[0] == 0 and fp.table()[1] == 1
    assert fp.t_f == 0
    res = kdefined_witness(f, 1)
    assert res.guaranteed_jumps == 2 * (1 - 0) + 1 == 3
    pts, _ = _check(f, res)
    assert weight(pts[0]) == 2
    assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_kdefined_escape_both_polarities():
    n, t = 5, 1
    w = weights_vector(n)
    codes = np.arange(2**n)
    outside = (w > t) & (w < n - t)

    # prefix 0 -> colour 1: escape path directly
    tbl = np.where(w >= n - t, 1, 0).astype(np.uint8)
    tbl[outside] = 1 - (codes[outside] & 1)
    f = make(ColouringSpec(kind="table", n=n, table=tbl.tobytes()))
    res = kdefined_witness(f, 1)
    assert res.guaranteed_jumps == 2 * t + 2
    _check(f, res)

    # prefix 1 -> colour 0 (constant 0 outside): swapped escape,
    # well-ending via the last point
    tbl = np.where(w >= n - t, 1, 0).astype(np.uint8)
    g = make(ColouringSpec(kind="table", n=n, table=tbl.tobytes()))
    res = kdefined_witness(g, 1)
    assert res.guaranteed_jumps == 2 * t + 2
    pts, _ = _check(g, res)
    assert g.evaluate(pts[0]) == 1 or g.evaluate(pts[-1]) == 0


def test_kdefined_two_and_three_defined():
    # 2-defined colouring of H_7 with t_f = 1: colour = majority of entries 1..3
    f = maj(7, 1, 3)
    res = kdefined_witness(f, 3)
    pts, _ = _check(f, res)
    assert weight(pts[0]) == 2
    assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0
    # guarantee >= min(g-chain, 2t+2) with g(s) = 2s+1
    t, s = f.t_f, prefix_colouring(f, 3).t_f
    assert res.guaranteed_jumps >= min(2 * t + 1, 2 * t + 2)


def _prefix_defined(n, t, k, g):
    """The colouring of H_n that is 0 and 1 on the radius-t balls and g(first
    k entries) between them."""
    w = weights_vector(n)
    prefix = np.arange(1 << n) & ((1 << k) - 1)
    tbl = np.where(w <= t, 0, np.where(w >= n - t, 1, np.asarray(g)[prefix]))
    return make(ColouringSpec(kind="table", n=n, table=tbl.astype(np.uint8).tobytes()))


def test_kdefined_symmetric_prefix_witness_case():
    # outside the balls f is the AND of entries 1 and 2, so every prefix
    # witness (s = 0, start weight 1) starts in colour 0 and ends well only
    # via its last point: the lift runs on the complemented colouring.
    # 10 -> 00 -> 01 makes no inner jump, the winst witness 10 -> 11 -> 01 two
    f = _prefix_defined(5, 1, 2, [0, 0, 0, 1])
    assert prefix_colouring(f, 2).t_f == 0
    for witness, guaranteed in ((Geodesic(Point(2, 0b01), (1, 2)), 2), (None, 4)):
        res = kdefined_witness(f, 2, prefix_witness=witness)
        assert res.notes.endswith("(complemented)")
        assert res.guaranteed_jumps == guaranteed
        pts, _ = _check(f, res)
        assert weight(pts[0]) == 2
        assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_kdefined_prefix_witness_clamped_to_the_boundary():
    # maj_1(3) has s = 1; each supplied witness leaves the band
    # s <= weight <= k-s and is replayed as the clamped one beside it
    f = maj(7, 1, 3)
    assert prefix_colouring(f, 3).t_f == 1
    cases = [((1, 2, 3), (1, 3, 2)),   # 110 -> 010 -> 000 -> 001 dips to weight 0
             ((3, 1, 2), (1, 3, 2))]   # 110 -> 111 -> 011 -> 001 climbs to weight 3
    for dipping, clamped in cases:
        res = kdefined_witness(f, 3, Geodesic(Point(3, 0b011), dipping))
        assert res == kdefined_witness(f, 3, Geodesic(Point(3, 0b011), clamped))
        _check(f, res, min_jumps=3)


def test_kdefined_every_small_prefix_function():
    # every g on k <= 3 prefix entries between the balls of H_n, n <= 7: the
    # path makes at least its promised jumps, and the promise never exceeds
    # winst, the most jumps any well-ending geodesic makes
    checked = boundary = 0
    for n in range(2, 8):
        for t in range((n - 1) // 2 + 1):
            fs, promised = [], []
            for k in range(1, min(3, n - 2 * t - 1) + 1):
                for code in range(1 << (1 << k)):
                    f = _prefix_defined(n, t, k, [code >> p & 1 for p in range(1 << k)])
                    if f.t_f != t:
                        continue
                    res = kdefined_witness(f, k)
                    assert is_geodesic(expand(res.geodesic))
                    assert construction_jumps(f, res) >= res.guaranteed_jumps, (n, t, k, code)
                    fs.append(f)
                    promised.append(res.guaranteed_jumps)
                    boundary += res.guaranteed_jumps == 2 * t + 1 and "escape" in res.notes
            if fs:
                tables = np.stack([f.table() for f in fs])
                assert (winst_values_batch(tables, n, t) >= promised).all(), (n, t)
                checked += len(fs)
    assert checked == 1724
    # the escape paths promised only 2t+1: k = n-2t-1, 0^k coloured 1, 1^k coloured 0
    assert boundary == 143


def test_kdefined_errors():
    f = maj(5, 1, 3)
    with pytest.raises(ValidationError):
        kdefined_witness(f, 3)  # k = 3 >= n - 2t = 3
    with pytest.raises(ValidationError):
        kdefined_witness(maj(7, 1, 5), 1)  # not 1-defined
