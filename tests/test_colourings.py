"""Colouring families: construction, ball respect, radii, defining sets."""

import itertools
import json

import numpy as np
import pytest

from geostab.colourings import (
    ColouringSpec,
    balanced_partition,
    complement_colouring,
    is_defined_by,
    make,
    min_defining_k,
    respects_balls,
    spec_from_json_dict,
    spec_to_json_dict,
    table_from_free_layers,
    table_from_hex,
    table_to_hex,
)
from geostab.errors import UndefinedRadiusError, ValidationError
from geostab.hypercube import Point, weight, weights_vector


def P(bits: str) -> Point:
    return Point.from_bit_string(bits)


def maj(n, t, k, tie=None):
    return make(ColouringSpec(kind="majority", n=n, t=t, k=k, tie=tie))


def test_make_majority_examples():
    f = maj(4, 1, 1)
    assert f.evaluate(P("1100")) == 1
    f = maj(5, 1, 3)
    assert f.evaluate(P("11000")) == 1
    assert f.evaluate(P("00011")) == 0


def test_make_aqj_examples():
    f = make(
        ColouringSpec(kind="aqj", n=4, t=1, s=1, j=0, partition=((1, 2), (3, 4)))
    )
    assert f.evaluate(P("0011")) == 0  # block {1,2} is all zero
    assert f.evaluate(P("0101")) == 1


def test_make_partition_examples():
    f = make(ColouringSpec(kind="partition", n=3, t=1, k=1, partition=((2, 3),)))
    assert f.evaluate(P("110")) == 1  # prefix majority 1, no all-zero block
    assert f.evaluate(P("100")) == 0  # b = a^Q_0 and block {2,3} is all zero


def test_constant_and_table():
    f = make(ColouringSpec(kind="constant", n=3, j=0))
    assert all(f.evaluate(Point(3, c)) == 0 for c in range(8))
    tbl = bytes([0, 1, 0, 1, 0, 1, 0, 1])
    g = make(ColouringSpec(kind="table", n=3, table=tbl))
    assert g.evaluate(Point(3, 1)) == 1


def test_make_validation_errors():
    with pytest.raises(ValidationError):
        maj(4, 2, 1)  # t invalid for n
    with pytest.raises(ValidationError):
        maj(4, 1, 5)  # k > n
    with pytest.raises(ValidationError):
        make(ColouringSpec(kind="partition", n=6, t=2, k=3, partition=((4, 5),)))
    with pytest.raises(ValidationError):
        make(
            ColouringSpec(
                kind="partition", n=7, t=2, k=1, partition=((2, 3, 4), (4, 5, 6, 7))
            )
        )  # overlapping blocks
    with pytest.raises(ValidationError):
        make(ColouringSpec(kind="table", n=3, table=bytes(7)))
    with pytest.raises(ValidationError):
        make(ColouringSpec(kind="aqj", n=3, t=1, s=1, j=0, partition=((1, 2), (3,))))


def test_evaluate_dimension_mismatch():
    f = maj(4, 1, 1)
    with pytest.raises(ValidationError):
        f.evaluate(P("10000"))


def _t_of_oracle(f):
    """Independent radius computation by direct looping."""
    n = f.n
    best = -1
    for t in range((n - 1) // 2 + 1):
        ok = True
        for code in range(2**n):
            w = bin(code).count("1")
            if w <= t and f.evaluate(Point(n, code)) != 0:
                ok = False
            if n - w <= t and f.evaluate(Point(n, code)) != 1:
                ok = False
        if ok:
            best = t
        else:
            break
    return best


def test_t_of_examples():
    assert make(ColouringSpec(kind="constant", n=3, j=0)).t_f == -1
    assert table_from_free_layers(3, 1, []).t_f == 1
    f = maj(6, 2, 3)
    assert f.t_f == 2 == _t_of_oracle(f)


def test_t_of_majority_property():
    for t in range(0, 3):
        for k in range(1, 2 * t + 2):
            for n in range(2 * t + 2, 9):
                f = maj(n, t, k)
                assert f.t_f == t


def test_respects_balls():
    assert respects_balls(maj(6, 2, 3), 2) is True
    with pytest.raises(ValidationError):
        respects_balls(maj(6, 2, 3), 3)  # 3 not valid for 6
    assert respects_balls(make(ColouringSpec(kind="constant", n=5, j=0)), 1) is False


def test_majority_and_partition_respect_balls_by_scan():
    w6 = weights_vector(6)
    for f, t in [
        (maj(6, 2, 3), 2),
        (maj(6, 2, 4), 2),
        (make(ColouringSpec(kind="partition", n=6, t=2, k=3, partition=((4, 5, 6),))), 2),
    ]:
        tbl = f.table()
        assert np.all(tbl[w6 <= t] == 0)
        assert np.all(tbl[w6 >= 6 - t] == 1)


def test_aqj_respects_asymmetric_balls():
    s, t, m, j = 1, 2, 6, 0
    f = make(ColouringSpec(kind="aqj", n=m, t=t, s=s, j=j, partition=((1, 2, 3), (4, 5, 6))))
    w = weights_vector(m)
    tbl = f.table()
    assert np.all(tbl[w <= s] == j)  # B_s(j^m)
    assert np.all(tbl[m - w <= t] == 1 - j)  # B_t((1-j)^m)


def test_even_k_tie_rule_class_condition():
    # default rule: complementary first-k prefixes outside the balls get opposite colours
    n, t, k = 6, 2, 4
    f = maj(n, t, k)
    kmask = (1 << k) - 1
    for x in range(2**n):
        wx = bin(x).count("1")
        if not (t < wx < n - t):
            continue
        for y in range(2**n):
            wy = bin(y).count("1")
            if not (t < wy < n - t):
                continue
            if (x & kmask) ^ (y & kmask) == kmask:
                assert f.evaluate(Point(n, x)) != f.evaluate(Point(n, y))


def test_is_defined_by_examples():
    f = maj(5, 1, 3)
    assert is_defined_by(f, [1, 2, 3]) is True
    assert is_defined_by(f, [1]) is False
    aq = make(ColouringSpec(kind="aqj", n=4, t=1, s=1, j=0, partition=((1, 2), (3, 4))))
    assert is_defined_by(aq, [1, 2, 3, 4]) is True
    with pytest.raises(UndefinedRadiusError):
        is_defined_by(make(ColouringSpec(kind="constant", n=3, j=0)), [1])


def test_is_defined_by_counterexample_scan():
    # maj_1(3) on H_5 with I={1}: exhibit x, y outside balls agreeing on entry 1
    f = maj(5, 1, 3)
    found = False
    for x, y in itertools.product(range(32), repeat=2):
        wx, wy = bin(x).count("1"), bin(y).count("1")
        if not (1 < wx < 4 and 1 < wy < 4):
            continue
        if (x & 1) == (y & 1) and f.evaluate(Point(5, x)) != f.evaluate(Point(5, y)):
            found = True
            break
    assert found


def test_min_defining_k_examples():
    assert min_defining_k(maj(5, 1, 3)) == 3
    aq = make(
        ColouringSpec(kind="aqj", n=5, t=1, s=1, j=0, partition=((1, 2), (3, 4, 5)))
    )
    assert min_defining_k(aq) == 5
    # constant colour outside the balls: 0-defined
    free_constant = table_from_free_layers(5, 1, [1] * 20)
    assert min_defining_k(free_constant) == 0


def test_balanced_partition():
    assert balanced_partition(6, 2, 3) == ((4, 5, 6),)
    assert balanced_partition(7, 2, 1) == ((2, 3, 4), (5, 6, 7))
    assert balanced_partition(5, 2, 5) == ()
    with pytest.raises(ValidationError):
        balanced_partition(6, 2, 1)  # needs n-k >= 6


def test_complement_colouring_mirrors_radius():
    f = maj(5, 1, 3)
    g = complement_colouring(f)
    assert g.t_f == f.t_f
    for code in range(32):
        assert g.evaluate(Point(5, code)) == 1 - f.evaluate(Point(5, code ^ 31))


def test_hex_table_round_trip():
    f = maj(4, 1, 1)
    hx = table_to_hex(f.table().tobytes())
    assert len(hx) == 4
    assert table_from_hex(hx, 4) == f.table().tobytes()
    with pytest.raises(ValidationError):
        table_from_hex(hx + "0", 4)



def _loop_to_hex(table):
    value = 0
    for p, bit in enumerate(table):
        if bit:
            value |= 1 << p
    return format(value, f"0{max(1, (len(table) + 3) // 4)}x")


def _loop_from_hex(text, n):
    value = int(text, 16)
    return bytes((value >> p) & 1 for p in range(1 << n))


def test_hex_codec_matches_bit_loop():
    # the codec must agree with the literal one-bit-at-a-time definition
    rng = np.random.default_rng(6)
    for n in range(11):
        N = 1 << n
        tables = [bytes(N), bytes([1]) * N, bytes([1]) + bytes(N - 1), bytes(N - 1) + bytes([1])]
        tables += [rng.integers(0, 2, N).astype(np.uint8).tobytes() for _ in range(3)]
        for table in tables:
            hx = table_to_hex(table)
            assert hx == _loop_to_hex(table)
            assert len(hx) == max(1, N // 4)
            assert table_from_hex(hx, n) == table == _loop_from_hex(hx, n)
            assert table_from_hex(" " + hx.upper() + "\n", n) == table
    # any non-zero byte is colour 1
    assert table_to_hex(bytes([0, 7, 255, 0])) == "6"


@pytest.mark.parametrize(
    "text, n",
    [
        ("00", 0), ("2", 0), ("g", 0), ("", 0),
        ("4", 1), ("03", 1), ("x", 1),
        ("1ff", 3), ("f", 3), ("zz", 3),
        ("1ffff", 4), ("fff", 4), ("fffg", 4), ("0", -1), ("0", 25),
    ],
)
def test_hex_codec_refusals(text, n):
    with pytest.raises(ValidationError):
        table_from_hex(text, n)


def test_spec_json_round_trip():
    specs = [
        ColouringSpec(kind="majority", n=5, t=1, k=3),
        ColouringSpec(kind="majority", n=6, t=2, k=4, tie="first-entry"),
        ColouringSpec(kind="partition", n=6, t=2, k=3, partition=((4, 5, 6),)),
        ColouringSpec(kind="aqj", n=4, t=1, s=1, j=0, partition=((1, 2), (3, 4))),
        ColouringSpec(kind="table", n=3, table=bytes([0, 1, 0, 1, 0, 1, 0, 1])),
        ColouringSpec(kind="constant", n=3, j=1),
    ]
    for spec in specs:
        data = json.loads(json.dumps(spec_to_json_dict(spec)))
        assert spec_from_json_dict(data) == spec


def test_spec_json_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        spec_from_json_dict({"kind": "majority", "n": 4, "colour": 1})
