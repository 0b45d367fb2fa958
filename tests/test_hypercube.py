"""Point, ball, and geodesic primitives."""

from math import comb

import pytest

from geostab.errors import ValidationError
from geostab.hypercube import (
    Geodesic,
    Point,
    expand,
    geodesic_to_text,
    in_ball,
    is_geodesic,
    layer_points,
    reverse,
    weight,
    weights_vector,
)


def P(bits: str) -> Point:
    return Point.from_bit_string(bits)


def test_weight_examples():
    assert weight(P("00000")) == 0
    assert weight(P("11111")) == 5
    assert weight(P("0110")) == 2


def test_in_ball_examples():
    assert in_ball(P("01000"), 1, 0) is True
    assert in_ball(P("11110"), 1, 1) is True
    assert in_ball(P("11000"), 1, 0) is False
    assert in_ball(P("11000"), -1, 0) is False


def test_expand_examples():
    g = Geodesic(P("00"), (1, 2))
    assert [p.bit_string() for p in expand(g)] == ["00", "10", "11"]
    g = Geodesic(P("101"), (2, 1, 3))
    assert [p.bit_string() for p in expand(g)] == ["101", "111", "011", "010"]
    g = Geodesic(P("1"), (1,))
    assert [p.bit_string() for p in expand(g)] == ["1", "0"]


def test_expand_rejects_non_permutation():
    with pytest.raises(ValidationError):
        Geodesic(P("00"), (1, 1))
    with pytest.raises(ValidationError):
        Geodesic(P("000"), (1, 2))


def test_is_geodesic_examples():
    assert is_geodesic([P("00"), P("10"), P("11")]) is True
    assert is_geodesic([P("00"), P("10"), P("00")]) is False
    assert is_geodesic([P("000"), P("011"), P("111")]) is False  # wrong length
    assert is_geodesic([]) is False
    assert is_geodesic([P("000"), P("011"), P("010"), P("110")]) is False  # a step of distance 2
    assert is_geodesic([P("000"), P("100"), P("000"), P("100")]) is False  # entry 1 flips twice
    with pytest.raises(ValidationError):
        is_geodesic([P("00"), P("000")])


def test_reverse_examples():
    g = Geodesic(P("00"), (1, 2))
    r = reverse(g)
    assert r.start.bit_string() == "11" and r.flip_order == (2, 1)
    g = Geodesic(P("101"), (2, 1, 3))
    r = reverse(g)
    assert r.start.bit_string() == "010" and r.flip_order == (3, 1, 2)
    assert expand(r) == list(reversed(expand(g)))
    assert reverse(reverse(g)) == g


def test_expand_endpoints_are_complements():
    g = Geodesic(P("01101"), (3, 5, 1, 2, 4))
    pts = expand(g)
    assert pts[-1] == pts[0].complement()
    assert weight(pts[0]) + weight(pts[-1]) == 5
    assert is_geodesic(pts)


def test_layer_points_examples():
    assert {p.bit_string() for p in layer_points(3, 0)} == {"000"}
    assert {p.bit_string() for p in layer_points(3, 2)} == {"110", "101", "011"}
    assert len(list(layer_points(5, 2))) == 10
    with pytest.raises(ValidationError):
        list(layer_points(3, 4))


def test_layer_sizes_sum_to_cube():
    n = 6
    assert sum(comb(n, w) for w in range(n + 1)) == 2**n
    assert all(len(list(layer_points(n, w))) == comb(n, w) for w in range(n + 1))


def test_weights_vector_is_one_read_only_array_per_n():
    for n in range(1, 9):
        w = weights_vector(n)
        assert w is weights_vector(n)
        assert w.tolist() == [weight(Point(n, c)) for c in range(1 << n)]
        with pytest.raises(ValueError):
            w[0] = 1


def test_text_form_round_trip():
    g = Geodesic(Point.from_bit_string("00011"), (5, 4, 2, 1, 3))
    assert geodesic_to_text(g) == "00011 | 5,4,2,1,3"


def test_point_validation():
    with pytest.raises(ValidationError):
        Point(0, 0)
    with pytest.raises(ValidationError):
        Point(3, 8)
    with pytest.raises(ValidationError):
        Point(25, 0)
    with pytest.raises(ValidationError):
        Point.from_bit_string("0x01")
