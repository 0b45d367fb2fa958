"""Points, balls, and geodesics of the n-dimensional binary hypercube.

Conventions used everywhere in this package:

* A point of the n-cube is bit-coded as an unsigned integer.  Coordinates
  (entries) are 1-based to match the usual combinatorial notation: entry i
  of a point lives in bit i-1 of the code, so "the first k entries" of a
  point are exactly ``code & ((1 << k) - 1)``.
* A geodesic is a path of n+1 points that flips every coordinate exactly
  once.  It is stored compactly as a start point plus the order in which
  the coordinates are flipped, and expanded to its point list on demand.

All functions here are pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError

MAX_POINT_DIMENSION = 24


@dataclass(frozen=True)
class Point:
    """A vertex of the n-cube, with entry i stored in bit i-1 of ``code``."""

    n: int
    code: int

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_POINT_DIMENSION):
            raise ValidationError(
                f"dimension must satisfy 1 <= n <= {MAX_POINT_DIMENSION}, got {self.n}"
            )
        if not (0 <= self.code < (1 << self.n)):
            raise ValidationError(
                f"code must satisfy 0 <= code < 2^{self.n}, got {self.code}"
            )

    def entry(self, i: int) -> int:
        """Entry i of the point, 1-based."""
        if not (1 <= i <= self.n):
            raise ValidationError(f"entry index {i} out of range [1, {self.n}]")
        return (self.code >> (i - 1)) & 1

    def complement(self) -> "Point":
        return Point(self.n, self.code ^ ((1 << self.n) - 1))

    def bit_string(self) -> str:
        """Entry 1 leftmost, as used in report text forms."""
        return "".join(str(self.entry(i)) for i in range(1, self.n + 1))

    @classmethod
    def from_bit_string(cls, s: str) -> "Point":
        s = s.strip()
        if not s or any(c not in "01" for c in s):
            raise ValidationError(f"not a bit string: {s!r}")
        code = 0
        for i, c in enumerate(s):
            if c == "1":
                code |= 1 << i
        return cls(len(s), code)


@dataclass(frozen=True)
class Geodesic:
    """Start point plus flip order; coordinate ``flip_order[j-1]`` flips at step j."""

    start: Point
    flip_order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.start.n
        object.__setattr__(self, "flip_order", tuple(self.flip_order))
        if sorted(self.flip_order) != list(range(1, n + 1)):
            raise ValidationError(
                f"flip order must be a permutation of 1..{n}, got {self.flip_order}"
            )

    @property
    def n(self) -> int:
        return self.start.n


def weight(x: Point) -> int:
    """Number of entries equal to 1."""
    return x.code.bit_count()


def check_radius(n: int, t: int) -> None:
    """Refuse a radius t that is not valid for dimension n: t >= 0, and the
    radius-t balls around 0^n and 1^n are disjoint, which holds exactly
    when 2t+1 <= n."""
    if t < 0 or n < 2 * t + 1:
        raise ValidationError(f"t={t} is not valid for n={n}: need 0 <= t and 2t+1 <= n")


def in_ball(x: Point, t: int, center: int) -> bool:
    """Whether x lies in the radius-t ball around the all-``center`` point.

    t = -1 is permitted and always gives False (the empty ball).
    """
    if center not in (0, 1):
        raise ValidationError(f"center must be 0 or 1, got {center}")
    if t < 0:
        return False
    if center == 0:
        return weight(x) <= t
    return x.n - weight(x) <= t


def expand(g: Geodesic) -> list[Point]:
    """The n+1 points of the geodesic, start first."""
    pts = [g.start]
    code = g.start.code
    for coord in g.flip_order:
        code ^= 1 << (coord - 1)
        pts.append(Point(g.start.n, code))
    return pts


def is_geodesic(seq: Sequence[Point]) -> bool:
    """Whether a point sequence is a geodesic of its cube.

    Raises on mixed dimensions; returns False for any structural defect
    (wrong length, a step of Hamming distance != 1, a coordinate flipped twice).
    """
    if not seq:
        return False
    n = seq[0].n
    if any(p.n != n for p in seq):
        raise ValidationError("mixed dimensions in point sequence")
    if len(seq) != n + 1:
        return False
    seen = 0
    for a, b in zip(seq, seq[1:]):
        d = a.code ^ b.code
        if d.bit_count() != 1:
            return False
        if seen & d:
            return False
        seen |= d
    return True


def reverse(g: Geodesic) -> Geodesic:
    """The same path walked backwards; an involution."""
    end = g.start.code ^ ((1 << g.n) - 1)
    return Geodesic(Point(g.n, end), tuple(reversed(g.flip_order)))


def complement(g: Geodesic) -> Geodesic:
    """The pointwise-complemented path: same flip order from the complemented start."""
    return Geodesic(g.start.complement(), g.flip_order)


def layer_points(n: int, w: int) -> Iterator[Point]:
    """All C(n, w) points of weight w."""
    if not (0 <= w <= n):
        raise ValidationError(f"weight {w} out of range [0, {n}]")
    for ones in combinations(range(n), w):
        code = 0
        for b in ones:
            code |= 1 << b
        yield Point(n, code)


@lru_cache(maxsize=None)
def weights_vector(n: int) -> np.ndarray:
    """Popcount of every code in [0, 2^n), as uint8; one read-only array per
    n, shared by every caller."""
    codes = np.arange(1 << n, dtype=np.uint32)
    w = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        w += ((codes >> b) & 1).astype(np.uint8)
    w.setflags(write=False)
    return w


def geodesic_to_text(g: Geodesic) -> str:
    """Report text form, e.g. ``00011 | 5,4,2,1,3``."""
    return f"{g.start.bit_string()} | {','.join(str(c) for c in g.flip_order)}"
