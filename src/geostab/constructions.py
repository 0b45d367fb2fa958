"""Witness geodesics built from the constructive proofs.

Each builder returns the geodesic together with the number of jumps the
construction guarantees against the colouring it was built for; the tests
recount the actual jumps and check they never fall short.

Two shared conventions:

* Coordinates are permuted internally to realise the canonical shapes the
  arguments use (witness point first, block structure contiguous) and the
  returned geodesic is always expressed in the original coordinates.
* Colour-symmetric cases ("the other case is analogous") run the primary
  case against the complemented colouring x -> 1 - f(~x) and map the result
  back, so there is a single transcription per construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colourings import Colouring, ColouringSpec, complement_colouring, is_defined_by, make
from .errors import UndefinedRadiusError, ValidationError
from .hypercube import (
    Geodesic,
    Point,
    complement,
    expand,
    reverse,
    weights_vector,
)
from .instability import jumps_of_path, winst_exact


@dataclass(frozen=True)
class ConstructionResult:
    geodesic: Geodesic
    guaranteed_jumps: int
    notes: str


def _interleave(first: list[int], second: list[int]) -> list[int]:
    """first[0], second[0], first[1], ... with the longer tail appended."""
    out: list[int] = []
    for a, b in zip(first, second):
        out.extend((a, b))
    longer = first if len(first) > len(second) else second
    out.extend(longer[min(len(first), len(second)):])
    return out


def _bits_of(code: int, n: int) -> list[int]:
    return [i + 1 for i in range(n) if code >> i & 1]


# ---------------------------------------------------------------------------
# zig-zag paths
# ---------------------------------------------------------------------------


def _scan_radius_witness(f: Colouring) -> tuple[int, bool]:
    """Lowest-code point showing t_f is maximal: weight t+1 coloured 1, or
    (complemented orientation) t+1 zeros coloured 0."""
    t = f.t_f
    w = weights_vector(f.n)
    table = f.table()
    cand = np.nonzero((w == t + 1) & (table == 1))[0]
    if cand.size:
        return int(cand[0]), False
    cand = np.nonzero((w == f.n - t - 1) & (table == 0))[0]
    if cand.size:
        return int(cand[0]), True
    raise AssertionError("t_f maximality always yields a witness point at layer t_f+1")


def _zigzag_phases(ones_desc: list[int], zeros_asc: list[int], gap: int) -> list[int]:
    """Alternate full-or-partial crossings of the free strip, ascending first."""
    order: list[int] = []
    ascending = True
    while ones_desc or zeros_asc:
        pool = zeros_asc if ascending else ones_desc
        for _ in range(min(gap, len(pool))):
            order.append(pool.pop(0))
        ascending = not ascending
    return order


def zigzag_witness(f: Colouring, mode: str) -> ConstructionResult:
    """Geodesic oscillating between the two balls, from the zig-zag argument.

    Mode "a" starts at a radius witness (a well-ending (t+1)-geodesic) and
    guarantees floor(t/(n-2t)) + ceil(t/(n-2t)) + 1 jumps.  Mode "b" spends
    two extra steps dipping into the near ball first and guarantees
    2*floor((t-1)/(n-2t)) + 3 jumps.  (The bounds module states the mode-b
    formula as floor+ceil+3, which holds over all colourings; when n-2t
    does not divide t-1 a fixed path cannot promise the odd half-crossing,
    so the guarantee recorded here is the one the returned path forces.)
    """
    if mode not in ("a", "b"):
        raise ValidationError(f"mode must be 'a' or 'b', got {mode!r}")
    t = f.t_f
    if t < 0:
        raise UndefinedRadiusError("zig-zag needs t_f >= 0")
    if mode == "b" and t < 1:
        raise ValidationError("mode 'b' needs t_f >= 1 to enter the ball twice")
    n = f.n
    gap = n - 2 * t
    start_code, complemented = _scan_radius_witness(f)
    x = start_code ^ ((1 << n) - 1) if complemented else start_code

    ones = sorted(_bits_of(x, n), reverse=True)
    zeros = sorted(i for i in range(1, n + 1) if not (x >> (i - 1)) & 1)
    if mode == "a":
        order = [ones.pop(0)]
        order += _zigzag_phases(ones, zeros, gap)
        g = Geodesic(Point(n, x), tuple(order))
        guaranteed = t // gap + -(-t // gap) + 1
    else:
        c = ones.pop(0)
        c2 = ones.pop(0)
        start = x ^ (1 << (c - 1))
        order = [c, c2] + _zigzag_phases(ones, zeros, gap)
        g = Geodesic(Point(n, start), tuple(order))
        guaranteed = 2 * ((t - 1) // gap) + 3

    if complemented:
        g = complement(g)
        if mode == "a":
            g = reverse(g)
    case = "complemented" if complemented else "primary"
    notes = f"zig-zag mode {mode}, {case} case, radius witness {Point(n, start_code).bit_string()}"
    return ConstructionResult(g, guaranteed, notes)


# ---------------------------------------------------------------------------
# majority witness (recursion on the prefix length)
# ---------------------------------------------------------------------------


def _maj_base_order(m: int, t: int) -> tuple[int, list[int]]:
    """The explicit k=1 base path: start 1^{t+1}0^{m-t-1}, flips alternating
    the highest remaining prefix one with the next unused zero."""
    downs = list(range(t + 1, 0, -1))
    ups = list(range(t + 2, m + 1))
    start = (1 << (t + 1)) - 1
    return start, _interleave(downs, ups)


def _maj_recurse(m: int, t: int, k: int) -> tuple[int, list[int]]:
    """Returns (start code, flip order) in the local m-dimensional frame.

    The recursion pins prefix entries k-1 and k to 0 and 1 (not entries 1 and 2:
    keeping entry 1 free preserves the first-entry tie rule, and with it the
    complementary-prefix condition the even-k induction leans on) and treats
    the remaining coordinates as the (m-2)-cube carrying the (t-1, k-2) case.

    The proof extends the sub-witness at whichever end the colour of its first
    point dictates, and at k = 2 orders the base flips by the colour of
    1 0^t 1^(t-1) 0^(m-2t).  In maj_t(k) neither choice is open: each lift
    adds a 0 and a 1 to the prefix and the base start opens with ones, so
    every lifted start has weight t+1 with a strict majority of ones among
    the first k entries (colour 1), and the k = 2 point has weight t (colour
    0).  The two new points, entry k-1 raised then entry k cleared, always
    go at the end.
    """
    if k <= 2:
        return _maj_base_order(m, t)
    sub_start, sub_order = _maj_recurse(m - 2, t - 1, k - 2)
    low_mask = (1 << (k - 2)) - 1
    start = (sub_start & low_mask) | ((sub_start >> (k - 2)) << k) | (1 << (k - 1))
    order = [c if c <= k - 2 else c + 2 for c in sub_order]
    return start, order + [k - 1, k]


def majority_witness(f: Colouring) -> ConstructionResult:
    """A (t+1)-geodesic with at least 2t+1 jumps in maj_t(k), ending in colour 0.

    n, t and k are read from ``f.spec``.  Built by the proof's recursion on
    k: the subcube fixing entry k-1 = 0 and entry k = 1 carries
    maj_{t-1}(k-2), whose witness is always extended by two points at its
    end.  The guarantee covers the "first-entry" and "one" tie rules of
    even k, and the "zero" rule is refused.
    """
    if f.spec.kind != "majority":
        raise ValidationError(f"expected a majority colouring, got kind {f.spec.kind!r}")
    if f.spec.tie == "zero":
        raise ValidationError("the majority witness does not cover the tie rule 'zero'")
    n, t, k = f.n, f.spec.t, f.spec.k
    if k > 2 * t + 1:
        raise ValidationError(f"need k <= 2t+1, got k={k}, t={t}")
    start, order = _maj_recurse(n, t, k)
    g = Geodesic(Point(n, start), tuple(order))
    return ConstructionResult(g, 2 * t + 1, f"majority witness, n={n}, t={t}, k={k}")


# ---------------------------------------------------------------------------
# partition witness
# ---------------------------------------------------------------------------


def partition_witness(f: Colouring) -> ConstructionResult:
    """The b_t^k geodesic: k alternating prefix flips, then two jumps per block
    (fill the block with ones, then drop its original one)."""
    if f.spec.kind != "partition":
        raise ValidationError(f"expected a partition colouring, got kind {f.spec.kind!r}")
    n, t, k = f.n, f.spec.t, f.spec.k
    blocks = f.spec.partition or ()
    half = (k + 1) // 2
    start = (1 << half) - 1
    prefix_downs = list(range(1, half + 1))
    prefix_ups = list(range(half + 1, k + 1))
    order = _interleave(prefix_downs, prefix_ups)
    for block in blocks:
        lead = block[0]  # lowest index starts as the block's single one
        start |= 1 << (lead - 1)
        order += [i for i in block if i != lead]
        order.append(lead)
    g = Geodesic(Point(n, start), tuple(order))
    return ConstructionResult(g, 2 * t + 1, f"partition witness, n={n}, t={t}, k={k}")


# ---------------------------------------------------------------------------
# strip extensions
# ---------------------------------------------------------------------------


def strip_reduction(f: Colouring, mode: str) -> Colouring:
    """The reduced colouring the strip extensions build on.

    one_strip (n = 2t+2): g(x') = f(01x'), dropping two coordinates.
    multi_strip: g(x'') = f(0^w 1^w x'') with w = n-2t, dropping 2w.
    """
    t = f.t_f
    if t < 0:
        raise UndefinedRadiusError("strip reduction needs t_f >= 0")
    n = f.n
    if mode == "one_strip":
        if n != 2 * t + 2:
            raise ValidationError(f"one_strip needs n = 2t+2, got n={n}, t_f={t}")
        drop, pattern = 2, 0b10
    elif mode == "multi_strip":
        w = n - 2 * t
        if t - w < 0:
            raise ValidationError(f"multi_strip needs t >= n-2t, got n={n}, t_f={t}")
        drop, pattern = 2 * w, ((1 << w) - 1) << w
    else:
        raise ValidationError(f"mode must be 'one_strip' or 'multi_strip', got {mode!r}")
    codes = (np.arange(1 << (n - drop), dtype=np.int64) << drop) | pattern
    table = f.table()[codes]
    return make(ColouringSpec(kind="table", n=n - drop, table=table.tobytes()))


def _require_inner(inner: Geodesic, g: Colouring, want_weight: int) -> tuple[int, int, int]:
    if inner.n != g.n:
        raise ValidationError(
            f"inner witness dimension {inner.n} does not match the reduced cube {g.n}"
        )
    a = inner.start.code
    if a.bit_count() != want_weight:
        raise ValidationError(
            f"inner witness must start at weight {want_weight}, got {a.bit_count()}"
        )
    z = a ^ ((1 << inner.n) - 1)
    ga = int(g.table()[a])
    if not (ga == 1 or g.table()[z] == 0):
        raise ValidationError("inner witness is not well-ending for the reduced colouring")
    return a, z, ga


def strip_extend(f: Colouring, inner_witness: ConstructionResult, mode: str) -> ConstructionResult:
    """Extend a well-ending witness of the reduced colouring by one strip.

    one_strip adds two coordinates around one end for +1 guaranteed jump;
    multi_strip adds 2(n-2t) coordinates crossing both balls for +2.  The
    result is well-ending: directly for multi_strip, and for one_strip after
    possibly reversing (legitimate since n = 2t+2 keeps the reverse a
    (t+1)-geodesic).
    """
    g = strip_reduction(f, mode)
    t = f.t_f
    n = f.n
    inner = inner_witness.geodesic
    table = f.table()

    if mode == "one_strip":
        a, _, ga = _require_inner(inner, g, t)
        lifted_order = [c + 2 for c in inner.flip_order]
        if ga == 1:
            start = (a << 2) | 0b01  # 10a, 00a, 01a, ... lifted inner
            order = [1, 2] + lifted_order
        else:
            start = (a << 2) | 0b10  # lifted inner ..., 01z, 11z, 10z
            order = lifted_order + [1, 2]
        geo = Geodesic(Point(n, start), tuple(order))
        end = start ^ ((1 << n) - 1)
        if not (table[start] == 1 or table[end] == 0):
            geo = reverse(geo)
        guaranteed = inner_witness.guaranteed_jumps + 1
        notes = f"one-strip extension at n={n}, t={t} ({'start' if ga == 1 else 'end'} side)"
        return ConstructionResult(geo, guaranteed, notes)

    w = n - 2 * t
    a, z, ga = _require_inner(inner, g, (t - w) + 1)
    pattern = ((1 << w) - 1) << w
    lifted_order = [c + 2 * w for c in inner.flip_order]
    if ga == 1:
        start = (a << (2 * w)) | pattern
        z_full = (z << (2 * w)) | pattern
        if table[z_full] == 0:
            # up into B_t(1), down across to B_t(0), partial refill
            suffix = [w] + list(range(w + 1, 2 * w + 1)) + list(range(1, w))
        else:
            # down into B_t(0), up across to B_t(1), final step back out
            suffix = list(range(w + 1, 2 * w)) + list(range(1, w + 1)) + [2 * w]
        order = lifted_order + suffix
    else:
        # prepend before the lifted start s = 0^w 1^w a, which is coloured 0 here:
        # dip into B_t(0), cross up through B_t(1), come back down to s
        start = (a << (2 * w)) | ((1 << w) - 1)
        prefix = [w] + list(range(w + 1, 2 * w + 1)) + list(range(w - 1, 0, -1))
        order = prefix + lifted_order
    geo = Geodesic(Point(n, start), tuple(order))
    guaranteed = inner_witness.guaranteed_jumps + 2
    notes = f"multi-strip extension at n={n}, t={t}, strip width {w} ({'end' if ga == 1 else 'start'} side)"
    return ConstructionResult(geo, guaranteed, notes)


# ---------------------------------------------------------------------------
# k-defined escape and lift
# ---------------------------------------------------------------------------


def prefix_colouring(f: Colouring, k: int) -> Colouring:
    """The induced colouring of the first k entries: the colour of each prefix
    padded with ones up to weight t+1 (with zeros once it is that heavy), a
    point outside both t-balls whenever k < n-2t."""
    t = f.t_f
    extra = np.maximum(0, t + 1 - weights_vector(k).astype(np.int64))
    codes = np.arange(1 << k, dtype=np.int64) | (((1 << extra) - 1) << k)
    table = f.table()[codes]
    return make(ColouringSpec(kind="table", n=k, table=table.tobytes()))


def _escape_geodesic(n: int, t: int, k: int) -> Geodesic:
    """The displayed escape path: oscillate on the ball boundary with the
    prefix pinned at 0^k, then spend the prefix flips."""
    start = ((1 << (t + 1)) - 1) << k
    downs = list(range(k + t + 1, k, -1))
    ups = list(range(n, n - t, -1))
    order = _interleave(downs, ups)
    order += list(range(n - t, k + t + 1, -1))
    order += list(range(1, k + 1))
    return Geodesic(Point(n, start), tuple(order))


def _normalize_prefix_witness(witness: Geodesic, s: int) -> Geodesic:
    """Reorder in-ball excursions so every point keeps >= s zeros and ones.

    A maximal run below weight s (or above k-s) is balanced, so its flips can
    be replayed alternating outward-first, pinning the run to the boundary.
    """
    k = witness.n
    pts = [p.code for p in expand(witness)]
    order = list(witness.flip_order)

    def clamp(low_side: bool) -> None:
        boundary = s if low_side else k - s
        i = 0
        while i < len(pts) - 1:
            w = pts[i].bit_count()
            nxt = pts[i + 1].bit_count()
            inward = nxt < w if low_side else nxt > w
            if w == boundary and inward:
                j = i + 1
                while pts[j].bit_count() != boundary:
                    j += 1
                seg = order[i:j]
                cur = pts[i]
                # at the entry point, a 0-bit flip raises the weight
                raising = [c for c in seg if not (cur >> (c - 1)) & 1]
                lowering = [c for c in seg if (cur >> (c - 1)) & 1]
                if len(raising) != len(lowering):
                    raise ValidationError(
                        "prefix witness ball excursion cannot be clamped"
                    )
                outward_first = raising if low_side else lowering
                inward_second = lowering if low_side else raising
                order[i:j] = _interleave(outward_first, inward_second)
                code = pts[i]
                for pos, c in enumerate(order[i:j], start=i):
                    code ^= 1 << (c - 1)
                    pts[pos + 1] = code
                i = j
            else:
                i += 1

    if s > 0:
        clamp(low_side=True)
        clamp(low_side=False)
    return Geodesic(witness.start, tuple(order))


def kdefined_witness(
    f: Colouring, k: int, prefix_witness: Geodesic | None = None
) -> ConstructionResult:
    """Well-ending (t+1)-geodesic for a colouring defined by its first k entries.

    If the induced prefix colouring takes the wrong colour at a pole, the
    escape path already jumps 2t+2 times.  It promises only 2t+1 when 0^k
    is coloured 1, 1^k is coloured 0 and k = n-2t-1: no suffix coordinate
    is left after the oscillation, and the prefix flips may stay in colour
    0 to the end.  Otherwise a prefix witness (the exact winst witness of
    the induced colouring unless one is supplied) is lifted: 2(t-s)
    boundary jumps are prepended, the prefix flips replay the witness
    against a frozen suffix, and the leftover suffix zeros are spent at the
    end.
    """
    t = f.t_f
    if t < 0:
        raise UndefinedRadiusError("kdefined_witness needs t_f >= 0")
    n = f.n
    if not 1 <= k < n - 2 * t:
        raise ValidationError(f"need 1 <= k < n - 2t = {n - 2 * t}, got k={k}")
    if not is_defined_by(f, range(1, k + 1)):
        raise ValidationError("colouring is not defined by its first k entries")

    fp = prefix_colouring(f, k)
    F0, F1 = fp.table()[0], fp.table()[-1]
    if F0 == 1:
        geo = _escape_geodesic(n, t, k)
        guaranteed = 2 * t + 1 if F1 == 0 and k == n - 2 * t - 1 else 2 * t + 2
        return ConstructionResult(geo, guaranteed, f"escape path, prefix 0^{k} coloured 1")
    if F1 == 0:
        geo = reverse(complement(_escape_geodesic(n, t, k)))
        return ConstructionResult(geo, 2 * t + 2, f"escape path, prefix 1^{k} coloured 0")

    s = fp.t_f
    if prefix_witness is None:
        prefix_witness = winst_exact(fp).witness
    else:
        if prefix_witness.n != k:
            raise ValidationError(
                f"prefix witness dimension {prefix_witness.n} does not match k={k}"
            )
        if prefix_witness.start.code.bit_count() != s + 1:
            raise ValidationError(f"prefix witness must start at weight s+1 = {s + 1}")
    p0 = prefix_witness.start.code
    pk = p0 ^ ((1 << k) - 1)
    if int(fp.table()[p0]) == 1:
        pass
    elif int(fp.table()[pk]) == 0:
        flipped = kdefined_witness(
            complement_colouring(f), k, reverse(complement(prefix_witness))
        )
        geo = reverse(complement(flipped.geodesic))
        return ConstructionResult(
            geo, flipped.guaranteed_jumps, flipped.notes + " (complemented)"
        )
    else:
        raise ValidationError("prefix witness is not well-ending for the induced colouring")

    witness = _normalize_prefix_witness(prefix_witness, s)
    block_ones = ((1 << (t - s)) - 1) << k
    start = witness.start.code | block_ones
    downs = list(range(k + t - s, k, -1))
    ups = list(range(n, n - (t - s), -1))
    order = _interleave(downs, ups)
    order += list(witness.flip_order)
    order += list(range(k + t - s + 1, n - (t - s) + 1))
    geo = Geodesic(Point(n, start), tuple(order))

    # jump count of the witness as embedded (the suffix is frozen during it)
    table = f.table()
    suffix_state = ((1 << (t - s)) - 1) << (n - (t - s))
    embedded = [int(table[p.code | suffix_state]) for p in expand(witness)]
    inner_jumps = sum(1 for a, b in zip(embedded, embedded[1:]) if a != b)
    guaranteed = 2 * (t - s) + inner_jumps
    notes = f"lifted prefix witness, k={k}, s={s}, inner jumps {inner_jumps}"
    return ConstructionResult(geo, guaranteed, notes)


def construction_jumps(f: Colouring, result: ConstructionResult) -> int:
    """Actual jump count of a construction against a colouring."""
    return jumps_of_path(f, expand(result.geodesic))
