"""Exact instability engines: maximum colour-jumps over geodesics.

The workhorse is a dynamic program over states (current point x, set S of
coordinates not yet flipped).  Writing g(x, S) for the maximum number of
future jumps, the recurrence maximises over i in S of

    [colour changes when i flips] + g(x with bit i flipped, S without i)

and the answer is the maximum of g(x, full set) over admissible starts.
The table is indexed by (S, z) with z = x XOR S, the point the geodesic
will end at.  Flipping bit i changes x and S together and leaves z alone,
so every predecessor state sits in the same column of another row: each
column is its own DP, and a query fills only the columns of the ends it
reads.  Each entry stores 2*g(x, S) + f(x); the colour in the low bit
turns the jump into a parity.  Rows are filled one popcount layer at a
time, in blocks of rows, each a running maximum over its predecessors
taken one at a time; a row S without i is in the layer before S, so only
two layers are live, each at most C(n, n//2) rows, stored by rank within
the layer.  A geodesic from s ends at ~s, so start and end constraints
filter the starts, and its reversal, from ~s, has the same jumps: inst
reads the starts below 2^(n-1), and winst the well-ending starts.  The
values are in the last layer, the full set.  A witness descends through
the whole column of its one end, 2^n bytes.

A single colouring fills fewer columns still.  A swap of two coordinates
that fixes f maps geodesics to geodesics with the same jumps, start
weight and start and end colours, so the engines keep one start per orbit
of the swaps, the least.  At most 2^(n//2) kept starts are filled at once;
past that, since no geodesic makes more than n jumps, they are filled in
three steps that each end the fill once a start reaches n: the first
2^(n//4) kept starts, the rest of the first 2^(n//2), then the rest.  The
last step's ends are whole colour blocks when every end is.  Each fill
builds the colour blocks of the low halves its ends use only, which keeps
a narrow fill cheap.  The first step keeps its columns whole, 2^n *
2^(n//4) bytes (64 KB at n = 13), so the witness of a first maximal start
among them comes from the fill that found its value; a start past them has
its one column refilled.  Besides those columns, the layers take at most
2 * C(n, n//2) * 2^(n-1) bytes for inst (14 MB at n = 13, 56 MB at
n = 14) and 2 * C(n, n//2) * C(n, t+1) for winst: bounds that an input
with no swap symmetry and value below n meets, while the majority and
partition colourings keep a few hundred starts at most.  The batch
kernels score every start of every row.

A literal brute-force enumerator over all starts and flip permutations is
kept as an independent oracle for cross-checking at tiny dimensions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional, Sequence

import numpy as np

from .colourings import Colouring
from .errors import CapacityError, UndefinedRadiusError, ValidationError
from .hypercube import Geodesic, Point, weights_vector

DEFAULT_MAX_N = 13
_BRUTEFORCE_MAX_N = 6
_BLOCK_BYTES = 1 << 18  # per block of rows: the rows, one predecessor and colours


@dataclass(frozen=True)
class InstabilityReport:
    """Result of an exact engine run.

    ``mode`` is "inst", "winst", or "m-geodesic".  ``t_used`` carries the
    radius for winst runs and the start weight for m-geodesic runs.
    ``value``/``witness`` are None when no geodesic meets the constraints.
    """

    mode: str
    value: Optional[int]
    witness: Optional[Geodesic]
    t_used: Optional[int] = None


def dimension_cap(explicit: Optional[int] = None) -> int:
    """Engine dimension cap: explicit argument, else GEOSTAB_MAX_N (at least 1), else 13.

    Passing ``cap`` explicitly (or setting the environment variable) is the
    acknowledgement that the DP layers fit in memory: two popcount layers,
    at most 2 * C(n, n//2) * 2^(n-1) bytes for inst (14 MB at n = 13, 56 MB
    at n = 14) and at most 2 * C(n, n//2) * C(n, t+1) bytes for winst at
    radius t, times the number of colourings scored together.  A single
    colouring reaches these bounds only without swap symmetry and with a
    value below n: its layers hold one start per orbit of the coordinate
    swaps that fix it, and stop after a probe of 2^(n//4) starts, or of
    2^(n//2), that reaches n.  The first probe's columns, kept whole for the
    witness, add 2^n * 2^(n//4) bytes (64 KB at n = 13, 256 KB at n = 15),
    or 2^n bytes per kept start when at most 2^(n//2) are kept and all are
    filled at once.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get("GEOSTAB_MAX_N")
    try:
        cap = DEFAULT_MAX_N if env is None else int(env)
    except ValueError:
        cap = 0  # refused below
    if cap < 1:
        raise ValidationError(f"GEOSTAB_MAX_N must be a positive integer, got {env!r}")
    return cap


def _check_cap(n: int, cap: Optional[int]) -> None:
    limit = dimension_cap(cap)
    if n > limit:
        raise CapacityError(
            f"dimension {n} exceeds the engine cap {limit}; "
            "set GEOSTAB_MAX_N to acknowledge the memory cost"
        )


def jumps_of_path(f: Colouring, seq: Sequence[Point]) -> int:
    """Exact jump count of an arbitrary point sequence (not only geodesics)."""
    if any(p.n != f.n for p in seq):
        raise ValidationError("path points must match the colouring dimension")
    table = f.table()
    return sum(1 for a, b in zip(seq, seq[1:]) if table[a.code] != table[b.code])


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For each popcount k = 0..n, the subsets S of size k in ascending code
    and, as (C(n,k), k) ranks in layer k-1, their predecessors S without i,
    one per i in S ascending.  A subset is also its row of the colour-block
    table of ``_dp_layers``, before the high half of an end is xor-ed in."""
    subsets = np.arange(1 << n, dtype=np.intp)
    bits = 1 << np.arange(n, dtype=np.intp)
    member = (subsets[:, None] & bits) != 0
    layers = [subsets[member.sum(axis=1) == k] for k in range(n + 1)]
    rank = np.empty_like(subsets)
    for S in layers:
        rank[S] = np.arange(len(S))
    return tuple((S, rank[(S[:, None] ^ bits)[member[S]].reshape(len(S), -1)]) for S in layers)


def _dp_layers(
    tables: np.ndarray, n: int, ends: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For k = 0..n, the subsets S of size k in ascending code and the layer
    Q[r, j, b] = 2*g(z^S, S) + f_b(z^S) of S = subsets[r] and z = ends[j],
    for a (B, 2^n) colour-table batch and ascending, distinct end points
    ``ends``.  Two layer buffers are reused: a layer is overwritten two
    layers after it is yielded, so a consumer that keeps it copies it.

    The predecessor of state (x, S) through bit i is (x^e_i, S^e_i), which
    is column z of row S^e_i.  Xor-ing in f(x) leaves 2*g + jump, and a
    block of rows keeps the running maximum of these over i, one gathered
    predecessor at a time, so the bytes a block holds at once do not grow
    with the layer.  Rounding up to even gives 2*(g + jump), and since
    rounding is monotone it can follow the maximum over i.  Entries stay
    below 2n+2 <= 127.
    """
    B, N = tables.shape
    if N != 1 << n:
        raise ValidationError(f"tables must have 2^{n} columns, got {N}")
    T = np.ascontiguousarray(tables.T, dtype=np.int8)
    layers = _layers(n)
    buffers = np.empty((2, len(layers[n // 2][0]), len(ends), B), dtype=np.int8)
    prev = buffers[0, :1]
    prev[0] = T[ends]
    yield layers[0][0], prev
    # The colours f(z^S) of row S, with z split into high and low halves:
    # A[g*L + s, j] is the colour of high half g and low half s ^ lows[j],
    # for the distinct low halves ``lows`` of ``ends``, so row S gathers the
    # blocks A[S ^ (h << l)] for the distinct high halves h of ``ends``,
    # then selects the columns of ``ends`` unless they are every pair (h, j).
    l = n // 2
    L = 1 << l
    lo = ends & (L - 1)
    used = np.zeros(L, dtype=bool)
    used[lo] = True
    lows = np.flatnonzero(used)
    A = T.reshape(N >> l, L, B).take(np.arange(L)[:, None] ^ lows, axis=1).reshape(N, len(lows), B)
    hi = ends >> l  # ascending, as ``ends`` are
    high = hi[np.concatenate(([True], hi[1:] != hi[:-1]))]
    width = len(high) * len(lows)
    if len(ends) == width:
        cols = None
    else:
        cols = np.searchsorted(high, hi) * len(lows) + np.searchsorted(lows, lo)
    rows = max(1, _BLOCK_BYTES // max(1, (2 * len(ends) + width) * B))
    # one gathered predecessor of a block; ``take`` buffers its output under
    # mode="raise", and the ranks are always in range, so "clip" clips none
    X = np.empty((min(rows, len(buffers[0])), len(ends), B), dtype=np.int8)
    for k, (subsets, preds) in enumerate(layers[1:], 1):
        cur = buffers[k % 2, :len(subsets)]
        blocks = subsets[:, None] ^ (high << l)
        for a in range(0, len(subsets), rows):
            block = blocks[a:a + rows]
            pred = preds[a:a + rows]
            P = A.take(block, axis=0).reshape(len(block), -1, B)
            if cols is not None:
                P = P.take(cols, axis=1)
            row = cur[a:a + rows]
            x = X[:len(block)]
            prev.take(pred[:, 0], axis=0, out=row, mode="clip")
            row ^= P
            for i in range(1, k):
                prev.take(pred[:, i], axis=0, out=x, mode="clip")
                x ^= P
                np.maximum(row, x, out=row)
            row += 1
            row &= -2
            row += P
        yield subsets, cur
        prev = cur


def _start_values(tables: np.ndarray, n: int, starts: np.ndarray) -> np.ndarray:
    """g(s, full set) as (B, starts) for the ascending ``starts``, from the
    last layer of the fill for their ends 2^n - 1 - s, the starts reversed."""
    for _, top in _dp_layers(tables, n, ((1 << n) - 1 - starts)[::-1]):
        pass
    return (top[0] >> 1)[::-1].T


def _start_columns(table: np.ndarray, n: int, starts: np.ndarray) -> np.ndarray:
    """The filled columns of the ascending ``starts`` as (2^n, len(starts)):
    column j holds 2*g(z^S, S) + f(z^S) for the end z = 2^n - 1 - starts[j]
    of a geodesic from starts[j], indexed by the code of S."""
    columns = np.empty((1 << n, len(starts)), dtype=np.int8)
    for subsets, layer in _dp_layers(table[None], n, ((1 << n) - 1 - starts)[::-1]):
        columns[subsets] = layer[:, ::-1, 0]
    return columns


def _reconstruct(column: np.ndarray, table: np.ndarray, n: int, start: int) -> tuple[int, ...]:
    """Greedy re-descent through the filled table ``column`` of the end point
    start^full, which is fixed along the whole descent; smallest coordinate
    first, which yields the lexicographically least optimal flip order."""
    order = []
    S = (1 << n) - 1
    x = start
    g = column >> 1
    for _ in range(n):
        target = int(g[S])
        for i in range(n):
            bit = 1 << i
            if S & bit:
                nx = x ^ bit
                step = int(table[x] != table[nx]) + int(g[S ^ bit])
                if step == target:
                    order.append(i + 1)
                    x = nx
                    S ^= bit
                    break
        else:
            raise AssertionError("greedy descent failed to match the table value")
    return tuple(order)


def _swap_blocks(table: np.ndarray, n: int) -> list[list[int]]:
    """The bit positions 0..n-1 joined into blocks, each ascending, by the
    transpositions of coordinates that fix the colouring.  Such a swap keeps
    the count of 1-points with the bit set, so only pairs of equal count are
    tested.  The swap of bits a < b moves only the points where the two bits
    differ, so it fixes f when the quarter-tables with (bit b, bit a) equal
    (0, 1) and (1, 0) are equal.  The fixing swaps are an equivalence
    relation on the coordinates, as (a c) = (a b)(b c)(a b), so each
    coordinate not yet in a block starts one and takes every later one of
    equal count, not yet in a block, whose swap with it fixes f."""
    counts = [int(table.reshape(-1, 2, 1 << i)[:, 1].sum()) for i in range(n)]
    blocks: list[list[int]] = []
    placed: set[int] = set()
    for a in range(n):
        if a in placed:
            continue
        block = [a]
        for b in range(a + 1, n):
            if b not in placed and counts[b] == counts[a]:
                q = table.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << a)
                if np.array_equal(q[:, 0, :, 1], q[:, 1, :, 0]):
                    block.append(b)
        placed.update(block)
        blocks.append(block)
    return blocks


def _orbit_least(starts: np.ndarray, blocks: list[list[int]]) -> np.ndarray:
    """The ``starts`` that are least in their orbit under the swaps within
    ``blocks``: in each block their 1-bits sit in the lowest positions."""
    keep = np.ones(len(starts), dtype=bool)
    for block in blocks:
        for p, q in zip(block, block[1:]):
            keep &= (starts >> q & 1) <= (starts >> p & 1)
    return starts[keep]


def _best_start(
    f: Colouring, starts: np.ndarray, mode: str, t_used: Optional[int]
) -> InstabilityReport:
    """Report the first start of maximum value among ``starts`` with its
    witness, or a None report when ``starts`` is empty.

    Only the starts least in their orbit under the swaps that fix f are
    filled.  At most 2^(n//2) of them are filled at once.  More are filled
    in three steps, stopping at the first that reaches n: the first 2^(n//4)
    kept starts, the next ones up to 2^(n//2), then the rest.  The second
    step is there for tables whose first start of value n falls past the
    first probe.  Of the 20 random n = 13 tables of the engine_n13
    benchmark at seeds 4401-4410, in both modes, 39 of 40 first reach n at
    a kept index below 8 and one at kept index 8.  Inst on a radius-t
    colouring cannot reach n from a start of weight below t, and on random
    radius-4 and radius-5 colourings at n = 13 first reaches n at kept
    index 15-63.  The last step starts at a multiple of 2^(n//2), so its
    ends are whole colour blocks whenever all the ends are.  A column is its
    own DP, so the steps give the values of one fill.  The witness column is
    the first probe's when the first maximal start is in it, else a refill
    of that one start.  This is exact when the first maximal start is one of
    the kept starts: ``starts`` closed under the swaps, or inst's starts
    below 2^(n-1), which by reversal hold the first maximal start of the
    whole cube."""
    n = f.n
    table = f.table()
    starts = _orbit_least(starts, _swap_blocks(table, n))
    if starts.size == 0:
        return InstabilityReport(mode=mode, value=None, witness=None, t_used=t_used)
    probe = starts.size if starts.size <= 1 << (n // 2) else 1 << (n // 4)
    columns = _start_columns(table, n, starts[:probe])
    top = columns[-1] >> 1
    for a, b in ((probe, 1 << (n // 2)), (1 << (n // 2), starts.size)):
        if top.max() == n or a >= starts.size:
            break
        top = np.concatenate((top, _start_values(table[None], n, starts[a:b])[0]))
    i = int(np.argmax(top))
    start = int(starts[i])
    # the witness column is the first probe's, or a refill of the one start past it
    column = columns[:, i] if i < probe else _start_columns(table, n, starts[i:i + 1])[:, 0]
    order = _reconstruct(column, table, n, start)
    return InstabilityReport(
        mode=mode,
        value=int(top[i]),
        witness=Geodesic(Point(n, start), order),
        t_used=t_used,
    )


def inst_exact(f: Colouring, cap: Optional[int] = None) -> InstabilityReport:
    """Exact inst(f): maximum jumps over all 2^n * n! geodesics, with witness.

    A geodesic's reversal starts at ~s with the same jumps, so the least
    maximal start is below 2^(n-1)."""
    _check_cap(f.n, cap)
    return _best_start(f, np.arange(1 << (f.n - 1)), "inst", None)


def inst_restricted(
    f: Colouring,
    start_weight: int,
    start_colour: Optional[int] = None,
    end_colour: Optional[int] = None,
) -> InstabilityReport:
    """Maximum jumps over geodesics with a fixed start weight and optional
    start/end colour constraints; value None when no geodesic qualifies.

    A geodesic from s ends at ~s, so both colour constraints filter starts.
    """
    if not (0 <= start_weight <= f.n):
        raise ValidationError(f"start weight {start_weight} out of range [0, {f.n}]")
    _check_cap(f.n, None)
    table = f.table()
    starts = np.nonzero(weights_vector(f.n) == start_weight)[0]
    if start_colour is not None:
        starts = starts[table[starts] == start_colour]
    if end_colour is not None:
        starts = starts[table[::-1][starts] == end_colour]
    return _best_start(f, starts, "m-geodesic", start_weight)


def _well_ending_starts(tables: np.ndarray, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight-(t+1) starts, ascending, and the (B, C(n, t+1)) mask of
    those that start a well-ending (t+1)-geodesic: coloured 1, or with the
    complement 2^n - 1 - s, the geodesic's last point, coloured 0."""
    starts = np.nonzero(weights_vector(n) == t + 1)[0]
    return starts, (tables[:, starts] == 1) | (tables[:, (1 << n) - 1 - starts] == 0)


def winst_exact(f: Colouring, cap: Optional[int] = None) -> InstabilityReport:
    """Exact winst(f): maximum jumps over well-ending (t_f+1)-geodesics.

    A geodesic ends well if its first point is coloured 1 or its last point
    is coloured 0 (inclusive or).  The last point is the complement of the
    first, so both disjuncts filter the starts of one unconstrained table.
    """
    t = f.t_f
    if t < 0:
        raise UndefinedRadiusError("winst is undefined for colourings with t_f = -1")
    _check_cap(f.n, cap)
    starts, ok = _well_ending_starts(f.table()[None], f.n, t)
    starts = starts[ok[0]]
    if starts.size == 0:
        raise AssertionError(
            "a colouring with t_f >= 0 always admits a well-ending (t_f+1)-geodesic"
        )
    return _best_start(f, starts, "winst", t)


def inst_bruteforce(f: Colouring) -> int:
    """Literal maximum over all starts and all n! flip orders; oracle only."""
    if f.n > _BRUTEFORCE_MAX_N:
        raise CapacityError(f"brute force is gated to n <= {_BRUTEFORCE_MAX_N}, got n={f.n}")
    n = f.n
    table = f.table()
    best = 0
    for order in permutations(range(n)):
        for start in range(1 << n):
            x = start
            prev = table[x]
            jumps = 0
            for i in order:
                x ^= 1 << i
                cur = table[x]
                if cur != prev:
                    jumps += 1
                    prev = cur
            if jumps > best:
                best = jumps
    return best


def inst_values_batch(tables: np.ndarray, n: int) -> np.ndarray:
    """inst(f) for every row of a (B, 2^n) colour-table batch."""
    _check_cap(n, None)
    return _start_values(tables, n, np.arange(1 << (n - 1))).max(axis=1).astype(np.int16)


def winst_values_batch(tables: np.ndarray, n: int, t: int) -> np.ndarray:
    """winst(f) for every row; rows are assumed to respect the radius-t balls."""
    _check_cap(n, None)
    starts, ok = _well_ending_starts(tables, n, t)
    vals = np.where(ok, _start_values(tables, n, starts), np.int8(-1))
    return vals.max(axis=1).astype(np.int16)
