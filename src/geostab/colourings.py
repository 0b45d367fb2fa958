"""Colouring families of the n-cube and their structural predicates.

A colouring assigns 0 or 1 to every point of the cube.  The families built
here are the majority colourings (colour of a point = majority of its first
k entries, balls coloured canonically), the partition colourings ``a^Q_j``
(colour j iff some block of a coordinate partition is monochromatically j)
and their prefix-dispatched combination ``b_t^k``, plus explicit-table and
constant colourings used by the search and test machinery.

Every colouring carries a derived radius ``t_f``: the largest t such that
the whole radius-t ball around the all-zeros point is coloured 0 and the
one around the all-ones point is coloured 1 (-1 if even t=0 fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapacityError, UndefinedRadiusError, ValidationError
from .hypercube import MAX_POINT_DIMENSION, Point, check_radius, weights_vector

# The fields each kind needs, then the further fields it may take; ``make``
# refuses a spec that lacks a needed field or sets one its kind does not read.
KIND_FIELDS = {
    "majority": (("t", "k"), ("tie",)),
    "partition": (("t", "k"), ("partition",)),
    "aqj": (("t", "s", "j", "partition"), ()),
    "table": (("table",), ()),
    "constant": (("j",), ()),
}
KINDS = tuple(KIND_FIELDS)
TIE_RULES = ("first-entry", "zero", "one")

_DEFINED_BY_MAX_N = 16


@dataclass(frozen=True)
class ColouringSpec:
    """Declarative description of a colouring; ``make`` validates and builds it.

    Every spec sets ``kind`` and ``n``; ``KIND_FIELDS`` names the other
    fields each kind reads, and the rest stay None.
    """

    kind: str
    n: int
    t: Optional[int] = None
    k: Optional[int] = None
    tie: Optional[str] = None
    partition: Optional[tuple[tuple[int, ...], ...]] = None
    j: Optional[int] = None
    s: Optional[int] = None
    table: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.partition is not None:
            norm = tuple(tuple(sorted(block)) for block in self.partition)
            object.__setattr__(self, "partition", norm)
        if self.table is not None:
            object.__setattr__(self, "table", bytes(self.table))


class Colouring:
    """An immutable total colouring of the n-cube with a cached radius.

    The full colour table is materialised at construction (the instability
    engines consume it wholesale); ``t_f`` is computed lazily on first use.
    Evaluation is pure and the lazy cache is idempotent.
    """

    def __init__(self, spec: ColouringSpec, table: np.ndarray):
        self.spec = spec
        self.n = spec.n
        table = np.ascontiguousarray(table, dtype=np.uint8)
        table.setflags(write=False)
        self._table = table
        self._t_f: Optional[int] = None

    def table(self) -> np.ndarray:
        """Read-only array of 2^n colour bits, indexed by point code."""
        return self._table

    def evaluate(self, x: Point) -> int:
        """Colour of x; errors on dimension mismatch."""
        if x.n != self.n:
            raise ValidationError(
                f"point dimension {x.n} does not match colouring dimension {self.n}"
            )
        return int(self._table[x.code])

    @property
    def t_f(self) -> int:
        """Largest t whose balls the colouring respects; -1 when f(0^n)=1 or f(1^n)=0."""
        if self._t_f is None:
            self._t_f = int(radii(self._table[None], self.n)[0])
        return self._t_f

    def __repr__(self) -> str:
        return f"Colouring({self.spec.kind}, n={self.n})"


def radii(tables: np.ndarray, n: int) -> np.ndarray:
    """Radius t_f of every row of a (B, 2^n) colour-table batch, as int16: one
    less than the least distance from a point to the pole of the other
    colour, its weight if it is coloured 1 and n - weight if 0."""
    w = weights_vector(n).astype(np.int16)
    return np.where(tables == 1, w, n - w).min(axis=1) - 1


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _check_blocks(blocks: Sequence[Sequence[int]], count: int, t: int, lo: int, n: int,
                  what: str) -> None:
    """``count`` blocks of at least t+1 coordinates that partition lo..n exactly."""
    _require(len(blocks) == count, f"need s+1 = {count} blocks, got {len(blocks)}")
    for block in blocks:
        _require(
            len(block) >= t + 1,
            f"every block needs size >= t+1 = {t + 1}, got {sorted(block)}",
        )
        _require(all(lo <= i <= n for i in block), f"block {sorted(block)} not within {lo}..{n}")
    universe = set(range(lo, n + 1))
    seen: set[int] = set()
    for block in blocks:
        bs = set(block)
        _require(len(bs) == len(block), f"{what}: block {block} has repeated indices")
        _require(not (bs & seen), f"{what}: blocks overlap at {sorted(bs & seen)}")
        seen |= bs
    _require(
        seen == universe,
        f"{what}: blocks must cover exactly {sorted(universe)}, got {sorted(seen)}",
    )


def make(spec: ColouringSpec) -> Colouring:
    """Validate a spec against ``KIND_FIELDS`` and build the colouring it describes."""
    _require(spec.kind in KINDS, f"unknown kind {spec.kind!r}")
    n = spec.n
    _require(1 <= n <= MAX_POINT_DIMENSION, f"need 1 <= n <= {MAX_POINT_DIMENSION}, got n={n}")
    needs, may_take = KIND_FIELDS[spec.kind]
    missing = [name for name in needs if getattr(spec, name) is None]
    _require(not missing, f"{spec.kind} needs {', '.join(missing)}")
    reads = ("kind", "n", *needs, *may_take)
    unread = [name for name, value in vars(spec).items() if value is not None and name not in reads]
    _require(not unread, f"{spec.kind} does not read {', '.join(unread)}")
    builder = {
        "majority": _make_majority,
        "partition": _make_partition,
        "aqj": _make_aqj,
        "table": _make_table,
        "constant": _make_constant,
    }[spec.kind]
    return builder(spec)


def _make_majority(spec: ColouringSpec) -> Colouring:
    n, t, k = spec.n, spec.t, spec.k
    check_radius(n, t)
    _require(0 < k <= n, f"need 0 < k <= n, got k={k}, n={n}")
    tie = spec.tie
    if k % 2 == 1:
        _require(tie is None, "tie rule applies to even k only")
    else:
        tie = "first-entry" if tie is None else tie
        _require(tie in TIE_RULES, f"tie must be one of {TIE_RULES}, got {tie!r}")

    codes = np.arange(1 << n, dtype=np.uint32)
    w = weights_vector(n).astype(np.int16)
    prefix = weights_vector(k)[codes & ((1 << k) - 1)]
    if k % 2 == 1:
        maj = (2 * prefix > k).astype(np.uint8)
    else:
        if tie == "first-entry":
            on_tie = (codes & 1).astype(np.uint8)
        else:
            on_tie = np.uint8(0) if tie == "zero" else np.uint8(1)
        maj = np.where(2 * prefix > k, 1, np.where(2 * prefix < k, 0, on_tie)).astype(np.uint8)
    table = np.where(w <= t, 0, np.where(w >= n - t, 1, maj)).astype(np.uint8)
    return Colouring(spec, table)


def _aqj_table(n: int, j: int, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """a^Q_j over the stated coordinate blocks: j iff some block is all-j.

    An empty block list yields the constant 1-j, matching the convention
    that a^Q_j(y) = 1-j when Q or y is empty.
    """
    N = 1 << n
    codes = np.arange(N, dtype=np.uint32)
    hit = np.zeros(N, dtype=bool)
    for block in blocks:
        mask = 0
        for i in block:
            mask |= 1 << (i - 1)
        want = mask if j == 1 else 0
        hit |= (codes & mask) == want
    return np.where(hit, j, 1 - j).astype(np.uint8)


def _make_aqj(spec: ColouringSpec) -> Colouring:
    n, t, s, j = spec.n, spec.t, spec.s, spec.j
    _require(j in (0, 1), f"need j in {{0,1}}, got j={j}")
    _require(s >= 0, f"need s >= 0, got s={s}")
    _require(
        n >= (s + 1) * (t + 1),
        f"need n >= (s+1)(t+1) = {(s + 1) * (t + 1)}, got n={n}",
    )
    _check_blocks(spec.partition, s + 1, t, 1, n, "aqj partition")
    return Colouring(spec, _aqj_table(n, j, spec.partition))


def _make_partition(spec: ColouringSpec) -> Colouring:
    n, t, k = spec.n, spec.t, spec.k
    _require(k >= 1 and k % 2 == 1, f"need odd k >= 1, got k={k}")
    _require(k <= n, f"need k <= n, got k={k}, n={n}")
    s = t - (k + 1) // 2
    _require(s >= -1, f"need s = t-(k+1)/2 >= -1, got s={s}")
    blocks = spec.partition or ()
    if s == -1:
        _require(n == k, f"s = -1 forces n = k, got n={n}, k={k}")
        _require(not blocks, "s = -1 forces an empty partition")
    else:
        _require(
            n >= (s + 1) * (t + 1) + k,
            f"need n >= (s+1)(t+1)+k = {(s + 1) * (t + 1) + k}, got n={n}",
        )
        _check_blocks(blocks, s + 1, t, k + 1, n, "b_t^k partition")

    codes = np.arange(1 << n, dtype=np.uint32)
    prefix = weights_vector(k)[codes & ((1 << k) - 1)]
    a0 = _aqj_table(n, 0, blocks)
    a1 = _aqj_table(n, 1, blocks)
    table = np.where(2 * prefix > k, a0, a1).astype(np.uint8)
    return Colouring(spec, table)


def _make_table(spec: ColouringSpec) -> Colouring:
    n, bits = spec.n, spec.table
    _require(
        len(bits) == (1 << n),
        f"table must hold exactly 2^{n} = {1 << n} bits, got {len(bits)}",
    )
    arr = np.frombuffer(bits, dtype=np.uint8)
    _require(bool(np.all(arr <= 1)), "table entries must be 0 or 1")
    return Colouring(spec, arr.copy())


def _make_constant(spec: ColouringSpec) -> Colouring:
    _require(spec.j in (0, 1), f"need j in {{0,1}}, got j={spec.j}")
    table = np.full(1 << spec.n, spec.j, dtype=np.uint8)
    return Colouring(spec, table)


def respects_balls(f: Colouring, t: int) -> bool:
    """Whether f is canonically 0/1 on the radius-t balls. t must be valid for n."""
    check_radius(f.n, t)
    return f.t_f >= t


def is_defined_by(f: Colouring, indices: Iterable[int]) -> bool:
    """Whether the colour outside the t_f-balls depends only on the given entries."""
    idx = sorted(set(indices))
    _require(all(1 <= i <= f.n for i in idx), f"indices {idx} not within 1..{f.n}")
    t = f.t_f
    if t == -1:
        raise UndefinedRadiusError("colouring has t_f = -1; no balls to exclude")
    N = 1 << f.n
    mask = 0
    for i in idx:
        mask |= 1 << (i - 1)
    outside = free_point_codes(f.n, t)
    keys = outside & mask
    cols = f.table()[outside]
    lo = np.ones(N, dtype=np.uint8)
    hi = np.zeros(N, dtype=np.uint8)
    np.minimum.at(lo, keys, cols)
    np.maximum.at(hi, keys, cols)
    return bool(np.all(lo >= hi))


def min_defining_k(f: Colouring) -> int:
    """Smallest index-set size that defines f outside its balls.

    Exhausts subsets in ascending size with short-circuiting; gated to
    n <= 16 because the subset lattice is walked explicitly.
    """
    if f.n > _DEFINED_BY_MAX_N:
        raise CapacityError(f"min_defining_k is gated to n <= {_DEFINED_BY_MAX_N}, got n={f.n}")
    if f.t_f == -1:
        raise UndefinedRadiusError("colouring has t_f = -1; no balls to exclude")
    for size in range(f.n + 1):
        for idx in combinations(range(1, f.n + 1), size):
            if is_defined_by(f, idx):
                return size
    raise AssertionError("the full index set always defines a colouring")


def balanced_partition(n: int, t: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Default b_t^k partition: contiguous blocks of k+1..n, sizes as equal as possible."""
    s = t - (k + 1) // 2
    if s == -1:
        return ()
    count = s + 1
    span = n - k
    _require(
        span >= count * (t + 1),
        f"need n-k >= (s+1)(t+1) = {count * (t + 1)}, got {span}",
    )
    base, rem = divmod(span, count)
    blocks = []
    start = k + 1
    for b in range(count):
        size = base + (1 if b < rem else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return tuple(blocks)


def majority_grid(max_n: int) -> Iterator[tuple[int, int, int]]:
    """Every (n, t, k) with n <= max_n for which maj_t(k) is defined on H_n."""
    for t in range(0, (max_n - 1) // 2 + 1):
        for k in range(1, 2 * t + 2):
            for n in range(max(2 * t + 1, k), max_n + 1):
                yield n, t, k


def partition_grid(max_n: int) -> Iterator[tuple[int, int, int]]:
    """Every (n, t, k) with n <= max_n for which b_t^k has a balanced partition."""
    for t in range(0, (max_n - 1) // 2 + 1):
        for k in range(1, 2 * t + 2, 2):
            s = t - (k + 1) // 2
            n_min = k if s == -1 else (s + 1) * (t + 1) + k
            n_max = k if s == -1 else max_n
            for n in range(n_min, n_max + 1):
                if n <= max_n:
                    yield n, t, k


def free_point_codes(n: int, t: int) -> np.ndarray:
    """Codes strictly between the two radius-t balls, ascending."""
    w = weights_vector(n).astype(np.int16)
    return np.nonzero((w > t) & (w < n - t))[0].astype(np.int64)


def tables_from_free_layers(n: int, t: int, bits: np.ndarray) -> np.ndarray:
    """(B, 2^n) colour tables, canonical on the radius-t balls, from (B, F)
    free-layer bits; column j of ``bits`` colours the j-th free point in
    ascending code order."""
    tables = np.repeat((weights_vector(n) >= n - t).astype(np.uint8)[None], len(bits), axis=0)
    tables[:, free_point_codes(n, t)] = bits
    return tables


def table_from_free_layers(n: int, t: int, free_bits: Sequence[int] | np.ndarray) -> Colouring:
    """Table colouring with canonical radius-t balls and the given free-layer bits.

    ``free_bits`` follows ascending code order over the free points.
    """
    check_radius(n, t)
    free = free_point_codes(n, t)
    bits = np.asarray(free_bits, dtype=np.uint8)
    _require(
        bits.shape == free.shape,
        f"expected {len(free)} free bits for (n={n}, t={t}), got {len(bits)}",
    )
    table = tables_from_free_layers(n, t, bits[None])[0]
    return make(ColouringSpec(kind="table", n=n, table=table.tobytes()))


def complement_colouring(f: Colouring) -> Colouring:
    """The colouring x -> 1 - f(complement(x)); preserves t_f."""
    table = (1 - f.table()[::-1]).astype(np.uint8)
    return make(ColouringSpec(kind="table", n=f.n, table=table.tobytes()))


def table_to_hex(table: bytes) -> str:
    """Hex text form: bit p = colour of code p, highest codes leading."""
    bits = np.frombuffer(bytes(table), dtype=np.uint8) != 0
    value = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    width = max(1, (len(bits) + 3) // 4)
    return format(value, f"0{width}x")


def table_from_hex(hex_text: str, n: int) -> bytes:
    if not 0 <= n <= MAX_POINT_DIMENSION:
        raise ValidationError(f"table hex needs 0 <= n <= {MAX_POINT_DIMENSION}, got n={n}")
    N = 1 << n
    width = max(1, (N + 3) // 4)
    text = hex_text.strip().lower()
    if len(text) != width:
        raise ValidationError(
            f"table hex for n={n} must encode 2^{n} bits in {width} digits, got {len(text)}"
        )
    if not set(text) <= set("0123456789abcdef"):
        raise ValidationError(f"not a hex string: {hex_text!r}")
    value = int(text, 16)
    if value >> N:
        raise ValidationError(f"table hex has bits beyond 2^{n}")
    packed = np.frombuffer(value.to_bytes((N + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=N, bitorder="little").tobytes()


def spec_to_json_dict(spec: ColouringSpec) -> dict:
    """JSON-ready dict; coordinate sets 1-indexed, table as lowercase hex."""
    out: dict = {"kind": spec.kind, "n": spec.n}
    for name in ("t", "k", "tie", "j", "s"):
        value = getattr(spec, name)
        if value is not None:
            out[name] = value
    if spec.partition is not None:
        out["partition"] = [list(block) for block in spec.partition]
    if spec.table is not None:
        out["table"] = table_to_hex(spec.table)
    return out


def _is_int(value) -> bool:
    """True for an int that is not a bool, as a JSON integer field must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(ok: bool, data: dict, name: str, what: str):
    """``data[name]`` if ``ok``, else a refusal naming the field and its type."""
    if not ok:
        raise ValidationError(f"spec field {name!r} must be {what}, got {data[name]!r}")
    return data[name]


def _integer(data: dict, name: str) -> int:
    return _typed(_is_int(data[name]), data, name, "an integer")


def _string(data: dict, name: str) -> str:
    return _typed(isinstance(data[name], str), data, name, "a string")


def _blocks(data: dict, name: str) -> list:
    value = data[name]
    ok = isinstance(value, list) and all(
        isinstance(block, list) and all(_is_int(i) for i in block) for block in value)
    return _typed(ok, data, name, "a list of integer lists")


def _hex(data: dict, name: str) -> bytes:
    return table_from_hex(_typed(isinstance(data[name], str), data, name, "a hex string"),
                          data["n"])


# How each spec field is read from JSON; n comes before the table it sizes.
_DECODERS = {"kind": _string, "n": _integer, "t": _integer, "k": _integer, "tie": _string,
             "partition": _blocks, "j": _integer, "s": _integer, "table": _hex}


def spec_from_json_dict(data: dict) -> ColouringSpec:
    """Decode a spec's JSON object field by field; a null field is absent."""
    if not isinstance(data, dict):
        raise ValidationError("colouring spec must be a JSON object")
    unknown = set(data) - set(_DECODERS)
    if unknown:
        raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
    for name in ("kind", "n"):
        if data.get(name) is None:
            raise ValidationError(f"spec is missing required field {name!r}")
    return ColouringSpec(**{name: decode(data, name) for name, decode in _DECODERS.items()
                            if data.get(name) is not None})
