"""Exact engines against literal enumeration oracles."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geostab.colourings import (
    ColouringSpec,
    balanced_partition,
    free_point_codes,
    majority_grid,
    make,
    partition_grid,
    table_from_free_layers,
)
from geostab.errors import CapacityError, UndefinedRadiusError, ValidationError
from geostab.hypercube import (
    Geodesic,
    Point,
    expand,
    is_geodesic,
    reverse,
    weight,
    weights_vector,
)
from geostab.instability import (
    inst_bruteforce,
    inst_exact,
    inst_restricted,
    inst_values_batch,
    jumps_of_path,
    winst_exact,
    winst_values_batch,
)
from geostab.search import random_colouring

ROOT = Path(__file__).resolve().parent.parent


def maj(n, t, k):
    return make(ColouringSpec(kind="majority", n=n, t=t, k=k))


def _all_geodesics(n):
    for start in range(2**n):
        for order in itertools.permutations(range(1, n + 1)):
            yield Geodesic(Point(n, start), order)


def _jumps(f, g):
    pts = expand(g)
    return sum(
        1
        for a, b in zip(pts, pts[1:])
        if f.evaluate(a) != f.evaluate(b)
    )


def _random_colouring(rng, n, t):
    free = free_point_codes(n, t)
    return table_from_free_layers(n, t, rng.integers(0, 2, size=len(free)))


def test_jumps_of_path_examples():
    const0 = make(ColouringSpec(kind="constant", n=3, j=0))
    path = [Point(3, c) for c in (0, 1, 3, 7)]
    assert jumps_of_path(const0, path) == 0

    u3 = table_from_free_layers(3, 1, [])
    path = [Point.from_bit_string(b) for b in ("110", "100", "101", "001")]
    assert jumps_of_path(u3, path) == 3

    with pytest.raises(ValidationError):
        jumps_of_path(const0, [Point(4, 0)])


def test_inst_exact_examples():
    assert inst_exact(make(ColouringSpec(kind="constant", n=4, j=0))).value == 0
    for t in range(1, 4):
        assert inst_exact(table_from_free_layers(2 * t + 1, t, [])).value == 2 * t + 1
    rep = inst_exact(maj(5, 1, 5))
    assert rep.value >= 5
    assert rep.value == inst_bruteforce(maj(5, 1, 5))


def test_inst_exact_witness_revalidates():
    f = maj(6, 2, 3)
    rep = inst_exact(f)
    pts = expand(rep.witness)
    assert is_geodesic(pts)
    assert jumps_of_path(f, pts) == rep.value


def test_winst_exact_against_enumeration():
    # unique colouring of H_3: enumerate all 2-geodesics, filter well-ending
    u3 = table_from_free_layers(3, 1, [])
    best = -1
    for g in _all_geodesics(3):
        pts = expand(g)
        if weight(pts[0]) != 2:
            continue
        if not (u3.evaluate(pts[0]) == 1 or u3.evaluate(pts[-1]) == 0):
            continue
        best = max(best, _jumps(u3, g))
    rep = winst_exact(u3)
    assert rep.value == best == 3
    assert rep.t_used == 1


def test_winst_le_inst_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        t = int(rng.integers(0, (n - 1) // 2 + 1))
        f = _random_colouring(rng, n, t)
        assert winst_exact(f).value <= inst_exact(f).value


def test_winst_examples():
    assert winst_exact(maj(6, 2, 5)).value == 5
    with pytest.raises(UndefinedRadiusError):
        winst_exact(make(ColouringSpec(kind="constant", n=3, j=0)))


def test_winst_admissibility_always_holds():
    # every colouring with t_f >= 0 admits a well-ending (t_f+1)-geodesic,
    # including adversarial free layers
    n, t = 5, 1
    free = free_point_codes(n, t)
    w = np.array([bin(c).count("1") for c in free])
    bits = np.where(w == t + 1, 0, 1)  # near layer all 0, far layer all 1 -> t_f moves
    f = table_from_free_layers(n, t, bits)
    rep = winst_exact(f)
    pts = expand(rep.witness)
    assert weight(pts[0]) == f.t_f + 1
    assert f.evaluate(pts[0]) == 1 or f.evaluate(pts[-1]) == 0


def test_inst_restricted_examples():
    const0 = make(ColouringSpec(kind="constant", n=3, j=0))
    rep = inst_restricted(const0, 1, start_colour=1)
    assert rep.value is None and rep.witness is None

    u3 = table_from_free_layers(3, 1, [])
    best = max(
        _jumps(u3, g)
        for g in _all_geodesics(3)
        if weight(expand(g)[0]) == 2 and u3.evaluate(expand(g)[-1]) == 0
    )
    rep = inst_restricted(u3, 2, end_colour=0)
    assert rep.value == best == 3

    f = maj(5, 1, 3)
    best = max(_jumps(f, g) for g in _all_geodesics(5) if weight(expand(g)[0]) == 2)
    assert inst_restricted(f, 2).value == best == 3


def test_end_colour_table_equals_start_complement_filter():
    # the end of a geodesic is the complement of its start, so the
    # end-constrained table must agree with filtering starts by f(~x0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        t = int(rng.integers(0, (n - 1) // 2 + 1))
        f = _random_colouring(rng, n, t)
        for w0 in range(n + 1):
            rep = inst_restricted(f, w0, end_colour=0)
            full = (1 << n) - 1
            starts = [
                c
                for c in range(2**n)
                if bin(c).count("1") == w0 and f.evaluate(Point(n, c ^ full)) == 0
            ]
            if not starts:
                assert rep.value is None
            else:
                plain = inst_restricted(f, w0)
                best = max(
                    _jumps(f, g)
                    for g in _all_geodesics(n)
                    if expand(g)[0].code in starts
                ) if n <= 4 else None
                if best is not None:
                    assert rep.value == best
                assert rep.value <= plain.value


def test_oracle_equivalence_seeded():
    rng = np.random.default_rng(2024)
    for n in (3, 4, 5):
        for _ in range(12):
            t = int(rng.integers(0, (n - 1) // 2 + 1))
            f = _random_colouring(rng, n, t)
            assert inst_exact(f).value == inst_bruteforce(f)


def test_reverse_invariance_of_jump_counts():
    rng = np.random.default_rng(3)
    f = _random_colouring(rng, 5, 1)
    for _ in range(30):
        start = int(rng.integers(0, 32))
        order = tuple(rng.permutation(5) + 1)
        g = Geodesic(Point(5, start), order)
        assert _jumps(f, g) == _jumps(f, reverse(g))


def test_witness_tie_break_determinism():
    f = maj(5, 1, 3)
    a = inst_exact(f)
    b = inst_exact(f)
    assert a.witness == b.witness


def test_capacity_errors():
    f = maj(5, 1, 3)
    with pytest.raises(CapacityError):
        inst_exact(f, cap=4)
    big = make(ColouringSpec(kind="majority", n=7, t=1, k=1))
    with pytest.raises(CapacityError):
        inst_bruteforce(big)


def test_dimension_cap_env(monkeypatch):
    from geostab.instability import dimension_cap

    assert dimension_cap() == 13
    monkeypatch.setenv("GEOSTAB_MAX_N", "9")
    assert dimension_cap() == 9
    assert dimension_cap(11) == 11


def test_batch_kernels_match_single_engines():
    rng = np.random.default_rng(17)
    for n, t in [(4, 1), (5, 2), (6, 2)]:
        free = free_point_codes(n, t)
        B = 24
        bits = rng.integers(0, 2, size=(B, len(free))).astype(np.uint8)
        fs = [table_from_free_layers(n, t, bits[i]) for i in range(B)]
        tables = np.stack([f.table() for f in fs])
        iv = inst_values_batch(tables, n)
        wv = winst_values_batch(tables, n, t)
        for i in range(B):
            assert iv[i] == inst_exact(fs[i]).value
            if fs[i].t_f == t:
                assert wv[i] == winst_exact(fs[i]).value


def _reference_fill(tables, n):
    """g(x, S) as G[S, b, x] by the direct recurrence: for each (S, i), gather
    row S without i at the flipped points and add the jump of that flip."""
    B, N = tables.shape
    x = np.arange(N)
    G = np.zeros((N, B, N), dtype=np.int8)
    for S in range(1, N):
        best = None
        for i in range(n):
            if S >> i & 1:
                nx = x ^ (1 << i)
                step = (tables != tables[:, nx]) + np.take(G[S ^ (1 << i)], nx, axis=1)
                best = step if best is None else np.maximum(best, step)
        G[S] = best
    return G


def _seeded_tables(B, n):
    rng = np.random.default_rng(40 + 10 * B + n)
    return rng.integers(0, 2, size=(B, 1 << n)).astype(np.uint8)


@pytest.mark.parametrize("B", [1, 7])
def test_reference_fill_top_row_matches_engines(B):
    for n in range(1, 9):
        tables = _seeded_tables(B, n)
        top = _reference_fill(tables, n)[-1]
        assert (inst_values_batch(tables, n) == top.max(axis=1)).all()
        for b in range(B):
            f = make(ColouringSpec(kind="table", n=n, table=tables[b].tobytes()))
            rep = inst_exact(f)
            assert rep.value == top[b].max() and rep.witness.start.code == top[b].argmax()


def _column_sets(n):
    """Ascending end-point sets the kernel is checked on: all columns, the
    upper half (inst's), one weight layer (winst's), a seeded random subset,
    a single column, every high half with one low half (the colour blocks
    of a single low half) and the upper half less its first three columns
    (a partial first colour block)."""
    N = 1 << n
    L = 1 << (n // 2)
    rng = np.random.default_rng(70 + n)
    return {
        "all": np.arange(N),
        "upper half": np.arange(N // 2, N),
        "weight layer": np.nonzero(weights_vector(n) == n // 2)[0],
        "random": np.sort(rng.choice(N, size=max(1, N // 3), replace=False)),
        "single": np.array([rng.integers(N)]),
        "one low half": np.arange(0, N, L) + rng.integers(L),
        "partial first block": np.arange(min(N // 2 + 3, N - 1), N),
    }


def _code_indexed(layers, n):
    """Q[S, j, b] rebuilt from the (subsets, layer) pairs of a fill."""
    Q = None
    for subsets, layer in layers:
        if Q is None:
            Q = np.empty((1 << n,) + layer.shape[1:], dtype=layer.dtype)
        Q[subsets] = layer
    return Q


def _copied_fill(tables, n, ends):
    from geostab.instability import _dp_layers

    return _code_indexed(((S, layer.copy()) for S, layer in _dp_layers(tables, n, ends)), n)


@pytest.mark.parametrize("B", [1, 7])
def test_relabelled_fill_matches_reference_recurrence(B):
    # the kernel stores row S, column j as 2*g(x, S) + f(x) with x = ends[j]^S
    for n in range(1, 9):
        N = 1 << n
        tables = _seeded_tables(B, n)
        G = _reference_fill(tables, n)
        for name, ends in _column_sets(n).items():
            Q = _copied_fill(tables, n, ends)
            assert Q.shape == (N, len(ends), B), name
            for S in range(N):
                x = ends ^ S
                assert (Q[S].T == 2 * G[S][:, x] + tables[:, x]).all(), (n, name, S)


def test_layers_are_reused_so_held_layers_go_stale():
    # only two layers are live: a consumer that keeps the yielded layers
    # without copying them reads later layers' values, and the reference
    # comparison above catches it
    from geostab.instability import _dp_layers

    for n in range(3, 9):
        tables = _seeded_tables(7, n)
        ends = np.arange(1 << n)
        held = list(_dp_layers(tables, n, ends))
        assert all(np.shares_memory(a[1], b[1]) for a, b in zip(held, held[2:]))
        assert not (_code_indexed(held, n) == _copied_fill(tables, n, ends)).all()


def test_refilled_end_column_matches_reference_fill():
    # the columns of a list of starts, each read by subset code: one start
    # alone is the witness refill, several are the probe's columns
    from geostab.instability import _start_columns

    for n in range(1, 9):
        N = 1 << n
        tables = _seeded_tables(1, n)
        G = _reference_fill(tables, n)[:, 0]
        S = np.arange(N)
        for start in range(N):
            x = ((N - 1) ^ start) ^ S
            want = 2 * G[S, x] + tables[0, x]
            assert (_start_columns(tables[0], n, np.array([start]))[:, 0] == want).all(), (n, start)
        for name, starts in _column_sets(n).items():
            x = ((N - 1) ^ starts) ^ S[:, None]
            want = 2 * G[S[:, None], x] + tables[0, x]
            assert (_start_columns(tables[0], n, starts) == want).all(), (n, name)


@pytest.mark.parametrize("B", [1, 7])
def test_geodesic_reversal_gives_complementary_starts_one_value(B):
    # reversing a geodesic from s gives one from ~s with the same jumps, which
    # is why inst fills only the ends of the starts below 2^(n-1)
    for n in range(1, 9):
        N = 1 << n
        tables = _seeded_tables(B, n)
        top = _copied_fill(tables, n, np.arange(N))[-1] >> 1  # indexed by end ~s
        assert (top == top[::-1]).all()


def _traced_peak(engine, f=None):
    """Peak traced allocation of one engine call at n = 12, by default on a
    seeded random colouring."""
    if f is None:
        f = random_colouring(12, 2, seed=3, exact_tf=True)
    engine(f)  # the layer tables are cached on the first call
    tracemalloc.start()
    try:
        engine(f)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "engine, t, bound",
    [(inst_exact, 2, 4**12 / 64), (winst_exact, 2, 4**12 / 64), (inst_exact, 3, 4**12 / 24)],
    ids=["inst", "winst", "inst-second-probe"],
)
def test_engine_memory_is_the_columns_it_reads(engine, t, bound):
    # inst fills at most the 2^n/2 columns of its starts and winst at most
    # C(12, 3) = 220 of 4096, each in two layers of at most C(12, 6) = 924
    # rows.  The radius-2 colouring reaches n in the probe of the first
    # 2^(12//4) kept starts, whose columns are kept whole, 2^12 * 2^3 =
    # 4^12/512 bytes, and the peak is near 4^12/128.  The radius-3 one
    # reaches n in the second probe, the next 2^6 - 2^3 starts, whose fill
    # builds the colour blocks of their 56 low halves, and peaks near
    # 4^12/30; a probe that kept all 2^6 columns whole peaked near 4^12/20
    f = random_colouring(12, t, seed=3, exact_tf=True)
    assert _traced_peak(engine, f) < bound


def test_inst_memory_is_two_layers():
    # maj_2(5) with 8 free points flipped: no swap of coordinates fixes it and
    # its value 11 is below 12, so the probe does not stop the fill and every
    # start below 2^11 has its column filled.  Two layers of 924 rows by 2048
    # columns are 0.23 * 4^12 bytes and the peak is near 0.30 * 4^12; the
    # whole column-restricted table, 4^12 / 2, does not fit under the bound
    from geostab.instability import _swap_blocks

    n = 12
    table = maj(n, 2, 5).table().copy()
    table[np.random.default_rng(7).choice(free_point_codes(n, 2), 8, replace=False)] ^= 1
    f = make(ColouringSpec(kind="table", n=n, table=table))
    assert inst_exact(f).value < n
    assert _swap_blocks(table, n) == [[i] for i in range(n)]
    assert _traced_peak(inst_exact, f) < 0.4 * 4**n


@pytest.mark.parametrize("k", [1, 3, 5])
def test_symmetric_inst_fills_few_columns(k):
    # maj_2(k) is fixed by every swap among its first k coordinates and among
    # the rest, so at most (k+1)(13-k) <= 48 starts are least in their orbit,
    # all filled at once; the peak is their whole columns, the colour blocks
    # of the low halves their ends use and one block of rows, at most
    # 4^12/64 bytes each and near 4^12/30 together, far below two layers of
    # 2048 columns
    f = make(ColouringSpec(kind="majority", n=12, t=2, k=k))
    assert _traced_peak(inst_exact, f) < 4**12 / 20


def test_inst_command_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma adds about 1.6 MB to a process; no engine path needs it
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "majority", "n": 8, "t": 2, "k": 3}')
    code = ("import sys; from geostab import cli; cli.main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, "inst", "--colouring", str(spec),
                           "--out", str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _lex_least_optimal(f, admissible):
    """Literal search: the first (start, flip order) in lexicographic order
    that reaches the maximum jump count among admissible starts."""
    n = f.n
    table = f.table()
    best, arg = None, None
    for start in range(1 << n):
        if not admissible(start):
            continue
        for order in itertools.permutations(range(1, n + 1)):
            x, jumps = start, 0
            for i in order:
                nx = x ^ (1 << (i - 1))
                jumps += int(table[x] != table[nx])
                x = nx
            if best is None or jumps > best:
                best, arg = jumps, Geodesic(Point(n, start), order)
    return best, arg


def test_witnesses_are_lex_least_optimal():
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        full = (1 << n) - 1
        bits = rng.integers(0, 2, size=(2, 1 << n)).astype(np.uint8)
        fs = [make(ColouringSpec(kind="table", n=n, table=b.tobytes())) for b in bits]
        fs += [_random_colouring(rng, n, t) for t in range((n - 1) // 2 + 1)]
        for f in fs:
            table = f.table()
            rep = inst_exact(f)
            assert (rep.value, rep.witness) == _lex_least_optimal(f, lambda s: True)
            for w0 in range(n + 1):
                for sc in (None, 0, 1):
                    for ec in (None, 0, 1):
                        rep = inst_restricted(f, w0, start_colour=sc, end_colour=ec)
                        assert (rep.value, rep.witness) == _lex_least_optimal(
                            f,
                            lambda s: weight(Point(n, s)) == w0
                            and sc in (None, table[s])
                            and ec in (None, table[s ^ full]),
                        )
            if f.t_f >= 0:
                t = f.t_f
                rep = winst_exact(f)
                assert (rep.value, rep.witness) == _lex_least_optimal(
                    f,
                    lambda s: weight(Point(n, s)) == t + 1
                    and (table[s] == 1 or table[s ^ full] == 0),
                )


# ---------------------------------------------------------------------------
# swap blocks and the orbit filter of the single-colouring engines
# ---------------------------------------------------------------------------


def _fixed_by_swap(table, n, a, b):
    """Literal check that swapping bits a and b of every point fixes f."""
    x = np.arange(1 << n)
    moved = ((x >> a) ^ (x >> b)) & 1
    return bool((table[x ^ moved * ((1 << a) | (1 << b))] == table).all())


def _aqj(n, t, s, j):
    """a^Q_j with the coordinates dealt round-robin into s+1 blocks."""
    blocks = tuple(tuple(range(i + 1, n + 1, s + 1)) for i in range(s + 1))
    return make(ColouringSpec(kind="aqj", n=n, t=t, s=s, j=j, partition=blocks))


def _symmetric_colourings(n):
    """Every maj_t(k) (each tie rule), balanced b_t^k and round-robin a^Q_j
    of dimension n."""
    fs = []
    for m, t, k in majority_grid(n):
        if m == n:
            for tie in ("first-entry", "zero", "one") if k % 2 == 0 else (None,):
                fs.append(make(ColouringSpec(kind="majority", n=n, t=t, k=k, tie=tie)))
    for m, t, k in partition_grid(n):
        if m == n:
            fs.append(make(ColouringSpec(kind="partition", n=n, t=t, k=k,
                                         partition=balanced_partition(n, t, k))))
    for t in range(n):
        for s in range(n // (t + 1)):
            fs += [_aqj(n, t, s, j) for j in (0, 1)]
    return fs


def _perturbed(f, rng, flips):
    """The table of f with ``flips`` seeded points outside its radius balls
    flipped: most of its swap symmetry is gone."""
    table = f.table().copy()
    free = free_point_codes(f.n, max(f.t_f, 0))
    table[rng.choice(free, size=min(flips, len(free)), replace=False)] ^= 1
    return make(ColouringSpec(kind="table", n=f.n, table=table.tobytes()))


def test_swap_blocks_match_brute_force_transpositions():
    from geostab.instability import _swap_blocks

    rng = np.random.default_rng(19)
    tied_but_not_fixed = 0
    for n in range(1, 7):
        fs = _symmetric_colourings(n)
        fs += [_perturbed(f, rng, 2) for f in fs[:4]]
        fs += [make(ColouringSpec(kind="table", n=n, table=b.tobytes()))
               for b in rng.integers(0, 2, size=(6, 1 << n)).astype(np.uint8)]
        # 1 at e_1 and at the all-ones point less e_1: every coordinate has
        # one 1-point, but only the swaps among coordinates 2..n fix it
        edge = np.zeros(1 << n, dtype=np.uint8)
        edge[[1, (1 << n) - 2]] = 1
        fs.append(make(ColouringSpec(kind="table", n=n, table=edge.tobytes())))
        for f in fs:
            table = f.table()
            counts = [int(table[np.arange(1 << n) >> i & 1 == 1].sum()) for i in range(n)]
            fixes = {(a, b): _fixed_by_swap(table, n, a, b)
                     for a in range(n) for b in range(a + 1, n)}
            tied_but_not_fixed += sum(counts[a] == counts[b] and not ok
                                      for (a, b), ok in fixes.items())
            # the components of the fixing transpositions, and each of them
            # closed: every pair inside one block fixes f
            component = list(range(n))
            for (a, b), ok in fixes.items():
                if ok:
                    old, new = component[b], component[a]
                    component = [new if c == old else c for c in component]
            want = sorted(sorted(a for a in range(n) if component[a] == c) for c in set(component))
            got = _swap_blocks(table, n)
            assert sorted(got) == want, (f.spec, got, want)
            assert all(fixes[a, b] for block in got for a, b in itertools.combinations(block, 2))
    assert tied_but_not_fixed >= 20


def _unreduced(f, starts):
    """The first start of maximum value among all of ``starts`` and its
    witness flip order, from one fill of every start: no orbit filter and no
    early stop."""
    from geostab.instability import _reconstruct, _start_columns, _start_values

    if starts.size == 0:
        return None, None, None
    n, table = f.n, f.table()
    top = _start_values(table[None], n, starts)[0]
    i = int(np.argmax(top))
    start = int(starts[i])
    order = _reconstruct(_start_columns(table, n, starts[i:i + 1])[:, 0], table, n, start)
    return int(top[i]), start, order


def _report_triple(rep):
    if rep.witness is None:
        return rep.value, None, None
    return rep.value, rep.witness.start.code, rep.witness.flip_order


def _reduction_cases(n, rng):
    """One colouring of each family at dimension n: majority, partition
    (when some b_t^k fits), a^Q_j, a random table, a seeded colouring with
    canonical balls and a perturbed majority colouring."""
    t = (n - 1) // 2
    maj_f = make(ColouringSpec(kind="majority", n=n, t=t, k=int(rng.integers(1, 2 * t + 2))))
    fs = [maj_f, _aqj(n, t // 2, n // (t // 2 + 1) - 1, int(rng.integers(2)))]
    fs += [make(ColouringSpec(kind="partition", n=n, t=pt, k=pk,
                              partition=balanced_partition(n, pt, pk)))
           for m, pt, pk in partition_grid(n) if m == n][-1:]
    fs.append(make(ColouringSpec(kind="table", n=n,
                                 table=rng.integers(0, 2, 1 << n).astype(np.uint8).tobytes())))
    free = free_point_codes(n, t)
    fs.append(table_from_free_layers(n, t, rng.integers(0, 2, size=len(free))))
    fs.append(_perturbed(maj_f, rng, 3))
    return fs


def test_orbit_filter_and_early_stop_match_unreduced_fill():
    rng = np.random.default_rng(23)
    for n in range(1, 10):
        full = (1 << n) - 1
        starts = np.arange(1 << n)
        for f in _reduction_cases(n, rng):
            table = f.table()
            assert _report_triple(inst_exact(f)) == _unreduced(f, starts[: 1 << (n - 1)])
            if f.t_f >= 0:
                t = f.t_f
                ok = (weights_vector(n) == t + 1) & ((table == 1) | (table[::-1] == 0))
                assert _report_triple(winst_exact(f)) == _unreduced(f, starts[ok])
            for w0 in range(n + 1):
                for sc in (None, 0, 1):
                    for ec in (None, 0, 1):
                        ok = ((weights_vector(n) == w0) & (sc is None or table == sc)
                              & (ec is None or table[starts ^ full] == ec))
                        rep = inst_restricted(f, w0, start_colour=sc, end_colour=ec)
                        assert _report_triple(rep) == _unreduced(f, starts[ok]), (
                            f.spec, w0, sc, ec)


def _witness_source(values, n):
    """Where ``_best_start`` takes the witness column of the first maximal
    start among kept starts of these values: the one fill of at most
    2^(n//2) starts, the probe of the first 2^(n//4) that reaches n and
    stops, a refill after the second probe, up to 2^(n//2), reaches n, the
    probe's columns after the fill of every start, or a refill of the one
    column past the probe."""
    i = int(np.argmax(values))
    if len(values) <= 1 << (n // 2):
        return "one fill"
    if values[:1 << (n // 4)].max() == n:
        return "probe stop"
    if values[:1 << (n // 2)].max() == n:
        return "second stop"
    return "probe column" if i < 1 << (n // 4) else "refill"


def test_witness_from_probe_or_refill_matches_fresh_refill():
    # on tables that no swap fixes, every admissible start is kept; the
    # witness is the descent through a fresh one-column fill of the first
    # maximal start, wherever its column came from
    from geostab.instability import _reconstruct, _start_columns, _start_values, _swap_blocks

    rng = np.random.default_rng(31)
    seen = {"inst": set(), "winst": set()}
    for n in range(1, 11):
        N = 1 << n
        for t in range((n - 1) // 2 + 1):
            for _ in range(4):
                f = _random_colouring(rng, n, t)
                table = f.table()
                if len(_swap_blocks(table, n)) < n:
                    continue
                well = weights_vector(n) == f.t_f + 1
                ok = well & ((table == 1) | (table[::-1] == 0))
                for rep, starts in ((inst_exact(f), np.arange(N // 2)),
                                    (winst_exact(f), np.nonzero(ok)[0])):
                    values = _start_values(table[None], n, starts)[0]
                    i = int(np.argmax(values))
                    start = int(starts[i])
                    order = _reconstruct(_start_columns(table, n, starts[i:i + 1])[:, 0],
                                         table, n, start)
                    assert rep.witness == Geodesic(Point(n, start), order), (f.spec, rep.mode)
                    seen[rep.mode].add(_witness_source(values, n))
    for mode in seen:
        assert {"one fill", "probe stop", "refill"} <= seen[mode], (mode, seen[mode])
    assert "second stop" in seen["inst"], seen["inst"]


def _fills(monkeypatch, f):
    """The ``ends`` of every ``_dp_layers`` call that inst_exact(f) makes."""
    from geostab import instability

    fills = []
    kernel = instability._dp_layers

    def spy(tables, n, ends):
        fills.append(ends.copy())
        return kernel(tables, n, ends)

    monkeypatch.setattr(instability, "_dp_layers", spy)
    return inst_exact(f), fills


def test_probe_steps_and_whole_block_fill(monkeypatch):
    # past 2^(n//2) kept starts the fill stops at the first of three steps
    # that reaches n: the first 2^(n//4) kept starts, the rest of the first
    # 2^(n//2), then the rest, whose ends are whole colour blocks and need
    # no column select; a first maximal start past the first probe has its
    # one column refilled
    n = 12
    N = 1 << n
    L = 1 << (n // 2)
    table = np.random.default_rng(5).integers(0, 2, N).astype(np.uint8)
    f = make(ColouringSpec(kind="table", n=n, table=table.tobytes()))
    rep, fills = _fills(monkeypatch, f)
    assert rep.value == n and rep.witness.start.code < 1 << (n // 4)
    assert [len(ends) for ends in fills] == [1 << (n // 4)]

    # a radius-3 colouring first reaches n at a start of weight 3 or more,
    # past the first 2^(12//4) = 8 starts and within the first 2^6
    f = random_colouring(n, 3, seed=3, exact_tf=True)
    rep, fills = _fills(monkeypatch, f)
    assert rep.value == n and 1 << (n // 4) <= rep.witness.start.code < L
    assert [len(ends) for ends in fills] == [1 << (n // 4), L - (1 << (n // 4)), 1]

    table = maj(n, 2, 5).table().copy()
    table[np.random.default_rng(7).choice(free_point_codes(n, 2), 8, replace=False)] ^= 1
    f = make(ColouringSpec(kind="table", n=n, table=table.tobytes()))
    rep, fills = _fills(monkeypatch, f)
    assert rep.value < n
    assert [len(ends) for ends in fills[:3]] == [1 << (n // 4), L - (1 << (n // 4)), N // 2 - L]
    assert (fills[2] == np.arange(N // 2, N - L)).all()
    refilled = rep.witness.start.code >= 1 << (n // 4)
    assert [len(ends) for ends in fills[3:]] == ([1] if refilled else [])


def test_symmetric_colourings_match_bruteforce_oracle():
    # the seeded oracle tests draw random colourings, which almost never have
    # a swap symmetry for the orbit filter to use
    for n in range(1, 7):
        for f in _symmetric_colourings(n):
            assert inst_exact(f).value == inst_bruteforce(f), f.spec
