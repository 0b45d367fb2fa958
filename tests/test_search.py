"""Exhaustive sweeps, their symmetry reduction, checkpointing, and the random colouring generator."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from geostab import search
from geostab.colourings import ColouringSpec, free_point_codes, make
from geostab.errors import CapacityError, ValidationError
from geostab.hypercube import MAX_POINT_DIMENSION, weights_vector
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


def test_min_inst_small_cases():
    r = min_inst_exhaustive(3, 1)
    assert r.minimum == 3 and r.colourings_scanned == 1
    r = min_inst_exhaustive(4, 1)
    assert r.minimum == 3 and r.colourings_scanned == 64
    r = min_inst_exhaustive(3, 0)
    assert r.minimum == 1 and r.colourings_scanned == 64


def test_min_winst_small_cases():
    assert min_winst_exhaustive(2, 0).minimum == 1
    assert min_winst_exhaustive(3, 0).minimum == 1
    assert min_winst_exhaustive(4, 1).minimum == 3


def test_argmin_reproduces_minimum():
    r = min_inst_exhaustive(4, 1)
    f = make(r.argmin)
    assert inst_exact(f).value == r.minimum
    rw = min_winst_exhaustive(4, 1)
    fw = make(rw.argmin)
    assert fw.t_f == 1
    assert winst_exact(fw).value == rw.minimum


def test_sweeps_are_reproducible():
    a = min_inst_exhaustive(4, 1)
    b = min_inst_exhaustive(4, 1)
    assert (a.minimum, a.argmin, a.colourings_scanned) == (
        b.minimum,
        b.argmin,
        b.colourings_scanned,
    )


def test_chunked_sweep_matches_single_chunk(monkeypatch):
    a = min_inst_exhaustive(4, 0)
    monkeypatch.setattr(search, "DEFAULT_BATCH", 100)
    b = min_inst_exhaustive(4, 0)  # 518 representatives: six chunks
    assert (a.minimum, a.argmin, a.colourings_scanned, a.orbits_scanned) == (
        b.minimum,
        b.argmin,
        b.colourings_scanned,
        b.orbits_scanned,
    )
    for threads in (2, 0):
        with pytest.raises(ValidationError, match="one process"):
            min_inst_exhaustive(4, 0, threads=threads)


def test_winst_relay_inequality_at_small_sizes():
    # min over t <= s <= (n-1)/2 of the winst minimum bounds the inst minimum
    n, t = 4, 1
    winst_min = min(min_winst_exhaustive(n, s).minimum for s in range(t, (n - 1) // 2 + 1))
    assert winst_min <= min_inst_exhaustive(n, t).minimum


def _partial_checkpoint(n, t, mode, done=None):
    """The v3 checkpoint of a sweep that has scored the first ``done`` orbit
    representatives, by default half of them."""
    free = free_point_codes(n, t)
    reps, sizes = search._orbits(n, free)
    done = len(reps) // 2 if done is None else done
    best = search._score(n, t, mode, reps[:done])
    return {
        "version": 3,
        "n": n,
        "t": t,
        "mode": mode,
        "F": len(free),
        "next_counter": int(reps[done]),
        "orbits_scanned": done,
        "scanned": int(sizes[:done].sum()),
        "best": best and list(best),
    }


def test_checkpoint_resume(tmp_path):
    path = str(tmp_path / "sweep.json")
    full = min_inst_exhaustive(4, 0)
    # resume a sweep stopped half way through the representatives
    state = _partial_checkpoint(4, 0, "inst")
    with open(path, "w") as fh:
        json.dump(state, fh)
    resumed = min_inst_exhaustive(4, 0, checkpoint_path=path)
    assert resumed == full
    assert resumed.colourings_scanned == 1 << 14
    with open(path) as fh:
        final = json.load(fh)
    assert (final["next_counter"], final["scanned"]) == (1 << 14, 1 << 14)
    assert final["orbits_scanned"] == full.orbits_scanned

    with open(path, "w") as fh:
        json.dump(dict(state, n=5), fh)
    with pytest.raises(ValidationError):
        min_inst_exhaustive(4, 0, checkpoint_path=path)


def test_unwritable_checkpoint_is_refused(tmp_path):
    with pytest.raises(ValidationError, match="cannot write checkpoint"):
        min_inst_exhaustive(3, 1, checkpoint_path=str(tmp_path / "missing" / "ck.json"))


_DROP = object()


@pytest.mark.parametrize(
    "change",
    [
        '{"version": 2, "n": 4, "t": 0, "mo',  # truncated
        "not json",
        "[1, 2]",
        {"version": _DROP, "F": _DROP, "orbits_scanned": _DROP},  # legacy format
        {"best": _DROP, "scanned": _DROP},
        {"version": 2},
        {"next_counter": (1 << 14) + 1},
        {"next_counter": -1},
        {"next_counter": "7"},
        {"next_counter": 2},  # in the orbit of counter 1, so not a representative
        {"n": 5},
        {"t": 1},
        {"mode": "winst"},
        {"F": 13},
        {"scanned": 1 << 13},
        {"orbits_scanned": 3},
        {"best": [3, 1 << 14]},
        {"best": "2,0"},  # the minimum as text
        # the minimum must be a scored representative's own value; "sweep"
        # and "done" pick the partial checkpoint the change is applied to
        {"best": None},
        {"best": [-1, 0]},
        {"best": [3, 0]},  # counter 0 scores 2
        {"best": [2, 2]},  # counter 2 is not a representative
        {"best": [4, 1100]},  # a representative above next_counter 1099
        {"sweep": "winst", "best": [4, 3]},  # counter 3's inst value; its winst value is 3
        {"sweep": "winst", "done": 512, "best": [4, 13376]},  # counter 13376 has radius 1
        # counter 3 is a scored representative of value 4, not the minimum 2
        {"best": [4, 3]},
        # each field must be the JSON text the sweep writes, and no other
        {"t": False},
        {"orbits_scanned": 259.0},  # the true count, as a float
        {"F": 14.0},
        {"extra": 1},
        # the state a v2 sweep wrote: version 2 and a second minimum
        {"version": 2, "best_exact": [2, 0]},
        pytest.param("[" * 10**5 + "]" * 10**5, id="nested"),  # too deep for the JSON reader
    ],
)
def test_checkpoint_refused(tmp_path, change):
    mode = "inst"
    if isinstance(change, dict):
        change = dict(change)
        mode = change.pop("sweep", mode)
        state = _partial_checkpoint(4, 0, mode, change.pop("done", None))
        state.update(change)
        change = json.dumps({k: v for k, v in state.items() if v is not _DROP})
    path = tmp_path / "sweep.json"
    path.write_text(change)
    runner = min_inst_exhaustive if mode == "inst" else min_winst_exhaustive
    with pytest.raises(ValidationError):
        runner(4, 0, checkpoint_path=str(path))


# checkpoints as written by the v3 format's first writer, each with its
# place among the writes of a sweep in chunks of 100 representatives: the
# first write of the (5,1) inst sweep and the last of the (4,1) winst sweep
_PINNED = {
    (5, 1, "inst"): (0, '{"n": 5, "t": 1, "mode": "inst", "F": 20, "version": 3, '
                    '"next_counter": 1062, "orbits_scanned": 100, "scanned": 10677, '
                    '"best": [4, 0]}'),
    (4, 1, "winst"): (-1, '{"n": 4, "t": 1, "mode": "winst", "F": 6, "version": 3, '
                     '"next_counter": 64, "orbits_scanned": 7, "scanned": 64, '
                     '"best": [3, 7]}'),
}


@pytest.mark.parametrize("n, t, mode", sorted(_PINNED))
def test_checkpoint_format_is_pinned(tmp_path, monkeypatch, n, t, mode):
    runner = min_inst_exhaustive if mode == "inst" else min_winst_exhaustive
    fresh = runner(n, t)
    write, text = _PINNED[n, t, mode]
    path = tmp_path / "sweep.json"
    path.write_text(text)
    monkeypatch.setattr(search, "DEFAULT_BATCH", 100)
    resumed = runner(n, t, checkpoint_path=str(path))
    assert resumed == fresh

    # a fresh sweep in chunks of 100 writes the pinned text byte for byte
    written = []
    save = search._save_checkpoint

    def recorded(path, state):
        save(path, state)
        with open(path) as fh:
            written.append(fh.read())

    monkeypatch.setattr(search, "_save_checkpoint", recorded)
    path.unlink()
    runner(n, t, checkpoint_path=str(path))
    assert written[write] == text


def _tables_of(n, t, counters):
    """Colour tables of free-layer counters, canonical on the radius-t balls."""
    free = free_point_codes(n, t)
    base = np.where(weights_vector(n) >= n - t, 1, 0).astype(np.uint8)
    tables = np.repeat(base[None, :], len(counters), axis=0)
    tables[:, free] = (np.asarray(counters)[:, None] >> np.arange(len(free))) & 1
    return tables


def _unreduced_sweep(n, t, mode, batch=1 << 14):
    """Reference: score all 2^F counters in ascending order.  Returns the
    (value, counter) minimum over all of them (inst only) and over those
    with radius exactly t."""
    free = free_point_codes(n, t)
    w = weights_vector(n)
    best = best_exact = None
    for lo in range(0, 1 << len(free), batch):
        counters = np.arange(lo, min(lo + batch, 1 << len(free)))
        tables = _tables_of(n, t, counters)
        # the radius exceeds t when the layers next to both balls join them
        exact = np.ones(len(counters), dtype=bool)
        if n >= 2 * t + 3:
            exact = tables[:, w == t + 1].any(axis=1) | ~tables[:, w == n - t - 1].all(axis=1)
        if mode == "inst":
            values = inst_values_batch(tables, n)
            i = int(values.argmin())
            best = min(filter(None, [best, (int(values[i]), int(counters[i]))]))
        else:
            values = winst_values_batch(tables, n, t)
        if exact.any():
            values, counters = values[exact], counters[exact]
            i = int(values.argmin())
            best_exact = min(filter(None, [best_exact, (int(values[i]), int(counters[i]))]))
    return best, best_exact


def _counter_of(f, n, t):
    free = free_point_codes(n, t)
    return int(sum(int(b) << j for j, b in enumerate(f.table()[free])))


@pytest.mark.parametrize("n, t", [(3, 0), (4, 0), (4, 1), (5, 1)])
@pytest.mark.parametrize("mode", ["inst", "winst"])
def test_reduced_sweep_matches_unreduced(n, t, mode):
    best, best_exact = _unreduced_sweep(n, t, mode)
    r = (min_inst_exhaustive if mode == "inst" else min_winst_exhaustive)(n, t)
    f = make(r.argmin)
    assert (r.minimum, _counter_of(f, n, t)) == (best if mode == "inst" else best_exact)
    if mode == "inst":
        # the inst sweep keeps one minimum because, at every pair where the
        # radius may exceed t, its minimum already has radius exactly t
        assert best == best_exact


def _free_count(n, t):
    """F, the points with weight strictly between t and n - t."""
    return sum(math.comb(n, w) for w in range(t + 1, n - t))


def test_radius_above_t_is_gated_to_three_pairs():
    # a radius of at least t is exactly t when n <= 2t + 2, so only the
    # pairs with n >= 2t + 3 can hold colourings of a larger radius; the
    # free-point gate admits three of them, each checked by
    # test_reduced_sweep_matches_unreduced
    for n in range(1, 13):
        for t in range((n - 1) // 2 + 1):
            assert _free_count(n, t) == len(free_point_codes(n, t))
    wide = [(n, t) for n in range(1, MAX_POINT_DIMENSION + 1) for t in range((n - 1) // 2 + 1)
            if n >= 2 * t + 3 and _free_count(n, t) <= search.MAX_FREE_POINTS]
    assert wide == [(3, 0), (4, 0), (5, 1)]


def test_winst_batch_without_exact_radius_keeps_the_prior_minimum():
    # colour the weight-3 free points of (5,1) 1 and the weight-2 ones 0:
    # both layers join the balls, so the radius is 2 and winst skips it
    free = free_point_codes(5, 1)
    counter = sum(1 << j for j, x in enumerate(free) if bin(int(x)).count("1") == 3)
    assert search._colouring_from_counter(5, 1, counter).t_f == 2
    counters = np.array([counter])
    for prior in (None, (3, 7)):
        assert search._score(5, 1, "winst", counters, prior) == prior
    assert search._score(5, 1, "inst", counters, (9, 7)) == (5, counter)


@pytest.mark.parametrize("n, t, orbits", [(4, 0, 518), (5, 1, 5466), (6, 2, 1118)])
def test_orbit_counts_match_burnside(n, t, orbits):
    r = min_winst_exhaustive(n, t)
    assert (r.orbits_scanned, r.colourings_scanned) == (orbits, 1 << len(free_point_codes(n, t)))


def test_orbit_sizes_divide_group_order():
    for n, t in [(4, 0), (6, 2)]:
        reps, sizes = search._orbits(n, free_point_codes(n, t))
        assert reps[0] == 0 and list(reps) == sorted(reps)
        assert all((2 * math.factorial(n)) % s == 0 for s in sizes)


def _test_actions(n):
    """Every (coordinate permutation, complement or not) pair as the image of
    every point code: bit i of a code moves to bit perm[i], then all bits
    flip when the pair includes the complement map."""
    codes = np.arange(1 << n)
    for perm in itertools.permutations(range(n)):
        moved = sum(((codes >> i) & 1) << p for i, p in enumerate(perm))
        for comp in (0, 1):
            yield (moved ^ ((1 << n) - 1) if comp else moved), comp


@pytest.mark.parametrize("n, t", [(5, 1), (6, 2)])
def test_group_preserves_values(n, t):
    free = free_point_codes(n, t)
    weights, masks = search._group(n, free)
    assert len(weights) == len(masks) == 2 * math.factorial(n)
    w = weights_vector(n)
    for seed in range(6):
        f = random_colouring(n, t, seed=seed)
        table = f.table()
        images = masks ^ (weights @ ((_counter_of(f, n, t) >> np.arange(len(free))) & 1))
        tables = _tables_of(n, t, images)
        # the group's images are, as tables, those of every test-side action
        expected = []
        for points, comp in _test_actions(n):
            image = np.empty_like(table)
            image[points] = table ^ comp
            expected.append(image.tobytes())
        assert sorted(map(bytes, tables)) == sorted(expected)
        radius = np.minimum(np.where(tables == 1, w, n + 1).min(axis=1),
                            np.where(tables == 0, n - w, n + 1).min(axis=1)) - 1
        assert (radius == f.t_f).all()
        assert (inst_values_batch(tables, n) == inst_exact(f).value).all()
        assert (winst_values_batch(tables, n, f.t_f) == winst_exact(f).value).all()
        if n <= 5:
            for image in tables[:: len(tables) // n]:
                g = make(ColouringSpec(kind="table", n=n, table=image.tobytes()))
                assert inst_bruteforce(g) == inst_exact(f).value


@pytest.mark.parametrize("n, t", [(3, 0), (4, 0), (4, 1), (5, 1), (6, 2)])
def test_orbits_match_lex_leader_oracle(n, t):
    # a counter's orbit is the set of its images under the test-side
    # actions, and its representative is the least of them; every counter
    # is checked up to F = 14, and at F = 20 the counters 0..31, whose
    # orbits are small, and 224 seeded ones
    free = free_point_codes(n, t)
    F = len(free)
    counters = np.arange(1 << F)
    if F > 14:
        counters = np.concatenate([np.arange(32), np.random.default_rng(n).integers(0, 1 << F, 224)])
    images = []
    for points, comp in _test_actions(n):
        dest = np.searchsorted(free, points[free])
        moved = sum(((counters >> j) & 1) << d for j, d in enumerate(dest))
        images.append(moved ^ ((1 << F) - 1) if comp else moved)
    images = np.sort(images, axis=0)
    sizes = 1 + (np.diff(images, axis=0) != 0).sum(axis=0)
    reps, orbit_sizes = search._orbits(n, free)
    at = np.minimum(np.searchsorted(reps, images[0]), len(reps) - 1)
    assert np.array_equal(reps[at], images[0])
    assert np.array_equal(orbit_sizes[at], sizes)
    if F <= 14:
        assert np.array_equal(reps, counters[counters == images[0]])


def test_orbit_lookup_rows_stay_small():
    # the memory of the lookup rows doubles with each chunk bit: at (6,2),
    # 1,440 actions and a 2^20 bitmap, 5-bit rows peak near 2.8 MiB and
    # 7-bit ones near 4.9 MiB, which would show in the sweep's peak RSS
    free = free_point_codes(6, 2)
    tracemalloc.start()
    try:
        search._orbits(6, free)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak


def test_orbits_without_free_points():
    free = free_point_codes(13, 6)
    assert len(search._group(13, free)[0]) == 2
    reps, sizes = search._orbits(13, free)
    assert list(reps) == [0] and list(sizes) == [1]


def test_capacity_gate_names_free_count():
    with pytest.raises(CapacityError) as err:
        min_inst_exhaustive(6, 1)
    assert "F=50" in str(err.value)


def test_sweeps_honour_dimension_cap(monkeypatch):
    def started(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(search, "_orbits", started)
    for n, t in [(100, 0), (15, 7)]:
        with pytest.raises(CapacityError) as err:
            min_inst_exhaustive(n, t)
        assert f"dimension {n}" in str(err.value)
    monkeypatch.setenv("GEOSTAB_MAX_N", "5")
    with pytest.raises(CapacityError):
        min_winst_exhaustive(6, 2)


def test_random_colouring_contracts():
    f1 = random_colouring(5, 1, seed=1)
    f2 = random_colouring(5, 1, seed=1)
    assert f1.table().tobytes() == f2.table().tobytes()
    assert f1.t_f >= 1
    f3 = random_colouring(7, 2, seed=7, exact_tf=True)
    assert f3.t_f == 2
    with pytest.raises(ValidationError):
        random_colouring(4, 2, seed=0)
