"""Exhaustive and sampled minimisation over ball-respecting colourings.

A colouring with canonical radius-t balls is determined by its free points,
those strictly between the balls; a free-layer assignment is a counter in
[0, 2^F) over the free points in ascending code order (bit j of the counter
colours the j-th free point).

Coordinate permutations and the complement map f -> 1 - f(~x) preserve the
balls, the radius t_f, inst and winst.  A sweep therefore scores one
counter per orbit of this group of order 2 n!: the orbit's least counter,
its representative.  The group is listed directly, once per sweep: every
coordinate permutation, without and with the complement map, as its
action on counter bits, which moves each free point's bit to the position
of its image and flips every bit under the complement map.  The actions
are then tabulated as integer lookup rows, one table per 5-bit chunk of a
counter, so the images of a counter under every action are the XOR of one
row per chunk.  The orbits are found by a scan in ascending counter order
over a 2^F bitmap of covered counters: the first uncovered counter starts
a new orbit, which is the set of its images.  A sweep reports the
representatives scored (``orbits_scanned``) and the colourings they cover,
the sum of their orbit sizes (``colourings_scanned``), which is 2^F for a
finished sweep.  Every orbit member has its representative's value and the
representative is the orbit's least counter, so the (value, counter)
minimum is the one an unreduced scan of all 2^F counters finds.  Batches
of representatives are scored at once by the vectorised instability
kernels.

Each sweep keeps one running (value, counter) minimum.  The inst sweep
takes it over every enumerated colouring (Problem-style "respects the
balls"); the winst sweep over the colourings whose radius is exactly t,
a filter that takes the radius from ``colourings.radii`` and is
orbit-invariant.  A sweep runs in one process (the public sweeps accept
``threads`` only as 1).  It scores the representatives in chunks and
checkpoints its progress and the running minimum to a JSON file after every
chunk; the result is independent of the chunking because minima are merged
by (value, counter).  A resume saves no scoring: the resumed sweep rescores
the representatives below its checkpoint's ``next_counter``, so resuming a
finished sweep takes as long as a fresh one, and accepts the checkpoint
only as the exact state the sweep writes after scoring them: every field
equal as JSON text, with no field missing or extra.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .colourings import (
    Colouring,
    ColouringSpec,
    _is_int,
    _read_json,
    free_point_codes,
    radii,
    table_from_free_layers,
    tables_from_free_layers,
)
from .errors import CapacityError, ValidationError
from .hypercube import check_radius
from .instability import _check_cap, inst_exact, inst_values_batch, winst_exact, winst_values_batch

MAX_FREE_POINTS = 22
DEFAULT_BATCH = 4096
CHECKPOINT_VERSION = 3
_RETRY_CAP = 10_000
# counter bits per lookup table of _orbits: a table holds 2^_CHUNK_BITS rows of
# one int64 per action, 0.37 MB at (6,2), so its memory doubles with each bit
_CHUNK_BITS = 5
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exhaustive sweep.

    ``minimum``/``argmin`` follow the sweep's letter: over all enumerated
    colourings for inst, over radius-exactly-t colourings for winst.
    ``argmin`` is the colouring of the least minimising counter, an orbit
    representative.  ``colourings_scanned`` counts the colourings covered
    by the ``orbits_scanned`` representatives scored.
    """

    n: int
    t: int
    mode: str
    minimum: int
    argmin: ColouringSpec
    colourings_scanned: int
    orbits_scanned: int


def _check_free_count(n: int, t: int) -> np.ndarray:
    """The sweep's free points; the dimension cap is checked before any 2^n array is built."""
    check_radius(n, t)
    _check_cap(n, None)
    free = free_point_codes(n, t)
    if len(free) > MAX_FREE_POINTS:
        raise CapacityError(
            f"(n={n}, t={t}) has F={len(free)} free points; "
            f"exhaustive sweeps are gated to F <= {MAX_FREE_POINTS}"
        )
    return free


def _counter_bits(counters: np.ndarray, F: int) -> np.ndarray:
    """(B, F) free-layer bits of the counters: bit j colours the j-th free point."""
    return ((counters[:, None] >> np.arange(F)) & 1).astype(np.uint8)


def _group(n: int, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every action of the symmetry group on counters, listed directly.

    Returns ``(weights, masks)``: action a sends the counter with bit vector
    b to ``masks[a] ^ (weights[a] @ b)``, where ``weights[a, j]`` is
    ``1 << dest``, dest being the position of the j-th free point's image,
    and ``masks[a]`` flips every bit when the action includes the
    complement map.  Every coordinate permutation is listed without and
    with the complement map, 2 n! actions; the images of the free points
    are gathered from their uint8 bits.  When F = 0 every action fixes the
    one counter, so only the identity permutation is listed: 2 actions.
    """
    F = len(free)
    perms = np.array(list(itertools.permutations(range(n))) if F else [range(n)])
    bits = ((free[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    images = bits[:, perms] @ (1 << np.arange(n))  # (F, n!): bit k of an image is bit perm[k]
    images = np.concatenate([images, images ^ ((1 << n) - 1)], axis=1).T
    position = np.zeros(1 << n, dtype=np.int64)
    position[free] = np.arange(F)
    weights = np.left_shift(1, position[images], dtype=np.int64)
    masks = np.repeat(np.array([0, (1 << F) - 1], dtype=np.int64), len(perms))
    return weights, masks


def _orbits(n: int, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least counter and size of every orbit, ascending by least counter.

    An orbit is the image set of its least counter under the whole group.
    ``_group`` lists each group element once (or, with F = 0, two actions
    that both fix the one counter), so by orbit-stabiliser the orbit's size
    is the number of listed actions over the number that fix that counter.

    The images ``masks ^ (weights @ bits)`` are read from integer lookup
    rows.  The counter is cut into chunks of ``_CHUNK_BITS`` bits; chunk k
    has a table whose row v holds, for every action, the XOR of the weights
    of the counter bits that v sets in that chunk, and chunk 0's rows also
    carry ``masks``.  Each action's weights are distinct powers of two, so
    its weighted sum over a bit vector has no carries and equals the XOR of
    the weights it selects: the images are the XOR of one row per chunk.
    """
    weights, masks = _group(n, free)
    F = len(free)
    rows = [masks[None, :]]
    for j in range(F):
        if j and j % _CHUNK_BITS == 0:
            rows.append(np.zeros((1, len(masks)), dtype=np.int64))
        rows[-1] = np.concatenate([rows[-1], rows[-1] ^ weights[:, j]])
    uncovered = np.ones(1 << F, dtype=bool)
    reps: list[int] = []
    sizes: list[int] = []
    rep = 0
    while True:
        rep += int(uncovered[rep:].argmax())
        if not uncovered[rep]:
            break
        images = rows[0][rep & _CHUNK_MASK]
        for k in range(1, len(rows)):
            images = images ^ rows[k][(rep >> (k * _CHUNK_BITS)) & _CHUNK_MASK]
        uncovered[images] = False
        reps.append(rep)
        sizes.append(len(images) // int(np.count_nonzero(images == rep)))
    return np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64)


def _least(prior: Optional[tuple[int, int]], values: np.ndarray,
           counters: np.ndarray) -> tuple[int, int]:
    """The (value, counter) minimum of ``prior`` and a non-empty ascending
    batch; ties go to the least counter."""
    i = int(values.argmin())
    found = (int(values[i]), int(counters[i]))
    return found if prior is None else min(prior, found)


def _score(
    n: int, t: int, mode: str, counters: np.ndarray, best: Optional[tuple[int, int]] = None,
) -> Optional[tuple[int, int]]:
    """The running minimum (value, counter) merged with that of one ascending
    batch of counters: over all of them for inst, over those with radius
    exactly t for winst."""
    bits = _counter_bits(counters, len(free_point_codes(n, t)))
    tables = tables_from_free_layers(n, t, bits)
    if mode == "inst":
        return _least(best, inst_values_batch(tables, n), counters)
    exact = radii(tables, n) == t
    if not exact.any():
        return best
    return _least(best, winst_values_batch(tables[exact], n, t), counters[exact])


def _checkpoint(key: dict, reps: np.ndarray, sizes: np.ndarray, done: int,
                best: Optional[tuple[int, int]]) -> dict:
    """The checkpoint (format v3) of the sweep ``key`` once it has scored the
    first ``done`` representatives and found the minimum ``best``."""
    return dict(key, version=CHECKPOINT_VERSION,
                next_counter=int(reps[done]) if done < len(reps) else 1 << key["F"],
                orbits_scanned=done, scanned=int(sizes[:done].sum()), best=best)


def _resume_point(
    path: str, key: dict, reps: np.ndarray, sizes: np.ndarray
) -> tuple[int, Optional[tuple[int, int]]]:
    """``(done, best)`` of the checkpoint at ``path``, or of a fresh sweep
    when there is no file yet.

    The representatives below its ``next_counter`` are rescored, and the
    file is refused unless it is, key for key and as JSON text, the state
    the sweep itself writes after scoring them."""
    if not os.path.exists(path):
        return 0, None
    state = _read_json(path, "checkpoint")
    if not isinstance(state, dict):
        raise ValidationError(f"checkpoint {path} is not a JSON object")
    total, counter = 1 << key["F"], state.get("next_counter")
    done = int(np.searchsorted(reps, counter)) if _is_int(counter) and 0 <= counter <= total else -1
    if done < 0 or (reps[done] if done < len(reps) else total) != counter:
        raise ValidationError(
            f"checkpoint {path}: next_counter={counter!r} is neither an orbit representative "
            f"nor 2^F = {total}"
        )
    best = None
    for i in range(0, done, DEFAULT_BATCH):
        best = _score(key["n"], key["t"], key["mode"], reps[i:min(i + DEFAULT_BATCH, done)], best)
    expected = _checkpoint(key, reps, sizes, done, best)

    def shown(d: dict, k: str) -> str:
        return json.dumps(d[k]) if k in d else "absent"

    differ = [k for k in sorted(state.keys() | expected.keys())
              if shown(state, k) != shown(expected, k)]
    if differ:
        raise ValidationError(
            f"checkpoint {path} is not the state its {done} scored representatives rescore to: "
            + "; ".join(f"{k} is {shown(state, k)}, expected {shown(expected, k)}" for k in differ)
        )
    return done, best


def _save_checkpoint(path: str, state: dict) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(state, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write checkpoint {path}: {exc}") from exc


def _colouring_from_counter(n: int, t: int, counter: int) -> Colouring:
    F = len(free_point_codes(n, t))
    return table_from_free_layers(n, t, _counter_bits(np.array([counter]), F)[0])


def _check_argmin(argmin: Colouring, value: int, mode: str) -> None:
    engine = inst_exact if mode == "inst" else winst_exact
    recomputed = engine(argmin).value
    if recomputed != value:
        raise AssertionError(
            f"argmin recomputation mismatch: sweep {value}, engine {recomputed}"
        )


def _run_sweep(
    n: int,
    t: int,
    mode: str,
    threads: int,
    checkpoint_path: Optional[str],
) -> SearchResult:
    if threads != 1:
        raise ValidationError(f"sweeps run in one process; threads must be 1, got {threads}")
    free = _check_free_count(n, t)
    key = {"n": n, "t": t, "mode": mode, "F": len(free)}
    reps, sizes = _orbits(n, free)
    # representatives scored, a prefix of reps, and the (value, counter)
    # minimum: over every colouring for inst, over radius exactly t for winst
    done, best = 0, None
    if checkpoint_path:
        done, best = _resume_point(checkpoint_path, key, reps, sizes)

    for i in range(done, len(reps), DEFAULT_BATCH):
        done = min(i + DEFAULT_BATCH, len(reps))
        best = _score(n, t, mode, reps[i:done], best)
        if checkpoint_path:
            _save_checkpoint(checkpoint_path, _checkpoint(key, reps, sizes, done, best))

    covered, total = int(sizes[:done].sum()), 1 << len(free)
    if covered != total:
        raise AssertionError(f"the scored orbits cover {covered} colourings, expected 2^F = {total}")
    if best is None:
        raise AssertionError(f"{mode} sweep found no colouring it minimises over")
    value, counter = best
    argmin = _colouring_from_counter(n, t, counter)
    if mode == "winst" and argmin.t_f != t:
        raise AssertionError(f"winst argmin has t_f={argmin.t_f}, expected {t}")
    _check_argmin(argmin, value, mode)
    return SearchResult(
        n=n, t=t, mode=mode, minimum=value, argmin=argmin.spec,
        colourings_scanned=covered, orbits_scanned=done,
    )


def min_inst_exhaustive(
    n: int,
    t: int,
    threads: int = 1,
    checkpoint_path: Optional[str] = None,
) -> SearchResult:
    """Exact inst(n, t): minimum of inst(f) over all canonical-ball colourings."""
    return _run_sweep(n, t, "inst", threads, checkpoint_path)


def min_winst_exhaustive(
    n: int,
    t: int,
    threads: int = 1,
    checkpoint_path: Optional[str] = None,
) -> SearchResult:
    """Exact winst(n, t): minimum of winst(f) over colourings with t_f = t."""
    return _run_sweep(n, t, "winst", threads, checkpoint_path)


def random_colouring(n: int, t: int, seed: int, exact_tf: bool = False) -> Colouring:
    """Canonical balls, uniformly random free layers, deterministic in the seed.

    With ``exact_tf`` the sample is rejected until its radius is exactly t
    (the widened-radius event needs a whole layer monochromatic, so retries
    are rare; a generous retry cap guards the degenerate configurations).
    """
    check_radius(n, t)
    rng = np.random.default_rng(seed)
    free = free_point_codes(n, t)
    for _ in range(_RETRY_CAP):
        bits = rng.integers(0, 2, size=len(free), dtype=np.uint8)
        f = table_from_free_layers(n, t, bits)
        if not exact_tf or f.t_f == t:
            return f
    raise CapacityError(f"rejection sampling failed to hit t_f={t} in {_RETRY_CAP} tries")
