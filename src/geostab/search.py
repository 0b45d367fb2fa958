"""Exhaustive and sampled minimisation over ball-respecting colourings.

A colouring with canonical radius-t balls is determined by its free points,
those strictly between the balls; a free-layer assignment is a counter in
[0, 2^F) over the free points in ascending code order (bit j of the counter
colours the j-th free point).

Coordinate permutations and the complement map f -> 1 - f(~x) preserve the
balls, the radius t_f, inst and winst.  A sweep therefore scores one
counter per orbit of this group of order 2 n!: the orbit's least counter,
its representative.  The group is closed once per sweep from its
generators (the n-1 adjacent coordinate transpositions and the complement
map), as the list of its distinct actions on counter bits.  The orbits are
then found by a scan in ascending counter order over a 2^F bitmap of
covered counters: the first uncovered counter starts a new orbit, which is
the set of its images under every action.  A sweep reports the
representatives scored (``orbits_scanned``) and the colourings they cover,
the sum of their orbit sizes (``colourings_scanned``), which is 2^F for a
finished sweep.  Every orbit member has its representative's value and the
representative is the orbit's least counter, so the (value, counter)
minimum is the one an unreduced scan of all 2^F counters finds.  Batches
of representatives are scored at once by the vectorised instability
kernels.

The inst sweep minimises over every enumerated colouring (Problem-style
"respects the balls"), and additionally reports the minimum over the
colourings whose radius is exactly t.  The winst sweep keeps only radius-
exactly-t colourings.  Both filters take the radius from ``colourings.radii``
and are orbit-invariant.  A sweep runs in one process (the public sweeps
accept ``threads`` only as 1).  It scores the representatives in chunks and
checkpoints its progress and the running minimum to a JSON file after every
chunk, so long runs can resume; the result is independent of the chunking
because minima are merged by (value, counter).  A resumed sweep rescores
the representatives its checkpoint has scored and refuses the checkpoint
unless its minima are theirs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .colourings import (
    Colouring,
    ColouringSpec,
    _is_int,
    free_point_codes,
    radii,
    table_from_free_layers,
    tables_from_free_layers,
)
from .errors import CapacityError, ValidationError
from .instability import _check_cap, inst_exact, inst_values_batch, winst_exact, winst_values_batch

MAX_FREE_POINTS = 22
DEFAULT_BATCH = 4096
CHECKPOINT_VERSION = 2
_RETRY_CAP = 10_000


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exhaustive sweep.

    ``minimum``/``argmin`` follow the sweep's letter: over all enumerated
    colourings for inst, over radius-exactly-t colourings for winst.  The
    inst sweep also reports the exact-radius restriction in the ``*_exact_tf``
    fields (None when it coincides or for winst sweeps).  ``argmin`` is the
    colouring of the least minimising counter, an orbit representative.
    ``colourings_scanned`` counts the colourings covered by the
    ``orbits_scanned`` representatives scored.
    """

    n: int
    t: int
    mode: str
    minimum: int
    argmin: ColouringSpec
    colourings_scanned: int
    orbits_scanned: int
    elapsed: float
    minimum_exact_tf: Optional[int] = None
    argmin_exact_tf: Optional[ColouringSpec] = None


def _check_free_count(n: int, t: int) -> np.ndarray:
    """The sweep's free points; the dimension cap is checked before any 2^n array is built."""
    if t < 0 or n < 2 * t + 1:
        raise ValidationError(f"t={t} not valid for n={n}")
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
    """Every distinct action of the symmetry group on counters.

    Returns ``(weights, masks)``: action a sends the counter with bit vector
    b to ``masks[a] ^ (weights[a] @ b)``, where ``weights[a, j]`` is
    ``1 << dest``, dest being the position of the j-th free point's image,
    and ``masks[a]`` flips every bit when the action includes the
    complement map.  The group is closed from its generators, the n-1
    adjacent coordinate transpositions and the complement map, so its size
    is the number of distinct actions: 2 n! when F > 0 and 2 when F = 0.
    """
    F = len(free)
    images = [free ^ ((((free >> i) ^ (free >> (i + 1))) & 1) * (3 << i)) for i in range(n - 1)]
    images.append(free ^ ((1 << n) - 1))
    # an action is a row of destinations with its complement flag in column
    # F; the closure keys the rows by their bytes
    gens = np.zeros((n, F + 1), dtype=np.int8)
    gens[:, :F] = np.searchsorted(free, images)
    gens[-1, F] = 1
    group = {np.append(np.arange(F), 0).astype(np.int8).tobytes()}
    frontier = group
    while frontier:
        rows = np.frombuffer(b"".join(frontier), dtype=np.int8).reshape(-1, F + 1)
        raw = np.concatenate(
            [np.column_stack((g[rows[:, :F]], rows[:, F] ^ g[F])) for g in gens]
        ).tobytes()
        frontier = {raw[i:i + F + 1] for i in range(0, len(raw), F + 1)} - group
        group |= frontier
    actions = np.frombuffer(b"".join(sorted(group)), dtype=np.int8).reshape(-1, F + 1)
    weights = np.left_shift(1, actions[:, :F], dtype=np.int64)
    masks = actions[:, F] * np.int64((1 << F) - 1)
    return weights, masks


def _orbits(n: int, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least counter and size of every orbit, ascending by least counter.

    An orbit is the image set of its least counter under the whole group;
    by orbit-stabiliser its size is the group order over the number of
    actions that fix that counter.  The images are summed as float64, where
    the product runs in BLAS; every weight is a power of two below 2^F, so
    every sum is an integer below 2^F <= 2^22 and exact.
    """
    weights, masks = _group(n, free)
    weights = weights.astype(np.float64)
    positions = np.arange(len(free))
    uncovered = np.ones(1 << len(free), dtype=bool)
    reps: list[int] = []
    sizes: list[int] = []
    rep = 0
    while True:
        rep += int(uncovered[rep:].argmax())
        if not uncovered[rep]:
            break
        images = masks ^ (weights @ ((rep >> positions) & 1)).astype(np.int64)
        uncovered[images] = False
        reps.append(rep)
        sizes.append(len(images) // int(np.count_nonzero(images == rep)))
    return np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64)


def _least(values: np.ndarray, counters: np.ndarray) -> Optional[tuple[int, int]]:
    """The (value, counter) minimum; ties go to the first, least counter."""
    if not len(counters):
        return None
    i = int(values.argmin())
    return int(values[i]), int(counters[i])


def _score(
    n: int, t: int, mode: str, counters: np.ndarray
) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
    """Minima (value, counter) of one ascending batch of counters.

    Returns the minimum over all of them (inst only, else None) and the
    minimum over those with radius exactly t.
    """
    bits = _counter_bits(counters, len(free_point_codes(n, t)))
    tables = tables_from_free_layers(n, t, bits)
    exact = radii(tables, n) == t
    if mode == "inst":
        values = inst_values_batch(tables, n)
        return _least(values, counters), _least(values[exact], counters[exact])
    if not exact.any():
        return None, None
    values = winst_values_batch(tables[exact], n, t)
    return None, _least(values, counters[exact])


def _merge(a: Optional[tuple[int, int]], b: Optional[tuple[int, int]]) -> Optional[tuple[int, int]]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _load_checkpoint(path: str, key: dict) -> Optional[dict]:
    """The checkpoint at ``path`` checked against the sweep ``key``, or None
    when there is no file yet.  Anything unreadable, of another version or of
    another sweep raises ValidationError."""
    try:
        with open(path) as fh:
            state = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict):
        raise ValidationError(f"checkpoint {path} is not a JSON object")
    if "version" not in state:
        raise ValidationError(
            f"checkpoint {path} has no version (a legacy format); delete it to restart the sweep"
        )
    if state["version"] != CHECKPOINT_VERSION:
        raise ValidationError(
            f"checkpoint {path} has version {state['version']!r}, expected {CHECKPOINT_VERSION}"
        )
    missing = sorted((set(key) | {"next_counter", "orbits_scanned", "scanned", "best", "best_exact"})
                     - set(state))
    if missing:
        raise ValidationError(f"checkpoint {path} lacks {', '.join(missing)}")
    found = {k: state[k] for k in key}
    if found != key:
        raise ValidationError(f"checkpoint {path} belongs to a different sweep: {found}, not {key}")
    total = 1 << key["F"]
    if not _is_int(state["next_counter"]) or not 0 <= state["next_counter"] <= total:
        raise ValidationError(
            f"checkpoint {path}: next_counter={state['next_counter']!r} outside [0, {total}]"
        )
    for name in ("best", "best_exact"):
        pair = state[name]
        if pair is not None and not (
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
            and 0 <= pair[1] < total
        ):
            raise ValidationError(f"checkpoint {path}: {name}={pair!r} is not [value, counter]")
        if pair is not None:
            state[name] = tuple(pair)
    return state


def _resume_point(
    path: str, state: dict, reps: np.ndarray, sizes: np.ndarray, batch_size: int
) -> int:
    """Number of representatives a checkpoint has scored, after checking its
    counts against the orbits recomputed for this sweep and its minima
    against a rescoring of the representatives it has scored."""
    done = int(np.searchsorted(reps, state["next_counter"]))
    at_rep = done < len(reps) and reps[done] == state["next_counter"]
    if not (at_rep or (done == len(reps) and state["next_counter"] == 1 << state["F"])):
        raise ValidationError(
            f"checkpoint {path}: next_counter={state['next_counter']} is not an orbit representative"
        )
    covered = int(sizes[:done].sum())
    if (state["orbits_scanned"], state["scanned"]) != (done, covered):
        raise ValidationError(
            f"checkpoint {path}: {state['orbits_scanned']} orbits covering {state['scanned']} "
            f"colourings, but the {done} orbits below next_counter cover {covered}"
        )
    best = best_exact = None
    for i in range(0, done, batch_size):
        chunk_best, chunk_exact = _score(state["n"], state["t"], state["mode"],
                                         reps[i:min(i + batch_size, done)])
        best, best_exact = _merge(best, chunk_best), _merge(best_exact, chunk_exact)
    if (best, best_exact) != (state["best"], state["best_exact"]):
        raise ValidationError(
            f"checkpoint {path}: best, best_exact = "
            f"{json.dumps([state['best'], state['best_exact']])}, but the {done} scored "
            f"representatives rescore to {json.dumps([best, best_exact])}"
        )
    return done


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
    batch_size: int,
) -> SearchResult:
    if threads != 1:
        raise ValidationError(f"sweeps run in one process; threads must be 1, got {threads}")
    if batch_size < 1:
        raise ValidationError(f"batch_size must be at least 1, got {batch_size}")
    started = time.perf_counter()
    free = _check_free_count(n, t)
    total = 1 << len(free)
    key = {"n": n, "t": t, "mode": mode, "F": len(free)}
    state = _load_checkpoint(checkpoint_path, key) if checkpoint_path else None
    reps, sizes = _orbits(n, free)

    done = 0  # representatives scored, a prefix of reps
    best: Optional[tuple[int, int]] = None  # (value, counter), inst: unfiltered
    best_exact: Optional[tuple[int, int]] = None
    if state is not None:
        done = _resume_point(checkpoint_path, state, reps, sizes, batch_size)
        best, best_exact = state["best"], state["best_exact"]

    for i in range(done, len(reps), batch_size):
        chunk_best, chunk_exact = _score(n, t, mode, reps[i:i + batch_size])
        best = _merge(best, chunk_best)
        best_exact = _merge(best_exact, chunk_exact)
        done = min(i + batch_size, len(reps))
        if checkpoint_path:
            _save_checkpoint(
                checkpoint_path,
                dict(key, version=CHECKPOINT_VERSION,
                     next_counter=int(reps[done]) if done < len(reps) else total,
                     orbits_scanned=done, scanned=int(sizes[:done].sum()),
                     best=best, best_exact=best_exact),
            )

    covered = int(sizes[:done].sum())
    if covered != total:
        raise AssertionError(f"the scored orbits cover {covered} colourings, expected 2^F = {total}")
    elapsed = time.perf_counter() - started
    counts = dict(colourings_scanned=covered, orbits_scanned=done, elapsed=elapsed)
    if mode == "inst":
        if best is None:
            raise AssertionError("inst sweep finished without a minimum")
        value, counter = best
        argmin = _colouring_from_counter(n, t, counter)
        _check_argmin(argmin, value, mode)
        extra_val = extra_spec = None
        if best_exact is not None and best_exact != best:
            extra_val = best_exact[0]
            extra_spec = _colouring_from_counter(n, t, best_exact[1]).spec
        return SearchResult(
            n=n, t=t, mode="inst", minimum=value, argmin=argmin.spec, **counts,
            minimum_exact_tf=extra_val, argmin_exact_tf=extra_spec,
        )
    if best_exact is None:
        raise AssertionError("winst sweep found no colouring with radius exactly t")
    value, counter = best_exact
    argmin = _colouring_from_counter(n, t, counter)
    if argmin.t_f != t:
        raise AssertionError(f"winst argmin has t_f={argmin.t_f}, expected {t}")
    _check_argmin(argmin, value, mode)
    return SearchResult(n=n, t=t, mode="winst", minimum=value, argmin=argmin.spec, **counts)


def min_inst_exhaustive(
    n: int,
    t: int,
    threads: int = 1,
    checkpoint_path: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH,
) -> SearchResult:
    """Exact inst(n, t): minimum of inst(f) over all canonical-ball colourings."""
    return _run_sweep(n, t, "inst", threads, checkpoint_path, batch_size)


def min_winst_exhaustive(
    n: int,
    t: int,
    threads: int = 1,
    checkpoint_path: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH,
) -> SearchResult:
    """Exact winst(n, t): minimum of winst(f) over colourings with t_f = t."""
    return _run_sweep(n, t, "winst", threads, checkpoint_path, batch_size)


def random_colouring(n: int, t: int, seed: int, exact_tf: bool = False) -> Colouring:
    """Canonical balls, uniformly random free layers, deterministic in the seed.

    With ``exact_tf`` the sample is rejected until its radius is exactly t
    (the widened-radius event needs a whole layer monochromatic, so retries
    are rare; a generous retry cap guards the degenerate configurations).
    """
    if t < 0 or n < 2 * t + 1:
        raise ValidationError(f"t={t} not valid for n={n}")
    rng = np.random.default_rng(seed)
    free = free_point_codes(n, t)
    for _ in range(_RETRY_CAP):
        bits = rng.integers(0, 2, size=len(free), dtype=np.uint8)
        f = table_from_free_layers(n, t, bits)
        if not exact_tf or f.t_f == t:
            return f
    raise CapacityError(f"rejection sampling failed to hit t_f={t} in {_RETRY_CAP} tries")
