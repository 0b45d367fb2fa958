"""Closed-form lower bounds and known exact values for inst(n,t) / winst(n,t).

All evaluators are pure integer arithmetic.  ``best_lower_bound`` combines
the individual results: the zig-zag formulas, the strip-extension chains
grown from the small exactly-analysed base cases, and (for inst) the relay
through the winst minimum over all radii at least t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError
from .hypercube import check_radius


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BoundValue:
    value: int
    via: str


@dataclass(frozen=True)
class BoundTable:
    """All closed-form bound values applicable at one (n, t)."""

    n: int
    t: int
    conjecture: int
    zigzag_winst_lb: int
    zigzag_inst_lb: Optional[int]
    one_strip_lb: Optional[int]
    two_strip_lb: Optional[int]
    known_exact: Optional[int]
    best_winst_lb: int
    best_winst_via: str
    best_inst_lb: int
    best_inst_via: str


# (n0, t0, y0): winst(n0, t0) >= y0 from the exactly-analysed small cases.
WINST_BASE_CASES: tuple[tuple[int, int, int], ...] = (
    (2, 0, 1),
    (4, 1, 3),
    (6, 2, 5),
    (5, 1, 3),
    (7, 2, 4),
    (9, 3, 4),
)


def zigzag_winst_formula(n: int, t: int) -> int:
    """floor(t/(n-2t)) + ceil(t/(n-2t)) + 1."""
    check_radius(n, t)
    gap = n - 2 * t
    return t // gap + _ceil_div(t, gap) + 1


def zigzag_inst_formula(n: int, t: int) -> int:
    """floor((t-1)/(n-2t)) + ceil((t-1)/(n-2t)) + 3, stated for t >= 1."""
    check_radius(n, t)
    if t < 1:
        raise ValidationError("the inst zig-zag bound needs t >= 1")
    gap = n - 2 * t
    return (t - 1) // gap + _ceil_div(t - 1, gap) + 3


def stronger_lb(t: int, t0: int, y0: int) -> int:
    """One-strip chain step: winst(2t+2, t) >= y0 + t - t0 from winst(2t0+2, t0) >= y0."""
    if t0 < 0 or t < t0:
        raise ValidationError(f"need t >= t0 >= 0, got t={t}, t0={t0}")
    return y0 + t - t0


def morestrips_lb(n: int, t: int, t0: int, y0: int) -> int:
    """Multi-strip chain: winst(n, t) >= y0 + 2(t-t0)/(n-2t), needs (n-2t) | (t-t0)."""
    check_radius(n, t)
    if t0 < 0 or t < t0:
        raise ValidationError(f"need t >= t0 >= 0, got t={t}, t0={t0}")
    gap = n - 2 * t
    if (t - t0) % gap != 0:
        raise ValidationError(
            f"inapplicable: n-2t = {gap} does not divide t-t0 = {t - t0}"
        )
    return y0 + 2 * (t - t0) // gap


def known_exact_value(n: int, t: int) -> Optional[int]:
    """inst(n,0)=1, inst(n,1)=3, inst(2t+1,t)=2t+1; None elsewhere."""
    check_radius(n, t)
    if t == 0:
        return 1
    if t == 1:
        return 3
    if n == 2 * t + 1:
        return 2 * t + 1
    return None


def _winst_candidates(n: int, t: int) -> list[BoundValue]:
    gap = n - 2 * t
    out = [BoundValue(zigzag_winst_formula(n, t), "zig-zag (a)")]
    for n0, t0, y0 in WINST_BASE_CASES:
        if n0 - 2 * t0 != gap or t < t0:
            continue
        if gap == 2:
            value = stronger_lb(t, t0, y0)
            via = f"one-strip chain from winst({n0},{t0}) >= {y0}"
        elif (t - t0) % gap == 0:
            value = morestrips_lb(n, t, t0, y0)
            via = f"multi-strip chain from winst({n0},{t0}) >= {y0}"
        else:
            continue
        out.append(BoundValue(value, via))
    return out


def best_lower_bound(n: int, t: int, mode: str) -> BoundValue:
    """Best applicable lower bound for inst(n,t) or winst(n,t), with provenance."""
    check_radius(n, t)
    if mode == "winst":
        candidates = _winst_candidates(n, t)
    elif mode == "inst":
        candidates = []
        if t >= 1:
            candidates.append(BoundValue(zigzag_inst_formula(n, t), "zig-zag (b)"))
        known = known_exact_value(n, t)
        if known is not None:
            candidates.append(BoundValue(known, "known exact value"))
        relay = min(
            max(c.value for c in _winst_candidates(n, s))
            for s in range(t, (n - 1) // 2 + 1)
        )
        candidates.append(BoundValue(relay, "winst relay (min over s >= t)"))
    else:
        raise ValidationError(f"mode must be 'inst' or 'winst', got {mode!r}")
    best = max(candidates, key=lambda c: c.value)
    return best


def formula_bounds(n: int, t: int) -> BoundTable:
    """Every applicable closed-form bound at (n, t), plus the combined bests."""
    check_radius(n, t)
    zig_a = zigzag_winst_formula(n, t)
    zig_b = zigzag_inst_formula(n, t) if t >= 1 else None
    one_strip = t + 3 if (n == 2 * t + 2 and t >= 2) else None
    two_strip = 2 + (2 * t + t % 3) // 3 if (n == 2 * t + 3 and t >= 1) else None
    best_winst = best_lower_bound(n, t, "winst")
    best_inst = best_lower_bound(n, t, "inst")
    return BoundTable(
        n=n,
        t=t,
        conjecture=2 * t + 1,
        zigzag_winst_lb=zig_a,
        zigzag_inst_lb=zig_b,
        one_strip_lb=one_strip,
        two_strip_lb=two_strip,
        known_exact=known_exact_value(n, t),
        best_winst_lb=best_winst.value,
        best_winst_via=best_winst.via,
        best_inst_lb=best_inst.value,
        best_inst_via=best_inst.via,
    )
