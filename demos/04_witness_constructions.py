"""
Witness constructions
=====================

Each lower-bound proof is constructive: it exhibits a geodesic forced to
jump.  These builders return the geodesic plus its guaranteed jump count,
and the actual count (recounted against the colouring) never falls short.
"""

from geostab import (
    ColouringSpec,
    ConstructionResult,
    balanced_partition,
    construction_jumps,
    expand,
    geodesic_to_text,
    kdefined_witness,
    majority_witness,
    make,
    partition_witness,
    strip_extend,
    strip_reduction,
    winst_exact,
    zigzag_witness,
)

# --- majority: a (t+1)-geodesic with 2t+1 jumps, ending in colour 0 --------
f = make(ColouringSpec(kind="majority", n=7, t=3, k=3))
res = majority_witness(f)
print("majority witness:", geodesic_to_text(res.geodesic))
print(f"  guaranteed {res.guaranteed_jumps}, actual {construction_jumps(f, res)}")
print("  last point colour:", f.evaluate(expand(res.geodesic)[-1]))

# --- partition: k prefix alternations, then two jumps per block ------------
part = make(
    ColouringSpec(kind="partition", n=6, t=2, k=3, partition=balanced_partition(6, 2, 3))
)
res = partition_witness(part)
print("\npartition witness:", geodesic_to_text(res.geodesic))
print(f"  exactly 2t+1 = {construction_jumps(part, res)} jumps")

# --- zig-zag: oscillate between the balls -----------------------------------
res = zigzag_witness(f, "a")
print("\nzig-zag mode a:", res.notes)
print(f"  guaranteed {res.guaranteed_jumps}, actual {construction_jumps(f, res)}")
res = zigzag_witness(f, "b")
print("zig-zag mode b:",
      f"guaranteed {res.guaranteed_jumps}, actual {construction_jumps(f, res)}")

# --- strip extension: grow a witness by one strip of the cube ---------------
f8 = make(ColouringSpec(kind="majority", n=8, t=3, k=7))
g6 = strip_reduction(f8, "one_strip")           # drops two coordinates
inner = winst_exact(g6)                          # exact witness on H_6
res = strip_extend(
    f8, ConstructionResult(inner.witness, inner.value, "winst witness"), "one_strip"
)
print(f"\none-strip extension: inner {inner.value} jumps on H_6 ->"
      f" guaranteed {res.guaranteed_jumps} on H_8 (t+3 = 6),"
      f" actual {construction_jumps(f8, res)}")

# --- k-defined lift: boundary oscillation + prefix witness ------------------
f51 = make(ColouringSpec(kind="majority", n=5, t=1, k=1))
res = kdefined_witness(f51, 1)
print("\nk-defined lift on maj_1(1), H_5:", geodesic_to_text(res.geodesic))
print(f"  guaranteed {res.guaranteed_jumps}, actual {construction_jumps(f51, res)}")
