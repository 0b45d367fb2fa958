"""
Exact instability
=================

inst(f) is the maximum number of colour changes any geodesic suffers under
the colouring f; winst(f) maximises only over well-ending (t_f+1)-geodesics
(first point coloured 1 or last point coloured 0).  The engine is a dynamic
program over (point, unflipped-coordinate-set) states, exact over all
2^n * n! geodesics, and it reconstructs a witness path achieving the value.
"""

from geostab import (
    ColouringSpec,
    expand,
    geodesic_to_text,
    inst_bruteforce,
    inst_exact,
    inst_restricted,
    jumps_of_path,
    make,
    winst_exact,
)

f = make(ColouringSpec(kind="majority", n=6, t=2, k=3))
rep = inst_exact(f)
print(f"inst(maj_2(3) on H_6) = {rep.value}")
print("witness:", geodesic_to_text(rep.witness))
print("recounted jumps:", jumps_of_path(f, expand(rep.witness)))

wrep = winst_exact(f)
print(f"\nwinst = {wrep.value} (over well-ending {wrep.t_used + 1}-geodesics)")
print("witness:", geodesic_to_text(wrep.witness))

# restricted starts: an m-geodesic engine with optional colour constraints
m = inst_restricted(f, start_weight=3, end_colour=0)
print(f"\nbest weight-3 start ending in colour 0: {m.value} jumps")

# the literal brute-force oracle agrees at small n
small = make(ColouringSpec(kind="majority", n=5, t=1, k=3))
print("\noracle check on H_5:", inst_exact(small).value, "==", inst_bruteforce(small))

# maj_t(k) with odd k > 2t+1 is NOT optimal: long prefix walks jump k times
wide = make(ColouringSpec(kind="majority", n=7, t=1, k=5))
print("inst(maj_1(5) on H_7) =", inst_exact(wide).value, "(> 2t+1 = 3)")
