"""
Exhaustive minimisation
=======================

inst(n, t) minimises inst(f) over all colourings that respect the radius-t
balls; winst(n, t) minimises winst(f) over colourings whose radius is
exactly t.  A colouring is free only strictly between the balls, giving
2^F free-layer assignments.  Coordinate permutations and the complement
map x -> 1 - f(~x) change neither inst nor winst, so the sweep scores one
colouring per orbit of that group with a batched instability kernel and
counts the colourings each orbit covers.  (6, 2) covers 2^20 colourings
with 1,118 orbits and confirms the conjectured value 5 = 2t+1 on both
counts.
"""

import time

from geostab import make, min_inst_exhaustive, min_winst_exhaustive, random_colouring, winst_exact
from geostab.colourings import spec_to_json_dict

for n, t in [(3, 0), (3, 1), (4, 0), (4, 1), (5, 1), (5, 2)]:
    start = time.perf_counter()
    r = min_inst_exhaustive(n, t)
    print(f"inst({n},{t}) = {r.minimum}   ({r.orbits_scanned} orbits, "
          f"{r.colourings_scanned} colourings in {time.perf_counter() - start:.2f}s)")

print()
for n, t in [(2, 0), (4, 1), (5, 1)]:
    start = time.perf_counter()
    r = min_winst_exhaustive(n, t)
    print(f"winst({n},{t}) = {r.minimum}   ({r.orbits_scanned} orbits, "
          f"{r.colourings_scanned} colourings in {time.perf_counter() - start:.2f}s)")

print("\nthe conjecture instance at (6,2):")
start = time.perf_counter()
ri = min_inst_exhaustive(6, 2)
rw = min_winst_exhaustive(6, 2)
print(f"  inst(6,2) = {ri.minimum}, winst(6,2) = {rw.minimum} "
      f"(2 x {ri.orbits_scanned} orbits covering 2^20 colourings, "
      f"{time.perf_counter() - start:.1f}s total)")
print("  a minimising colouring:", spec_to_json_dict(ri.argmin))

# beyond desk scale, sampling stands in for exhaustion:
# winst(7,2) >= 4 is proved in general; random exact-radius colourings agree
worst = min(
    winst_exact(random_colouring(7, 2, seed=i, exact_tf=True)).value
    for i in range(200)
)
print(f"\nsampled winst at (7,2): min over 200 random colourings = {worst} (>= 4)")
