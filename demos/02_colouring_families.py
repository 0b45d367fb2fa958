"""
Colouring families
==================

A colouring assigns 0/1 to every point.  The interesting ones respect the
two radius-t balls: canonical 0 around the all-zeros point, canonical 1
around the all-ones point.  Two families attain the conjectured optimum:

* majority colourings: colour = majority of the first k entries,
* partition colourings b_t^k: a prefix majority dispatches between two
  block-monochromaticity tests over a partition of the remaining entries.
"""

from geostab import (
    ColouringSpec,
    Point,
    balanced_partition,
    is_defined_by,
    make,
    min_defining_k,
    respects_balls,
)

maj = make(ColouringSpec(kind="majority", n=6, t=2, k=3))
print("maj_2(3) on H_6:")
for bits in ("110100", "001011", "111000", "000111"):
    p = Point.from_bit_string(bits)
    print(f"  colour({bits}) = {maj.evaluate(p)}")
print("  t_f =", maj.t_f, " respects B_2?", respects_balls(maj, 2))
print("  defined by entries {1,2,3}?", is_defined_by(maj, [1, 2, 3]))
print("  minimal defining set size:", min_defining_k(maj))

part = make(
    ColouringSpec(
        kind="partition", n=6, t=2, k=3, partition=balanced_partition(6, 2, 3)
    )
)
print("\nb_2^3 on H_6 with the balanced partition", part.spec.partition)
print("  t_f =", part.t_f)
print("  strictly n-defined block ingredient a^Q_0 has no small defining set:")
aqj = make(ColouringSpec(kind="aqj", n=5, t=1, s=1, j=0, partition=((1, 2), (3, 4, 5))))
print("  min_defining_k(a^Q_0 on H_5) =", min_defining_k(aqj))

# even-k majority needs a tie rule; the default "first-entry" keeps
# complementary tied prefixes on opposite colours
maj4 = make(ColouringSpec(kind="majority", n=6, t=2, k=4))
a = Point.from_bit_string("110010")
b = Point.from_bit_string("001110")
print("\neven k = 4 tie rule: complementary tied prefixes disagree:",
      maj4.evaluate(a) != maj4.evaluate(b))
