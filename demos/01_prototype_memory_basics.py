"""Tour of the explicit prototype memory: quantize features, learn a class
from its integer sum, reduce precision by the minimal right shift,
bipolarize, classify, and account for footprint.

Run: python3 demos/01_prototype_memory_basics.py
"""

import numpy as np

from protomem import (
    ExplicitMemory,
    QuantSpec,
    bipolarize,
    classify,
    em_memory_bytes,
    quantize_feature,
    reduce_rows,
)

rng = np.random.default_rng(0)

print("== 1. symmetric feature quantization ==")
theta = rng.standard_normal(8) * 0.6
q = quantize_feature(theta, 8)
print("feature      :", np.round(theta, 3))
scale = np.abs(theta).max() / 127  # the peak maps to the top of the 8-bit range
print("8-bit ints   :", q)
print("scale        :", f"{scale:.5f}", " max reconstruction error <= scale/2")

print("\n== 2. accumulate shots into an integer prototype ==")
shots = [rng.standard_normal(8) * 0.6 + theta for _ in range(5)]
accum = np.zeros(8, dtype=np.int64)
for s in shots:
    accum += quantize_feature(s, 8)
tour = ExplicitMemory(d_p=8, quant=QuantSpec())
tour.add_accumulated(0, accum, count=5)
proto = tour.get(0)
print("accumulator  :", proto.accum)
print("class mean   :", np.round(proto.accum / proto.count, 2), "(never materialized on device)")

print("\n== 3. right-shift precision reduction ==")
wide = np.array([65535, -40000, 123, -7], dtype=np.int64)
reduced, shifts = reduce_rows(wide[None, :], 8)
reduced, shift = reduced[0], int(shifts[0])
print("accumulator  :", wide, "(17-bit peak)")
print(f"minimal shift: {shift} -> 8-bit values {reduced}")
print("direction preserved: cosine to the wide vector =",
      f"{float(wide @ reduced) / (np.linalg.norm(wide) * np.linalg.norm(reduced)):.5f}")
narrow = ExplicitMemory(d_p=4, quant=QuantSpec(prototype_bits=8))
narrow.add_accumulated(1, wide, count=1)
print("learning at 8 bits stores the same:", narrow.get(1).quantized, "shift", narrow.get(1).scale_shift)

print("\n== 4. one-bit storage is the sign vector ==")
print("bipolarized  :", bipolarize(wide))

print("\n== 5. cosine classification with tie-breaking ==")
em = ExplicitMemory(d_p=2, quant=QuantSpec())
em.add_accumulated(0, [10, 0], count=1)
em.add_accumulated(1, [0, 10], count=1)
for query in ([1.0, 0.1], [0.1, 1.0], [1.0, 1.0]):
    cid, scores = classify(em, query)
    print(f"query {query} -> class {cid}  scores {np.round(scores, 3)}")
print("(the equidistant query resolves to the smallest class id)")

print("\n== 6. footprint accounting ==")
for bits in (32, 8, 3, 1):
    kb = em_memory_bytes(100, 256, bits) / 1000
    print(f"100 classes x 256 dims at {bits:2d} bits -> {kb:5.1f} kB")
