"""Programming a synaptic weight with the three control knobs.

The weight (skyrmions nucleated per pulse) is set by the out-of-plane
field, and rescaled by pulse duration and current density.  This walk
shows the linear field law, the multiplicative structure, and how many
distinct weight levels the field knob resolves.
"""

import numpy as np

from skysum import (
    field_for_weight,
    paper2024,
    synaptic_state_count,
    synaptic_weight,
    weight_from_field,
    weight_scale_current,
    weight_scale_duration,
)

cal = paper2024()

print("== field law: weight per pulse vs out-of-plane field ==")
for h in np.arange(20.0, 26.5, 0.5):
    bar = "#" * int(round(weight_from_field(cal, h) * 10))
    print(f"  H_z = {h:4.1f} mT   w = {weight_from_field(cal, h):5.2f}  {bar}")
print(f"slope: {cal.weight_field_slope} sk/pulse/mT, cutoff at "
      f"{cal.field_max} mT, stripe-domain floor at {cal.field_min} mT")

print("\n== duration and current rescale the weight multiplicatively ==")
for t in (30.0, 40.0, 50.0):
    for j in (150.0, 160.0, 171.0):
        w = synaptic_weight(cal, 24.0, t, j)
        print(f"  t = {t:4.0f} ns, J = {j:5.0f} GA/m^2 -> w = {w:5.3f} "
              f"(field 1.14 x duration {weight_scale_duration(cal, t):.2f} "
              f"x current {weight_scale_current(cal, j):.3f})")

print("\n== inverting the law: field that programs a target weight ==")
for w in (0.0, 0.5, 1.0, 2.0, 3.42):
    print(f"  w = {w:4.2f} sk/pulse  ->  H_z = {field_for_weight(cal, w).h_z:.3f} mT")

print("\n== resolvable synaptic states ==")
print(f"  0.2 mT steps over the 2.8 mT usable span: "
      f"{synaptic_state_count(2.8, 0.2)} states")
print(f"  0.2 mT steps over the full 6 mT window:   "
      f"{synaptic_state_count(6.0, 0.2)} states")
