"""Skyrmion motion along the track: Hall deflection, crowding, erasure.

Forward pulses march skyrmions along the track on an oblique path set by
the skyrmion Hall angle.  A trajectory CSV is written for plotting.
Reverse pulses retrace the path and annihilate skyrmions at the notch,
occasionally leaving pinned residuals.
"""

import csv
import math

from skysum import (
    DetectionZone,
    PulseTrain,
    SkyrmionPopulation,
    advance,
    apply_capacity,
    count_in_zone,
    field_reset,
    notch_position,
    paper2024,
    reverse_erase,
    stream,
)

cal = paper2024()
step = PulseTrain(1, 171.0, 50.0)  # 14.34 m/s -> 0.717 um per pulse
zone = DetectionZone(center_x=8.0, center_y=3.0, side=6.0, capacity=81)

print("== nucleate one skyrmion per pulse and watch the train ==")
pop = SkyrmionPopulation.empty()
rows = []
for pulse in range(1, 21):
    pop = advance(pop, step, cal).spawn(1, *notch_position(cal))
    rows.extend(pop.to_rows(pulse_index=pulse))
    if pulse % 5 == 0:
        lead = pop.x[pop.alive].max()
        print(f"  after {pulse:2d} pulses: {pop.n_alive:2d} alive, "
              f"lead skyrmion at x = {lead:5.2f} um, "
              f"{count_in_zone(pop, zone):2d} in the detection box")

with open("trajectories.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(("pulse_index", "id", "x_um", "y_um", "alive"))
    writer.writerows(rows)
print("wrote trajectories.csv (pulse_index, id, x, y, alive)")

angle = math.degrees(math.atan2(pop.y[0] - cal.notch_y, pop.x[0] - 5.0))
print(f"trajectory angle of the oldest skyrmion: {angle:.1f} deg "
      f"(configured Hall angle {cal.hall_angle} deg)")

print("\n== crowding: the detection box saturates ==")
crowded = SkyrmionPopulation.at_positions([(8.0, 3.0)] * 100)
limited = apply_capacity(crowded, zone)
print(f"  100 arrivals, capacity {zone.capacity}: "
      f"{count_in_zone(limited, zone)} counted, "
      f"{100 - count_in_zone(limited, zone)} crowded out downstream")

print("\n== electrical erase: reverse pulses push skyrmions to the notch ==")
pop = SkyrmionPopulation.empty()
for _ in range(20):
    pop = advance(pop, step, cal).spawn(1, *notch_position(cal))
back = PulseTrain(40, 171.0, 50.0, polarity="reverse")
erased = reverse_erase(pop, back, cal, residual_prob=0.05,
                       rng=stream(3, "erase"))
print(f"  20 skyrmions, 40 reverse pulses, 5% residual probability -> "
      f"{erased.n_alive} pinned residuals")
print(f"  field reset clears everything: "
      f"{field_reset(erased).n_alive} left after 200 mT saturation")
