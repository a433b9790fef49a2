"""Skyrmion motion along the track: Hall deflection, crowding, erasure.

Forward pulses march skyrmions along the track on an oblique path set by
the skyrmion Hall angle: the skyrmion born k pulses ago sits where the
notch ``trajectory`` is after k pulses.  A trajectory CSV is written for
plotting.  A detection run with a small zone capacity shows crowding and
the field reset.  Reverse pulses retrace the path and annihilate
skyrmions at the notch, occasionally leaving pinned residuals.
"""

import csv
import math

import numpy as np

from skysum import (
    DetectionZone,
    PulseTrain,
    SequencedTrack,
    SkyrmionPopulation,
    StochasticModel,
    advance,
    field_for_weight,
    notch_position,
    paper2024,
    reverse_erase,
    run_phases,
    stream,
    synaptic_weight,
    trajectory,
)

cal = paper2024()
step = PulseTrain(1, 171.0, 50.0)  # 14.34 m/s -> 0.717 um per pulse
zone = DetectionZone(center_x=8.0, center_y=3.0, side=6.0, capacity=81)

print("== nucleate one skyrmion per pulse and watch the train ==")
x, y, alive = (a[:, 0] for a in trajectory([notch_position(cal)], step,
                                           cal, 20))
rows = []
for pulse in range(1, 21):
    # Skyrmion i is born on pulse i + 1, so it has moved pulse - 1 - i steps.
    age = pulse - 1 - np.arange(pulse)
    rows.extend(zip([pulse] * pulse, range(pulse), x[age].tolist(),
                    y[age].tolist(), alive[age].tolist()))
    if pulse % 5 == 0:
        in_box = alive[age] & zone.contains(x[age], y[age])
        print(f"  after {pulse:2d} pulses: {alive[age].sum():2d} alive, "
              f"lead skyrmion at x = {x[age].max():5.2f} um, "
              f"{in_box.sum():2d} in the detection box")

with open("trajectories.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(("pulse_index", "id", "x_um", "y_um", "alive"))
    writer.writerows(rows)
print("wrote trajectories.csv (pulse_index, id, x, y, alive)")

angle = math.degrees(math.atan2(y[19] - cal.notch_y, x[19] - 5.0))
print(f"trajectory angle of the oldest skyrmion: {angle:.1f} deg "
      f"(configured Hall angle {cal.hall_angle} deg)")

print("\n== crowding and field reset: a capacity-10 detection run ==")
# At 150 GA/m^2 a skyrmion stays in the box for 40 pulses, so one per
# pulse fills it; the youngest are crowded out downstream.
small = DetectionZone(center_x=8.0, center_y=3.0, side=6.0, capacity=10)
field = field_for_weight(cal, 1.0, 50.0, 150.0)
rng = stream(3, "crowd")
track = SequencedTrack(zone=small, notch=notch_position(cal),
                       weight=synaptic_weight(cal, field, 50.0, 150.0),
                       pulse=PulseTrain(1, 150.0, 50.0),
                       stochastic=StochasticModel(0.0), rng=rng)
plan = (("baseline", 2, None), ("pulsing", 20, 0), ("reset", 1, None),
        ("post", 2, None))
trace = run_phases(plan, [track], cal, meas_rng=rng)
for phase, block in trace.phase_blocks():
    print(f"  {phase:>8}: N_detec {trace.n_detec[block].tolist()}")
print(f"  20 arrivals, capacity {small.capacity}: "
      f"{trace.n_detec[trace.mask('pulsing')][-1]} counted, the rest "
      f"crowded out; the 200 mT saturation field leaves 0")

print("\n== electrical erase: reverse pulses push skyrmions to the notch ==")
pop = SkyrmionPopulation.empty()
for _ in range(20):
    pop = advance(pop, step, cal).spawn(1, *notch_position(cal))
back = PulseTrain(40, 171.0, 50.0, polarity="reverse")
erased = reverse_erase(pop, back, cal, residual_prob=0.05,
                       rng=stream(3, "erase"))
print(f"  20 skyrmions, 40 reverse pulses, 5% residual probability -> "
      f"{erased.n_alive} pinned residuals")
