"""Counting skyrmions electrically: the Hall-voltage staircase.

Each skyrmion in the detection box adds about 22 nV to the Hall signal,
so the voltage trace counts them.  The standard sequence is: baseline
samples, twenty pulse-and-measure steps, a saturating field reset, and
post-reset samples used to correct instrumental drift.  The per-skyrmion
step and the full-reversal signal together yield the skyrmion diameter.
"""

from skysum import (
    DetectionZone,
    PulseTrain,
    SequencedTrack,
    StochasticModel,
    drift_correct,
    estimate_diameter,
    field_for_weight,
    full_reversal_voltage,
    notch_position,
    paper2024,
    run_phases,
    stream,
    synaptic_weight,
)

cal = paper2024()
zone = DetectionZone(center_x=8.0, center_y=3.0, side=6.0, capacity=81)
field = field_for_weight(cal, 1.0, duration=50.0, current_density=150.0)
# One stream draws every pulse's births, then the measurement noise.
rng = stream(5, "demo4")
track = SequencedTrack(zone=zone, notch=notch_position(cal),
                       weight=synaptic_weight(cal, field, 50.0, 150.0),
                       pulse=PulseTrain(1, 150.0, 50.0),
                       stochastic=StochasticModel(0.4), rng=rng)
plan = (("baseline", 10, None), ("pulsing", 20, 0), ("reset", 1, None),
        ("post", 10, None))
trace = run_phases(plan, [track], cal, meas_rng=rng, noise=True,
                   sigma_meas=25.0, drift_rate=0.8)
corrected = drift_correct(trace)

print("== drift-corrected Hall trace (one row per measurement) ==")
print(f"  {'idx':>4} {'phase':>9} {'dV raw':>9} {'dV corr':>9} {'N_detec':>8}")
for i in range(0, len(trace), 4):
    print(f"  {trace.index[i]:>4} {trace.phase[i]:>9} "
          f"{trace.delta_v[i]:>9.1f} {corrected.delta_v[i]:>9.1f} "
          f"{trace.n_detec[i]:>8}")

pulsing = corrected.mask("pulsing")
post = corrected.mask("post")
print(f"\nfinal pulsing level: {corrected.delta_v[pulsing][-1]:7.1f} nV for "
      f"{corrected.n_detec[pulsing][-1]} skyrmions "
      f"(~{corrected.delta_v[pulsing][-1] / corrected.n_detec[pulsing][-1]:.1f}"
      f" nV each)")
print(f"post-reset baseline:  {corrected.delta_v[post].mean():7.1f} nV "
      "(magnetisation saturated, skyrmions gone)")

print("\n== skyrmion size from the voltage ratio ==")
dv_full = full_reversal_voltage(cal, zone)
print(f"full reversal of the 6x6 um box: {dv_full / 1000:.2f} uV")
for dv_sk in (15.0, 22.0, 29.0):
    d = estimate_diameter(dv_sk, dv_full, zone)
    print(f"  {dv_sk:4.0f} nV per skyrmion -> diameter {d:5.1f} nm")
