"""The two-input weighted sum: skyrmion counts add, Hall voltages add.

Two parallel tracks share one transverse Hall electrode.  Pulsing track 1
then track 2 produces two voltage ramps whose plateaus add; shortening
track 2's pulses to 30 ns turns its weight off and the second ramp
disappears.  The series-resistor read circuit keeps the per-track read
currents matched to better than 0.1%.
"""

from dataclasses import replace

from skysum import (
    PulseTrain,
    StochasticModel,
    build_crossbar,
    current_uniformity,
    field_for_weight,
    paper2024_fig4,
    run_fig4_protocol,
    synaptic_weight,
)

cal = replace(paper2024_fig4(), per_skyrmion_voltage_std=0.0)
field = field_for_weight(cal, 1.0, duration=50.0, current_density=116.0)


def run(durations, label):
    weights = [[synaptic_weight(cal, field, d, 116.0)] for d in durations]
    config = build_crossbar(cal, weights)
    specs = [PulseTrain(30, 116.0, d) for d in durations]
    trace = run_fig4_protocol(config, specs, cal, StochasticModel(0.0),
                              seed=1, noise=True, sigma_meas=25.0)
    holds = [s for name, s in trace.phase_blocks() if name == "hold"]
    p1 = trace.delta_v[holds[0]].mean()
    p2 = trace.delta_v[holds[1]].mean()
    print(f"\n== {label} ==")
    print(f"  weights: w1 = {weights[0][0]:.2f}, w2 = {weights[1][0]:.2f} "
          f"sk/pulse")
    print(f"  after track-1 pulses: {p1:7.1f} nV")
    print(f"  after track-2 pulses: {p2:7.1f} nV   "
          f"(ratio {p2 / p1:.2f})")
    post = trace.mask("post")
    print(f"  after field reset:    {trace.delta_v[post].mean():7.1f} nV")
    return config


config = run((50.0, 50.0), "equal weights: the sum doubles")
run((50.0, 30.0), "track 2 at 30 ns: weight ~ 0, sum unchanged")

print("\n== read circuit ==")
print(f"  track resistances {config.track_resistances} Ohm with "
      f"{config.series_resistance:.0f} Ohm series resistors")
imbalance = current_uniformity(config.track_resistances,
                               config.series_resistance)
print(f"  worst read-current imbalance: {imbalance:.2e} (budget 1e-3)")
