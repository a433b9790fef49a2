"""skysum: stochastic simulator for skyrmion-based neuromorphic weighted sums.

Discrete skyrmions are nucleated in numbers proportional to electrical
pulse inputs, transported into detection zones, counted through Hall or
MTJ readout, and composed into crossbar weighted sums.  The package also
quantifies the precision/energy trade-off of the operation and maps
trained network weights onto device programming.
"""

__version__ = "0.1.0"

from .analysis import (
    ENERGY_PRESETS,
    EnergyModel,
    pareto_curve,
    sum_energy,
    sum_precision,
    synaptic_state_count,
)
from .crossbar import (
    CrossbarConfig,
    InputVector,
    WeightedSumResult,
    build_crossbar,
    current_uniformity,
    expected_sums,
    monte_carlo_column_counts,
    monte_carlo_sum_relative_std,
    run_fig4_protocol,
    run_weighted_sum,
)
from .device import (
    DeviceCalibration,
    FieldSetting,
    PulseTrain,
    calibration_preset,
    current_density,
    field_for_weight,
    paper2024,
    paper2024_fig4,
    step_displacement,
    synaptic_weight,
    velocity_from_current,
    weight_from_field,
    weight_scale_current,
    weight_scale_duration,
)
from .errors import (
    ExtrapolationError,
    InsufficientData,
    InvalidRatio,
    MissingArtifact,
    OutOfRange,
    ProtocolError,
    RangeWarning,
    SingularFit,
    SkysumError,
    StripeDomainRegime,
    ValidationError,
)
from .nucleation import (
    StochasticModel,
    WeightFit,
    analytic_sigma,
    estimate_pbar_from_trace,
    expected_cumulative,
    fit_weight,
    monte_carlo_sigma,
    pulse_distribution,
    sample_pulse_sums,
    sample_stream_sums,
    simulate_cumulative,
)
from .netmap import QuantizedLayer, infer, quantize
from .readout import (
    DEFAULT_SIGMA_MEAS_NV,
    MeasurementTrace,
    MtjConfig,
    SequencedTrack,
    drift_correct,
    estimate_diameter,
    full_reversal_voltage,
    hall_voltage,
    mtj_activation,
    mtj_coverage,
    mtj_voltage_from_coverage,
    run_phases,
)
from .rng import stream
from .transport import (
    DetectionZone,
    SkyrmionPopulation,
    advance,
    default_capacity,
    notch_position,
    reverse_erase,
    trajectory,
    zone_within_track,
)
