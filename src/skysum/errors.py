"""Exception and warning types shared across the package."""


class SkysumError(Exception):
    """Base class for all errors raised by skysum."""


class StripeDomainRegime(SkysumError):
    """Applied field is below the operating floor: elongated stripe domains
    would nucleate instead of isolated skyrmions."""


class ExtrapolationError(SkysumError):
    """Requested point lies outside the calibrated table; extrapolation is
    deliberately not supported."""


class InsufficientData(SkysumError):
    """Not enough samples to run the requested estimator."""


class SingularFit(SkysumError):
    """Least-squares fit is degenerate (no spread in the abscissa)."""


class ProtocolError(SkysumError):
    """Measurement protocol phases are malformed or the device does not
    match the protocol's requirements."""


class InvalidRatio(SkysumError):
    """Voltage ratio outside the physically meaningful range."""


class OutOfRange(SkysumError):
    """Requested target value cannot be reached by any valid setting."""


class MissingArtifact(SkysumError):
    """A run directory does not contain the outputs needed for the request."""


class ValidationError(SkysumError):
    """A configuration document failed validation.

    ``path`` names the offending field with dotted notation, e.g.
    ``nucleation_sweep.pulses``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class RangeWarning(UserWarning):
    """A value was outside its nominal operating range and was clamped."""
