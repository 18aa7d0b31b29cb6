"""Exception types shared across the package.

All of them subclass ValueError so callers that don't care about the
distinction can catch a single base type.
"""


class WtalError(ValueError):
    """Base class for all package errors."""


class DataFormatError(WtalError):
    """Malformed feature file, manifest, or checkpoint."""


class ShapeError(WtalError):
    """Operand shapes are inconsistent or empty."""


class ConfigError(WtalError):
    """Invalid configuration value or incompatible model/config combination."""


class SampleError(WtalError):
    """A batch or sample set is too small for the requested statistic."""


class InputError(WtalError):
    """Semantically invalid input (degenerate segment, missing prediction, ...)."""


class DivergenceError(WtalError):
    """Training produced a non-finite loss term or parameter."""
