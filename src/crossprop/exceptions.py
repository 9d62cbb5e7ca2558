"""Exception hierarchy for crossprop.

All library errors derive from :class:`CrosspropError` so callers can catch
one base class at the boundary.  The CLI maps subfamilies onto process exit
codes (configuration, data, numerical).
"""


class CrosspropError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(CrosspropError):
    """An argument value is outside its documented domain."""


class ConfigError(CrosspropError):
    """A configuration file or hyper-parameter combination is invalid."""


class ParseError(CrosspropError):
    """A data file could not be parsed (bad token, bad magic, non-finite value)."""


class ShapeError(CrosspropError):
    """Array shapes or declared sample counts are inconsistent."""


class LabelError(CrosspropError):
    """A label is out of range or a declared class is empty."""


class DimensionError(CrosspropError):
    """A requested subspace dimension exceeds what the operands support."""


class SingularMatrix(CrosspropError):
    """A nominally positive definite matrix could not be factorized."""


class ConvergenceError(CrosspropError):
    """An iterative solver exhausted its iteration budget."""
