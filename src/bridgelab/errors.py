"""Exception types shared across the solvers and evaluators."""


class BridgeLabError(Exception):
    """Base class for every failure raised by this package."""


class DomainError(BridgeLabError):
    """A point lies outside the potential's domain."""


class DomainEscape(BridgeLabError):
    """An integration left the potential's domain and could not recover."""


class NonFinite(BridgeLabError):
    """A computed state overflowed or turned into NaN."""


class UnsupportedKind(BridgeLabError):
    """No closed form is available for this potential kind."""


class NoConvergence(BridgeLabError):
    """An iterative solver stopped before it met its tolerance."""


class NonUniformGrid(BridgeLabError):
    """An operation requiring uniform time spacing received a non-uniform grid."""


class OffGrid(BridgeLabError):
    """A requested time does not coincide with a grid node."""


class OutOfRange(BridgeLabError):
    """A parameter lies outside its admissible interval."""


class DegenerateSeries(BridgeLabError):
    """A rate fit was requested on unusable data."""


class MissingPrerequisite(BridgeLabError):
    """A bound evaluation lacks a quantity it needs and cannot compute it."""


class ConfigError(BridgeLabError):
    """An experiment configuration failed to parse or validate."""
