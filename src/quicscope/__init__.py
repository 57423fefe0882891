"""Toolkit for understanding QUIC deployments from passive backscatter and
controlled active probing, with a deterministic deployment simulator as the
ground-truth oracle."""

__version__ = "0.1.0"


class PreconditionError(Exception):
    """An analysis precondition is unmet (the CLI exits 3): too few samples,
    a source without a ground-truth label, an unknown rule, a failed probe."""


class CheckedTuple(tuple):
    """First base of a NamedTuple subclass whose __new__ checks or fills in
    its fields. NamedTuple's _replace builds through _make, which skips
    __new__; this _make calls the class, so every path runs the check."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
