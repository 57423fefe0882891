"""Toolkit for understanding QUIC deployments from passive backscatter and
controlled active probing, with a deterministic deployment simulator as the
ground-truth oracle."""

__version__ = "0.1.0"


class PreconditionError(Exception):
    """An analysis precondition is unmet (the CLI exits 3): too few samples,
    a source without a ground-truth label, an unknown rule, a failed probe."""
