"""Exception taxonomy shared across the package.

Every error raised by a public operation is a subclass of :class:`EwcLabError`
so callers (and the CLI) can catch package failures uniformly.
"""

from __future__ import annotations


class EwcLabError(Exception):
    """Base class for all package errors."""


class DimensionError(EwcLabError):
    """Shape or size mismatch between operands."""


class LabelError(EwcLabError):
    """A class label lies outside the valid range."""


class ContractError(EwcLabError):
    """An operation was called in a way that violates its contract."""


class HeadError(EwcLabError):
    """Unknown or duplicate task head name."""


class AlignmentError(EwcLabError):
    """A Fisher importance is negative or non-finite."""


class DataError(EwcLabError):
    """Invalid dataset (e.g. empty) passed to an estimator."""


class DegenerateInputError(EwcLabError):
    """Input without enough variation for the requested transform."""


class FormatError(EwcLabError):
    """Malformed checkpoint or dataset file."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(EwcLabError):
    """Invalid experiment configuration. CLI exit code 2."""


class PrerequisiteError(EwcLabError):
    """A required checkpoint, task-A head or Fisher payload is missing. CLI exit code 3."""


class DivergenceError(EwcLabError):
    """Training loss became non-finite. CLI exit code 4."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
