"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, data errors
exit 2, numerical failures exit 3.
"""

import sys

MAX_ARRAY_BYTES = sys.maxsize    # numpy's largest array, np.iinfo(np.intp).max bytes


class TopicaError(Exception):
    exit_code = 2


class ConfigError(TopicaError):
    """Bad configuration value or unknown configuration key."""

    exit_code = 1


class DataError(TopicaError):
    exit_code = 2


class NumericalError(TopicaError):
    exit_code = 3


class ConstantImage(DataError):
    """Image has zero pixel variance and cannot be normalized."""


class PatchTooLarge(DataError):
    """Requested patch does not fit inside the image."""


class OutOfBounds(DataError):
    """Patch origin places the patch outside the frame."""


class DimensionMismatch(DataError):
    """Matrix or patch dimensions do not agree."""


class BadK(DataError):
    """Requested component count is out of range."""


class BadDimensions(DataError):
    """Invalid lattice dimensions or neighborhood radius."""


class IndexOutOfRange(DataError):
    """Unit index outside the lattice."""


class BadPermutation(DataError):
    """Sequence is not a permutation of 0..n-1."""


class ModelMismatch(DataError):
    """Artifact identity hashes do not match."""


class BadSpec(DataError):
    """Invalid stimulus specification."""


class EmptyGroup(DataError):
    """Permutation test received an empty group."""


class DegenerateSeries(DataError):
    """No series with positive variance to analyze."""


class FormatError(DataError):
    """Malformed file contents."""


class RankDeficient(NumericalError):
    """Covariance rank is too low for the requested component count."""


class EigensolverFailed(NumericalError):
    """LAPACK did not return the requested eigenpairs."""


class SingularMatrix(NumericalError):
    """Matrix is numerically singular."""


class Diverged(NumericalError):
    """Training objective became non-finite."""
