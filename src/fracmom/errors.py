"""Exception types shared across the package, the one check of input
samples that every estimator, baseline and calibrator makes, the checks of
integer and real arguments, and the row blocks their kernels run in."""

import operator

import numpy as np


class FracmomError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteMoment(FracmomError):
    """A required absolute/signed moment diverges for the distribution."""


class NonFiniteInput(FracmomError):
    """Input sample contains NaN or infinite values."""


class SingularSystem(FracmomError):
    """The 2x2 weight system is singular or too ill-conditioned to solve."""


class DegenerateRatio(FracmomError):
    """Variance-reduction ratio hit the 0/0 collapse point."""


class NonPositiveDenominator(FracmomError):
    """Variance-reduction denominator is not strictly positive."""


class SmallSample(FracmomError):
    """Sample too small for the requested diagnostic."""


class DegenerateSample(FracmomError):
    """Sample has zero spread where positive spread is required."""


class AllGridDegenerate(FracmomError):
    """No grid point produced a usable criterion value."""


class BracketFailure(FracmomError):
    """The proxy's Brent search spent its iteration cap without a root."""


class QuadratureError(FracmomError):
    """Adaptive quadrature did not reach the requested tolerance."""


_NON_FINITE = "sample contains NaN or infinite values"
# elements of one row block: a float64 temporary of a block takes 512 KiB
BLOCK_ELEMENTS = 2**16


def float_array(values, what: str = "samples") -> np.ndarray:
    """values as an array of floats.  Raises ValueError where they are not
    real numbers: complex values included, whose imaginary parts numpy
    would drop, and strings or bytes, which numpy would parse, also as the
    items of an object array."""
    if not hasattr(values, "dtype"):  # a list: numpy finds its type first
        values = np.asarray(values)
    kind = values.dtype.kind
    if kind == "O" and any(isinstance(v, (str, bytes, bytearray))
                           for v in values.flat):
        kind = "U"  # numpy would parse them as it parses a string array
    if kind not in "cSU":  # complex values, strings, bytes
        try:
            return np.asarray(values, dtype=float)
        except TypeError:
            pass
    raise ValueError(f"{what} must be real numbers")


def sample_rows(samples) -> tuple[np.ndarray, np.ndarray]:
    """The (M, N) sample matrix as floats, and which of its rows are all
    finite.  Raises ValueError for a matrix that is not 2-D or is empty, or
    whose entries are not real numbers."""
    x = float_array(samples)
    if x.ndim != 2:
        raise ValueError("samples must be an (M, N) array")
    rows, n = x.shape
    if n == 0:
        raise ValueError("empty sample")
    # the finiteness mask is as large as x, so it is built block by block
    finite = np.empty(rows, dtype=bool)
    for b in row_blocks(rows, n):
        np.logical_and.reduce(np.isfinite(x[b]), axis=1, out=finite[b])
    return x, finite


def row_blocks(rows: int, n: int):
    """Slices of at most max(1, BLOCK_ELEMENTS // n) rows that cover
    range(rows) in order.  A row kernel on an (rows, n) matrix runs block by
    block, so that its temporaries take a fixed budget whatever rows is;
    every row's reductions stay the same, and so do its results."""
    step = max(1, BLOCK_ELEMENTS // n)
    for first in range(0, rows, step):
        yield slice(first, min(first + step, rows))


def sample_row(sample) -> np.ndarray:
    """One sample of any shape, flattened to a (1, N) row of floats.
    Raises ValueError when it is empty and NonFiniteInput when it holds
    NaN or inf."""
    x, finite = sample_rows(float_array(sample).reshape(1, -1))
    if not finite[0]:
        raise NonFiniteInput(_NON_FINITE)
    return x


def integer_value(value, what: str) -> int:
    """value as an int, for an integer that is not a bool (operator.index);
    ValueError for anything else."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def real_value(value, what: str) -> float:
    """value as a float, for a real number; ValueError for anything float()
    refuses, and for a string or bytes, which float() would parse."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be a real number, got {value!r}")


def non_finite_errors(finite: np.ndarray) -> dict[int, Exception]:
    """A NonFiniteInput for every row that ``finite`` marks False, keyed by
    row index, in row order."""
    # count_nonzero, not finite.all(): a C call where all() goes through
    # numpy's Python wrapper, at every estimator call
    if np.count_nonzero(finite) == finite.size:
        return {}
    return {r: NonFiniteInput(_NON_FINITE)
            for r in np.flatnonzero(~finite).tolist()}
