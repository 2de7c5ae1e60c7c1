"""Tunable signed-power basis: exponent family and basis values.

The basis is controlled by a single dial ``alpha`` in [0, 1].  Member ``i = 1``
is always the identity.  Members ``i >= 2`` are sign-preserving powers
``sign(xi) * |xi|**p_i(alpha)`` whose exponent interpolates three regimes:
sub-linear roots at ``alpha = 0`` (``p_i = 1/i``), all-linear collapse at
``alpha = 1/2`` (``p_i = 1``), and odd integer-like powers at ``alpha = 1``
(``p_i = i``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import integer_value, real_value

# Half-width of the protected interval around alpha = 1/2.  The estimator
# falls back to the sample mean inside the narrow band; curve sweeps exclude
# the wider one because the weight system degrades well before the collapse.
ESTIMATOR_BAND = 0.01
SWEEP_BAND = 0.05


def alpha_value(alpha) -> float:
    """Coerce alpha to float; enforce the [0, 1] range."""
    a = real_value(alpha, "alpha")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {a}")
    return a


def alpha_list(alphas) -> list[float]:
    """Every alpha of the iterable alphas, by alpha_value.  Raises
    ValueError where alphas is not iterable or is a string or bytes, whose
    items are characters or small integers, not alphas."""
    if not isinstance(alphas, (str, bytes, bytearray)):
        try:
            return [alpha_value(a) for a in alphas]
        except TypeError:  # alpha_value raises ValueError: not iterable
            pass
    raise ValueError(f"alphas must be a sequence of reals, got {alphas!r}")


def exponent(i: int, alpha) -> float:
    """Exponent p_i(alpha) of basis member i.

    Quadratic in alpha, pinned so that p_i(0) = 1/i, p_i(1/2) = 1 and
    p_i(1) = i.  Member 1 is the identity, p_1 = 1 for every alpha.
    Strictly positive on [0, 1] for i <= 5; from i = 6 the interpolating
    quadratic dips below zero near alpha ~ 0.15 (the degree-2 estimator only
    ever uses i = 2, where p stays in [1/2, 2]).  The quadratic extends to
    any finite real alpha; range enforcement belongs to alpha_value and the
    estimators.  An index that is not an integer >= 1, and an alpha that is
    not a finite real number, raise ValueError.
    """
    i = _index(i)
    a = _finite_alpha(alpha)
    if i == 1:
        return 1.0
    return 1.0 / i + (4.0 - i - 3.0 / i) * a + (2.0 * i - 4.0 + 2.0 / i) * a * a


def second_exponent(alpha) -> float:
    """p_2(alpha) = 1/2 + alpha/2 + alpha^2, the exponent driving the
    degree-2 estimator; exponent(2, alpha) bit for bit, with its check of
    alpha."""
    a = _finite_alpha(alpha)
    return 0.5 + 0.5 * a + a * a


def _index(i) -> int:
    # a basis index: an integer >= 1 (integer_value refuses bools and floats)
    i = integer_value(i, "basis index")
    if i < 1:
        raise ValueError(f"basis index must be >= 1, got {i}")
    return i


def _finite_alpha(alpha) -> float:
    # any finite real alpha, by real_value, which refuses strings
    a = real_value(alpha, "alpha")
    if not math.isfinite(a):
        raise ValueError(f"alpha must be finite, got {a}")
    return a


def collision_roots(i: int, j: int) -> tuple[float, float]:
    """The two alpha values where p_i and p_j coincide: {1/2, -1/(ij-1)}.

    The second root is negative for every admissible pair, so 1/2 is the only
    collision inside [0, 1].  Both indices are checked as exponent checks
    its index.
    """
    i, j = _index(i), _index(j)
    if i == j:
        raise ValueError("indices must differ")
    return 0.5, -1.0 / (i * j - 1)


def basis_value(i: int, alpha, xi, epsilon: float = 0.0, out=None):
    """Evaluate basis member i at residual xi (scalar or array).

    Odd in xi and exactly 0 at xi = 0.  ``epsilon > 0`` switches the
    sub-linear members to the smoothed form sign(xi) * (xi^2 + eps^2)^(p/2);
    smoothing is never applied to exponents >= 1 nor to the identity member.
    ``out``, an array of xi's shape that shares no memory with it, receives
    the values and is returned; for a scalar xi it is a 0-d array, and the
    float is returned.  The values are the same bits either way.  i and
    alpha are checked as exponent checks them.
    """
    if not epsilon >= 0.0:  # NaN fails too
        raise ValueError("epsilon must be >= 0")
    # exponent's checks, before the identity shortcut.  p_2 is
    # second_exponent bit for bit, at a third of exponent's cost: the proxy
    # calls this once per score evaluation
    p = second_exponent(alpha) if integer_value(i, "basis index") == 2 \
        else exponent(i, alpha)
    x = np.asarray(xi, dtype=float)
    if i == 1 or float(alpha) == 0.5:
        # member 1 is the identity, and every member collapses to it at the
        # midpoint; return xi itself so the identity is exact, not 1-ulp off
        if out is None:
            return x if x.ndim else float(xi)
        np.copyto(out, x)
        return out if x.ndim else float(out)
    # one array per call, written in place: the proxy calls this once per
    # score evaluation, and at large N fresh arrays cost page faults.  Every
    # form reads x after writing v, so v must not be x.  The ufuncs take
    # their out arrays by position, which numpy parses faster than keywords
    v = np.empty_like(x) if out is None else out
    if epsilon > 0.0 and p < 1.0:
        np.multiply(x, x, v)
        v += epsilon**2
        np.power(v, 0.5 * p, v)
        np.multiply(np.sign(x), v, v)
    elif p < 0.0:
        # members i >= 6 have negative exponents near alpha ~ 0.15, where
        # |0|**p is inf and sign(0) * inf would be NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            np.abs(x, v)
            np.power(v, p, v)
            np.multiply(np.sign(x), v, v)
        v[x == 0.0] = 0.0
    else:
        np.abs(x, v)
        np.power(v, p, v)
        np.copysign(v, x, v)
    return v if x.ndim else float(v)
