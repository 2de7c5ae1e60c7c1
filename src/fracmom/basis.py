"""Tunable signed-power basis: exponent family and basis values.

The basis is controlled by a single dial ``alpha`` in [0, 1].  Member ``i = 1``
is always the identity.  Members ``i >= 2`` are sign-preserving powers
``sign(xi) * |xi|**p_i(alpha)`` whose exponent interpolates three regimes:
sub-linear roots at ``alpha = 0`` (``p_i = 1/i``), all-linear collapse at
``alpha = 1/2`` (``p_i = 1``), and odd integer-like powers at ``alpha = 1``
(``p_i = i``).
"""

from __future__ import annotations

import numpy as np

# Half-width of the protected interval around alpha = 1/2.  The estimator
# falls back to the sample mean inside the narrow band; curve sweeps exclude
# the wider one because the weight system degrades well before the collapse.
ESTIMATOR_BAND = 0.01
SWEEP_BAND = 0.05


def alpha_value(alpha) -> float:
    """Coerce alpha to float; enforce the [0, 1] range."""
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {a}")
    return a


def exponent(i: int, alpha) -> float:
    """Exponent p_i(alpha) of basis member i.

    Quadratic in alpha, pinned so that p_i(0) = 1/i, p_i(1/2) = 1 and
    p_i(1) = i.  Member 1 is the identity, p_1 = 1 for every alpha.
    Strictly positive on [0, 1] for i <= 5; from i = 6 the interpolating
    quadratic dips below zero near alpha ~ 0.15 (the degree-2 estimator only
    ever uses i = 2, where p stays in [1/2, 2]).  The quadratic extends to
    any real alpha; range enforcement belongs to alpha_value and the
    estimators.
    """
    if i < 1:
        raise ValueError(f"basis index must be >= 1, got {i}")
    if i == 1:
        return 1.0
    a = float(alpha)
    return 1.0 / i + (4.0 - i - 3.0 / i) * a + (2.0 * i - 4.0 + 2.0 / i) * a * a


def second_exponent(alpha) -> float:
    """p_2(alpha) = 1/2 + alpha/2 + alpha^2, the exponent driving the
    degree-2 estimator."""
    a = float(alpha)
    return 0.5 + 0.5 * a + a * a


def collision_roots(i: int, j: int) -> tuple[float, float]:
    """The two alpha values where p_i and p_j coincide: {1/2, -1/(ij-1)}.

    The second root is negative for every admissible pair, so 1/2 is the only
    collision inside [0, 1].
    """
    if i < 1 or j < 1:
        raise ValueError("indices must be >= 1")
    if i == j:
        raise ValueError("indices must differ")
    if i * j <= 1:
        raise ValueError(f"invalid pair ({i}, {j}): need i*j > 1")
    neg = -1.0 / (i * j - 1)
    assert neg < 0.0
    return 0.5, neg


def basis_value(i: int, alpha, xi, epsilon: float = 0.0):
    """Evaluate basis member i at residual xi (scalar or array).

    Odd in xi and exactly 0 at xi = 0.  ``epsilon > 0`` switches the
    sub-linear members to the smoothed form sign(xi) * (xi^2 + eps^2)^(p/2);
    smoothing is never applied to exponents >= 1 nor to the identity member.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    if i == 1 or float(alpha) == 0.5:
        # member 1 is the identity, and every member collapses to it at the
        # midpoint; return xi itself so the identity is exact, not 1-ulp off
        return np.asarray(xi, dtype=float) if np.ndim(xi) else float(xi)
    p = exponent(i, alpha)
    x = np.asarray(xi, dtype=float)
    if epsilon > 0.0 and p < 1.0:
        out = np.sign(x) * np.power(x * x + epsilon**2, 0.5 * p)
    elif p < 0.0:
        # members i >= 6 have negative exponents near alpha ~ 0.15, where
        # |0|**p is inf and sign(0) * inf would be NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x == 0.0, 0.0, np.sign(x) * np.power(np.abs(x), p))
    else:
        out = np.sign(x) * np.power(np.abs(x), p)
    return out if np.ndim(xi) else float(out)
