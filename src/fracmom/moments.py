"""Absolute and signed fractional moments of residuals.

Three routes to the same quantities: sample plug-ins (optionally winsorized),
gamma-function closed forms for the analytic families, and an adaptive
quadrature oracle used as ground truth for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate, special

from .distributions import DistributionSpec
from .errors import NonFiniteMoment, QuadratureError, real_value, \
    row_blocks, sample_row

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class FractionalMomentSet:
    """The five scalars feeding the degree-2 weight system.

    ``p`` is the active exponent; ``nu_pm1``, ``nu_pp1`` and ``nu_2p`` are the
    absolute moments of orders p-1, p+1 and 2p; ``sigma_p`` is the signed
    moment of order p; ``c2`` is the plain second moment of the residuals.
    """

    p: float
    c2: float
    nu_pm1: float
    nu_pp1: float
    nu_2p: float
    sigma_p: float

    def __post_init__(self):
        for name in ("c2", "nu_pm1", "nu_pp1", "nu_2p"):
            v = getattr(self, name)
            if np.isfinite(v) and v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")

    def is_finite(self) -> bool:
        return all(np.isfinite(v) for v in
                   (self.c2, self.nu_pm1, self.nu_pp1, self.nu_2p, self.sigma_p))

    def require_finite(self):
        if not self.is_finite():
            raise NonFiniteMoment("moment set contains non-finite entries")

    def rows(self) -> MomentRows:
        """This set as a batch of one row."""
        return MomentRows(self.p, np.array([[self.c2], [self.nu_pm1],
                                            [self.nu_pp1], [self.nu_2p],
                                            [self.sigma_p]]))


class MomentRows(NamedTuple):
    """Moment sets of M rows at one exponent.  Column r of ``values`` is row
    r's (c2, nu_pm1, nu_pp1, nu_2p, sigma_p), as in FractionalMomentSet."""

    p: float
    values: np.ndarray  # (5, M)

    def finite(self) -> np.ndarray:
        """Rows whose five moments are all finite."""
        return np.isfinite(self.values).all(axis=0)

    def row(self, r: int) -> FractionalMomentSet:
        return FractionalMomentSet(self.p, *(float(v) for v in self.values[:, r]))


def winsorize_rows(xi: np.ndarray, fraction: float) -> np.ndarray:
    """Cap the absolute values of every row of the (M, N) array ``xi`` at
    their (1 - fraction) quantile, keeping each value's sign, in place, and
    return ``xi``.  The moments about 0 of the result are the winsorized
    moments of the residuals ``xi``.  Runs block by block of rows, in one
    scratch array of a block's size: the quantile partitions it in place,
    and |block| is then taken into it again and capped."""
    for b in row_blocks(*xi.shape):
        block = xi[b]
        a = np.abs(block)
        cap = np.quantile(a, 1.0 - fraction, axis=-1, keepdims=True,
                          overwrite_input=True)
        np.minimum(np.abs(block, out=a), cap, out=a)
        np.copysign(a, block, out=block)
    return xi


def moment_rows(xi: np.ndarray, ps, zero_floor=1e-12) -> list[MomentRows]:
    """Plug-in moment sets of every row of the (M, N) array of residuals
    ``xi``, one MomentRows per exponent in the sequence ``ps``, in order,
    overwriting ``xi`` with its absolute values.  ``zero_floor`` is a scalar
    or an (M, 1) column; the arguments are those of empirical_moments,
    unchecked.  c2 is computed once per call; only the four sums that
    depend on p are computed at each exponent."""
    # np.mean's arithmetic, one pairwise sum per row and a division, without
    # its per-call overhead
    return [MomentRows(p, sums / xi.shape[-1])
            for p, sums in zip(ps, moment_sums(xi, ps, zero_floor))]


def moment_sums(xi: np.ndarray, ps, zero_floor) -> list[np.ndarray]:
    """moment_rows' row sums before the division by N: one (5, M) array per
    exponent in ``ps``, rows in MomentRows order.  Overwrites ``xi`` with
    its absolute values."""
    # two arrays of xi's size: the residuals and one work array.  The signed
    # sums come first, sign(xi) * |xi|**p taken as copysign(|xi|**p, xi),
    # the sign rule of basis_value, while the residuals still hold their
    # signs; the residuals then become their absolute values in place.
    # The ufuncs take their out arrays by position, which costs less per
    # call than the keyword (np.maximum deprecates it)
    work = None  # the first np.abs allocates it
    signed = []
    for p in ps:
        work = np.abs(xi, work)
        np.power(work, p, work)
        signed.append(np.add.reduce(np.copysign(work, xi, work), axis=-1))
    a = np.abs(xi, xi)
    c2 = np.add.reduce(np.multiply(a, a, work), axis=-1)
    out = []
    for p, sigma in zip(ps, signed):
        sums = [c2]
        for q in (p - 1.0, p + 1.0, 2.0 * p):
            if q < 0.0:  # |residual| is clamped only under negative exponents
                np.power(np.maximum(a, zero_floor, out=work), q, work)
            else:
                np.power(a, q, work)
            sums.append(np.add.reduce(work, axis=-1))
        sums.append(sigma)
        out.append(np.array(sums))
    return out


def empirical_moments(sample, center: float, p: float,
                      winsor_fraction: float = 0.0, zero_floor: float = 1e-12,
                      ) -> FractionalMomentSet:
    """Plug-in moment set of the residuals ``sample - center``.

    ``zero_floor`` clamps |residual| only in negative-exponent terms; with
    ``winsor_fraction > 0`` the absolute residuals are capped at their
    (1 - f) quantile before powering.  A sample holding NaN or inf raises
    NonFiniteInput; an argument that is not a real number, and a non-finite
    center or p, raise ValueError.
    """
    winsor_fraction = real_value(winsor_fraction, "winsor_fraction")
    if not 0.0 <= winsor_fraction <= 0.25:
        raise ValueError("winsor_fraction must lie in [0, 0.25]")
    zero_floor = real_value(zero_floor, "zero_floor")
    if not zero_floor > 0.0:
        raise ValueError("zero_floor must be > 0")
    x = sample_row(sample)
    p = real_value(p, "p")
    if not 0.0 < p < math.inf:  # False for NaN
        raise ValueError(f"p must be finite and > 0, got {p}")
    center = real_value(center, "center")
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    with np.errstate(all="ignore"):  # residuals or powers may overflow
        xi = x - center
        if winsor_fraction > 0.0:
            winsorize_rows(xi, winsor_fraction)
        return moment_rows(xi, (p,), zero_floor)[0].row(0)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _quad(f, lo: float, hi: float) -> float:
    out = integrate.quad(f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                         limit=200, full_output=1)
    result, abserr = out[0], out[1]
    if len(out) > 3:  # quadpack warning message present
        if not np.isfinite(result) or abserr > max(1e-7, 1e-6 * abs(result)):
            raise QuadratureError(f"quadrature failed on ({lo}, {hi}): {out[3]}")
    return result


def quadrature_moment(density, q: float, support: tuple[float, float],
                      center: float | None = None, signed: bool = False,
                      check_density: bool = True) -> float:
    """Adaptive quadrature of |x - c|^q * f(x), split at the center.

    ``center=None`` locates c at the density's own mean.  ``signed=True``
    weights the two halves by sign(x - c).  The split keeps the q < 0 cusp at
    an interval endpoint where the integrator handles it.  An order q <= -1
    raises NonFiniteMoment where the integral diverges at the center: where
    the density is positive there, as abs_moment does, and where a half
    comes out negative.  Both halves integrate a function >= 0, and for a
    divergent integral QUADPACK's extrapolation returns the analytic
    continuation, a finite negative number with a small error estimate.
    """
    lo, hi = support
    if check_density:
        mid = center if center is not None else 0.5 * (max(lo, -1.0) + min(hi, 1.0))
        mass = _quad(density, lo, mid) + _quad(density, mid, hi)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {mass}, not 1")
    if center is None:
        c = _quad(lambda x: x * density(x), lo, hi)
    else:
        c = center
    if q <= -1.0 and density(c) > 0.0:
        raise NonFiniteMoment(f"order {q} <= -1 diverges at the center")
    right = _quad(lambda x: abs(x - c) ** q * density(x), c, hi)
    left = _quad(lambda x: abs(x - c) ** q * density(x), lo, c)
    total = right - left if signed else right + left
    if not np.isfinite(total) or (q <= -1.0 and min(right, left) < 0.0):
        raise NonFiniteMoment(f"order-{q} moment is not finite")
    return total


# ---------------------------------------------------------------------------
# theoretical moments
# ---------------------------------------------------------------------------

def abs_moment(spec: DistributionSpec, q: float) -> float:
    """E|X - mu|^q about the theoretical center, closed form where known."""
    fam, s = spec.family, spec.scale
    if fam == "cauchy":
        if q >= 1.0:
            raise NonFiniteMoment(f"cauchy absolute moment of order {q} diverges")
        if q <= -1.0:
            raise NonFiniteMoment(f"order {q} <= -1 diverges at the center")
        return 1.0 / math.cos(math.pi * q / 2.0)
    if q <= -1.0:
        raise NonFiniteMoment(f"order {q} <= -1 diverges at the center")
    if fam == "laplace":
        return s**q * special.gamma(q + 1.0)
    if fam == "gaussian":
        return 2.0 ** (q / 2.0) * special.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)
    if fam == "gg":
        beta = spec.shape[0]
        return s**q * special.gamma((q + 1.0) / beta) / special.gamma(1.0 / beta)
    if fam == "uniform":
        return s**q / (q + 1.0)
    if fam == "arcsine":
        return s**q * special.gamma((q + 1.0) / 2.0) \
            / (math.sqrt(math.pi) * special.gamma(q / 2.0 + 1.0))
    if fam == "triangular":
        return 2.0 * s**q / ((q + 1.0) * (q + 2.0))
    # beta law: no convenient closed form for fractional orders
    return quadrature_moment(spec.quadrature_density, q, spec.support,
                             center=spec.true_location, check_density=False)


def signed_moment(spec: DistributionSpec, q: float) -> float:
    """E[sign(X - mu) |X - mu|^q]; exactly zero for symmetric families."""
    if spec.symmetric:
        return 0.0
    return quadrature_moment(spec.quadrature_density, q, spec.support,
                             center=spec.true_location, signed=True,
                             check_density=False)


def theoretical_moments(spec: DistributionSpec, p: float) -> FractionalMomentSet:
    """Population moment set at exponent p.

    Raises NonFiniteMoment when a required order diverges (cauchy always
    fails through its second moment).
    """
    if not 0.0 < p < math.inf:  # False for NaN
        raise ValueError(f"p must be finite and > 0, got {p}")
    return theoretical_set(spec, p, abs_moment(spec, 2.0))


def theoretical_set(spec: DistributionSpec, p: float,
                    c2: float) -> FractionalMomentSet:
    """theoretical_moments at exponent p, unchecked, with c2 = E|X - mu|^2
    given: a sweep over exponents computes c2 once (one quadrature for the
    beta law)."""
    return FractionalMomentSet(
        p=p,
        c2=c2,
        nu_pm1=abs_moment(spec, p - 1.0),
        nu_pp1=abs_moment(spec, p + 1.0),
        nu_2p=abs_moment(spec, 2.0 * p),
        sigma_p=signed_moment(spec, p),
    )
