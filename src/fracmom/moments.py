"""Absolute and signed fractional moments of residuals: the sample plug-ins
(optionally winsorized) and the moment set that feeds the weight system.

The population moments of the same set, closed form or by quadrature, are
in ``efficiency``; this module imports numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteMoment, real_value, row_blocks, sample_row


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
