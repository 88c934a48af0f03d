"""Entire extensions of band-limited spectra and their growth bounds.

A spectrum supported in a bounded interval [a, b] defines an entire
function of z whose modulus grows at most like exp(2 pi max(|a|, |b|) |y|)
off the real axis.  This module evaluates such extensions anywhere in the
plane, computes the per-height envelope (integral of |F| times the worst
endpoint exponential), fits an empirical growth type on the imaginary
axis, and checks the bound B * exp(sigma |y|) against a point lattice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum, lattice_sum

__all__ = [
    "GrowthReport",
    "evaluate_entire",
    "envelope_bound",
    "measure_real_bound",
    "estimate_type",
    "check_pl_bound",
]


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of a growth-bound check.

    ``passed`` is true exactly when ``max_margin_violation`` (the largest
    value of |f| / (B exp(sigma |y|)) - 1 over the lattice) stays at or
    below the configured tolerance.  ``sigma_estimate`` is the empirical
    type fitted from imaginary-axis growth, for comparison against the
    sigma actually used.
    """

    sigma: float
    B: float
    lattice: tuple
    max_margin_violation: float
    passed: bool
    sigma_estimate: float


def _require_band(F: Spectrum, what: str) -> None:
    if not (math.isfinite(F.support.a) and math.isfinite(F.support.b)):
        raise ValueError(f"{what} requires a bounded interval support")


def evaluate_entire(F: Spectrum, z):
    """Entire extension of an interval-supported spectrum.

    spacing * sum_{a <= xi <= b} F(xi) exp(2 pi i z xi), defined for every
    finite complex z: the bounded support caps the exponential factor on
    any horizontal strip.  ``z`` may be scalar or an array.
    """
    _require_band(F, "entire evaluation")
    return lattice_sum(F, z)


def envelope_bound(F: Spectrum, y: float) -> float:
    """Uniform-in-x bound on |f(x + iy)| from the spectrum alone.

    (spacing * sum |F|) * exp(max(-2 pi a y, -2 pi b y)): the integral of
    |F| controls the modulus on the axis, and the exponential factor is
    maximized at an endpoint of the support because it is monotone in xi.
    """
    _require_band(F, "envelope_bound")
    mass = F.grid.spacing * float(np.sum(np.abs(F.values)))
    a, b = F.support.a, F.support.b
    return mass * math.exp(max(-2.0 * math.pi * a * y, -2.0 * math.pi * b * y))


def measure_real_bound(F: Spectrum, window: float = 50.0, step: float = 0.01) -> float:
    """Max of |f| over a dense sample of [-window, window] on the real axis.

    Stand-in for the supremum over the whole line; band-limited functions
    attain their near-sup within a modest window, and tests confirm the
    measured value stabilizes as the window grows.
    """
    if not (window > 0 and step > 0):
        raise ValueError("window and step must be positive")
    xs = np.arange(-window, window + 0.5 * step, step)
    return float(np.max(np.abs(evaluate_entire(F, xs))))


def estimate_type(F: Spectrum, y_samples) -> float:
    """Empirical exponential type from growth along the imaginary axis.

    Fits the slope of log max(|f(iy)|, |f(-iy)|) against y by weighted
    least squares.  Both axis directions are sampled because a one-sided
    spectrum grows in one direction only; the pointwise max picks up the
    direction where the type is expressed.  Weights y^2 lean the fit on
    the largest heights, where the polynomial prefactor of the growth has
    decayed the most; an unweighted fit is biased low by roughly
    d(log y)/dy at the small end of the sample.

    If a sample lands on a zero of |f| the heights are deterministically
    jittered and the fit retried.
    """
    ys = np.asarray(y_samples, dtype=float)
    if ys.size < 3:
        raise ValueError("need at least 3 height samples")
    if np.any(np.diff(ys) <= 0):
        raise ValueError("height samples must be strictly increasing")
    if ys[-1] < 2.0:
        raise ValueError("largest height sample must be at least 2")
    for attempt in range(6):
        y_try = ys * (1.0 + 1e-4 * attempt)
        up = np.abs(evaluate_entire(F, 1j * y_try))
        down = np.abs(evaluate_entire(F, -1j * y_try))
        m = np.maximum(up, down)
        if np.all(m > 0.0):
            logs = np.log(m)
            w = y_try ** 2
            ybar = np.sum(w * y_try) / np.sum(w)
            lbar = np.sum(w * logs) / np.sum(w)
            num = np.sum(w * (y_try - ybar) * (logs - lbar))
            den = np.sum(w * (y_try - ybar) ** 2)
            return float(num / den)
    raise ValueError("field vanishes at every jittered sample; type undefined")


def check_pl_bound(F: Spectrum, sigma: float, B_mode: str, lattice, tol: float = 1e-6,
                   B: float | None = None, window: float = 50.0, step: float = 0.01) -> GrowthReport:
    """Check |f(x + iy)| <= B * exp(sigma * |y|) on a finite lattice.

    Parameters
    ----------
    F : Spectrum
        Interval-supported spectrum defining the entire function.
    sigma : float
        Claimed exponential type.  Meaningful results need sigma at least
        the spectral type 2 pi max(|a|, |b|) (minus the tolerance); a
        smaller sigma is allowed through with a warning so that the
        checker's power to reject understated types can be demonstrated.
    B_mode : {"measured", "supplied"}
        Where the real-axis bound comes from.  "measured" maxes |f| over a
        dense window on the axis; "supplied" uses ``B``.
    lattice : (x_values, y_values)
        The rectangle of test points.
    tol : float
        Pass threshold on the margin violation; also the slack granted to
        the type precondition.

    Returns
    -------
    GrowthReport
    """
    if B_mode not in ("measured", "supplied"):
        raise ValueError(f"B_mode must be 'measured' or 'supplied', got {B_mode!r}")
    _require_band(F, "check_pl_bound")
    xs = np.asarray(lattice[0], dtype=float)
    ys = np.asarray(lattice[1], dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("lattice must be nonempty")
    type_floor = 2.0 * math.pi * max(abs(F.support.a), abs(F.support.b))
    if sigma < type_floor - tol:
        warnings.warn(
            f"sigma={sigma:.6g} is below the spectral type {type_floor:.6g}; "
            f"the bound is expected to fail",
            RuntimeWarning,
            stacklevel=2,
        )
    if B_mode == "supplied":
        if B is None or not B > 0:
            raise ValueError("supplied mode requires a positive B")
        bound = float(B)
    else:
        bound = measure_real_bound(F, window, step)

    zero_spectrum = bool(np.all(F.values == 0))
    worst = -math.inf
    for y in ys:
        vals = np.abs(evaluate_entire(F, xs + 1j * y))
        ceiling = bound * math.exp(sigma * abs(y))
        if ceiling == 0.0:
            # zero bound: the check degenerates to requiring f to vanish
            row_worst = 0.0 if np.all(vals == 0.0) else math.inf
        else:
            row_worst = float(np.max(vals / ceiling)) - 1.0
        worst = max(worst, row_worst)
    estimate = 0.0 if zero_spectrum else estimate_type(F, (2.0, 3.0, 4.0, 5.0))
    return GrowthReport(
        sigma=float(sigma),
        B=bound,
        lattice=(xs, ys),
        max_margin_violation=worst,
        passed=bool(worst <= tol),
        sigma_estimate=estimate,
    )
