"""Entire extensions of band-limited spectra and their growth bounds.

A spectrum supported in a bounded interval [a, b] defines an entire
function of z whose modulus grows at most like exp(2 pi max(|a|, |b|) |y|)
off the real axis.  This module evaluates such extensions anywhere in the
plane, computes the per-height envelope (integral of |F| times the worst
endpoint exponential), fits an empirical growth type on the imaginary
axis, and measures how far a point lattice stays below B * exp(sigma |y|).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .spectral import Spectrum, _chirp_scan, _support_range, lattice_sum

__all__ = [
    "evaluate_entire",
    "envelope_bound",
    "measure_real_bound",
    "estimate_type",
    "check_pl_bound",
]


def _require_band(F: Spectrum, what: str) -> None:
    if not (math.isfinite(F.support.a) and math.isfinite(F.support.b)):
        raise ValueError(f"{what} requires a bounded interval support")


def evaluate_entire(F: Spectrum, z):
    """Entire extension of an interval-supported spectrum.

    spacing * sum_{a <= xi <= b} F(xi) exp(2 pi i z xi), defined for every
    finite complex z: the bounded support caps the exponential factor on
    any horizontal strip.  ``z`` may be scalar or an array.  A value out
    of range raises OverflowError naming the points where it is.
    """
    _require_band(F, "entire evaluation")
    return lattice_sum(F, z)


def envelope_bound(F: Spectrum, y: float) -> float:
    """Uniform-in-x bound on |f(x + iy)| from the spectrum alone.

    (spacing * sum |F|) * exp(max(-2 pi a y, -2 pi b y)): the integral of
    |F| controls the modulus on the axis, and the exponential factor is
    maximized at an endpoint of the support because it is monotone in xi.
    A bound out of range raises OverflowError naming the height.
    """
    _require_band(F, "envelope_bound")
    if not math.isfinite(y):
        raise ValueError(f"height must be finite, got {y!r}")
    mass = F.grid.spacing * float(np.sum(np.abs(F.values)))
    a, b = F.support.a, F.support.b
    try:
        bound = mass * math.exp(max(-2.0 * math.pi * a * y, -2.0 * math.pi * b * y))
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise OverflowError(f"envelope overflows at height {y!r}")
    return bound


def measure_real_bound(F: Spectrum, window: float = 50.0) -> float:
    """Max of |f| over [-window, window] on the real axis, sampled at step 0.01.

    Stand-in for the supremum over the whole line; band-limited functions
    attain their near-sup within a modest window, and tests confirm the
    measured value stabilizes as the window grows.  The window must be
    finite and positive.

    B is the largest |f| of the direct sums (:func:`evaluate_entire`) at
    the points ``np.arange(-window, window + 0.005, 0.01)``, bit for bit.
    A chirp-z scan (``spectral._chirp_scan``) first evaluates all of them
    by FFTs, to within 1e-13 * spacing * sum |F|, whatever the number of
    points against the support.  Only the points whose scanned |f| lies
    within a margin of the scanned maximum are then summed directly.  The
    margin is 1e-10 * spacing * sum |F|, or 1e-13 * window * max |xi|
    times that mass where larger, since the direct sums' rounding grows
    with the phase.  It exceeds twice the disagreement of the scan and the
    direct sums, so it keeps the point of the direct maximum, and the
    factored kernel gives that point the same bits in any batch.  The
    zero spectrum keeps every point.  A one-point window, a mass out of
    range and a scan that is not finite take the direct sums at every
    point, so errors are raised as before.
    """
    if not 0 < window < math.inf:
        raise ValueError(f"window must be finite and positive, got {window!r}")
    _require_band(F, "entire evaluation")
    xs = np.arange(-window, window + 0.005, 0.01)
    start, stop = _support_range(F.grid, F.support)
    mass = F.grid.spacing * float(np.sum(np.abs(F.values[start:stop])))
    if xs.size > 1 and mass < math.inf:
        scanned = np.abs(_chirp_scan(F, xs[0], xs[1] - xs[0], xs.size))
        if np.all(np.isfinite(scanned)):
            phase = window * max(abs(F.support.a), abs(F.support.b))
            margin = mass * max(1e-10, 1e-13 * phase)
            xs = xs[scanned >= np.max(scanned) - margin]
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

    Heights that are not finite raise ValueError, as do heights at which
    |f| vanishes, leaving the fit undefined; heights at which |f|
    overflows raise OverflowError.
    """
    ys = np.asarray(y_samples, dtype=float)
    if ys.size < 3:
        raise ValueError("need at least 3 height samples")
    if not np.all(np.isfinite(ys)):
        raise ValueError(f"heights must be finite, got {ys[~np.isfinite(ys)].tolist()}")
    if np.any(np.diff(ys) <= 0):
        raise ValueError("height samples must be strictly increasing")
    if ys[-1] < 2.0:
        raise ValueError("largest height sample must be at least 2")
    up = np.abs(evaluate_entire(F, 1j * ys))
    down = np.abs(evaluate_entire(F, -1j * ys))
    m = np.maximum(up, down)
    # the modulus of a finite value can still overflow
    if not np.all(np.isfinite(m)):
        raise OverflowError(f"|f| overflows at heights {ys[~np.isfinite(m)].tolist()}")
    if not np.all(m > 0.0):
        raise ValueError(f"|f| vanishes at heights {ys[m == 0.0].tolist()}; type undefined")
    logs = np.log(m)
    w = ys ** 2
    ybar = np.sum(w * ys) / np.sum(w)
    lbar = np.sum(w * logs) / np.sum(w)
    num = np.sum(w * (ys - ybar) * (logs - lbar))
    den = np.sum(w * (ys - ybar) ** 2)
    return float(num / den)


def check_pl_bound(F: Spectrum, sigma: float, B: float, lattice) -> float:
    """Largest margin max |f(x + iy)| / (B exp(sigma |y|)) - 1 over a lattice.

    ``B`` is the real-axis bound that the growth statement extends off the
    axis, e.g. from :func:`measure_real_bound`; ``lattice`` is the pair
    (x_values, y_values) spanning the rectangle of test points.  The bound
    holds on the lattice exactly when the margin is at most 0; a NaN value
    of f anywhere on it makes the margin NaN.  A ``sigma`` below the
    spectral type 2 pi max(|a|, |b|) warns, since the bound is then
    expected to fail; it stays allowed so that the rejection of an
    understated type can be demonstrated.  Heights that are not finite
    raise ValueError, and a ceiling B exp(sigma |y|) out of range
    OverflowError naming the height.
    """
    _require_band(F, "check_pl_bound")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if not (math.isfinite(B) and B >= 0):
        raise ValueError(f"B must be finite and >= 0, got {B!r}")
    xs = np.asarray(lattice[0], dtype=float)
    ys = np.asarray(lattice[1], dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("lattice must be nonempty")
    if not np.all(np.isfinite(ys)):
        raise ValueError(f"heights must be finite, got {ys[~np.isfinite(ys)].tolist()}")
    type_floor = 2.0 * math.pi * max(abs(F.support.a), abs(F.support.b))
    if sigma < type_floor:
        warnings.warn(
            f"sigma={sigma:.6g} is below the spectral type {type_floor:.6g}; "
            f"the bound is expected to fail",
            RuntimeWarning,
            stacklevel=2,
        )
    ceilings = []
    for y in ys:
        try:
            ceiling = B * math.exp(sigma * abs(y))
        except OverflowError:
            ceiling = math.inf
        if ceiling == math.inf:
            raise OverflowError(f"ceiling overflows at height {float(y)!r}")
        ceilings.append(ceiling)
    # one evaluation of the whole lattice, a row per height
    rows = np.abs(evaluate_entire(F, xs + 1j * ys[:, None]))
    margins = []
    for ceiling, vals in zip(ceilings, rows):
        if ceiling == 0.0:
            # zero bound: the check degenerates to requiring f to vanish
            margins.append(0.0 if np.all(vals == 0.0) else math.inf)
        else:
            margins.append(float(np.max(vals / ceiling)) - 1.0)
    # np.max keeps a NaN, where max() would drop it depending on order
    return float(np.max(margins))
