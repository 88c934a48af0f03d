"""Hardy splitting and holomorphic extension to the half-planes.

A function whose spectrum lives on [0, inf) extends holomorphically to the
upper half-plane: the defining integral gains a factor exp(-2 pi y xi)
that only helps when both y and xi are nonnegative.  The mirror statement
holds below the axis.  This module splits a sampled function into those
two spectral halves, evaluates the extensions anywhere in the correct
half-plane, exposes the equivalent Poisson and Cauchy convolution
representations, and checks holomorphy with a finite-difference
Cauchy-Riemann residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, sample_kernel
from .sampled import SampledFunction, _check_scale, convolve
from .spectral import (
    Spectrum,
    SupportSpec,
    forward_ft,
    lattice_sum,
    project_spectrum,
)

__all__ = [
    "HalfPlaneField",
    "hardy_split",
    "evaluate_upper",
    "evaluate_lower",
    "evaluate_field",
    "cauchy_represent",
    "poisson_extend",
    "cr_residual",
]


@dataclass(frozen=True)
class HalfPlaneField:
    """Function values on a rectangle of half-plane points.

    ``values[i, j]`` is the value at x_lattice[j] + 1j * y_lattice[i].
    """

    x_lattice: np.ndarray
    y_lattice: np.ndarray
    values: np.ndarray
    side: str

    def __post_init__(self):
        xs = np.asarray(self.x_lattice, dtype=float)
        ys = np.asarray(self.y_lattice, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if self.side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {self.side!r}")
        if self.side == "upper" and not np.all(ys > 0):
            raise ValueError("upper field requires all heights strictly positive")
        if self.side == "lower" and not np.all(ys < 0):
            raise ValueError("lower field requires all heights strictly negative")
        if vals.shape != (ys.size, xs.size):
            raise ValueError(
                f"values must have shape ({ys.size}, {xs.size}), got {vals.shape}"
            )
        object.__setattr__(self, "x_lattice", xs)
        object.__setattr__(self, "y_lattice", ys)
        object.__setattr__(self, "values", vals)


def hardy_split(f: SampledFunction):
    """Split f by spectral support into its two half-plane parts.

    Returns ``(f_plus, f_minus)``: the transform of f restricted to
    [0, inf) and to (-inf, 0).  The zero frequency goes with the
    nonnegative side, so the two spectra partition the transform exactly
    and their inverse transforms reassemble f up to rounding.
    """
    F = forward_ft(f)
    plus = project_spectrum(F, SupportSpec.nonneg())
    minus = project_spectrum(F, SupportSpec.nonpos())
    return plus, minus


def _require_side(F: Spectrum, side: str | None = None) -> str:
    """The half-plane F extends to, or a check that it extends to ``side``.

    A support [a, b] with a >= 0 extends to the upper side, one with b <= 0
    to the lower side; the point spectrum [0, 0] extends to both, and
    asked for no side, it reports the upper one.
    """
    upper, lower = F.support.a >= 0.0, F.support.b <= 0.0
    if side is None:
        if upper or lower:
            return "upper" if upper else "lower"
        raise ValueError("spectrum is not one-sided; split it first")
    if not (upper if side == "upper" else lower):
        where = "[0, inf)" if side == "upper" else "(-inf, 0]"
        raise ValueError(f"{side} evaluation requires spectral support in {where}")
    return side


def _evaluate_side(F: Spectrum, z, side: str):
    _require_side(F, side)
    zs = np.asarray(z, dtype=complex)
    if side == "upper":
        wrong = zs.imag < 0.0
        label = "upper half-plane (Im z >= 0)"
    else:
        wrong = zs.imag > 0.0
        label = "lower half-plane (Im z <= 0)"
    if np.any(wrong):
        # The integrand exp(2 pi i z xi) grows without bound on the wrong
        # side, so this is a domain error rather than a value to report.
        raise ValueError(f"evaluation point must lie in the {label}")
    return lattice_sum(F, zs)


def evaluate_upper(F: Spectrum, z):
    """Holomorphic extension of a spectrum supported in [0, inf).

    Evaluates spacing * sum_{xi >= 0} F(xi) exp(2 pi i z xi) for z with
    Im z >= 0 (the boundary included: sampled spectra are summable, so the
    extension is continuous down to the axis).  For z = x + it this is
    term-for-term the damped inverse transform at scale t, which is what
    ties the half-plane extension to the summability machinery.

    ``z`` may be a complex scalar or an array of complex values; points
    below the axis and non-finite points raise.
    """
    return _evaluate_side(F, z, "upper")


def evaluate_lower(F: Spectrum, z):
    """Mirror of :func:`evaluate_upper` for spectra supported in (-inf, 0]."""
    return _evaluate_side(F, z, "lower")


def evaluate_field(F: Spectrum, x_values, y_values) -> HalfPlaneField:
    """Evaluate a one-sided spectrum on a rectangle of half-plane points.

    The whole rectangle goes to the kernel in one call.
    """
    side = _require_side(F)
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    z = np.empty((ys.size, xs.size), dtype=complex)
    z.real, z.imag = xs, ys[:, None]
    return HalfPlaneField(xs, ys, _evaluate_side(F, z, side), side)


# The Cauchy sum runs over blocks of _CAUCHY_ROWS evaluation points by
# _CAUCHY_CHUNK lattice points; every matrix product of a call has the same
# shape, because BLAS may sum a product of another shape in another order
_CAUCHY_ROWS = 4
_CAUCHY_CHUNK = 1 << 13


def cauchy_represent(f: SampledFunction, side: str, t: float, x):
    """Convolution of lattice samples against the Cauchy kernel.

    Evaluates spacing * sum_j K(x - x_j) f_j at arbitrary real x, the
    kernel being sampled in closed form at the exact offsets, so no
    interpolation of f is involved.  For f with one-sided spectrum on the
    matching side this reproduces the holomorphic extension at height t.
    A scalar x gives a complex, an array x the array of its shape;
    non-finite x raises.

    The sum uses real arithmetic in blocks: with u = x - x_j and
    D = 1 / (t^2 + u^2), the upper kernel is (t + iu) D / (2 pi), so each
    block of points by lattice chunk is the real matrix [D; uD] times the
    chunk's real matrix [Re f, Im f].  The chunks are added in lattice
    order, and the points go through the products in batches of one fixed
    size (a short last batch is padded), so each point's value has the
    same bits alone, in any batch, and at any BLAS thread count.  No
    transform or spectral path is involved: this is an independent oracle
    for the half-plane extension.
    """
    _check_scale(t)
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    g, rows, chunk = f.grid, _CAUCHY_ROWS, _CAUCHY_CHUNK
    batches = -(-xs.size // rows)
    pts = np.zeros(batches * rows)
    pts[: xs.size] = xs.ravel()
    pts = pts.reshape(batches, rows)
    # row j of f_ab is [Re f_j, Im f_j], a view of the complex samples;
    # real samples are made complex first, so the products keep their shape
    f_ab = np.ascontiguousarray(f.values, dtype=complex).view(np.float64).reshape(-1, 2)
    # sums[b, :rows] = D @ f_ab and sums[b, rows:] = uD @ f_ab for batch b
    sums = np.zeros((batches, 2 * rows, 2))
    u = np.empty((rows, min(chunk, g.points)))
    block = np.empty((2 * rows, u.shape[1]))
    for lo in range(0, g.points, chunk):
        xj = g._axis_range(lo, min(lo + chunk, g.points))
        uc, dc, udc = u[:, : xj.size], block[:rows, : xj.size], block[rows:, : xj.size]
        for b in range(batches):
            np.subtract.outer(pts[b], xj, out=uc)
            np.square(uc, out=dc)
            dc += t * t
            np.reciprocal(dc, out=dc)
            np.multiply(uc, dc, out=udc)
            sums[b] += block[:, : xj.size] @ f_ab[lo : lo + xj.size]
    # K f = D (t a -+ u b) + i D (t b +- u a) for f = a + ib, upper/lower
    sign = 1.0 if side == "upper" else -1.0
    d_ab, ud_ab = sums[:, :rows], sums[:, rows:]
    out = np.empty(xs.size, dtype=complex)
    out.real = (t * d_ab[..., 0] - sign * ud_ab[..., 1]).ravel()[: xs.size]
    out.imag = (t * d_ab[..., 1] + sign * ud_ab[..., 0]).ravel()[: xs.size]
    out *= g.spacing / (2.0 * math.pi)
    if xs.ndim == 0:
        return complex(out[0])
    return out.reshape(xs.shape)


def poisson_extend(f: SampledFunction, t: float) -> SampledFunction:
    """Harmonic extension of f to height t, as lattice samples.

    Convolves f with the sampled Poisson kernel at scale t; as t -> 0 the
    extension returns to f uniformly on any fixed compact window.
    """
    _check_scale(t)
    kernel = sample_kernel(f.grid, KernelSpec("poisson", t))
    return convolve(kernel, f)


def cr_residual(F: Spectrum, z, h: float, evaluator=None) -> float:
    """Finite-difference Cauchy-Riemann residual |(d/dx + i d/dy) f| at z.

    Central differences with step h on the field evaluated from the
    one-sided spectrum F; the residual of a holomorphic field is pure
    discretization error O(h^2), while any anti-holomorphic contamination
    shows up at size 2|d f/d conj(z)|.

    ``evaluator`` substitutes a different field map z -> value (same
    domain); by default the side-appropriate spectral evaluation is used.
    The stencil must fit inside the half-plane: the distance from z to the
    axis must exceed 2h, and z must be finite.
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    side = _require_side(F)
    zc = complex(z)
    if not np.isfinite(zc):
        raise ValueError("evaluation point must be finite")
    margin = zc.imag if side == "upper" else -zc.imag
    if not margin > 2.0 * h:
        raise ValueError(
            f"stencil of step {h} does not fit: boundary margin is {margin:.3g}"
        )
    if evaluator is None:
        base = evaluate_upper if side == "upper" else evaluate_lower
        evaluator = lambda w: base(F, w)
    dx = (evaluator(zc + h) - evaluator(zc - h)) / (2.0 * h)
    dy = (evaluator(zc + 1j * h) - evaluator(zc - 1j * h)) / (2.0 * h)
    return abs(dx + 1j * dy)
