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
from .sampled import SampledFunction, convolve
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
    "cauchy_kernel",
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
    if f.grid.n != 1:
        raise ValueError("hardy_split is defined for 1-D grids")
    F = forward_ft(f)
    plus = project_spectrum(F, SupportSpec.nonneg())
    minus = project_spectrum(F, SupportSpec.nonpos())
    return plus, minus


def _require_side(F: Spectrum, side: str | None = None) -> str:
    """The half-plane F extends to, or a check that it extends to ``side``.

    A one-sided interval touching 0 at both ends (a point spectrum at the
    origin) extends to both; asked for no side, it reports the upper one.
    """
    kind = F.support.kind
    upper = kind == "nonneg_halfline" or (kind == "interval" and F.support.a >= 0)
    lower = kind == "nonpos_halfline" or (kind == "interval" and F.support.b <= 0)
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
    if side == "upper":
        return lattice_sum(F, zs, lo=0.0)
    return lattice_sum(F, zs, hi=0.0)


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


def cauchy_kernel(side: str, t: float, x):
    """The convolution kernel reproducing the half-plane extension.

    Upper side: 1/(2 pi (t - ix)), the inverse transform of the
    nonnegative half-line exponential; lower side is the conjugate.  Their
    sum at matching (t, x) is the Poisson kernel on the line.
    """
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    if side == "upper":
        return 1.0 / (2.0 * math.pi * (t - 1j * np.asarray(x, dtype=float)))
    if side == "lower":
        return 1.0 / (2.0 * math.pi * (t + 1j * np.asarray(x, dtype=float)))
    raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")


def cauchy_represent(f: SampledFunction, side: str, t: float, x):
    """Convolution of lattice samples against the Cauchy kernel.

    Evaluates spacing * sum_j K(x - x_j) f_j at arbitrary real x, the
    kernel being sampled in closed form at the exact offsets, so no
    interpolation of f is involved.  For f with one-sided spectrum on the
    matching side this reproduces the holomorphic extension at height t.
    A scalar x gives a complex, an array x the array of its shape;
    non-finite x raises.
    """
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    if f.decay_tag == "bounded-only":
        raise ValueError("cauchy_represent requires integrable or schwartz-like samples")
    if f.grid.n != 1:
        raise ValueError("cauchy_represent is defined for 1-D grids")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    xj = f.grid.axis()
    out = np.empty(xs.size, dtype=complex)
    for i, xx in enumerate(xs.ravel()):
        out[i] = np.dot(f.values, cauchy_kernel(side, t, xx - xj))
    out *= f.grid.spacing
    if xs.ndim == 0:
        return complex(out[0])
    return out.reshape(xs.shape)


def poisson_extend(f: SampledFunction, t: float) -> SampledFunction:
    """Harmonic extension of f to height t, as lattice samples.

    Convolves f with the sampled Poisson kernel at scale t; as t -> 0 the
    extension returns to f uniformly on any fixed compact window.
    """
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    kernel = sample_kernel(f.grid, KernelSpec("poisson", t, f.grid.n))
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
