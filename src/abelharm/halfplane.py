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
from .sampled import SampledFunction, _check_scale, _finite_points, _lattice, convolve
from .spectral import (
    Spectrum,
    SupportSpec,
    forward_ft,
    lattice_sum,
    project_spectrum,
)

__all__ = [
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
    """What :func:`evaluate_field` returns: ``values[i, j]`` is the value at
    x_lattice[j] + 1j * y_lattice[i] in the closed half-plane ``side``."""

    x_lattice: np.ndarray
    y_lattice: np.ndarray
    values: np.ndarray
    side: str


# the sign of Im z on each side: the upper and lower statements differ by it alone
_SIGNS = {"upper": 1.0, "lower": -1.0}


def _side_sign(side: str) -> float:
    """+1.0 for the upper side and -1.0 for the lower; any other side raises."""
    try:
        return _SIGNS[side]
    except (KeyError, TypeError):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}") from None


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
    if np.any(_side_sign(side) * zs.imag < 0.0):
        # The integrand exp(2 pi i z xi) grows without bound on the wrong
        # side, so this is a domain error rather than a value to report.
        raise ValueError(f"evaluation point must lie in the closed {side} half-plane")
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
    """Evaluate a one-sided spectrum on a rectangle of points in its closed half-plane.

    The whole rectangle goes to the kernel in one call.  x values or
    heights that are not a finite 1-D array raise ValueError.
    """
    side = _require_side(F)
    xs, ys = _lattice(x_values, "x values"), _lattice(y_values, "heights")
    z = np.empty((ys.size, xs.size), dtype=complex)
    z.real, z.imag = xs, ys[:, None]
    return HalfPlaneField(xs, ys, _evaluate_side(F, z, side), side)


# The Cauchy oracle cuts the lattice into blocks of _CAUCHY_BLOCK points; a
# block far from the evaluation point is summed by its first _CAUCHY_ORDER
# moments, at distance at least _CAUCHY_FAR times its half-width
_CAUCHY_BLOCK = 1 << 13
_CAUCHY_ORDER = 40
_CAUCHY_FAR = 3.0


def _block_moments(f: SampledFunction, block: int, order: int):
    """(Re, Im) moments sum_i f_{bB+i} s_i^k of f's whole blocks, each shape (order, blocks).

    x_{bB+i} = c_b + H s_i, s_i = (2i + 1 - B) / B, on every block b of
    B = ``block`` lattice points, with centre c_b and half-width
    H = B spacing / 2, so all blocks share one table of the powers s_i^k,
    built by repeated products (about 2 ms at B = 8192, and not kept).
    The moments are one product of fixed shape, (blocks x B) @ (B x
    order), per part of f; a part that is identically zero, as for real
    samples, has zero moments.
    """
    s = (2.0 * np.arange(block) + (1 - block)) / block
    table = np.empty((block, order))
    table[:, 0] = 1.0
    for k in range(1, order):
        np.multiply(table[:, k - 1], s, out=table[:, k])
    whole = f.grid.points // block * block
    vals = f.values[:whole]
    parts = (vals.real, vals.imag) if np.iscomplexobj(vals) else (vals, None)
    return tuple(
        np.zeros((order, whole // block)) if part is None or not part.any()
        else (np.ascontiguousarray(part).reshape(-1, block) @ table).T.copy()
        for part in parts)


def _far_field(moments, blocks, a, y, half):
    """sum_k M_k (H/w)^k / w at w = a + iy, per (point, block) pair, as (Re, Im).

    Complex arithmetic is spelled out in real ufuncs, which round each
    element alone.  w is scaled by max(|a|, |y|) before squaring, so that
    no square overflows.
    """
    size = np.maximum(np.abs(a), abs(y))
    ar, yr = a / size, y / size
    norm = ar * ar + yr * yr
    # 1/w = (ar - i yr) / (size norm), and H/w is H times it
    q_re, q_im = ar / size / norm, -yr / size / norm
    r_re, r_im = half * q_re, half * q_im
    m_re, m_im = moments[0][:, blocks], moments[1][:, blocks]
    s_re, s_im = m_re[-1], m_im[-1]
    for k in range(m_re.shape[0] - 2, -1, -1):
        s_re, s_im = (s_re * r_re - s_im * r_im + m_re[k],
                      s_re * r_im + s_im * r_re + m_im[k])
    return s_re * q_re - s_im * q_im, s_re * q_im + s_im * q_re


def _near_field(xj, f_ab, x, y):
    """sum_j f_j / (x + iy - x_j) over one block, as (Re, Im).

    With u = x - x_j and D = 1 / (u^2 + y^2), 1/(x + iy - x_j) = uD - iyD,
    so the block is the real (2 x L) @ (L x 2) product [D; uD] @ [Re f, Im f],
    of one shape for every point.
    """
    rows = np.empty((2, xj.size))
    d, ud = rows
    np.subtract(x, xj, out=ud)
    np.square(ud, out=d)
    d += y * y
    np.reciprocal(d, out=d)
    ud *= d
    (d_a, d_b), (ud_a, ud_b) = rows @ f_ab
    return ud_a + y * d_b, ud_b - y * d_a


def cauchy_represent(f: SampledFunction, side: str, t: float, x):
    """Convolution of lattice samples against the Cauchy kernel.

    Evaluates spacing * sum_j K(x - x_j) f_j at arbitrary real x, the
    kernel being sampled in closed form at the exact offsets, so no
    interpolation of f is involved.  For f with one-sided spectrum on the
    matching side this reproduces the holomorphic extension at height t.
    A scalar x gives a complex, an array x the array of its shape;
    non-finite x raises.

    With z = x + it, the upper kernel (t + iu) / (2 pi (t^2 + u^2)),
    u = x - x_j, is (i / 2 pi) / (z - x_j), and the lower one is
    (-i / 2 pi) / (conj(z) - x_j).  The lattice is cut into blocks of B
    points (``_CAUCHY_BLOCK``), block b with centre c_b and half-width
    H = B spacing / 2, so x_j = c_b + H s_j with |s_j| < 1.  This is the
    far-field half of the fast multipole method (Greengard & Rokhlin,
    J. Comput. Phys. 73, 1987):

    - far field: a block with rho = H / |w| <= 1/3, w = z - c_b (conj(z)
      - c_b below the axis), contributes (1/w) sum_{k<p} M_k (H/w)^k,
      with moments M_k = sum_j f_j s_j^k and p = ``_CAUCHY_ORDER`` = 40.
      The omitted tail is at most rho^p / (1 - rho) * sum_j |f_j| / |w|
      per block, about 1.2e-19 sum_j |f_j| / |w| at p = 40.  On a
      uniform lattice every block shares one table of s_j^k, so the
      moments of all whole blocks are one product of fixed shape per part
      of f.  They depend on neither t, x nor the side, so they are
      computed once per sample array and kept with it;
    - near field: every other block, and a short last block where B does
      not divide the lattice length, is summed directly in real
      arithmetic over its lattice points, one product of fixed shape per
      point and block.

    Each point's blocks are added in one row sum of fixed length, so its
    value has the same bits alone, in any batch or order, and at any BLAS
    thread count; real samples give the bits of the same samples stored
    as complex.  No transform or spectral path is involved: this is an
    independent oracle for the half-plane extension.
    """
    _check_scale(t)
    sign = _side_sign(side)
    xs = _finite_points(x, float)
    g, block = f.grid, _CAUCHY_BLOCK
    pts = xs.reshape(-1)
    y = sign * t
    whole = g.points // block
    half = 0.5 * block * g.spacing
    centres = -g.half_width + g.spacing * (block * np.arange(-(-g.points // block))
                                           + 0.5 * (block - 1))
    a = pts[:, None] - centres
    near = np.hypot(a, y) < _CAUCHY_FAR * half
    near[:, whole:] = True
    # sums[0] and sums[1]: Re and Im of sum_j f_j / (x + iy - x_j) per point and block
    sums = np.zeros((2,) + a.shape)
    rows, cols = np.nonzero(~near)
    if rows.size:
        moments = f._derived(("cauchy_moments", block, _CAUCHY_ORDER),
                             lambda: _block_moments(f, block, _CAUCHY_ORDER))
        sums[:, rows, cols] = _far_field(moments, cols, a[rows, cols], y, half)
    for b in np.flatnonzero(near.any(axis=0)).tolist():
        lo, hi = b * block, min(b * block + block, g.points)
        xj = g._axis_range(lo, hi)
        # row j is [Re f_j, Im f_j]; real samples are made complex first
        f_ab = np.ascontiguousarray(f.values[lo:hi], dtype=complex).view(np.float64).reshape(-1, 2)
        for p in np.flatnonzero(near[:, b]).tolist():
            sums[:, p, b] = _near_field(xj, f_ab, pts[p], y)
    total_re, total_im = sums.sum(axis=2)
    # i (re + i im) above the axis and -i (re + i im) below
    scale = g.spacing / (2.0 * math.pi)
    out = np.empty(pts.size, dtype=complex)
    out.real = total_im * (-sign * scale)
    out.imag = total_re * (sign * scale)
    if xs.ndim == 0:
        return complex(out[0])
    return out.reshape(xs.shape)


def poisson_extend(f: SampledFunction, t: float) -> SampledFunction:
    """Harmonic extension of real samples f to height t, as lattice samples.

    Convolves f with the sampled Poisson kernel at scale t (complex samples
    are refused, as by ``convolve``); as t -> 0 the extension returns to f
    uniformly on any fixed compact window.
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

    ``evaluator`` substitutes a different field map (same domain): it gets
    the array [z+h, z-h, z+ih, z-ih] in one call and returns their values.
    By default the side-appropriate spectral evaluation is used.
    The stencil must fit inside the half-plane: the distance from z to the
    axis must exceed 2h, and z must be finite.
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    side = _require_side(F)
    zc = complex(_finite_points(z, complex))
    margin = _side_sign(side) * zc.imag
    if not margin > 2.0 * h:
        raise ValueError(
            f"stencil of step {h} does not fit: boundary margin is {margin:.3g}"
        )
    if evaluator is None:
        evaluator = lambda w: _evaluate_side(F, w, side)
    # Python complex arithmetic, as four scalar calls had: numpy rounds complex / real otherwise
    right, left, up, down = map(complex, evaluator(zc + np.array([h, -h, 1j * h, -1j * h])))
    dx = (right - left) / (2.0 * h)
    dy = (up - down) / (2.0 * h)
    return abs(dx + 1j * dy)
