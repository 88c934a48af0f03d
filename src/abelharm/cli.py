"""Experiment runner: named check suites with reproducible reports.

Each suite recomputes a group of numerical identities against closed forms
and independent oracles, then writes plot-ready CSV tables plus a pass/fail
summary (text and JSON).  A manifest records the configuration echo and
library versions together with wall-clock timings.  Numeric CSV fields are encoded with
shortest round-trip decimals and every reduction runs in a fixed order, so
re-running a suite reproduces the tables byte for byte, on the fixed grids
and schedules its gates were calibrated on.  Timings live only in the
manifest, never in the tables.

The suites build checks only.  Each check names its criterion, an index
into :data:`CRITERIA` that ``summary.json`` records, or None for a
supporting check; the README states how each ``[acceptance]`` line is
derived from the checks that name it.

Exit status: 0 when every check passes, 1 when any check fails, 2 on a
configuration error.  A check whose failure is fully explained by a
documented discretization floor is reported as "expected-fail" and does
not affect the exit status; see the summary for the explanation attached
to each such check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .growth import (
    check_pl_bound,
    envelope_bound,
    estimate_type,
    evaluate_entire,
    measure_real_bound,
)
from .halfplane import (
    cauchy_represent,
    cr_residual,
    evaluate_field,
    evaluate_upper,
    evaluate_lower,
    hardy_split,
)
from .kernels import (
    KernelSpec,
    abel_from_gaussians,
    abel_kernel,
    half_kernel_ft,
    poisson_kernel,
    sample_kernel,
)
from .sampled import integrate, convolve, make_grid, radial_integrate, sample_function
from .spectral import (
    SupportSpec,
    _support_range,
    abel_regularized_inverse,
    forward_ft,
    inverse_ft,
    project_spectrum,
    sample_spectrum,
)
from .summability import SCALES, _extrapolate, abel_mean_radial, summability_verdict

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CheckResult",
    "CriterionOutcome",
    "ReportBundle",
    "run",
    "main",
]

# The acceptance criteria reported in every summary, in fixed order.  Each
# row is (index, slug, tolerance, detail); its members are the checks that
# name its index.
CRITERIA = (
    (1, "poisson_normalization", 1e-6,
     "radial quadrature mass, n in {1,2,3}, t in {0.1,1,10}; "
     "lattice box mass on the line vs its arctan closed form"),
    (2, "abel_transform_identity", 1e-6,
     "grid R=40 N=16384, whose kink aliasing floor lies above the gate; refined grid N=2^17"),
    (3, "half_line_transforms", 1e-4, "lattice vs closed form on |xi| <= 4"),
    (4, "gaussian_subordination", 1e-8, "201 points in [-3,3], t in {0.5,1,2}"),
    (5, "poisson_semigroup", 1e-4, "grid R=200 N=2^16, zero-padded transform convolution"),
    (6, "abel_summation_of_integrable", 1e-3,
     "worst limit error, line witnesses and radial n in {2,3}"),
    (7, "regularized_inverse_matches_convolution", 1e-5,
     "damped inverse vs Poisson convolution, two independent quadratures"),
    (8, "hardy_split_partition", 1e-8,
     "reassembly after the exact spectral partition; round-trip error only"),
    (9, "half_plane_representations_agree", 1e-5,
     "25 points in [-2,2] per t in {0.25,0.5,1}, three witnesses: spectral sum, Poisson "
     "integral (both Cauchy sides), upper Cauchy sum; the Cauchy margin is the lower-side "
     "integral of the samples, most likely their 1/x tail cut at R=65536, not an error "
     "of either evaluator"),
    (10, "boundary_continuity", 1e-2, "final sup at t=0.025; monotone approach required"),
    (11, "cauchy_riemann_residual", 1e-5, "central differences at z=i"),
    (12, "growth_bound_conclusion", 1e-4,
     "bound holds at the type and fails at half of it; spot values within the gate"),
    (13, "envelope_dominates", 1e-8, "all spectra, 21 x 13 lattice on |x|<=5, |y|<=3"),
    (14, "type_estimation", 0.3, "imaginary-axis fit with heights {2,3,4,5}"),
    (15, "determinism", None, "wall time within the 300 s budget"),
)


class ConfigError(ValueError):
    """Invalid runner configuration; maps to exit status 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Which suite to run and where to write its reports.

    Nothing numeric is configurable: every check pins its own grid and
    schedule because its tolerance was calibrated against them.  There is
    no seed of any kind: every computation is deterministic.
    """

    suite: str = "all"
    output_dir: str = "reports"

    def __post_init__(self):
        if self.suite not in SUITES + ("all",):
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {('all',) + SUITES}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")


@dataclass(frozen=True)
class CheckResult:
    """One named check: verdict plus the measured value and its gate."""

    name: str
    verdict: str  # pass | fail | expected-fail
    measured: float | None = None
    tolerance: float | None = None
    detail: str = ""
    criterion: int | None = None  # the CRITERIA index; None for a supporting check


@dataclass(frozen=True)
class CriterionOutcome:
    index: int
    name: str
    verdict: str  # pass | fail | expected-fail | not-run
    measured: float | None = None
    tolerance: float | None = None
    detail: str = ""


@dataclass
class ReportBundle:
    """The checks, criteria and tables of a run, as written to the output directory."""

    checks: list
    criteria: list
    tables: dict  # relative path -> (header tuple, list of row tuples)
    summary_text: str
    failed: int


# ---------------------------------------------------------------------------
# deterministic encoding


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _render_table(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _field_table(fld):
    # evaluate_field's record, row-major over (y, x): x varies fastest
    return ("x", "y", "re", "im"), [(x, y, v.real, v.imag)
                                    for y, row in zip(fld.y_lattice, fld.values)
                                    for x, v in zip(fld.x_lattice, row)]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _tol(criterion: int) -> float | None:
    """The tolerance of the :data:`CRITERIA` row with this index."""
    return CRITERIA[criterion - 1][2]


def _check(criterion: int | None, name: str, measured: float, tol=None, detail: str = "",
           ok=None) -> CheckResult:
    """A gated check of ``criterion`` (None: supporting), at its tolerance unless ``tol`` is given.

    A finite ``measured`` passes when ``ok`` holds if given, else when ``measured <= tol``.
    """
    tol = _tol(criterion) if tol is None else tol
    passed = math.isfinite(measured) and (measured <= tol if ok is None else ok)
    return CheckResult(name, "pass" if passed else "fail", measured, tol, detail, criterion)


def _g(x: float) -> str:
    return format(float(x), ".6g")


# ---------------------------------------------------------------------------
# suites


def _transform_error(grid, family: str, closed_form):
    """Lattice transform of the unit 1-D kernel of ``family`` against its closed form.

    Returns the frequencies of the window |xi| <= 4, the transform and the
    closed form on them, and the largest error in the window.
    """
    F = forward_ft(sample_kernel(grid, KernelSpec(family, 1.0, 1)))
    start, stop = _support_range(F.grid, SupportSpec(-4.0, 4.0))
    xi = F.grid._axis_range(start, stop)
    lattice, exact = F.values[start:stop], closed_form(xi)
    return xi, lattice, exact, float(np.max(np.abs(lattice - exact)))


def _run_kernels():
    checks, tables = [], {}

    # normalization of the Poisson kernel in all dimensions
    rows = []
    for n in (1, 2, 3):
        for t in (0.1, 1.0, 10.0):
            val = radial_integrate(lambda r, n=n, t=t: poisson_kernel(n, t, r), n)
            dev = abs(val - 1.0)
            rows.append((n, t, val, dev))
            checks.append(_check(1, f"poisson_normalization n={n} t={t:g}", dev,
                                 detail="deviation from unit mass"))
    tables["kernels/normalization.csv"] = (("n", "t", "value", "deviation"), rows)

    # box-truncated mass against the arctan antiderivative on the line
    grid_box = make_grid(1, 100.0, 2 ** 16)
    oracle_errs = []
    for t in (0.1, 1.0, 10.0):
        lattice_mass = integrate(sample_kernel(grid_box, KernelSpec("poisson", t, 1))).real
        truncated = 1.0 - (2.0 / math.pi) * math.atan(t / grid_box.half_width)
        oracle_errs.append(abs(lattice_mass - truncated))
    checks.append(_check(1, "poisson_truncated_mass_oracle", max(oracle_errs),
                         detail="lattice box mass vs arctan closed form, t in {0.1,1,10}"))

    # transform identity on the pinned grid; the kink of the kernel at the
    # origin aliases like (pi/3) * spacing^2, which caps the achievable
    # accuracy independently of any implementation choice
    grid_id = make_grid(1, 40.0, 2 ** 14)
    abel_closed = lambda xi: poisson_kernel(1, 1.0, xi)
    xw, lattice, exact, err_id = _transform_error(grid_id, "abel", abel_closed)
    floor = (math.pi / 3.0) * grid_id.spacing ** 2
    tol_id = _tol(2)
    if err_id <= tol_id:
        verdict_id = "pass"
        detail_id = "max error over |xi| <= 4"
    elif floor > tol_id and err_id <= 3.0 * floor:
        verdict_id = "expected-fail"
        detail_id = (f"kink aliasing floor {_g(floor)} exceeds the gate on this grid "
                     f"and fully explains the error; see the refined-grid check")
    else:
        verdict_id = "fail"
        detail_id = f"error is not explained by the aliasing floor {_g(floor)}"
    checks.append(CheckResult("transform_identity_pinned_grid", verdict_id, err_id, tol_id, detail_id, 2))
    # 33 evenly spaced rows: the quarter-integer frequencies of the window
    rows_id = slice(None, None, max(1, len(xw) // 32))
    tables["kernels/transform_error.csv"] = (
        ("xi", "lattice", "closed_form", "abs_error"),
        [(x, abs(v), c, abs(v - c))
         for x, v, c in zip(xw[rows_id], lattice[rows_id], exact[rows_id])],
    )

    # the same identity on a grid fine enough to pass the gate
    err_fine = _transform_error(make_grid(1, 40.0, 2 ** 17), "abel", abel_closed)[3]
    checks.append(_check(2, "transform_identity_refined_grid", err_fine,
                         detail="same identity, N=2^17: the floor scales away as spacing^-2"))

    # one-sided kernels: lattice transform against the closed forms
    grid_half = make_grid(1, 40.0, 2 ** 20)
    for sign, fam in (("+", "abel_plus"), ("-", "abel_minus")):
        err = _transform_error(grid_half, fam, lambda xi, sign=sign: half_kernel_ft(sign, 1.0, xi))[3]
        checks.append(_check(3, f"half_line_transform sign={sign}", err,
                             detail="jump at the origin costs spacing/2 per frequency"))
    xi_dense = np.linspace(-4.0, 4.0, 1601)
    plus, minus = half_kernel_ft("+", 1.0, xi_dense), half_kernel_ft("-", 1.0, xi_dense)
    conj_err = float(np.max(np.abs(minus - np.conjugate(plus))))
    sum_err = float(np.max(np.abs(plus + minus - poisson_kernel(1, 1.0, xi_dense))))
    checks.append(_check(3, "half_line_conjugacy_identity", conj_err, 1e-12))
    checks.append(_check(3, "half_line_sum_identity", sum_err, 1e-12,
                         "the two closed forms sum to the Poisson kernel"))

    # the Abel kernel as an average of Gaussians
    xs_sub = np.linspace(-3.0, 3.0, 201)
    sub_rows = []
    for t in (0.5, 1.0, 2.0):
        approx = abel_from_gaussians(t, xs_sub)
        err = float(np.max(np.abs(approx - abel_kernel(t, xs_sub))))
        sub_rows.append((t, err))
        checks.append(_check(4, f"gaussian_subordination t={t:g}", err))
    tables["kernels/subordination.csv"] = (("t", "max_abs_error"), sub_rows)

    # semigroup under convolution
    grid_semi = make_grid(1, 200.0, 2 ** 16)
    p1 = sample_kernel(grid_semi, KernelSpec("poisson", 1.0, 1))
    conv = convolve(p1, p1)
    start, stop = _support_range(grid_semi, SupportSpec(-10.0, 10.0))
    xs, cs = grid_semi._axis_range(start, stop), conv.values[start:stop]
    target = poisson_kernel(1, 2.0, xs)
    rel = np.abs(cs - target) / target
    checks.append(_check(5, "poisson_semigroup", float(np.max(rel)),
                         detail="P_1 * P_1 vs P_2, relative on |x| <= 10"))
    rows_s = slice(None, None, max(1, int(round(0.25 / grid_semi.spacing))))
    tables["kernels/semigroup.csv"] = (
        ("x", "convolved", "closed_form", "rel_error"),
        list(zip(xs[rows_s], cs[rows_s].real, target[rows_s], rel[rows_s])),
    )

    return checks, tables


# the line witnesses, by the names the tables carry: the Gaussian, the
# Poisson kernel P_1 and the Abel kernel A_1, whose Fourier transform is P_1
_WITNESSES = {
    "gauss": lambda grid: sample_function(grid, lambda x: np.exp(-math.pi * x * x)),
    "poisson": lambda grid: sample_kernel(grid, KernelSpec("poisson", 1.0, 1)),
    "abel": lambda grid: sample_kernel(grid, KernelSpec("abel", 1.0, 1)),
}


def _run_summability():
    checks, tables = [], {}
    grid = make_grid(1, 2000.0, 400000)
    mean_rows, limit_rows = [], []
    for name, witness in _WITNESSES.items():
        h = witness(grid)
        reference = integrate(h).real
        rep_a = summability_verdict(h, "abel")
        rep_g = summability_verdict(h, "gauss")
        for kind, rep in (("abel", rep_a), ("gauss", rep_g)):
            mean_rows += [(name, kind, t, m.real, m.imag) for t, m in zip(SCALES, rep.means)]
            limit_rows.append((name, kind, rep.limit_estimate.real, rep.residual,
                               rep.converged, reference, abs(rep.limit_estimate - reference)))
        # the limit counts only when both damping routes converged
        limit_err = abs(rep_a.limit_estimate - reference)
        checks.append(_check(6, f"abel_limit witness={name}", limit_err,
                             detail=f"limit vs box integral {_g(reference)}; residual {_g(rep_a.residual)}",
                             ok=limit_err <= _tol(6) and rep_a.converged and rep_g.converged))
        agree = abs(rep_a.limit_estimate - rep_g.limit_estimate)
        checks.append(_check(6, f"abel_gauss_agreement witness={name}", agree, 2e-3))
    tables["summability/means.csv"] = (("witness", "kind", "t", "re_mean", "im_mean"), mean_rows)
    tables["summability/limits.csv"] = (
        ("witness", "kind", "limit", "residual", "converged", "reference", "abs_error"), limit_rows)

    # radial route in higher dimensions: damped means of the unit-mass
    # Poisson kernel extrapolate to 1
    radial_rows = []
    for n in (2, 3):
        means = [abel_mean_radial(lambda r, n=n: poisson_kernel(n, 1.0, r), n, t)
                 for t in SCALES]
        extrap = _extrapolate(SCALES, means)[-1]
        err = abs(extrap - 1.0)
        radial_rows.append((n, extrap, err))
        checks.append(_check(6, f"abel_sum_radial n={n}", err,
                             detail="extrapolated damped means of the unit-mass kernel"))
    tables["summability/radial.csv"] = (("n", "limit", "abs_error"), radial_rows)
    return checks, tables


def _run_inversion():
    checks, tables = [], {}

    # round trip on a smooth witness
    grid_rt = make_grid(1, 8.0, 4096)
    f_rt = _WITNESSES["gauss"](grid_rt)
    rt_err = float(np.max(np.abs(inverse_ft(forward_ft(f_rt)).values - f_rt.values)))
    checks.append(_check(None, "transform_round_trip", rt_err, 1e-8))

    # closed-form inverse: two-sided exponential spectrum comes back as the
    # Poisson kernel
    grid_inv = make_grid(1, 1000.0, 2 ** 14)
    two_sided = sample_spectrum(
        grid_inv.reciprocal(),
        lambda xi: np.exp(-2.0 * math.pi * np.abs(xi)),
        SupportSpec(),
    )
    back = inverse_ft(two_sided)
    xb = back.grid.axis()
    inv_err = float(np.max(np.abs(back.values - poisson_kernel(1, 1.0, xb))))
    checks.append(_check(None, "inverse_closed_form_poisson", inv_err, 1e-6,
                         "periodization alias controls the error; box chosen accordingly"))

    # damped inversion against the Poisson integral by both Cauchy sides, two independent paths
    grid7 = make_grid(1, 128.0, 81920)
    f7 = _WITNESSES["gauss"](grid7)
    F7 = forward_ft(f7)
    xq = np.linspace(-2.0, 2.0, 11)
    rows = []
    worst = 0.0
    for t in (0.2, 0.1, 0.05):
        conv = cauchy_represent(f7, "upper", t, xq) + cauchy_represent(f7, "lower", t, xq)
        reg = abel_regularized_inverse(F7, t, xq)
        diffs = np.abs(reg - conv)
        worst = max(worst, float(np.max(diffs)))
        for x, r, c, d in zip(xq, reg, conv, diffs):
            rows.append((t, x, r.real, r.imag, c.real, c.imag, d))
    tables["inversion/regularized.csv"] = (
        ("t", "x", "re_regularized", "im_regularized", "re_convolution",
         "im_convolution", "abs_difference"), rows)
    checks.append(_check(7, "regularized_matches_convolution", worst,
                         detail="t in {0.2,0.1,0.05}, 11 points in [-2,2]"))

    # attenuation of the damped inverse toward the point value
    att_rows = []
    for t in (0.2, 0.1, 0.05, 0.025):
        val = abel_regularized_inverse(F7, t, 0.0)
        att_rows.append((t, val.real, abs(val - 1.0)))
    tables["inversion/attenuation.csv"] = (("t", "value_at_origin", "error_to_limit"), att_rows)
    errs = [row[2] for row in att_rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    checks.append(_check(None, "regularized_inverse_attenuation", errs[-1], 5e-2,
                         "error halves with t (first-order damping); monotone decrease required",
                         ok=decreasing and errs[-1] <= 5e-2))
    return checks, tables


def _run_hardy():
    checks, tables = [], {}

    # partition on a small grid: the split is exact linear algebra, so any
    # adequate grid demonstrates it
    grid_s = make_grid(1, 40.0, 2 ** 14)
    split_rows = []
    for name, witness in _WITNESSES.items():
        f = witness(grid_s)
        plus, minus = hardy_split(f)
        recon = inverse_ft(plus).values + inverse_ft(minus).values
        err = float(np.max(np.abs(recon - f.values)))
        split_rows.append((name, np.sum(np.abs(plus.values)) * plus.grid.spacing,
                           np.sum(np.abs(minus.values)) * minus.grid.spacing, err))
        checks.append(_check(8, f"hardy_partition witness={name}", err))
    tables["hardy/partition.csv"] = (("witness", "plus_mass", "minus_mass", "reassembly_error"), split_rows)

    # the big shared grid: spacing 1/16 in space, 2^-17 in frequency
    space = make_grid(1, 65536.0, 2 ** 21)
    freq = space.reciprocal()
    w_exp = sample_spectrum(freq, lambda xi: np.exp(-2.0 * math.pi * xi), SupportSpec.nonneg())
    p1 = sample_kernel(space, KernelSpec("poisson", 1.0, 1))
    F_p1 = forward_ft(p1)
    w_pois = project_spectrum(F_p1, SupportSpec.nonneg())

    # three representations of the same extension: the spectral sum, the
    # Poisson integral of the samples (P_t is the sum of the upper and
    # lower Cauchy kernels) and the upper Cauchy sum.  A witness's space
    # function serves its Cauchy sums only and is deleted after the
    # witness's checks, so that no two are alive at once
    agree_rows = []
    xq = np.linspace(-2.0, 2.0, 25)
    for name, F in (
        ("exp_halfline", w_exp),
        ("poisson_plus", w_pois),
        # no name holds the Gaussian's samples: forward_ft keeps their
        # spectrum with them, and that 32 MiB would outlive the projection
        ("gauss_plus", project_spectrum(forward_ft(_WITNESSES["gauss"](space)), SupportSpec.nonneg())),
    ):
        f_space = inverse_ft(F)
        witness_worst = 0.0
        for t in (0.25, 0.5, 1.0):
            es = evaluate_upper(F, xq + 1j * t)
            ec = cauchy_represent(f_space, "upper", t, xq)
            ea = ec + cauchy_represent(f_space, "lower", t, xq)
            d_sa = np.abs(es - ea)
            d_sc = np.abs(es - ec)
            d_ac = np.abs(ea - ec)
            witness_worst = max(witness_worst, float(np.max([d_sa.max(), d_sc.max(), d_ac.max()])))
            agree_rows += [(name, t, *row) for row in zip(xq, d_sa, d_sc, d_ac)]
        checks.append(_check(9, f"representation_agreement witness={name}", witness_worst,
                             detail="spectral sum vs Poisson integral vs upper Cauchy sum, pairwise"))
        del f_space
    tables["hardy/agreement.csv"] = (
        ("witness", "t", "x", "spectral_vs_damped", "spectral_vs_cauchy", "damped_vs_cauchy"), agree_rows)

    # approach to the boundary; witnesses with exponential-type spectra
    bound_rows = []
    xb = np.linspace(-2.0, 2.0, 81)
    for name, F in (("exp_halfline", w_exp), ("poisson_plus", w_pois)):
        base = evaluate_upper(F, xb)
        sups = []
        for t in (0.2, 0.1, 0.05, 0.025):
            sup = float(np.max(np.abs(evaluate_upper(F, xb + 1j * t) - base)))
            sups.append(sup)
            bound_rows.append((name, t, sup))
        nonincreasing = all(b <= a for a, b in zip(sups, sups[1:]))
        checks.append(_check(10, f"boundary_continuity witness={name}", sups[-1],
                             detail="sup over |x|<=2 of |f(x+it)-f(x)|, nonincreasing in t",
                             ok=nonincreasing and sups[-1] <= _tol(10)))
    tables["hardy/boundary.csv"] = (("witness", "t", "sup_difference"), bound_rows)

    # holomorphy certificate and its power
    r_coarse = cr_residual(w_exp, 1j, 1e-3)
    r_fine = cr_residual(w_exp, 1j, 5e-4)
    ratio = r_coarse / r_fine if r_fine > 0 else math.inf
    anti = cr_residual(w_exp, 1j, 1e-3, evaluator=lambda w: evaluate_upper(w_exp, w).conjugate())
    checks.append(_check(11, "cr_residual_holomorphic", r_coarse,
                         detail="central differences at z=i, step 1e-3"))
    checks.append(_check(11, "cr_residual_step_scaling", ratio, 3.0,
                         "halving the step must cut the residual at least 3x (second order)",
                         ok=ratio >= 3.0))
    checks.append(_check(11, "cr_residual_detects_antiholomorphic", anti, 1e-2,
                         "conjugated field must light up the detector", ok=anti >= 1e-2))
    tables["hardy/cr_residual.csv"] = (
        ("case", "h", "residual"),
        [("holomorphic", 1e-3, r_coarse), ("holomorphic", 5e-4, r_fine),
         ("conjugated", 1e-3, anti)],
    )

    # mirror side
    mirror = evaluate_lower(
        sample_spectrum(freq, lambda xi: np.exp(2.0 * math.pi * xi), SupportSpec.nonpos()), -1j)
    mirror_err = abs(mirror - 1.0 / (4.0 * math.pi))
    checks.append(_check(None, "lower_half_plane_mirror", mirror_err, 1e-8,
                         "reflected exponential spectrum evaluated at -i"))

    # harmonic extension: the Poisson integral in space, as the sum of the
    # two Cauchy sides, vs the damped spectral path
    x_ext = np.linspace(-2.0, 2.0, 65)
    ext = cauchy_represent(p1, "upper", 0.5, x_ext) + cauchy_represent(p1, "lower", 0.5, x_ext)
    damped = abel_regularized_inverse(F_p1, 0.5, x_ext)
    ext_err = float(np.max(np.abs(ext - damped)))
    checks.append(_check(7, "poisson_extension_agrees", ext_err,
                         detail="Poisson integral by both Cauchy sides vs damped inversion at height 0.5"))
    tables["hardy/extension.csv"] = (
        ("x", "convolution", "damped_inverse", "closed_form", "path_difference"),
        # abs() per row: np.abs on the array rounds some cells differently
        [(x, e.real, d.real, c, abs(e - d))
         for x, e, d, c in zip(x_ext, ext, damped, poisson_kernel(1, 1.5, x_ext))],
    )

    # plot-ready field sample
    fld = evaluate_field(w_exp, np.linspace(-2.0, 2.0, 17), np.array([0.25, 0.5, 1.0]))
    tables["hardy/field_upper.csv"] = _field_table(fld)

    return checks, tables


def _run_growth():
    checks, tables = [], {}
    fgrid = make_grid(1, 2.0, 2048)
    spectra = [
        ("flat_full", sample_spectrum(fgrid, lambda xi: np.ones_like(xi), SupportSpec(-1.0, 1.0))),
        ("flat_half", sample_spectrum(fgrid, lambda xi: np.ones_like(xi), SupportSpec(0.0, 0.5))),
        ("tent", sample_spectrum(fgrid, lambda xi: 1.0 - np.abs(xi), SupportSpec(-1.0, 1.0))),
    ]
    xs = np.linspace(-5.0, 5.0, 21)
    ys = np.linspace(-3.0, 3.0, 13)

    # the growth bound at the declared type, and its rejection of half the
    # type, both extending the bound measured on the real axis
    full = spectra[0][1]
    heights = (2.0, 3.0, 4.0, 5.0)
    bound = measure_real_bound(full, window=50.0)
    full_type = estimate_type(full, heights)
    margin = check_pl_bound(full, 2.0 * math.pi, bound, (xs, ys))
    margin_half = check_pl_bound(full, math.pi, bound, (xs, ys))
    spot_f_true = math.sinh(2.0 * math.pi) / math.pi
    spot_env_true = 2.0 * math.exp(2.0 * math.pi)
    rel_f = abs(abs(evaluate_entire(full, 1j)) - spot_f_true) / spot_f_true
    rel_env = abs(envelope_bound(full, 1.0) - spot_env_true) / spot_env_true
    checks.append(_check(12, "growth_bound_at_type", margin, 1e-6,
                         f"measured real-axis bound {_g(bound)}; empirical type {_g(full_type)}"))
    checks.append(_check(12, "growth_bound_rejects_half_type", margin_half, 1e-6,
                         "understated type must be caught (violation far above the gate)",
                         ok=margin_half > 1e-6))
    checks.append(_check(12, "spot_value_imaginary_unit", rel_f,
                         detail=f"|f(i)| vs sinh(2 pi)/pi = {_g(spot_f_true)}"))
    checks.append(_check(12, "spot_envelope_height_one", rel_env,
                         detail=f"envelope at height 1 vs 2 exp(2 pi) = {_g(spot_env_true)}"))
    tables["growth/pl_bound.csv"] = (
        ("support", "sigma", "B", "max_margin_violation", "passed", "sigma_estimate"),
        [("flat_full", 2.0 * math.pi, bound, margin, margin <= 1e-6, full_type),
         ("flat_full", math.pi, bound, margin_half, margin_half <= 1e-6, full_type)],
    )

    # envelope domination on the whole lattice, per spectrum
    for label, F in spectra:
        rows = []
        for y, vals in zip(ys, np.abs(evaluate_entire(F, xs + 1j * ys[:, None]))):
            env = envelope_bound(F, float(y))
            rows += [(x, y, v, env, float(v / env) - 1.0) for x, v in zip(xs, vals)]
        tables[f"growth/lattice_{label}.csv"] = (("x", "y", "abs_f", "envelope", "margin"), rows)
        checks.append(_check(13, f"envelope_dominates support={label}", max(r[4] for r in rows),
                             detail="max of |f|/envelope - 1 over the lattice"))

    # empirical type
    type_rows = []
    for label, est, true_type in (
        ("flat_full", full_type, 2.0 * math.pi),
        ("flat_half", estimate_type(spectra[1][1], heights), math.pi),
    ):
        err = abs(est - true_type)
        type_rows.append((label, est, true_type, err))
        checks.append(_check(14, f"type_estimate support={label}", err,
                             detail=f"fitted {_g(est)} vs spectral type {_g(true_type)}"))
    tables["growth/type.csv"] = (("support", "estimate", "true_type", "abs_error"), type_rows)

    # the measured bound is stable in the window, and a point-like
    # spectrum has nearly zero type
    stab = abs(bound - measure_real_bound(full, window=25.0))
    checks.append(_check(12, "real_bound_stabilizes", stab, 1e-9,
                         "doubling the measurement window must not move the bound"))
    point = sample_spectrum(fgrid, lambda xi: np.ones_like(xi), SupportSpec(0.0, 0.0))
    est0 = abs(estimate_type(point, heights))
    checks.append(_check(14, "point_spectrum_type_near_zero", est0, 1e-2,
                         "single-cell spectrum is nearly constant"))
    return checks, tables


_SUITE_FN = {
    "kernels": _run_kernels,
    "summability": _run_summability,
    "inversion": _run_inversion,
    "hardy": _run_hardy,
    "growth": _run_growth,
}
SUITES = tuple(_SUITE_FN)


# ---------------------------------------------------------------------------
# assembly


def _worst(members, tol: float | None):
    """The largest measured value among the members gated at ``tol``, or NaN if any is NaN."""
    gated = [c.measured for c in members if c.tolerance == tol and c.measured is not None]
    # max() keeps or drops a NaN depending on where it stands
    if any(math.isnan(v) for v in gated):
        return math.nan
    return max(gated, default=None)


def _criteria(checks) -> list:
    """One outcome per :data:`CRITERIA` row, derived from its member checks.

    The detail is the row's text, then "<name> <measured> vs <gate>" for
    each member with a value and a gate other than the criterion's.
    """
    outcomes = []
    for index, slug, tol, text in CRITERIA:
        members = [c for c in checks if c.criterion == index]
        if not members:
            outcomes.append(CriterionOutcome(index, slug, "not-run"))
            continue
        # the first of these verdicts that any member has
        verdicts = {c.verdict for c in members}
        verdict = next(v for v in ("fail", "expected-fail", "pass") if v in verdicts)
        apart = [f"{c.name} {_g(c.measured)} vs {_g(c.tolerance)}" for c in members
                 if c.measured is not None and c.tolerance not in (None, tol)]
        outcomes.append(CriterionOutcome(index, slug, verdict, _worst(members, tol), tol,
                                         "; ".join([text] + apart)))
    return outcomes


def _summary_line(head: str, c) -> str:
    bits = []
    if c.measured is not None and c.tolerance is not None:
        bits.append(f"measured {_g(c.measured)} vs tol {_g(c.tolerance)}")
    if c.detail:
        bits.append(c.detail)
    line = f"{head}: {c.verdict}"
    return f"{line} ({'; '.join(bits)})" if bits else line


def _summary_text(suite: str, checks, criteria, failed: int, expected: int) -> str:
    lines = ["abelharm check summary", f"suite: {suite}", "", "[checks]"]
    lines.extend(_summary_line(c.name, c) for c in checks)
    lines += ["", "[acceptance]"]
    lines.extend(_summary_line(f"{c.index:2d} {c.name}", c) for c in criteria)
    lines.append("")
    verdict = "PASS" if failed == 0 else "FAIL"
    lines.append(f"result: {verdict} ({len(checks)} checks, {failed} failed, "
                 f"{expected} expected-fail)")
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig) -> ReportBundle:
    """Execute the configured suite(s) and write the report bundle.

    A suite that raises gives one failing check, ``suite_error <suite>``,
    and its traceback on stderr; the other suites still run.  Returns the
    bundle; the caller decides the process exit status from ``bundle.failed``.
    """
    out = config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        _write(probe, "ok")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output_dir {out!r} is not writable: {exc}") from exc

    selected = SUITES if config.suite == "all" else (config.suite,)
    checks: list = []
    tables: dict = {}
    timings: dict = {}
    t_start = time.perf_counter()
    for name in selected:
        t0 = time.perf_counter()
        try:
            suite_checks, suite_tables = _SUITE_FN[name]()
        except Exception as exc:
            traceback.print_exc()
            suite_checks = [CheckResult(f"suite_error {name}", "fail",
                                        detail=f"{type(exc).__name__}: {exc}")]
            suite_tables = {}
        timings[name] = time.perf_counter() - t0
        checks.extend(suite_checks)
        tables.update(suite_tables)
    total = time.perf_counter() - t_start
    timings["total"] = total

    if config.suite == "all":
        # wall time stays out of the summary so reruns match byte for byte;
        # the manifest records it
        checks.append(CheckResult(
            "deterministic_reports", "pass" if total < 300.0 else "fail",
            detail="the run fits the time budget (timing in the manifest); "
                   "cross-run byte identity is exercised by the test suite",
            criterion=15,
        ))

    criteria = _criteria(checks)
    # a criterion fails only through a failing member check, so count checks
    failed = sum(1 for c in checks if c.verdict == "fail")
    expected = sum(1 for c in checks if c.verdict == "expected-fail")
    summary_text = _summary_text(config.suite, checks, criteria, failed, expected)
    summary = {
        "suite": config.suite,
        "result": "PASS" if failed == 0 else "FAIL",
        "failed": failed,
        "expected_fail": expected,
        "checks": [asdict(c) for c in checks],
        "criteria": [asdict(c) for c in criteria],
    }
    manifest = {
        "config": asdict(config),
        "versions": {
            "abelharm": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
    }

    for rel, (header, rows) in tables.items():
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write(path, _render_table(header, rows))
    _write(os.path.join(out, "summary.txt"), summary_text)
    _write(os.path.join(out, "summary.json"), json.dumps(summary, indent=2) + "\n")
    _write(os.path.join(out, "manifest.json"), json.dumps(manifest, indent=2) + "\n")

    return ReportBundle(checks, criteria, tables, summary_text, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abelharm",
        description="Run numerical check suites and write CSV reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a check suite")
    runp.add_argument("--suite", default="all", choices=("all",) + SUITES,
                      help="suite to run (default all)")
    runp.add_argument("--out", default=None,
                      help="output directory (default $ABELHARM_OUT, else reports)")
    args = parser.parse_args(argv)

    try:
        out_dir = args.out if args.out is not None else os.environ.get("ABELHARM_OUT") or "reports"
        bundle = run(ExperimentConfig(args.suite, out_dir))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(bundle.summary_text)
    return 0 if bundle.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
