"""Experiment runner: named check suites with reproducible reports.

Each suite recomputes a group of numerical identities against closed forms
and independent oracles, then writes plot-ready CSV tables plus a pass/fail
summary (text and JSON).  A manifest records the configuration echo and
library versions together with wall-clock timings.  Numeric CSV fields are encoded with
shortest round-trip decimals and every reduction runs in a fixed order, so
re-running a suite with the same configuration reproduces the tables byte
for byte.  Timings live only in the manifest, never in the tables.

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
import warnings
from dataclasses import asdict, dataclass, field

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
    HalfPlaneField,
    cauchy_represent,
    cr_residual,
    evaluate_field,
    evaluate_upper,
    evaluate_lower,
    hardy_split,
    poisson_extend,
)
from .kernels import (
    KernelSpec,
    abel_ft,
    abel_from_gaussians,
    abel_kernel,
    half_kernel_ft,
    poisson_kernel,
    sample_kernel,
)
from .sampled import integrate, convolve, make_grid, radial_integrate, sample_function
from .spectral import (
    SupportSpec,
    abel_regularized_inverse,
    forward_ft,
    inverse_ft,
    sample_spectrum,
)
from .summability import abel_mean_radial, default_schedule, summability_verdict

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CheckResult",
    "CriterionOutcome",
    "ReportBundle",
    "run",
    "dump_field",
    "main",
]

SUITES = ("kernels", "summability", "inversion", "hardy", "growth")

# The named tolerance gates reported in every summary, in fixed order.
CRITERIA = (
    (1, "poisson_normalization"),
    (2, "abel_transform_identity"),
    (3, "half_line_transforms"),
    (4, "gaussian_subordination"),
    (5, "poisson_semigroup"),
    (6, "abel_summation_of_integrable"),
    (7, "regularized_inverse_matches_convolution"),
    (8, "hardy_split_partition"),
    (9, "half_plane_representations_agree"),
    (10, "boundary_continuity"),
    (11, "cauchy_riemann_residual"),
    (12, "growth_bound_conclusion"),
    (13, "envelope_dominates"),
    (14, "type_estimation"),
    (15, "determinism"),
)


class ConfigError(ValueError):
    """Invalid runner configuration; maps to exit status 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Runner configuration.  Defaults reproduce the full check suite.

    ``half_width`` and ``points`` control the grid of the transform
    identity check in the kernels suite; the remaining checks pin their
    own grids because their tolerances were calibrated against them.  The
    schedule fields feed the summability suite.  There is no seed of any
    kind: every computation is deterministic.
    """

    suite: str = "all"
    half_width: float = 40.0
    points: int = 2 ** 14
    schedule_start: float = 0.1
    schedule_ratio: float = 0.5
    schedule_steps: int = 12
    convergence_tol: float = 1e-3
    method: str = "richardson_1"
    output_dir: str = "reports"

    def __post_init__(self):
        if self.suite not in SUITES + ("all",):
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {('all',) + SUITES}")
        if not self.half_width > 0:
            raise ConfigError("half_width must be positive")
        if self.points < 4 or self.points % 2:
            raise ConfigError("points must be even and >= 4")
        if not self.schedule_start > 0:
            raise ConfigError("schedule_start must be positive")
        if not 0 < self.schedule_ratio < 1:
            raise ConfigError("schedule_ratio must lie in (0, 1)")
        if self.schedule_steps < 4:
            raise ConfigError("schedule_steps must be at least 4")
        if not self.convergence_tol > 0:
            raise ConfigError("convergence_tol must be positive")
        if self.method not in ("last_value", "richardson_1"):
            raise ConfigError(f"unknown method {self.method!r}")

    @classmethod
    def from_json(cls, path: str, **overrides) -> "ExperimentConfig":
        """Load a key-value JSON file; unknown keys are configuration errors."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        data.update(overrides)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class CheckResult:
    """One named check: verdict plus the measured value and its gate."""

    name: str
    verdict: str  # pass | fail | expected-fail
    measured: float | None = None
    tolerance: float | None = None
    detail: str = ""


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
    """Everything a run produced, as written to the output directory."""

    suite: str
    checks: list
    criteria: list
    tables: dict  # relative path -> (header tuple, list of row tuples)
    summary_text: str = ""
    summary: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
    output_dir: str = ""
    failed: int = 0


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


def _field_table(fld: HalfPlaneField):
    header = ("x", "y", "re", "im")
    rows = []
    for i, y in enumerate(fld.y_lattice):
        for j, x in enumerate(fld.x_lattice):
            v = fld.values[i, j]
            rows.append((float(x), float(y), float(v.real), float(v.imag)))
    return header, rows


def dump_field(fld: HalfPlaneField, path: str) -> None:
    """Write a half-plane field as plot-ready CSV.

    Columns x,y,re,im; rows run row-major over (y, x).  Floats are encoded
    as shortest round-trip decimals.
    """
    header, rows = _field_table(fld)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_render_table(header, rows))


def _verdict(err: float, tol: float) -> str:
    return "pass" if err <= tol else "fail"


def _g(x: float) -> str:
    return format(float(x), ".6g")


# ---------------------------------------------------------------------------
# suites


def _run_kernels(config: ExperimentConfig):
    checks, tables = [], {}
    criteria = {}

    # normalization of the Poisson kernel in all dimensions
    devs = []
    rows = []
    for n in (1, 2, 3):
        for t in (0.1, 1.0, 10.0):
            val = radial_integrate(lambda r, n=n, t=t: poisson_kernel(n, t, r), n)
            dev = abs(val - 1.0)
            devs.append(dev)
            rows.append((n, t, val, dev))
            checks.append(CheckResult(
                f"poisson_normalization n={n} t={t:g}", _verdict(dev, 1e-6), dev, 1e-6,
                detail="deviation from unit mass",
            ))
    tables["kernels/normalization.csv"] = (("n", "t", "value", "deviation"), rows)
    criteria[1] = CriterionOutcome(
        1, "poisson_normalization", _verdict(max(devs), 1e-6), max(devs), 1e-6,
        detail="n in {1,2,3}, t in {0.1,1,10}, radial quadrature",
    )

    # box-truncated mass against the arctan antiderivative on the line
    grid_box = make_grid(1, 100.0, 2 ** 16)
    oracle_errs = []
    for t in (0.1, 1.0, 10.0):
        lattice_mass = integrate(sample_kernel(grid_box, KernelSpec("poisson", t, 1))).real
        truncated = 1.0 - (2.0 / math.pi) * math.atan(t / grid_box.half_width)
        oracle_errs.append(abs(lattice_mass - truncated))
    checks.append(CheckResult(
        "poisson_truncated_mass_oracle", _verdict(max(oracle_errs), 1e-6),
        max(oracle_errs), 1e-6,
        detail="lattice box mass vs arctan closed form, t in {0.1,1,10}",
    ))

    # transform identity on the configured grid; the kink of the kernel at
    # the origin aliases like (pi/3) * spacing^2, which caps the achievable
    # accuracy independently of any implementation choice
    grid_id = make_grid(1, config.half_width, config.points)
    spec_a1 = sample_kernel(grid_id, KernelSpec("abel", 1.0, 1))
    F = forward_ft(spec_a1)
    xi = F.grid.axis()
    win = np.abs(xi) <= 4.0
    err_id = float(np.max(np.abs(F.values[win] - abel_ft(1, 1.0, xi[win]))))
    floor = (math.pi / 3.0) * grid_id.spacing ** 2
    if err_id <= 1e-6:
        verdict_id = "pass"
        detail_id = "max error over |xi| <= 4"
    elif floor > 1e-6 and err_id <= 3.0 * floor:
        verdict_id = "expected-fail"
        detail_id = (f"kink aliasing floor {_g(floor)} exceeds the gate on this grid "
                     f"and fully explains the error; see the refined-grid check")
    else:
        verdict_id = "fail"
        detail_id = f"error is not explained by the aliasing floor {_g(floor)}"
    checks.append(CheckResult(
        "transform_identity_pinned_grid", verdict_id, err_id, 1e-6, detail_id))
    criteria[2] = CriterionOutcome(
        2, "abel_transform_identity", verdict_id, err_id, 1e-6,
        detail=f"grid R={config.half_width:g} N={config.points}; {detail_id}",
    )
    # about 33 evenly spaced rows across the window (exactly the
    # quarter-integer frequencies on the default grid)
    widx = np.flatnonzero(win)
    widx = widx[:: max(1, len(widx) // 32)]
    tables["kernels/transform_error.csv"] = (
        ("xi", "lattice", "closed_form", "abs_error"),
        [(float(xi[i]), float(abs(F.values[i])), float(abel_ft(1, 1.0, xi[i])),
          float(abs(F.values[i] - abel_ft(1, 1.0, xi[i]))))
         for i in widx],
    )

    # the same identity on a grid fine enough to pass the gate
    grid_fine = make_grid(1, 40.0, 2 ** 17)
    F_fine = forward_ft(sample_kernel(grid_fine, KernelSpec("abel", 1.0, 1)))
    xi_f = F_fine.grid.axis()
    win_f = np.abs(xi_f) <= 4.0
    err_fine = float(np.max(np.abs(F_fine.values[win_f] - abel_ft(1, 1.0, xi_f[win_f]))))
    checks.append(CheckResult(
        "transform_identity_refined_grid", _verdict(err_fine, 1e-6), err_fine, 1e-6,
        detail="same identity, N=2^17: the floor scales away as spacing^-2",
    ))

    # one-sided kernels: lattice transform against the closed forms
    grid_half = make_grid(1, 40.0, 2 ** 20)
    half_errs = {}
    for sign, fam in (("+", "abel_plus"), ("-", "abel_minus")):
        Fh = forward_ft(sample_kernel(grid_half, KernelSpec(fam, 1.0, 1)))
        xih = Fh.grid.axis()
        winh = np.abs(xih) <= 4.0
        err = float(np.max(np.abs(Fh.values[winh] - half_kernel_ft(sign, 1.0, xih[winh]))))
        half_errs[sign] = err
        checks.append(CheckResult(
            f"half_line_transform sign={sign}", _verdict(err, 1e-4), err, 1e-4,
            detail="jump at the origin costs spacing/2 per frequency",
        ))
    xi_dense = np.linspace(-4.0, 4.0, 1601)
    conj_err = float(np.max(np.abs(
        half_kernel_ft("-", 1.0, xi_dense) - np.conjugate(half_kernel_ft("+", 1.0, xi_dense)))))
    sum_err = float(np.max(np.abs(
        half_kernel_ft("+", 1.0, xi_dense) + half_kernel_ft("-", 1.0, xi_dense)
        - abel_ft(1, 1.0, xi_dense))))
    checks.append(CheckResult(
        "half_line_conjugacy_identity", _verdict(conj_err, 1e-12), conj_err, 1e-12))
    checks.append(CheckResult(
        "half_line_sum_identity", _verdict(sum_err, 1e-12), sum_err, 1e-12,
        detail="the two closed forms sum to the Poisson kernel",
    ))
    crit3_err = max(half_errs.values())
    crit3_ok = crit3_err <= 1e-4 and conj_err <= 1e-12 and sum_err <= 1e-12
    criteria[3] = CriterionOutcome(
        3, "half_line_transforms", "pass" if crit3_ok else "fail", crit3_err, 1e-4,
        detail=f"lattice vs closed form on |xi| <= 4; identities at {_g(max(conj_err, sum_err))}",
    )

    # the Abel kernel as an average of Gaussians
    xs_sub = np.linspace(-3.0, 3.0, 201)
    sub_errs = []
    sub_rows = []
    for t in (0.5, 1.0, 2.0):
        approx = abel_from_gaussians(t, xs_sub)
        err = float(np.max(np.abs(approx - abel_kernel(t, xs_sub))))
        sub_errs.append(err)
        sub_rows.append((t, err))
        checks.append(CheckResult(
            f"gaussian_subordination t={t:g}", _verdict(err, 1e-8), err, 1e-8))
    tables["kernels/subordination.csv"] = (("t", "max_abs_error"), sub_rows)
    criteria[4] = CriterionOutcome(
        4, "gaussian_subordination", _verdict(max(sub_errs), 1e-8), max(sub_errs), 1e-8,
        detail="201 points in [-3,3], t in {0.5,1,2}",
    )

    # semigroup under convolution
    grid_semi = make_grid(1, 200.0, 2 ** 16)
    p1 = sample_kernel(grid_semi, KernelSpec("poisson", 1.0, 1))
    conv = convolve(p1, p1)
    x_semi = grid_semi.axis()
    win_s = np.abs(x_semi) <= 10.0
    target = poisson_kernel(1, 2.0, x_semi[win_s])
    rel = np.abs(conv.values[win_s] - target) / target
    err_semi = float(np.max(rel))
    checks.append(CheckResult(
        "poisson_semigroup", _verdict(err_semi, 1e-4), err_semi, 1e-4,
        detail="P_1 * P_1 vs P_2, relative on |x| <= 10",
    ))
    criteria[5] = CriterionOutcome(
        5, "poisson_semigroup", _verdict(err_semi, 1e-4), err_semi, 1e-4,
        detail="grid R=200 N=2^16, zero-padded transform convolution",
    )
    step = max(1, int(round(0.25 / grid_semi.spacing)))
    idx = np.flatnonzero(win_s)[::step]
    tables["kernels/semigroup.csv"] = (
        ("x", "convolved", "closed_form", "rel_error"),
        [(float(x_semi[i]), float(conv.values[i].real), float(poisson_kernel(1, 2.0, x_semi[i])),
          float(abs(conv.values[i] - poisson_kernel(1, 2.0, x_semi[i])) / poisson_kernel(1, 2.0, x_semi[i])))
         for i in idx],
    )

    return checks, criteria, tables


def _run_summability(config: ExperimentConfig):
    checks, tables = [], {}
    criteria = {}
    grid = make_grid(1, 2000.0, 400000)
    witnesses = [
        ("gauss", sample_function(grid, lambda x: np.exp(-math.pi * x * x))),
        ("poisson", sample_kernel(grid, KernelSpec("poisson", 1.0, 1))),
        ("abel", sample_function(grid, lambda x: np.exp(-2.0 * math.pi * np.abs(x)))),
    ]
    schedule = default_schedule(
        config.schedule_start, config.schedule_ratio, config.schedule_steps,
        config.convergence_tol, config.method,
    )
    mean_rows, limit_rows = [], []
    limit_errs, agree_errs = [], []
    all_converged = True
    for name, h in witnesses:
        reference = integrate(h).real
        rep_a = summability_verdict(h, "abel", schedule)
        rep_g = summability_verdict(h, "gauss", schedule)
        for kind, rep in (("abel", rep_a), ("gauss", rep_g)):
            for t, m in zip(schedule.t_values, rep.means):
                mean_rows.append((name, kind, t, m.real, m.imag))
            err = abs(rep.limit_estimate - reference)
            limit_rows.append((name, kind, rep.limit_estimate.real, rep.residual,
                               rep.converged, reference, err))
            all_converged = all_converged and rep.converged
        limit_errs.append(abs(rep_a.limit_estimate - reference))
        agree = abs(rep_a.limit_estimate - rep_g.limit_estimate)
        agree_errs.append(agree)
        checks.append(CheckResult(
            f"abel_limit witness={name}", _verdict(limit_errs[-1], 1e-3),
            limit_errs[-1], 1e-3,
            detail=f"limit vs box integral {_g(reference)}; residual {_g(rep_a.residual)}",
        ))
        checks.append(CheckResult(
            f"abel_gauss_agreement witness={name}", _verdict(agree, 2e-3), agree, 2e-3))
    tables["summability/means.csv"] = (
        ("witness", "kind", "t", "re_mean", "im_mean"), mean_rows)
    tables["summability/limits.csv"] = (
        ("witness", "kind", "limit", "residual", "converged", "reference", "abs_error"),
        limit_rows)

    crit_ok = (max(limit_errs) <= 1e-3 and max(agree_errs) <= 2e-3 and all_converged)
    criteria[6] = CriterionOutcome(
        6, "abel_summation_of_integrable", "pass" if crit_ok else "fail",
        max(limit_errs), 1e-3,
        detail=f"worst limit error; worst family disagreement {_g(max(agree_errs))} vs 0.002",
    )

    # radial route in higher dimensions: damped means of the unit-mass
    # Poisson kernel extrapolate to 1
    radial_rows = []
    for n in (2, 3):
        means = [abel_mean_radial(lambda r, n=n: poisson_kernel(n, 1.0, r), n, t)
                 for t in schedule.t_values]
        r = schedule.t_values[-1] / schedule.t_values[-2]
        extrap = (means[-1] - r * means[-2]) / (1.0 - r)
        err = abs(extrap - 1.0)
        radial_rows.append((n, extrap, err))
        checks.append(CheckResult(
            f"abel_sum_radial n={n}", _verdict(err, 1e-3), err, 1e-3,
            detail="extrapolated damped means of the unit-mass kernel",
        ))
    tables["summability/radial.csv"] = (("n", "limit", "abs_error"), radial_rows)
    return checks, criteria, tables


def _run_inversion(config: ExperimentConfig):
    checks, tables = [], {}
    criteria = {}

    # round trip on a smooth witness
    grid_rt = make_grid(1, 8.0, 4096)
    f_rt = sample_function(grid_rt, lambda x: np.exp(-math.pi * x * x))
    rt_err = float(np.max(np.abs(inverse_ft(forward_ft(f_rt)).values - f_rt.values)))
    checks.append(CheckResult(
        "transform_round_trip", _verdict(rt_err, 1e-8), rt_err, 1e-8))

    # closed-form inverse: two-sided exponential spectrum comes back as the
    # Poisson kernel
    grid_inv = make_grid(1, 1000.0, 2 ** 14)
    two_sided = sample_spectrum(
        grid_inv.reciprocal(),
        lambda xi: np.exp(-2.0 * math.pi * np.abs(xi)),
        SupportSpec.full_line(),
    )
    back = inverse_ft(two_sided)
    xb = back.grid.axis()
    inv_err = float(np.max(np.abs(back.values - poisson_kernel(1, 1.0, xb))))
    checks.append(CheckResult(
        "inverse_closed_form_poisson", _verdict(inv_err, 1e-6), inv_err, 1e-6,
        detail="periodization alias controls the error; box chosen accordingly",
    ))

    # damped inversion against direct convolution, two independent paths
    grid7 = make_grid(1, 128.0, 81920)
    f7 = sample_function(grid7, lambda x: np.exp(-math.pi * x * x))
    F7 = forward_ft(f7)
    xq = np.linspace(-2.0, 2.0, 11)
    iq = np.round((xq + grid7.half_width) / grid7.spacing).astype(int)
    rows = []
    worst = 0.0
    for t in (0.2, 0.1, 0.05):
        pt = sample_kernel(grid7, KernelSpec("poisson", t, 1))
        conv = convolve(pt, f7)
        reg = abel_regularized_inverse(F7, t, xq)
        diffs = np.abs(reg - conv.values[iq])
        worst = max(worst, float(np.max(diffs)))
        for x, r, c, d in zip(xq, reg, conv.values[iq], diffs):
            rows.append((t, float(x), r.real, r.imag, c.real, c.imag, float(d)))
    tables["inversion/regularized.csv"] = (
        ("t", "x", "re_regularized", "im_regularized", "re_convolution",
         "im_convolution", "abs_difference"), rows)
    checks.append(CheckResult(
        "regularized_matches_convolution", _verdict(worst, 1e-5), worst, 1e-5,
        detail="t in {0.2,0.1,0.05}, 11 points in [-2,2]",
    ))
    criteria[7] = CriterionOutcome(
        7, "regularized_inverse_matches_convolution", _verdict(worst, 1e-5), worst, 1e-5,
        detail="damped inverse vs Poisson convolution, two independent quadratures",
    )

    # attenuation of the damped inverse toward the point value
    att_rows = []
    errs = []
    for t in (0.2, 0.1, 0.05, 0.025):
        val = abel_regularized_inverse(F7, t, 0.0)
        err = abs(val - 1.0)
        errs.append(err)
        att_rows.append((t, val.real, err))
    tables["inversion/attenuation.csv"] = (("t", "value_at_origin", "error_to_limit"), att_rows)
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    att_ok = decreasing and errs[-1] <= 5e-2
    checks.append(CheckResult(
        "regularized_inverse_attenuation", "pass" if att_ok else "fail",
        errs[-1], 5e-2,
        detail="error halves with t (first-order damping); monotone decrease required",
    ))
    return checks, criteria, tables


def _run_hardy(config: ExperimentConfig):
    checks, tables = [], {}
    criteria = {}

    # partition on a small grid: the split is exact linear algebra, so any
    # adequate grid demonstrates it
    grid_s = make_grid(1, 40.0, 2 ** 14)
    partition_errs = []
    split_rows = []
    for name, func in (
        ("gauss", lambda x: np.exp(-math.pi * x * x)),
        ("poisson", lambda x: poisson_kernel(1, 1.0, x)),
        ("abel", lambda x: np.exp(-2.0 * math.pi * np.abs(x))),
    ):
        f = sample_function(grid_s, func, decay_tag="integrable" if name == "poisson" else "schwartz-like")
        plus, minus = hardy_split(f)
        recon = inverse_ft(plus).values + inverse_ft(minus).values
        err = float(np.max(np.abs(recon - f.values)))
        partition_errs.append(err)
        split_rows.append((name,
                           float(np.sum(np.abs(plus.values)) * plus.grid.spacing),
                           float(np.sum(np.abs(minus.values)) * minus.grid.spacing),
                           err))
        checks.append(CheckResult(
            f"hardy_partition witness={name}", _verdict(err, 1e-8), err, 1e-8))
    tables["hardy/partition.csv"] = (
        ("witness", "plus_mass", "minus_mass", "reassembly_error"), split_rows)
    criteria[8] = CriterionOutcome(
        8, "hardy_split_partition", _verdict(max(partition_errs), 1e-8),
        max(partition_errs), 1e-8,
        detail="reassembly after the exact spectral partition; round-trip error only",
    )

    # the big shared grid: spacing 1/16 in space, 2^-17 in frequency
    space = make_grid(1, 65536.0, 2 ** 21)
    freq = space.reciprocal()
    w_exp = sample_spectrum(freq, lambda xi: np.exp(-2.0 * math.pi * xi), SupportSpec.nonneg())
    f_exp = inverse_ft(w_exp)
    p1 = sample_kernel(space, KernelSpec("poisson", 1.0, 1))
    w_pois, _ = hardy_split(p1)
    f_pois = inverse_ft(w_pois)
    g0 = sample_function(space, lambda x: np.exp(-math.pi * x * x))
    w_gauss, _ = hardy_split(g0)
    f_gauss = inverse_ft(w_gauss)

    # three representations of the same extension
    agree_rows = []
    worst_agree = 0.0
    xq = np.linspace(-2.0, 2.0, 25)
    for name, F, f_space in (
        ("exp_halfline", w_exp, f_exp),
        ("poisson_plus", w_pois, f_pois),
        ("gauss_plus", w_gauss, f_gauss),
    ):
        witness_worst = 0.0
        for t in (0.25, 0.5, 1.0):
            es = evaluate_upper(F, xq + 1j * t)
            ea = abel_regularized_inverse(F, t, xq)
            ec = cauchy_represent(f_space, "upper", t, xq)
            d_sa = np.abs(es - ea)
            d_sc = np.abs(es - ec)
            d_ac = np.abs(ea - ec)
            witness_worst = max(witness_worst, float(np.max([d_sa.max(), d_sc.max(), d_ac.max()])))
            for k, x in enumerate(xq):
                agree_rows.append((name, t, float(x), float(d_sa[k]), float(d_sc[k]), float(d_ac[k])))
        worst_agree = max(worst_agree, witness_worst)
        checks.append(CheckResult(
            f"representation_agreement witness={name}", _verdict(witness_worst, 1e-5),
            witness_worst, 1e-5,
            detail="spectral vs damped-inverse vs Cauchy convolution, pairwise",
        ))
    tables["hardy/agreement.csv"] = (
        ("witness", "t", "x", "spectral_vs_damped", "spectral_vs_cauchy", "damped_vs_cauchy"),
        agree_rows)
    criteria[9] = CriterionOutcome(
        9, "half_plane_representations_agree", _verdict(worst_agree, 1e-5),
        worst_agree, 1e-5,
        detail="25 points in [-2,2] per t in {0.25,0.5,1}, three witnesses",
    )

    # approach to the boundary; witnesses with exponential-type spectra
    bound_rows = []
    crit10_ok = True
    final_sups = []
    xb = np.linspace(-2.0, 2.0, 81)
    for name, F in (("exp_halfline", w_exp), ("poisson_plus", w_pois)):
        base = evaluate_upper(F, xb)
        sups = []
        for t in (0.2, 0.1, 0.05, 0.025):
            sup = float(np.max(np.abs(evaluate_upper(F, xb + 1j * t) - base)))
            sups.append(sup)
            bound_rows.append((name, t, sup))
        nonincreasing = all(b <= a for a, b in zip(sups, sups[1:]))
        ok = nonincreasing and sups[-1] <= 1e-2
        crit10_ok = crit10_ok and ok
        final_sups.append(sups[-1])
        checks.append(CheckResult(
            f"boundary_continuity witness={name}", "pass" if ok else "fail",
            sups[-1], 1e-2,
            detail="sup over |x|<=2 of |f(x+it)-f(x)|, nonincreasing in t",
        ))
    tables["hardy/boundary.csv"] = (("witness", "t", "sup_difference"), bound_rows)
    criteria[10] = CriterionOutcome(
        10, "boundary_continuity", "pass" if crit10_ok else "fail",
        max(final_sups), 1e-2,
        detail="final sup at t=0.025; monotone approach required",
    )

    # holomorphy certificate and its power
    r_coarse = cr_residual(w_exp, 1j, 1e-3)
    r_fine = cr_residual(w_exp, 1j, 5e-4)
    ratio = r_coarse / r_fine if r_fine > 0 else math.inf
    anti = cr_residual(w_exp, 1j, 1e-3,
                       evaluator=lambda w: evaluate_upper(w_exp, w).conjugate())
    checks.append(CheckResult(
        "cr_residual_holomorphic", _verdict(r_coarse, 1e-5), r_coarse, 1e-5,
        detail="central differences at z=i, step 1e-3",
    ))
    checks.append(CheckResult(
        "cr_residual_step_scaling", "pass" if ratio >= 3.0 else "fail", ratio, 3.0,
        detail="halving the step must cut the residual at least 3x (second order)",
    ))
    checks.append(CheckResult(
        "cr_residual_detects_antiholomorphic", "pass" if anti >= 1e-2 else "fail",
        anti, 1e-2,
        detail="conjugated field must light up the detector",
    ))
    crit11_ok = r_coarse <= 1e-5 and ratio >= 3.0 and anti >= 1e-2
    criteria[11] = CriterionOutcome(
        11, "cauchy_riemann_residual", "pass" if crit11_ok else "fail", r_coarse, 1e-5,
        detail=f"step scaling {_g(ratio)}x, conjugate witness residual {_g(anti)}",
    )
    tables["hardy/cr_residual.csv"] = (
        ("case", "h", "residual"),
        [("holomorphic", 1e-3, r_coarse), ("holomorphic", 5e-4, r_fine),
         ("conjugated", 1e-3, anti)],
    )

    # mirror side
    w_exp_low = sample_spectrum(freq, lambda xi: np.exp(2.0 * math.pi * xi), SupportSpec.nonpos())
    mirror = evaluate_lower(w_exp_low, -1j)
    mirror_err = abs(mirror - 1.0 / (4.0 * math.pi))
    checks.append(CheckResult(
        "lower_half_plane_mirror", _verdict(mirror_err, 1e-8), mirror_err, 1e-8,
        detail="reflected exponential spectrum evaluated at -i",
    ))

    # harmonic extension: convolution path vs damped spectral path
    F_p1 = forward_ft(p1)
    ext = poisson_extend(p1, 0.5)
    x_ext = np.linspace(-2.0, 2.0, 65)
    ix = np.round((x_ext + space.half_width) / space.spacing).astype(int)
    damped = abel_regularized_inverse(F_p1, 0.5, x_ext)
    ext_err = float(np.max(np.abs(ext.values[ix] - damped)))
    checks.append(CheckResult(
        "poisson_extension_agrees", _verdict(ext_err, 1e-5), ext_err, 1e-5,
        detail="convolution extension vs damped inversion at height 0.5",
    ))
    tables["hardy/extension.csv"] = (
        ("x", "convolution", "damped_inverse", "closed_form", "path_difference"),
        [(float(x), float(ext.values[i].real), float(damped[k].real),
          float(poisson_kernel(1, 1.5, x)), float(abs(ext.values[i] - damped[k])))
         for k, (x, i) in enumerate(zip(x_ext, ix))],
    )

    # plot-ready field sample
    fld = evaluate_field(w_exp, np.linspace(-2.0, 2.0, 17), np.array([0.25, 0.5, 1.0]))
    tables["hardy/field_upper.csv"] = _field_table(fld)

    return checks, criteria, tables


def _run_growth(config: ExperimentConfig):
    checks, tables = [], {}
    criteria = {}
    fgrid = make_grid(1, 2.0, 2048)
    spectra = [
        ("flat_full", sample_spectrum(fgrid, lambda xi: np.ones_like(xi), SupportSpec.interval(-1.0, 1.0))),
        ("flat_half", sample_spectrum(fgrid, lambda xi: np.ones_like(xi), SupportSpec.interval(0.0, 0.5))),
        ("tent", sample_spectrum(fgrid, lambda xi: 1.0 - np.abs(xi), SupportSpec.interval(-1.0, 1.0))),
    ]
    xs = np.linspace(-5.0, 5.0, 21)
    ys = np.linspace(-3.0, 3.0, 13)

    # the growth bound at the declared type, and its rejection of half the type
    full = spectra[0][1]
    rep = check_pl_bound(full, 2.0 * math.pi, "measured", (xs, ys), tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep_half = check_pl_bound(full, math.pi, "measured", (xs, ys), tol=1e-6)
    spot_f = abs(evaluate_entire(full, 1j))
    spot_f_true = math.sinh(2.0 * math.pi) / math.pi
    spot_env = envelope_bound(full, 1.0)
    spot_env_true = 2.0 * math.exp(2.0 * math.pi)
    rel_f = abs(spot_f - spot_f_true) / spot_f_true
    rel_env = abs(spot_env - spot_env_true) / spot_env_true
    spot_worst = max(rel_f, rel_env)
    checks.append(CheckResult(
        "growth_bound_at_type", "pass" if rep.passed else "fail",
        rep.max_margin_violation, 1e-6,
        detail=f"measured real-axis bound {_g(rep.B)}; empirical type {_g(rep.sigma_estimate)}",
    ))
    checks.append(CheckResult(
        "growth_bound_rejects_half_type", "pass" if not rep_half.passed else "fail",
        rep_half.max_margin_violation, 1e-6,
        detail="understated type must be caught (violation far above the gate)",
    ))
    checks.append(CheckResult(
        "spot_value_imaginary_unit", _verdict(rel_f, 1e-4), rel_f, 1e-4,
        detail=f"|f(i)| vs sinh(2 pi)/pi = {_g(spot_f_true)}",
    ))
    checks.append(CheckResult(
        "spot_envelope_height_one", _verdict(rel_env, 1e-4), rel_env, 1e-4,
        detail=f"envelope at height 1 vs 2 exp(2 pi) = {_g(spot_env_true)}",
    ))
    crit12_ok = rep.passed and not rep_half.passed and spot_worst <= 1e-4
    criteria[12] = CriterionOutcome(
        12, "growth_bound_conclusion", "pass" if crit12_ok else "fail",
        spot_worst, 1e-4,
        detail=(f"bound holds at the type, fails at half (violation {_g(rep_half.max_margin_violation)}); "
                f"spot values within the gate"),
    )
    tables["growth/pl_bound.csv"] = (
        ("support", "sigma", "B", "max_margin_violation", "passed", "sigma_estimate"),
        [("flat_full", rep.sigma, rep.B, rep.max_margin_violation, rep.passed, rep.sigma_estimate),
         ("flat_full", rep_half.sigma, rep_half.B, rep_half.max_margin_violation,
          rep_half.passed, rep_half.sigma_estimate)],
    )

    # envelope domination on the whole lattice, per spectrum
    worst_margin = -math.inf
    for label, F in spectra:
        rows = []
        label_worst = -math.inf
        for y in ys:
            env = envelope_bound(F, float(y))
            vals = np.abs(evaluate_entire(F, xs + 1j * y))
            for x, v in zip(xs, vals):
                margin = float(v / env) - 1.0
                label_worst = max(label_worst, margin)
                rows.append((float(x), float(y), float(v), env, margin))
        tables[f"growth/lattice_{label}.csv"] = (("x", "y", "abs_f", "envelope", "margin"), rows)
        worst_margin = max(worst_margin, label_worst)
        checks.append(CheckResult(
            f"envelope_dominates support={label}", _verdict(label_worst, 1e-8),
            label_worst, 1e-8,
            detail="max of |f|/envelope - 1 over the lattice",
        ))
    criteria[13] = CriterionOutcome(
        13, "envelope_dominates", _verdict(worst_margin, 1e-8), worst_margin, 1e-8,
        detail="all spectra, 21 x 13 lattice on |x|<=5, |y|<=3",
    )

    # empirical type
    type_rows = []
    type_errs = []
    for label, F, true_type in (
        ("flat_full", spectra[0][1], 2.0 * math.pi),
        ("flat_half", spectra[1][1], math.pi),
    ):
        est = estimate_type(F, (2.0, 3.0, 4.0, 5.0))
        err = abs(est - true_type)
        type_errs.append(err)
        type_rows.append((label, est, true_type, err))
        checks.append(CheckResult(
            f"type_estimate support={label}", _verdict(err, 0.3), err, 0.3,
            detail=f"fitted {_g(est)} vs spectral type {_g(true_type)}",
        ))
    tables["growth/type.csv"] = (("support", "estimate", "true_type", "abs_error"), type_rows)
    criteria[14] = CriterionOutcome(
        14, "type_estimation", _verdict(max(type_errs), 0.3), max(type_errs), 0.3,
        detail="imaginary-axis fit with heights {2,3,4,5}",
    )

    # supporting checks: the measured bound is stable in the window, and a
    # point-like spectrum has nearly zero type
    b25 = measure_real_bound(full, window=25.0)
    b50 = measure_real_bound(full, window=50.0)
    stab = abs(b50 - b25)
    checks.append(CheckResult(
        "real_bound_stabilizes", _verdict(stab, 1e-9), stab, 1e-9,
        detail="doubling the measurement window must not move the bound",
    ))
    point = sample_spectrum(fgrid, lambda xi: np.ones_like(xi), SupportSpec.interval(0.0, 0.0))
    est0 = abs(estimate_type(point, (2.0, 3.0, 4.0, 5.0)))
    checks.append(CheckResult(
        "point_spectrum_type_near_zero", _verdict(est0, 1e-2), est0, 1e-2,
        detail="single-cell spectrum is nearly constant",
    ))
    return checks, criteria, tables


_SUITE_FN = {
    "kernels": _run_kernels,
    "summability": _run_summability,
    "inversion": _run_inversion,
    "hardy": _run_hardy,
    "growth": _run_growth,
}


# ---------------------------------------------------------------------------
# assembly


def _summary_text(suite: str, checks, criteria, failed: int, expected: int) -> str:
    lines = [f"abelharm check summary", f"suite: {suite}", ""]
    lines.append("[checks]")
    for c in checks:
        part = f"{c.name}: {c.verdict}"
        bits = []
        if c.measured is not None and c.tolerance is not None:
            bits.append(f"measured {_g(c.measured)} vs tol {_g(c.tolerance)}")
        if c.detail:
            bits.append(c.detail)
        if bits:
            part += f" ({'; '.join(bits)})"
        lines.append(part)
    lines.append("")
    lines.append("[acceptance]")
    for c in criteria:
        part = f"{c.index:2d} {c.name}: {c.verdict}"
        bits = []
        if c.measured is not None and c.tolerance is not None:
            bits.append(f"measured {_g(c.measured)} vs tol {_g(c.tolerance)}")
        if c.detail:
            bits.append(c.detail)
        if bits:
            part += f" ({'; '.join(bits)})"
        lines.append(part)
    lines.append("")
    verdict = "PASS" if failed == 0 else "FAIL"
    lines.append(
        f"result: {verdict} ({len(checks)} checks, {failed} failed, "
        f"{expected} expected-fail)"
    )
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig) -> ReportBundle:
    """Execute the configured suite(s) and write the report bundle.

    Returns the bundle; the caller decides the process exit status from
    ``bundle.failed``.
    """
    out = config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output_dir {out!r} is not writable: {exc}") from exc

    selected = SUITES if config.suite == "all" else (config.suite,)
    checks: list = []
    crit_map: dict = {}
    tables: dict = {}
    timings: dict = {}
    t_start = time.perf_counter()
    for name in selected:
        t0 = time.perf_counter()
        suite_checks, suite_criteria, suite_tables = _SUITE_FN[name](config)
        timings[name] = time.perf_counter() - t0
        checks.extend(suite_checks)
        crit_map.update(suite_criteria)
        tables.update(suite_tables)
    total = time.perf_counter() - t_start
    timings["total"] = total

    if config.suite == "all":
        rendered_once = {path: _render_table(h, r) for path, (h, r) in tables.items()}
        rendered_twice = {path: _render_table(h, r) for path, (h, r) in tables.items()}
        stable = rendered_once == rendered_twice
        fast_enough = total < 300.0
        verdict15 = "pass" if (stable and fast_enough) else "fail"
        # wall time stays out of the summary so reruns match byte for byte;
        # the manifest records it
        checks.append(CheckResult(
            "deterministic_reports", verdict15,
            detail="tables re-serialize identically and the run fits the time "
                   "budget (timing in the manifest); cross-run byte identity "
                   "is exercised by the test suite",
        ))
        crit_map[15] = CriterionOutcome(
            15, "determinism", verdict15,
            detail=f"re-serialization byte-identical: {str(stable).lower()}; "
                   f"wall time within budget: {str(fast_enough).lower()}",
        )

    criteria = []
    for index, slug in CRITERIA:
        criteria.append(crit_map.get(index, CriterionOutcome(index, slug, "not-run")))

    failed = sum(1 for c in checks if c.verdict == "fail")
    failed += sum(1 for c in criteria if c.verdict == "fail")
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
            "scipy": __import__("scipy").__version__,
        },
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
        "checks_total": len(checks),
        "checks_failed": failed,
        "expected_fail": expected,
    }

    for rel, (header, rows) in tables.items():
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_render_table(header, rows))
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_text)
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    return ReportBundle(
        suite=config.suite,
        checks=checks,
        criteria=criteria,
        tables=tables,
        summary_text=summary_text,
        summary=summary,
        manifest=manifest,
        output_dir=out,
        failed=failed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abelharm",
        description="Run numerical check suites and write CSV reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a check suite")
    runp.add_argument("--suite", default=None, choices=("all",) + SUITES,
                      help="suite to run (overrides config; default all)")
    runp.add_argument("--config", default=None, help="JSON config file")
    runp.add_argument("--out", default=None,
                      help="output directory (overrides config and ABELHARM_OUT)")
    args = parser.parse_args(argv)

    try:
        # precedence: flag > config file > default, for every key
        overrides = {"suite": args.suite} if args.suite else {}
        out_dir = args.out or os.environ.get("ABELHARM_OUT")
        if out_dir:
            overrides["output_dir"] = out_dir
        if args.config:
            config = ExperimentConfig.from_json(args.config, **overrides)
        else:
            config = ExperimentConfig(**overrides)
        bundle = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(bundle.summary_text)
    return 0 if bundle.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
