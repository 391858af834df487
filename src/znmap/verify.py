"""Named verification checks and the report they roll up into.

Each check function holds its criterion whole: it takes its measurement
and applies its pass rule itself, and returns a CheckResult with its
parameters, the measured statistic, the tolerance it was held to, and the
pass flag.  ``run_suite`` executes a list of checks (default: all twelve)
and assembles a VerificationReport; the CLI serializes that report as JSON
and the acceptance tests assert each check individually.  On Linux the
checks run on one process per available CPU (the caller and forked
workers), elsewhere in the calling process; the report's order and bytes
do not depend on which process ran a check.
"""

import math
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_EPS_IN, K_DEFAULT, TOOL_VERSION, analysis
from .analysis import (
    DEFAULT_SEED,
    _NEWTON_TOL,
    _cubic_weight,
    _max_residual,
    classify_batch,
    continue_periodic,
    equivariance_residual,
    find_periodic,
    seeded_points,
    spectral_scan,
)
from .maps import (_LIBM, TWO_PI, MapSpec, default_profile, eval_map,
                   eval_points, from_polar, jac_map, orbit_radius, ray_image_radius)
from .topology import basin_raster, estimate_rotation, image_curve, transversality_det


@dataclass
class CheckResult:
    name: str
    params: dict
    statistic: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    tool: str
    seed: int
    spec: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        # numpy scalars can leak into statistics/flags; coerce for json
        return {
            "tool": self.tool,
            "seed": int(self.seed),
            "spec": self.spec,
            "checks": [
                {
                    "name": c.name,
                    "params": c.params,
                    "statistic": float(c.statistic),
                    "tolerance": float(c.tolerance),
                    "pass": bool(c.passed),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "pass": bool(self.passed),
        }


def _p_scale(k: float) -> float:
    """P(k)/P(K_DEFAULT), P = maps.orbit_radius: the factor by which checks tuned
    at K_DEFAULT scale their radii and tolerances; exactly 1.0 at K_DEFAULT."""
    return orbit_radius(k) / orbit_radius(K_DEFAULT)


def check_equivariance(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Order-n symmetry of the transplanted family, n = 2..8, 10^4 seeded
    points |p| <= 10."""
    tol = 1e-12
    samples = 10_000
    # equivariance_residual(normalized=True) for each n, the points, their
    # weights and their chart computed once
    px, py = seeded_points(samples, 10.0, seed).T
    weight = _cubic_weight(px, py)
    polar = _LIBM.hypot(px, py), _LIBM.angle(py, px)
    worst = max(_max_residual(MapSpec("fn", k=k, n=n), n, px, py, weight, polar)
                for n in range(2, 9))
    return CheckResult("equivariance", {"k": k, "n": "2..8", "samples": samples,
                                        "radius": 10.0},
                       worst, tol, worst <= tol,
                       "max residual |f(Rp)-Rf(p)|/(1+|p|^3) over all n")


def check_periodic_orbit(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Newton from (3.0, 0.1)*P(k)/P(1.1) with q = n recovers P(k) =
    ((k-1)^(-1/2), 0) to 1e-10*P(k)/P(1.1), a saddle with multipliers
    ((3k-2)/k)^n (to 1e-10 relative) and 0 (below 1e-12).  The guess and
    the position tolerance scale with P so that both hold for every valid
    k; at k = 1.1 they are exactly (3.0, 0.1) and 1e-10."""
    scale = _p_scale(k)
    guess = (3.0 * scale, 0.1 * scale)
    tol = 1e-10 * scale
    worst_pos = 0.0
    worst_gap = math.inf
    ok = True
    lines = []
    for n in range(2, 9):
        spec = MapSpec("fn", k=k, n=n)
        orb = find_periodic(spec, guess, n)
        pos_err = math.hypot(orb.point[0] - orbit_radius(k), orb.point[1])
        gap = min(abs(abs(m) - 1.0) for m in orb.multipliers)
        small, big = sorted(abs(m) for m in orb.multipliers)
        unstable = ((3.0 * k - 2.0) / k) ** n
        worst_pos = max(worst_pos, pos_err)
        worst_gap = min(worst_gap, gap)
        ok = (ok and orb.minimal and pos_err <= tol and gap > 1e-6
              and abs(big - unstable) <= 1e-10 * unstable and small < 1e-12)
        lines.append(f"n={n}: |p-P|={pos_err:.2e} minimal={orb.minimal} "
                     f"min||mu|-1|={gap:.2e}")
    return CheckResult("periodic-orbit", {"k": k, "n": "2..8", "guess": list(guess),
                                          "newton_tol": _NEWTON_TOL},
                       worst_pos, tol, ok, "; ".join(lines))


def check_local_attractor(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Zero derivative at the origin; small starts all fall into the origin
    (classify_batch, which retires them in the contracting disk)."""
    worst_entry = 0.0
    for spec in [MapSpec("fn", k=k, n=n) for n in range(2, 9)] + [MapSpec("f4", k=k)]:
        worst_entry = max(worst_entry, float(np.abs(jac_map(spec, (0.0, 0.0))).max()))
    all_converged = True
    pts = seeded_points(1000, 0.9, seed)
    for n in (2, 4, 5, 8):
        spec = MapSpec("fn", k=k, n=n)
        kinds = classify_batch(spec, pts[:, 0], pts[:, 1], budget=200)[0]
        all_converged = all_converged and bool((kinds == 1).all())
    ok = worst_entry <= 1e-14 and all_converged
    return CheckResult("local-attractor", {"k": k, "starts": 1000, "radius": 0.9,
                                           "budget": 200, "eps_in": DEFAULT_EPS_IN},
                       worst_entry, 1e-14, ok,
                       f"all starts converged: {all_converged}")


def check_eigenvalue_bound(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Jacobian spectrum of the base map stays below k*sqrt(3)/2; exactly
    zero on the coordinate axes."""
    bound = k * math.sqrt(3.0) / 2.0
    spec = MapSpec("f4", k=k)
    scan = spectral_scan(spec, (-20.0, 20.0, -20.0, 20.0), 1000)
    # each axis as a degenerate 1000 x 2 grid
    axis_worst = max(spectral_scan(spec, (-20.0, 20.0, 0.0, 0.0), (1000, 2)).max_modulus,
                     spectral_scan(spec, (0.0, 0.0, -20.0, 20.0), (2, 1000)).max_modulus)
    ok = scan.max_modulus < bound and axis_worst <= 1e-14
    return CheckResult("eigenvalue-bound", {"k": k, "grid": 1000,
                                            "region": [-20, 20, -20, 20]},
                       scan.max_modulus, bound, ok,
                       f"grid max {scan.max_modulus:.6f} at {scan.argmax}; "
                       f"axis max {axis_worst:.2e}")


_UNFOLDING_GRID = 300


@dataclass
class UnfoldingRow:
    beta: float
    max_modulus: float
    argmax: tuple
    residual: float


@dataclass
class UnfoldingScan:
    rows: list
    boundary_ok: bool


def scan_unfolding(k: float = K_DEFAULT) -> UnfoldingScan:
    """Measurements behind the unfolding check.

    For beta = 0.01..0.1 (ten values) one row of the rotational deformation
    g4 = f4 + beta*(-y, x): the max of the Jacobian eigenvalue modulus on
    the 300 x 300 grid over [-20, 20]^2, where it sits, and the residual of
    the period-4 orbit continued from P through the previous beta
    (analysis.continue_periodic, as ``znmap unfold-scan`` continues it).
    ``boundary_ok`` says that the Jacobian at the origin is
    [[alpha, -beta], [beta, alpha]] and that the origin is stable exactly
    inside alpha^2 + beta^2 = 1, at probes on both sides of the circle.
    """
    specs = [MapSpec("g4", k=k, beta=float(beta)) for beta in np.linspace(0.01, 0.1, 10)]
    rows = []
    for spec, orb in zip(specs, continue_periodic(specs, (orbit_radius(k), 0.0), 4)):
        scan = spectral_scan(spec, (-20.0, 20.0, -20.0, 20.0), _UNFOLDING_GRID)
        rows.append(UnfoldingRow(spec.beta, scan.max_modulus, scan.argmax, orb.residual))
    boundary_ok = True
    for alpha, beta in ((0.3, 0.4), (0.6, 0.79), (0.6, 0.81), (0.999, 0.0),
                        (1.001, 0.0), (0.0, 0.9995), (0.0, 1.0005), (-0.7, 0.7)):
        jac = jac_map(MapSpec("g4", k=k, alpha=alpha, beta=beta), (0.0, 0.0))
        expected = np.array([[alpha, -beta], [beta, alpha]])
        if np.abs(jac - expected).max() > 1e-15:
            boundary_ok = False
        rho = float(np.abs(np.linalg.eigvals(jac)).max())
        if (rho < 1.0) != (alpha * alpha + beta * beta < 1.0):
            boundary_ok = False
    return UnfoldingScan(rows, boundary_ok)


def check_unfolding(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Rotational deformation, beta = 0.01..0.1: Jacobian spectrum below 1,
    period-4 orbit continues from P, and the origin-stability boundary is
    alpha^2 + beta^2 = 1 at the derivative level."""
    scan = scan_unfolding(k)
    worst_mod = max(row.max_modulus for row in scan.rows)
    spectral_ok = worst_mod < 1.0
    continuation_ok = all(row.residual <= 1e-10 for row in scan.rows)
    ok = spectral_ok and continuation_ok and scan.boundary_ok
    lines = [f"beta={row.beta:.2f}: max|mu|={row.max_modulus:.4f} "
             f"orbit residual={row.residual:.1e}" for row in scan.rows]
    return CheckResult("unfolding", {"k": k, "beta": "0.01..0.1", "grid": _UNFOLDING_GRID,
                                     "region": [-20, 20, -20, 20],
                                     "orbit_tol": 1e-10},
                       worst_mod, 1.0, ok,
                       f"continuation ok: {continuation_ok}; origin boundary ok: "
                       f"{scan.boundary_ok}; " + "; ".join(lines))


def _image_radii(spec: MapSpec, r, theta: np.ndarray) -> np.ndarray:
    """|f(p)| at the points p = from_polar((r, theta)) of an array theta
    and an array or float r: from_polar, eval_map and math.hypot at each
    point, bitwise, through maps.eval_points."""
    return _LIBM.hypot(*eval_points(spec, r * _LIBM.cos(theta), r * _LIBM.sin(theta)))


def check_properness(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Image radius of the beta = 0.05 deformation grows at least like
    (k/4)*r: min |g| over 360 angles on each circle r = 2, 10, 100 is at
    least (k/4)*r."""
    spec = MapSpec("g4", k=k, beta=0.05)
    theta = TWO_PI * np.arange(360) / 360
    ratios = []
    ok = True
    for r in (2.0, 10.0, 100.0):
        lo = float(_image_radii(spec, r, theta).min())
        bound = 0.25 * k * r
        ok = ok and lo >= bound
        ratios.append(lo / bound)
    return CheckResult("properness", {"k": k, "beta": 0.05, "radii": [2, 10, 100],
                                      "theta_samples": 360},
                       min(ratios), 1.0, ok,
                       "min over radii of (min image radius)/((k/4) r)")


# The steps h of the gluing check's differences and origin circles.
_GLUING_H = (1e-3, 1e-4, 1e-5, 1e-6)


def _gluing(k: float, n: int, r: float):
    """The measurements of the gluing check for fn of order n at the point
    xi of radius r on the sector boundary ray at angle phi = 2*pi/n:
    (mismatches, sides).

    A one-sided Jacobian estimate takes differences of step h along the ray
    direction e_r (values there are shared by both sector charts) and along
    +/-e_t into one side.  mismatches holds max|J+ - J-| of the plain
    forward quotients at each h of _GLUING_H; sides holds (J+, J-) from the
    one-sided stencil (-3 f0 + 4 f(h) - f(2h)) / (2h) at the smallest h.
    """
    spec = MapSpec("fn", k=k, n=n)
    phi = TWO_PI / n
    xi = from_polar((r, phi))
    e_r = (math.cos(phi), math.sin(phi))
    e_t = (-math.sin(phi), math.cos(phi))
    dirs = np.array([[e_r[0], e_t[0]], [e_r[1], e_t[1]]])
    f0 = eval_map(spec, xi)

    def side(sign, h, order):
        g = []
        for d in (e_r, (sign * e_t[0], sign * e_t[1])):
            f1 = eval_map(spec, (xi[0] + h * d[0], xi[1] + h * d[1]))
            if order == 1:
                g.append(((f1[0] - f0[0]) / h, (f1[1] - f0[1]) / h))
            else:
                f2 = eval_map(spec, (xi[0] + 2.0 * h * d[0], xi[1] + 2.0 * h * d[1]))
                g.append(((-3.0 * f0[0] + 4.0 * f1[0] - f2[0]) / (2.0 * h),
                          (-3.0 * f0[1] + 4.0 * f1[1] - f2[1]) / (2.0 * h)))
        diffs = np.array([[g[0][0], sign * g[1][0]], [g[0][1], sign * g[1][1]]])
        return diffs @ dirs.T  # dirs is orthonormal

    mismatches = [float(np.abs(side(+1.0, h, 1) - side(-1.0, h, 1)).max())
                  for h in _GLUING_H]
    sides = (side(+1.0, _GLUING_H[-1], 2), side(-1.0, _GLUING_H[-1], 2))
    return mismatches, sides


def _origin_ratios(k: float, n: int) -> list:
    """sup |f(p)|/|p| for fn of order n over 64 angles on each circle
    |p| = h of _GLUING_H."""
    hs = np.repeat(_GLUING_H, 64)
    theta = np.tile(TWO_PI * np.arange(64) / 64, len(_GLUING_H))
    ratios = _image_radii(MapSpec("fn", k=k, n=n), hs, theta) / hs
    return ratios.reshape(len(_GLUING_H), 64).max(axis=1).tolist()


def check_gluing(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """One-sided Jacobians agree across sector boundary rays: for n = 2, 3,
    5, 6, 8 and r = 0.5, 1, 2 (see _gluing) the plain quotients' mismatch
    strictly decreases along _GLUING_H, converging like O(h), the stencil's
    mismatch at the smallest h is at most 1e-6*(1+r^2) (the plain quotients
    keep a bias set by the one-sided second derivatives), and the origin
    ratio at the smallest h (see _origin_ratios), which vanishes like h^2,
    is below 1e-3."""
    ok = True
    worst = 0.0
    lines = []
    for n in (2, 3, 5, 6, 8):
        ok = ok and _origin_ratios(k, n)[-1] < 1e-3
        for r in (0.5, 1.0, 2.0):
            mismatches, (j_hi, j_lo) = _gluing(k, n, r)
            final = float(np.abs(j_hi - j_lo).max())
            decreasing = all(b < a for a, b in zip(mismatches, mismatches[1:]))
            tol = 1e-6 * (1.0 + r * r)
            worst = max(worst, final / tol)
            ok = ok and decreasing and final <= tol
            lines.append(f"n={n} r={r}: mismatch {final:.2e} decreasing={decreasing}")
    return CheckResult("gluing-smoothness", {"k": k, "n": [2, 3, 5, 6, 8],
                                             "r": [0.5, 1.0, 2.0],
                                             "h_min": _GLUING_H[-1]},
                       worst, 1.0, ok, "; ".join(lines))


def check_astroid(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """The unit circle maps to the cusped curve (k/2)(-sin^3, cos^3).

    The cusp and interior clauses evaluate the closed form
    transversality_det; a test pins it to det[f4(p), Df4(p) p'] from the
    map itself.  Taking them from the map here changes the report bytes,
    so that waits for the next re-pin of the pinned references."""
    samples = 360
    curve = image_curve(MapSpec("f4", k=k), 1.0, samples)
    worst = 0.0
    for th, (px, py) in zip(curve.thetas, curve.points):
        ex = -0.5 * k * math.sin(th) ** 3
        ey = 0.5 * k * math.cos(th) ** 3
        worst = max(worst, math.hypot(px - ex, py - ey))
    end1 = curve.points[0]
    end2 = curve.points[samples // 4]
    endpoints_ok = (math.hypot(end1[0], end1[1] - 0.5 * k) <= 1e-12
                    and math.hypot(end2[0] + 0.5 * k, end2[1]) <= 1e-12)
    cusp_max = max(abs(transversality_det(k, m * math.pi / 2)) for m in range(4))
    interior_ok = all(transversality_det(k, th) > 0.0
                      for th in np.linspace(0.01, TWO_PI, 700)
                      if min(abs(th - m * math.pi / 2) for m in range(5)) > 1e-3)
    ok = worst <= 1e-12 and endpoints_ok and cusp_max <= 1e-30 and interior_ok
    return CheckResult("astroid", {"k": k, "radius": 1.0, "samples": samples},
                       worst, 1e-12, ok,
                       f"endpoints ok: {endpoints_ok}; cusp |det| max {cusp_max:.1e}; "
                       f"interior det positive: {interior_ok}")


def check_rotation(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Rotation number 1/n for the order-n families, five starts each, at
    radii 6 to 8 scaled by P(k)/P(1.1), so that they lie outside the
    period-n orbit for every valid k (exactly 6 to 8 at k = 1.1)."""
    ok = True
    worst = 0.0
    offsets = (0.05, 0.10, 0.15, 0.20, 0.25)
    scale = _p_scale(k)
    for n in range(2, 9):
        for family in ("fn", "hn"):
            spec = MapSpec(family, k=k, n=n)
            for j, off in enumerate(offsets):
                radius = (6.0 + 0.5 * j) * scale
                theta = (j % n) * TWO_PI / n + off * TWO_PI / n
                est = estimate_rotation(spec, from_polar((radius, theta)),
                                        max_iters=200)
                err = abs(est.slope - 1.0 / n)
                worst = max(worst, err)
                if est.rational != (1, n) or err > 0.01:
                    ok = False
    return CheckResult("rotation-number", {"k": k, "n": "2..8",
                                           "families": ["fn", "hn"],
                                           "starts": 5, "max_iters": 200},
                       worst, 0.01, ok, "max |slope - 1/n| over all runs")


def check_dissipativity(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Saturated families contract outside 2*r0, and no raster pixel escapes.

    The sampled radii run from 2*r0 to max(100, 100*s) and the raster window
    is (-20*s, 20*s)^2, s = P(k)/P(1.1), so that as k -> 1 the radii stay in
    order (2*r0 = 4*P(k) passes 100 below k ~ 1.0016) and the window still
    reaches past 2*r0; at k = 1.1 they are exactly 100 and 20.

    The pass rule also needs u(psi(2*r0))/(2*r0) < 1, psi(r) = k r^3/(1+r^2):
    the ratio |h(p)|/|p| at the point (2*r0, 0) on a boundary ray, where
    m(theta4) = 1.  It is the supremum of the ratio over |p| >= 2*r0, and it
    crosses 1 at k ~ 1.149906 (1.0000554 at k = 1.15), where the samples
    miss it; at k = 1.1 it is 0.97025.  The statistic stays the sampled one.
    """
    prof = default_profile(k)
    scale = _p_scale(k)
    r_hi = max(100.0, 100.0 * scale)
    half = 20.0 * scale
    rng = np.random.default_rng(seed)
    contraction_ok = True
    worst_ratio = 0.0
    for n in range(2, 9):
        spec = MapSpec("hn", k=k, n=n)
        radii = 2.0 * prof.r0 + (r_hi - 2.0 * prof.r0) * rng.random(1000)
        angles = TWO_PI * rng.random(1000)
        ratios = _image_radii(spec, radii, angles) / radii
        worst_ratio = max(worst_ratio, float(ratios.max()))
        contraction_ok = contraction_ok and not (ratios >= 1.0).any()
    raster = basin_raster(MapSpec("hn", k=k, n=5), (-half, half, -half, half),
                          256, 256, budget=600, eps_in=1e-8, r_escape=1e3)
    counts = raster.counts()
    r = 2.0 * prof.r0
    on_ray = ray_image_radius(k, r, prof) / r
    ok = contraction_ok and on_ray < 1.0 and counts["escaped"] == 0
    return CheckResult("dissipativity", {"k": k, "points": 1000,
                                         "radius_range": [2 * prof.r0, r_hi],
                                         "raster": 256, "r_escape": 1e3},
                       worst_ratio, 1.0, ok,
                       f"raster counts {counts}")


def check_singularity(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Exact tangent-space results: rank 12, codimension 3, generator
    identities.  Zero tolerance."""
    from . import singularity as sg  # only this check needs the exact layer

    q = sg.build_Q()
    rank = sg.rank_exact(q.entries)
    rep = sg.codimension_check()
    t2_ok = (sg.TANGENT_GENERATORS["T2.F"] + sg.X2.scale(sg.B)).is_zero()
    relation_ok = sg.verify_invariant_relation()
    ok = (rank == 12 and rep.passed and t2_ok and relation_ok)
    return CheckResult("singularity", {"rows": 13, "cols": 12},
                       float(rank), 12.0, ok,
                       f"rank={rank}; tangent dim {rep.dim_tangent} -> "
                       f"{rep.dim_with_v2} with complement {rep.complement}; "
                       f"memberships {rep.memberships}; T2.F=-B*X2: {t2_ok}; "
                       f"N^4=A^2+16B^2: {relation_ok}")


def check_negative_control(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """The order-5 family probed with the order-4 rotation must fail."""
    spec = MapSpec("fn", k=k, n=5)
    res = equivariance_residual(spec, 4, samples=100, radius=5.0, seed=seed)
    return CheckResult("negative-control", {"k": k, "family_n": 5, "probe_n": 4,
                                            "samples": 100},
                       res, 0.1, res >= 0.1,
                       "residual must be at least 0.1 (suite must be able to fail)")


CHECKS_BY_NAME = {
    "equivariance": check_equivariance,
    "periodic-orbit": check_periodic_orbit,
    "local-attractor": check_local_attractor,
    "eigenvalue-bound": check_eigenvalue_bound,
    "unfolding": check_unfolding,
    "properness": check_properness,
    "gluing-smoothness": check_gluing,
    "astroid": check_astroid,
    "rotation-number": check_rotation,
    "dissipativity": check_dissipativity,
    "singularity": check_singularity,
    "negative-control": check_negative_control,
}


def run_suite(names=None, k: float = K_DEFAULT, seed: int = DEFAULT_SEED,
              spec_echo: dict | None = None) -> VerificationReport:
    """Run the named checks (all twelve by default) into a report.

    The seed and every name are checked before any check runs: a negative
    seed, an empty list or an unknown name raises ValueError.  On Linux the
    checks run on the calling process and one forked worker per other
    available CPU (analysis._available_cpus), at most one process per
    distinct check; elsewhere, or with one CPU, they run in the calling
    process.  A name
    given twice runs its check once.  The report lists the checks in the
    order named, with the same bytes however they were spread; if checks
    raise, the exception of the first of them in that order is raised.
    """
    if seed < 0:  # numpy's generators would reject it inside a check
        raise ValueError(f"seed must be non-negative; got {seed}")
    names = list(CHECKS_BY_NAME) if names is None else list(names)
    if not names:
        raise ValueError("the suite names no checks")
    for name in names:
        if name not in CHECKS_BY_NAME:
            raise ValueError(f"unknown check {name!r}; known: "
                             f"{list(CHECKS_BY_NAME)}")
    distinct = list(dict.fromkeys(names))
    outcomes = _run_checks([CHECKS_BY_NAME[name] for name in distinct], k, seed)
    checks = []
    for name in names:
        outcome = outcomes.get(distinct.index(name))
        if outcome is None:
            raise RuntimeError(f"check {name!r} was lost: its worker process "
                               "ended without sending a result")
        if isinstance(outcome, BaseException):
            raise outcome
        checks.append(outcome)
    return VerificationReport(tool=TOOL_VERSION, seed=seed,
                              spec=spec_echo or {"k": k}, checks=checks)


def _run_checks(checks: list, k: float, seed: int) -> dict:
    """{index: CheckResult or the exception it raised} for each check of
    checks (at most 256), run by this process and the workers it forks.

    The workers are forked before any check runs, so that no thread the
    checks start is alive at fork time.  Every process takes check indices
    in order from one pipe, one byte per read, so the first check starts
    first and the rest balance by themselves.  A worker that ends without
    sending its results leaves their indices out."""
    import signal  # not at module level, where it would add to every import

    forks = min(analysis._available_cpus(), len(checks)) - 1 if sys.platform == "linux" else 0
    tasks_r, tasks_w = os.pipe()
    os.write(tasks_w, bytes(range(len(checks))))
    os.close(tasks_w)
    workers = {}  # pid: the read end of the worker's result pipe
    try:
        for _ in range(forks):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # too many processes: this one takes their share
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                _work(tasks_r, result_w, checks, k, seed)
            workers[pid] = result_r
            os.close(result_w)
        outcomes = _take_checks(tasks_r, checks, k, seed)
        for result_r in workers.values():
            outcomes.update(_read_outcomes(result_r))
        return outcomes
    finally:
        os.close(tasks_r)
        for pid, result_r in workers.items():
            os.close(result_r)
            # stops the worker of an interrupted suite; one that has sent
            # its results has already left
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _take_checks(tasks_r: int, checks: list, k: float, seed: int) -> dict:
    """Run the checks whose indices this process reads from tasks_r until it
    is empty: {index: CheckResult or the exception it raised}."""
    outcomes = {}
    while task := os.read(tasks_r, 1):
        try:
            outcomes[task[0]] = checks[task[0]](k=k, seed=seed)
        except Exception as exc:  # raised by run_suite, in suite order
            outcomes[task[0]] = exc
    return outcomes


def _work(tasks_r: int, result_w: int, checks: list, k: float, seed: int):
    """The forked worker: take checks, send their outcomes pickled down
    result_w, and leave the process without returning to the caller."""
    try:
        data = memoryview(pickle.dumps(_take_checks(tasks_r, checks, k, seed)))
        while data:
            data = data[os.write(result_w, data):]
    finally:
        os._exit(0)


def _read_outcomes(result_r: int) -> dict:
    """The outcomes a worker sent down result_r, {} if it sent none whole."""
    chunks = []
    while chunk := os.read(result_r, 1 << 16):
        chunks.append(chunk)
    try:
        return pickle.loads(b"".join(chunks))
    except Exception:  # cut short, or an exception that does not rebuild
        return {}
