"""Named verification checks and the report they roll up into.

Each check function returns a CheckResult with its parameters, the measured
statistic, the tolerance it was held to, and a pass flag.  ``run_suite``
executes a list of checks (default: all twelve) and assembles a
VerificationReport; the CLI serializes that report as JSON and the
acceptance tests assert each check individually.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import singularity as sg
# perfbench/spans.py wraps classify_batch under this module's name, so the
# name stays importable here although check_local_attractor calls classify_kinds
from .analysis import (  # noqa: F401
    DEFAULT_SEED,
    classify_batch,
    classify_kinds,
    equivariance_residual,
    boundary_smoothness_check,
    find_periodic,
    properness_check,
    seeded_points,
    spectral_scan,
)
from .maps import TWO_PI, MapSpec, default_profile, eval_map, from_polar, jac_map
from .topology import basin_raster, estimate_rotation, image_curve, transversality_det

TOOL_VERSION = "znmap 0.1.0"
K_DEFAULT = 1.1


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
    """P(k)/P(K_DEFAULT), P(k) = (k-1)^(-1/2) the radius of the period-n
    orbit: the factor by which checks tuned at K_DEFAULT scale their radii
    and tolerances.  Both radii use one expression, so the factor is
    exactly 1.0 at K_DEFAULT (the constant 1/sqrt(0.1) would give
    0.9999999999999997 and move the pinned report)."""
    return (1.0 / math.sqrt(k - 1.0)) / (1.0 / math.sqrt(K_DEFAULT - 1.0))


def check_equivariance(k: float = K_DEFAULT, seed: int = DEFAULT_SEED,
                       samples: int = 10_000) -> CheckResult:
    """Order-n symmetry of the transplanted family, n = 2..8, |p| <= 10."""
    tol = 1e-12
    worst = 0.0
    for n in range(2, 9):
        spec = MapSpec("fn", k=k, n=n)
        res = equivariance_residual(spec, n, samples=samples, radius=10.0,
                                    seed=seed, normalized=True)
        worst = max(worst, res)
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
    target = (1.0 / math.sqrt(k - 1.0), 0.0)
    scale = _p_scale(k)
    guess = (3.0 * scale, 0.1 * scale)
    tol = 1e-10 * scale
    worst_pos = 0.0
    worst_gap = math.inf
    ok = True
    lines = []
    for n in range(2, 9):
        spec = MapSpec("fn", k=k, n=n)
        orb = find_periodic(spec, guess, n, tol=1e-12)
        pos_err = math.hypot(orb.point[0] - target[0], orb.point[1] - target[1])
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
                                          "newton_tol": 1e-12},
                       worst_pos, tol, ok, "; ".join(lines))


def check_local_attractor(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Zero derivative at the origin; small starts all fall into the origin
    (classify_kinds: kinds only, so starts retire in the contracting disk)."""
    worst_entry = 0.0
    for spec in [MapSpec("fn", k=k, n=n) for n in range(2, 9)] + [MapSpec("f4", k=k)]:
        worst_entry = max(worst_entry, float(np.abs(jac_map(spec, (0.0, 0.0))).max()))
    all_converged = True
    pts = seeded_points(1000, 0.9, seed)
    for n in (2, 4, 5, 8):
        spec = MapSpec("fn", k=k, n=n)
        kinds = classify_kinds(spec, pts[:, 0], pts[:, 1], budget=200,
                               eps_in=1e-8, r_escape=1e6)
        all_converged = all_converged and bool((kinds == 1).all())
    ok = worst_entry <= 1e-14 and all_converged
    return CheckResult("local-attractor", {"k": k, "starts": 1000, "radius": 0.9,
                                           "budget": 200, "eps_in": 1e-8},
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


def scan_unfolding(k: float = K_DEFAULT, grid: int = 300) -> UnfoldingScan:
    """Measurements behind the unfolding check.

    For beta = 0.01..0.1 (ten values) one row of the rotational deformation
    g4 = f4 + beta*(-y, x): the grid max of the Jacobian eigenvalue modulus
    on [-20, 20]^2, where it sits, and the residual of the period-4 orbit
    continued from P through the previous beta.  ``boundary_ok`` says that
    the Jacobian at the origin is [[alpha, -beta], [beta, alpha]] and that
    the origin is stable exactly inside alpha^2 + beta^2 = 1, at probes on
    both sides of the circle.
    """
    warm = (1.0 / math.sqrt(k - 1.0), 0.0)
    rows = []
    for beta in np.linspace(0.01, 0.1, 10):
        spec = MapSpec("g4", k=k, beta=float(beta))
        scan = spectral_scan(spec, (-20.0, 20.0, -20.0, 20.0), grid)
        orb = find_periodic(spec, warm, 4, tol=1e-12)
        warm = orb.point
        rows.append(UnfoldingRow(float(beta), scan.max_modulus, scan.argmax,
                                 orb.residual))
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


def check_unfolding(k: float = K_DEFAULT, seed: int = DEFAULT_SEED,
                    grid: int = 300) -> CheckResult:
    """Rotational deformation, beta = 0.01..0.1: Jacobian spectrum below 1,
    period-4 orbit continues from P, and the origin-stability boundary is
    alpha^2 + beta^2 = 1 at the derivative level."""
    scan = scan_unfolding(k, grid)
    worst_mod = max(row.max_modulus for row in scan.rows)
    spectral_ok = worst_mod < 1.0
    continuation_ok = all(row.residual <= 1e-10 for row in scan.rows)
    ok = spectral_ok and continuation_ok and scan.boundary_ok
    lines = [f"beta={row.beta:.2f}: max|mu|={row.max_modulus:.4f} "
             f"orbit residual={row.residual:.1e}" for row in scan.rows]
    return CheckResult("unfolding", {"k": k, "beta": "0.01..0.1", "grid": grid,
                                     "region": [-20, 20, -20, 20],
                                     "orbit_tol": 1e-10},
                       worst_mod, 1.0, ok,
                       f"continuation ok: {continuation_ok}; origin boundary ok: "
                       f"{scan.boundary_ok}; " + "; ".join(lines))


def check_properness(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Image radius of the beta deformation grows at least like (k/4)*r."""
    rep = properness_check(k, 0.05, radii=(2.0, 10.0, 100.0), theta_samples=360)
    margin = min(row["min_image_radius"] / row["bound"] for row in rep["rows"])
    return CheckResult("properness", {"k": k, "beta": 0.05, "radii": [2, 10, 100],
                                      "theta_samples": 360},
                       margin, 1.0, rep["passed"],
                       "min over radii of (min image radius)/((k/4) r)")


def check_gluing(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """One-sided Jacobians agree across sector boundary rays, with error
    shrinking in h."""
    ok = True
    worst = 0.0
    lines = []
    for n in (2, 3, 5, 6, 8):
        for r in (0.5, 1.0, 2.0):
            rep = boundary_smoothness_check(k, n, r)
            rel = rep["final_mismatch"] / rep["tolerance"]
            worst = max(worst, rel)
            ok = ok and rep["passed"]
            lines.append(f"n={n} r={r}: mismatch {rep['final_mismatch']:.2e} "
                         f"decreasing={rep['decreasing']}")
    return CheckResult("gluing-smoothness", {"k": k, "n": [2, 3, 5, 6, 8],
                                             "r": [0.5, 1.0, 2.0], "h_min": 1e-6},
                       worst, 1.0, ok, "; ".join(lines))


def check_astroid(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """The unit circle maps to the cusped curve (k/2)(-sin^3, cos^3)."""
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
    """Saturated families contract outside 2*r0, and no raster pixel escapes."""
    prof = default_profile(k)
    rng = np.random.default_rng(seed)
    contraction_ok = True
    worst_ratio = 0.0
    for n in range(2, 9):
        spec = MapSpec("hn", k=k, n=n)
        radii = 2.0 * prof.r0 + (100.0 - 2.0 * prof.r0) * rng.random(1000)
        angles = TWO_PI * rng.random(1000)
        for r, th in zip(radii.tolist(), angles.tolist()):
            p = from_polar((r, th))
            img = eval_map(spec, p)
            ratio = math.hypot(*img) / r
            worst_ratio = max(worst_ratio, ratio)
            if ratio >= 1.0:
                contraction_ok = False
    raster = basin_raster(MapSpec("hn", k=k, n=5), (-20.0, 20.0, -20.0, 20.0),
                          256, 256, budget=600, eps_in=1e-8, r_escape=1e3)
    counts = raster.counts()
    ok = contraction_ok and counts["escaped"] == 0
    return CheckResult("dissipativity", {"k": k, "points": 1000,
                                         "radius_range": [2 * prof.r0, 100.0],
                                         "raster": 256, "r_escape": 1e3},
                       worst_ratio, 1.0, ok,
                       f"raster counts {counts}")


def check_singularity(k: float = K_DEFAULT, seed: int = DEFAULT_SEED) -> CheckResult:
    """Exact tangent-space results: rank 12, codimension 3, generator
    identities.  Zero tolerance."""
    q = sg.build_Q()
    rank = sg.rank_exact(q.entries)
    rep = sg.codimension_check()
    gens = dict(sg.cleared_tangent_generators())
    _, _, b = sg.make_invariants()
    x2 = sg.make_equivariants()[1]
    t2_ok = (gens["T2.F"] + x2.scale(b)).is_zero()
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


ALL_CHECKS = [
    ("equivariance", check_equivariance),
    ("periodic-orbit", check_periodic_orbit),
    ("local-attractor", check_local_attractor),
    ("eigenvalue-bound", check_eigenvalue_bound),
    ("unfolding", check_unfolding),
    ("properness", check_properness),
    ("gluing-smoothness", check_gluing),
    ("astroid", check_astroid),
    ("rotation-number", check_rotation),
    ("dissipativity", check_dissipativity),
    ("singularity", check_singularity),
    ("negative-control", check_negative_control),
]

CHECKS_BY_NAME = dict(ALL_CHECKS)


def run_suite(names=None, k: float = K_DEFAULT, seed: int = DEFAULT_SEED,
              spec_echo: dict | None = None) -> VerificationReport:
    """Run the named checks (all twelve by default) into a report."""
    if names is None:
        names = [n for n, _ in ALL_CHECKS]
    checks = []
    for name in names:
        if name not in CHECKS_BY_NAME:
            raise ValueError(f"unknown check {name!r}; known: "
                             f"{[n for n, _ in ALL_CHECKS]}")
        checks.append(CHECKS_BY_NAME[name](k=k, seed=seed))
    return VerificationReport(tool=TOOL_VERSION, seed=seed,
                              spec=spec_echo or {"k": k}, checks=checks)
