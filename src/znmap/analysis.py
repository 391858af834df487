"""Orbit iteration, periodic-orbit refinement, and dynamic property checks.

Everything is pure given its inputs.  Sampling uses a seeded generator
(default seed 0x5EED) so reports are reproducible; batch classification is
elementwise-deterministic, so grids may be partitioned arbitrarily.
"""

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .maps import (TWO_PI, MapSpec, Point, _jac_entries, contracting_disk, escape_cones,
                   eval_map, from_polar, jac_map, rotate, step_batch, trapping_region)

DEFAULT_SEED = 0x5EED

# Largest step gap between the repeat-detection snapshots of classify_batch.
# A cycle of period up to this is caught at most two gaps after it is
# entered; longer cycles run to the budget.  Uncapped doubling spaces the
# snapshots so far apart that a cycle entered late, such as the period-n
# cycle of h/hn (repeated from step 134 on at k = 1.1 by the orbits that do
# not retire earlier in its trapping region), is caught much later.
_SNAPSHOT_GAP = 32

# Fewest starts per thread when classify_batch splits a batch.  Smaller
# batches run on the calling thread alone: splitting the 64^2 h/hn rasters
# (4,096 starts) in two measured 1.7-2.2x slower than the serial loop.
_MIN_PART = 16384

# Relative margin of the 1-D radius bounds behind the retirement counts: far
# above the rounding of a computed step or of a bound step, far below the
# 1e-6 radial margin of the closed-form regions.
_BOUND_MARGIN = 1e-9


@dataclass
class Orbit:
    spec: object
    start: Point
    points: list
    escaped: bool = False  # truncated due to coordinate overflow


@dataclass
class PeriodicOrbit:
    point: Point
    period: int
    orbit: list
    multipliers: tuple
    residual: float
    minimal: bool


@dataclass
class SpectralSample:
    max_modulus: float
    argmax: Point
    samples: int
    region: tuple


def seeded_points(samples: int, radius: float, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Deterministic pseudo-random points, uniform on the disk |p| <= radius."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(samples))
    th = TWO_PI * rng.random(samples)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def iterate(spec, p0: Point, num_steps: int) -> Orbit:
    """Record p0 and its first num_steps forward images.

    Stops early (flagging the orbit escaped) if coordinates overflow.
    """
    if num_steps < 0:
        raise ValueError("step count must be nonnegative")
    points = [(float(p0[0]), float(p0[1]))]
    escaped = False
    p = points[0]
    for _ in range(num_steps):
        p = eval_map(spec, p)
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            escaped = True
            break
        points.append(p)
    return Orbit(spec=spec, start=points[0], points=points, escaped=escaped)


def classify_batch(spec: MapSpec, xs, ys, budget: int = 10_000,
                   eps_in: float = 1e-8, r_escape: float = 1e6):
    """Classify many starts at once: 1 = converged, 2 = escaped, 0 = undecided.

    Returns (kinds, steps) arrays; steps is -1 for undecided entries.
    Thresholds are tested before each step, so a start already inside
    eps_in classifies at step 0; eps_in must square to a finite normal
    float, else the test against it would underflow or overflow.  Where
    x*x + y*y overflows (|p| above about 1.34e154) with finite
    coordinates, escape is decided by hypot(x, y) > r_escape instead.

    ``spec`` must be pure: one step maps each point by a deterministic
    function of that point's (x, y) bits alone, with no state carried
    between calls or between points, and it must be safe to call from
    several threads at once (every MapSpec is; a callable spec must be
    too).  A point whose state repeats, bit for bit, a state it had at an
    earlier step then cycles forever through states that all passed both
    tests, so it is retired at once as undecided: the same kind and steps
    the full budget would give, without spending it.  Repeats are found by
    comparing every step with a per-point snapshot of the state retaken at
    steps 0, 1, 2, 4, ... (Brent's schedule), at most _SNAPSHOT_GAP steps
    apart.  For h/hn a point is also retired as undecided as soon as it
    lies in the closed-form trapping region of the outer period-n cycle
    (maps.trapping_region, built once per call from eps_in and r_escape):
    the region maps into itself with margins far above the rounding of a
    step and lies strictly between eps_in and r_escape, so the plain loop
    would give such a point kind 0 and steps -1 at every budget.
    classify_kinds retires more points, at the cost of their steps.

    A batch of at least 2 * _MIN_PART starts is split into contiguous
    parts, one thread per CPU available to the process (at most one part
    per _MIN_PART starts); the calling thread runs the first part.  Each
    start is classified on its own, so kinds and steps are bitwise those
    of the serial loop.  The caller's numpy error state holds in every
    part, and the first exception raised by any part is re-raised here
    after all parts have finished.
    """
    return _classify(spec, xs, ys, budget, eps_in, r_escape, kinds_only=False)


def classify_kinds(spec: MapSpec, xs, ys, budget: int = 10_000,
                   eps_in: float = 1e-8, r_escape: float = 1e6) -> np.ndarray:
    """The kinds of classify_batch, bitwise, without the steps.

    Besides the retirements of classify_batch, a point is retired as soon
    as it lies in a closed-form region whose fate is known: for f4/fn the
    escape cones about the sector boundary rays (maps.escape_cones, kind
    2), and for f4/fn/h/hn the contracting disk about the origin
    (maps.contracting_disk, kind 1).  For each region one count N is
    computed per call: the steps a 1-D bound on the radius takes from the
    region's edge to pass the threshold, r_escape for the cones (the bound
    psi(r)*m_a from below) and eps_in for the disk (psi(r) from above),
    with a relative margin of _BOUND_MARGIN per step.  A point in the
    region at step t is retired only while t + N <= budget, so the plain
    loop would decide it the same way within the budget, and the kinds are
    those of classify_batch at every budget.  g4 and callables get no
    region.
    """
    return _classify(spec, xs, ys, budget, eps_in, r_escape, kinds_only=True)[0]


def _classify(spec, xs, ys, budget, eps_in, r_escape, kinds_only):
    """classify_batch, or with kinds_only the retirements of classify_kinds
    too (the steps are then meaningless)."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if not eps_in < r_escape:
        raise ValueError("eps_in must be below r_escape")
    eps2 = eps_in * eps_in
    if not (eps2 >= np.finfo(float).tiny and math.isfinite(eps2)):
        raise ValueError("eps_in squared must be a finite normal float "
                         f"(|eps_in| in about [1.5e-154, 1.3e154]); got {eps_in!r}")
    x = np.asarray(xs, dtype=float).ravel()  # never written in place
    y = np.asarray(ys, dtype=float).ravel()
    npts = x.size
    kinds = np.zeros(npts, dtype=np.uint8)
    steps = np.full(npts, -1, dtype=np.int64)
    regions = _retirements(spec, budget, eps_in, r_escape, kinds_only)
    parts = min(_available_cpus(), npts // _MIN_PART)
    if parts <= 1:
        _classify_part(spec, x, y, kinds, steps, budget, eps_in, r_escape, regions)
        return kinds, steps
    cuts = [npts * i // parts for i in range(parts + 1)]
    errors = [None] * parts

    def run(i):
        lo, hi = cuts[i], cuts[i + 1]
        _classify_part(spec, x[lo:hi], y[lo:hi], kinds[lo:hi], steps[lo:hi],
                       budget, eps_in, r_escape, regions)

    def work(i):
        try:
            run(i)
        except BaseException as exc:  # re-raised by the caller below
            errors[i] = exc

    # copy_context carries the caller's np.errstate into each thread.  The
    # threads are daemons and are not joined when the calling thread's own
    # part is interrupted, so Ctrl-C does not wait for the other parts.
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, i),
                                daemon=True) for i in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    except Exception as exc:
        errors[0] = exc
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return kinds, steps


def _retirements(spec, budget, eps_in, r_escape, kinds_only):
    """The (region, kind, N) entries of _classify_part: a live point in
    region at step t with t + N <= budget is retired with kind.  The h/hn
    trapping region decides kind 0 with N = 0.  With kinds_only the escape
    cones (kind 2) and the contracting disk (kind 1) follow, with N from
    _crossing_steps.  Each bound starts from the region's edge and must
    pass its threshold, both moved outward by the relative margin mu, so
    that the rounding of the membership test and of the plain loop's
    threshold test cannot decide a point otherwise.  Entries with
    N > budget never retire and are left out."""
    entries = []
    trap = trapping_region(spec, eps_in, r_escape)
    if trap is not None:
        entries.append((trap, 0, 0))
    if not kinds_only:
        return entries
    mu = _BOUND_MARGIN
    cones = escape_cones(spec)
    if cones is not None:
        beyond = r_escape * (1.0 + mu)
        entries.append((cones, 2, _crossing_steps(
            spec.k, cones.r_lo * (1.0 - mu), cones.m_a * (1.0 - mu), lambda r: r > beyond,
            budget)))
    disk = contracting_disk(spec)
    if disk is not None:
        within = abs(eps_in) * (1.0 - mu)
        entries.append((disk, 1, _crossing_steps(
            spec.k, disk.radius * (1.0 + mu), 1.0 + mu, lambda r: r < within, budget)))
    return [entry for entry in entries if entry[2] <= budget]


def _crossing_steps(k: float, rho: float, gain: float, passed, budget: int) -> int:
    """The steps the 1-D bound rho -> gain*psi(rho), psi(r) = k r^3/(1+r^2),
    takes from rho until passed(rho), or budget + 1 if it takes more than
    budget steps."""
    for t in range(budget + 1):
        if passed(rho):
            return t
        # k*rho/(1 + 1/rho^2) overflows only where k*rho does; rho^2 stays
        # positive while rho is above eps_in, whose square is a normal float
        nxt = gain * (k * rho / (1.0 + 1.0 / (rho * rho)))
        if nxt == rho:  # stuck, as at rho = inf below an infinite r_escape
            break
        rho = nxt
    return budget + 1


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _classify_part(spec, x, y, kinds, steps, budget, eps_in, r_escape, regions):
    """The serial loop of classify_batch: classify the starts (x, y),
    writing into kinds and steps (the same length, kinds 0, steps -1).
    A live point in a region of regions (see _retirements) is retired with
    that region's kind, leaving its steps alone."""
    idx = np.arange(x.size)
    eps2 = eps_in * eps_in
    # Clamped so that an infinite radius (r2 = inf) always escapes.
    esc2 = min(r_escape * r_escape, np.finfo(float).max)
    sx, sy, snap_at = x, y, 1
    # The map steps run in the caller's context, under its np.errstate; the
    # threshold test runs with overflow ignored.  Entering an errstate on
    # every step would cost more than the test itself on small batches.
    caller = contextvars.copy_context()
    with np.errstate(over="ignore"):
        for t in range(budget + 1):
            r2 = x * x + y * y
            keep = (r2 >= eps2) & (r2 <= esc2)  # NaN fails both tests: escaped
            if not keep.all():
                fin = np.flatnonzero(~keep)
                conv = r2[fin] <= esc2
                if not conv.all():
                    # x*x + y*y overflows above |p| ~ 1.34e154: where the
                    # coordinates are finite, escape is decided by the radius.
                    esc = fin[~conv]
                    over = esc[np.isinf(r2[esc]) & np.isfinite(x[esc]) & np.isfinite(y[esc])]
                    if over.size:
                        keep[over] = np.hypot(x[over], y[over]) <= r_escape
                        fin = np.flatnonzero(~keep)
                        conv = r2[fin] <= esc2
                kinds[idx[fin]] = np.where(conv, 1, 2)
                steps[idx[fin]] = t
            if t:  # at t = 0 the snapshot is the state itself
                # A repeat keeps kind 0 and steps -1; y is compared only
                # where the x bits already match.
                rep = np.flatnonzero(x.view(np.int64) == sx.view(np.int64))
                keep[rep[y[rep].view(np.int64) == sy[rep].view(np.int64)]] = False
            for region, kind, count in regions:
                if t + count <= budget:
                    hit = keep & region.contains(x, y)
                    kinds[idx[hit]] = kind
                    keep &= ~hit
            if not keep.all():
                x, y, idx, sx, sy = x[keep], y[keep], idx[keep], sx[keep], sy[keep]
            if idx.size == 0 or t == budget:
                break
            if t == snap_at:
                sx, sy, snap_at = x, y, t + min(t, _SNAPSHOT_GAP)
            x, y = caller.run(step_batch, spec, x, y)


def _compose(spec, p: Point, q: int) -> Point:
    for _ in range(q):
        p = eval_map(spec, p)
    return p


def _solve2(jac: np.ndarray, rhs) -> tuple[float, float]:
    # the Jacobian comes from finite differences (noise ~1e-9 relative), so
    # "not invertible within tolerance" means conditioning worse than ~1e6
    # or a derivative of f^q - id that vanishes to noise level
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    scale = float(np.abs(jac).max())
    if not (math.isfinite(det) and scale > 1e-8 and abs(det) > 1e-6 * scale * scale):
        raise RuntimeError("singular Newton system")
    u = (jac[1, 1] * rhs[0] - jac[0, 1] * rhs[1]) / det
    v = (-jac[1, 0] * rhs[0] + jac[0, 0] * rhs[1]) / det
    return u, v


def find_periodic(spec, guess: Point, period: int, tol: float = 1e-12,
                  max_iter: int = 50) -> PeriodicOrbit:
    """Newton-refine a periodic point of the given period.

    Newton runs on f^period(p) - p with a finite-difference Jacobian of the
    composite (works across sector charts); multipliers come from chaining
    the per-point Jacobians along the refined orbit.  Minimality is probed
    on every proper divisor with threshold 10*tol and reported as a flag.
    The orbit, the probes and the residual all come from the iterates of
    the last residual evaluation: nothing is re-evaluated after convergence.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    p = (float(guess[0]), float(guess[1]))
    residual = math.inf
    for _ in range(max_iter):
        orbit = [p]
        for _ in range(period):
            orbit.append(eval_map(spec, orbit[-1]))
        fp = orbit.pop()
        gx, gy = fp[0] - p[0], fp[1] - p[1]
        residual = math.hypot(gx, gy)
        if residual <= tol:
            break
        h = 1e-7 * (1.0 + math.hypot(*p))
        cols = []
        for dx, dy in ((h, 0.0), (0.0, h)):
            fp_p = _compose(spec, (p[0] + dx, p[1] + dy), period)
            fp_m = _compose(spec, (p[0] - dx, p[1] - dy), period)
            cols.append(((fp_p[0] - fp_m[0]) / (2 * h), (fp_p[1] - fp_m[1]) / (2 * h)))
        jac = np.array([[cols[0][0] - 1.0, cols[1][0]],
                        [cols[0][1], cols[1][1] - 1.0]])
        du, dv = _solve2(jac, (gx, gy))
        p = (p[0] - du, p[1] - dv)
    else:
        raise RuntimeError(f"no convergence after {max_iter} Newton iterations "
                           f"(residual {residual:.3e})")

    prod = np.eye(2)
    for pt in orbit:
        prod = jac_map(spec, pt) @ prod
    mults = tuple(np.linalg.eigvals(prod))
    minimal = not any(math.hypot(orbit[d][0] - p[0], orbit[d][1] - p[1]) <= 10.0 * tol
                      for d in range(1, period) if period % d == 0)
    return PeriodicOrbit(point=p, period=period, orbit=orbit,
                         multipliers=mults, residual=residual, minimal=minimal)


def equivariance_residual(spec, n: int, samples: int = 10_000, radius: float = 10.0,
                          seed: int = DEFAULT_SEED, normalized: bool = False) -> float:
    """Max |f(R p) - R f(p)| over seeded points, probing order-n symmetry.

    With normalized=True each residual is divided by (1 + |p|^3) before
    taking the max.
    """
    pts = seeded_points(samples, radius, seed)
    worst = 0.0
    for px, py in pts.tolist():  # Python floats: the scalar path is faster on them
        rp = rotate((px, py), 1, n)
        f_rp = eval_map(spec, rp)
        r_fp = rotate(eval_map(spec, (px, py)), 1, n)
        res = math.hypot(f_rp[0] - r_fp[0], f_rp[1] - r_fp[1])
        if normalized:
            res /= 1.0 + math.hypot(px, py) ** 3
        worst = max(worst, res)
    return worst


def _one_sided_jacobian(fun, xi: Point, e_r, e_t, sign: float, h: float,
                        order: int = 1) -> np.ndarray:
    """Jacobian estimate from one side of a boundary ray.

    Directional differences along the ray direction (values there are
    shared by both sector charts) and along +/-e_t into the chosen side;
    order 1 uses plain forward quotients, order 2 the one-sided stencil
    (-3 f0 + 4 f(h) - f(2h)) / (2h).
    """
    def deriv(d):
        f0 = fun(xi)
        f1 = fun((xi[0] + h * d[0], xi[1] + h * d[1]))
        if order == 1:
            return ((f1[0] - f0[0]) / h, (f1[1] - f0[1]) / h)
        f2 = fun((xi[0] + 2.0 * h * d[0], xi[1] + 2.0 * h * d[1]))
        return ((-3.0 * f0[0] + 4.0 * f1[0] - f2[0]) / (2.0 * h),
                (-3.0 * f0[1] + 4.0 * f1[1] - f2[1]) / (2.0 * h))

    col_r = deriv(e_r)
    g_t = deriv((sign * e_t[0], sign * e_t[1]))
    col_t = (sign * g_t[0], sign * g_t[1])
    dirs = np.array([[e_r[0], e_t[0]], [e_r[1], e_t[1]]])
    diffs = np.array([[col_r[0], col_t[0]], [col_r[1], col_t[1]]])
    return diffs @ dirs.T  # dirs is orthonormal


def boundary_smoothness_check(k: float, n: int, r: float,
                              h_sequence=(1e-3, 1e-4, 1e-5, 1e-6)) -> dict:
    """Compare one-sided Jacobians of the order-n map across a sector
    boundary ray, and probe differentiability at the origin.

    The plain one-sided quotients expose the O(h) convergence of the two
    sides to a common matrix (strictly decreasing mismatch across
    h_sequence); their bias constant depends on the one-sided second
    derivatives, so the final discrepancy at the smallest h is measured
    with the unbiased second-order stencil and must end below
    1e-6*(1+r^2).  The origin ratio sup|f(p)|/|p| on circles |p| = h
    vanishes like h^2.
    """
    spec = MapSpec("fn", k=k, n=n)
    phi = TWO_PI / n
    xi = from_polar((r, phi))
    e_r = (math.cos(phi), math.sin(phi))
    e_t = (-math.sin(phi), math.cos(phi))
    fun = lambda p: eval_map(spec, p)

    def mismatch(h, order):
        j_hi = _one_sided_jacobian(fun, xi, e_r, e_t, +1.0, h, order)
        j_lo = _one_sided_jacobian(fun, xi, e_r, e_t, -1.0, h, order)
        return float(np.abs(j_hi - j_lo).max())

    mismatches = [mismatch(h, order=1) for h in h_sequence]
    final = mismatch(h_sequence[-1], order=2)
    origin_ratios = []
    for h in h_sequence:
        sup = 0.0
        for i in range(64):
            th = TWO_PI * i / 64
            img = eval_map(spec, from_polar((h, th)))
            sup = max(sup, math.hypot(*img) / h)
        origin_ratios.append(sup)
    decreasing = all(mismatches[i + 1] < mismatches[i] for i in range(len(mismatches) - 1))
    tol = 1e-6 * (1.0 + r * r)
    return {
        "h_sequence": list(h_sequence),
        "mismatches": mismatches,
        "origin_ratios": origin_ratios,
        "decreasing": decreasing,
        "final_mismatch": final,
        "tolerance": tol,
        "passed": decreasing and final <= tol and origin_ratios[-1] < 1e-3,
    }


def _eig_max_modulus(a, b, c, d):
    """Elementwise max eigenvalue modulus of [[a, b], [c, d]] arrays."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    real = 0.5 * (np.abs(tr) + np.sqrt(np.maximum(disc, 0.0)))
    cplx = np.sqrt(np.maximum(det, 0.0))  # conjugate pair: |mu|^2 = det
    return np.where(disc >= 0.0, real, cplx)


def spectral_scan(spec, region: tuple, grid: int | tuple) -> SpectralSample:
    """Max Jacobian eigenvalue modulus over an inclusive rectangular grid.

    Vectorized for f4/g4: their analytic Jacobian entries are evaluated
    on the whole grid at once.  Other families fall back to
    per-point jac_map Jacobians, stacked in row-major order and sent
    through one np.linalg.eigvals call.  Deterministic; ties go to the
    first grid point in row-major order (y outer, x inner).
    """
    xmin, xmax, ymin, ymax = region
    nx, ny = (grid, grid) if isinstance(grid, int) else grid
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    if not callable(spec) and spec.family in ("f4", "g4"):
        mods = _eig_max_modulus(*_jac_entries(spec, *np.meshgrid(xs, ys)))
    else:
        jacs = np.array([jac_map(spec, (xv, yv)) for yv in ys for xv in xs])
        mods = np.abs(np.linalg.eigvals(jacs)).max(axis=1).reshape(ny, nx)
    iy, ix = np.unravel_index(int(np.argmax(mods)), mods.shape)
    return SpectralSample(max_modulus=float(mods[iy, ix]),
                          argmax=(float(xs[ix]), float(ys[iy])),
                          samples=nx * ny, region=tuple(region))


def properness_check(k: float, beta: float, radii=(2.0, 10.0, 100.0),
                     theta_samples: int = 360) -> dict:
    """Lower bound |g| >= (k/4)*r on circles r > 1 for the beta deformation."""
    spec = MapSpec("g4", k=k, beta=beta)
    rows = []
    passed = True
    for r in radii:
        if r <= 1.0:
            raise ValueError("radii must exceed 1")
        lo = math.inf
        for i in range(theta_samples):
            th = TWO_PI * i / theta_samples
            img = eval_map(spec, from_polar((r, th)))
            lo = min(lo, math.hypot(*img))
        bound = 0.25 * k * r
        ok = lo >= bound
        passed = passed and ok
        rows.append({"r": r, "min_image_radius": lo, "bound": bound, "passed": ok})
    return {"rows": rows, "passed": passed}
