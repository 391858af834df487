"""Orbit iteration, classification, periodic-orbit refinement, equivariance
residuals and spectral scans.

Everything is pure given its inputs.  Sampling uses a seeded generator
(default seed 0x5EED) so reports are reproducible; batch classification is
elementwise-deterministic, so grids may be partitioned arbitrarily.
"""

import contextvars
import functools
import math
import operator
import os
import threading
from dataclasses import KW_ONLY, dataclass

import numpy as np

from . import DEFAULT_BUDGET, DEFAULT_EPS_IN, DEFAULT_R_ESCAPE
from .maps import (_LIBM, TWO_PI, MapSpec, Point, _jac_entries, _retirements, _rotation,
                   eval_map, eval_points, jac_map, jac_points, step_batch)

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

# Grid points per block of spectral_scan: the ~50 temporaries of an f4/g4
# block stay in L2, where a 1000^2 grid at once made each 8 MB; the _LIBM
# Jacobians of other families hold a block's lists, not the grid's.
_SCAN_BLOCK = 16384

# glibc's dynamic malloc thresholds give classify_batch's freed 1-2 MB
# temporaries back to the kernel after each call, to be faulted in again by
# the next.  Fixing both (either alone ends the dynamic scheme) keeps that
# heap, for the whole process, unless its environment sets glibc's own policy.
try:
    if (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc") and not (
            any(name.startswith("MALLOC_") for name in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        import ctypes
        if ctypes.CDLL(None).mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
            ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
except (AttributeError, ImportError, OSError, ValueError):  # not glibc, or no ctypes
    pass


@dataclass
class Orbit:
    spec: object
    start: Point
    points: list
    escaped: bool = False  # truncated due to coordinate overflow


@dataclass
class PeriodicOrbit:
    """A find_periodic solve; iterations counts its Newton updates (0 from a converged guess)."""
    point: Point
    period: int
    orbit: list
    residual: float
    minimal: bool
    _: KW_ONLY
    spec: object
    iterations: int

    @functools.cached_property
    def multipliers(self) -> tuple:
        """Eigenvalues of the jac_map chain along orbit, computed on first read
        (so that read, not the solve, raises what jac_map or eigvals raise)."""
        prod = np.eye(2)
        for pt in self.orbit:
            prod = jac_map(self.spec, pt) @ prod
        return tuple(np.linalg.eigvals(prod))


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


def classify_batch(spec: MapSpec, xs, ys, budget: int = DEFAULT_BUDGET,
                   eps_in: float = DEFAULT_EPS_IN, r_escape: float = DEFAULT_R_ESCAPE):
    """Classify many starts at once: 1 = converged, 2 = escaped, 0 = undecided.

    Returns (kinds, steps) arrays.  The kinds are those of the plain loop,
    which steps every live start until it converges, escapes or uses the
    whole budget, bitwise at every budget.  steps[i] is the step at which
    start i was decided: the step its orbit crossed eps_in or r_escape, or
    the earlier step at which it entered a closed-form region that decided
    it; so 0 <= steps[i] <= the plain loop's steps, and steps[i] is -1
    exactly where the start is undecided.  xs and ys are raveled and must
    have the same size.  Thresholds are tested before each step, so a start
    already inside eps_in classifies at step 0; eps_in must square to a
    finite normal float, else the test against it would underflow or
    overflow.  Where x*x + y*y overflows (|p| above about 1.34e154) with
    finite coordinates, escape is decided by hypot(x, y) > r_escape instead.

    ``spec`` must be pure: one step maps each point by a deterministic
    function of that point's (x, y) bits alone, with no state carried
    between calls or between points, and it must be safe to call from
    several threads at once (every MapSpec is; a callable spec must be
    too).  A point whose state repeats, bit for bit, a state it had at an
    earlier step then cycles forever through states that all passed both
    tests, so it is retired at once as undecided, without spending the
    budget.  Repeats are found by comparing every step with a per-point
    snapshot of the state retaken at steps 0, 1, 2, 4, ... (Brent's
    schedule), at most _SNAPSHOT_GAP steps apart.

    A point is also retired as soon as it lies in a closed-form region
    whose fate is known, the entries of maps._retirements (built once per
    call from budget, eps_in and r_escape), the one owner of this rule:
    the trapping region of the outer period-n cycle of h/hn (kind 0: it
    maps into itself strictly between eps_in and r_escape), the escape
    cones about the sector boundary rays (kind 2) of f4/fn and of g4 with
    delta = 0, and the contracting disk about the origin (kind 1) of
    f4/fn/h/hn and of g4 with delta = 0.  A point in a region at step t is
    retired only while t + N <= budget, where N is the number of steps the
    region's 1-D radius bound takes from its edge to pass r_escape or
    eps_in (0 for the trapping region), so the plain loop would decide it
    the same way within the budget.  Callables and g4 with delta != 0 get
    no region.  The loop tests membership on its coordinate arrays only.

    A batch of at least 2 * _MIN_PART starts is split into contiguous
    parts, one thread per CPU available to the process (at most one part
    per _MIN_PART starts); the calling thread runs the first part.  A
    smaller batch runs as one part on the calling thread, and no thread is
    started.  Each start is classified on its own, so kinds and steps are
    bitwise those of the serial loop.  The caller's numpy error state holds
    in every part, and the first exception raised by any part is re-raised
    here after all parts have finished.
    """
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
    if x.size != y.size:
        raise ValueError(f"xs and ys must have the same size; got {x.size} and {y.size}")
    npts = x.size
    kinds = np.zeros(npts, dtype=np.uint8)
    steps = np.zeros(npts, dtype=np.int64)
    regions = _retirements(spec, budget, eps_in, r_escape)
    parts = max(1, min(_available_cpus(), npts // _MIN_PART))
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
    steps[kinds == 0] = -1
    return kinds, steps


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _classify_part(spec, x, y, kinds, steps, budget, eps_in, r_escape, regions):
    """The serial loop of classify_batch: classify the starts (x, y), writing
    into kinds and steps (the same length, both 0).  A decided start gets its
    kind, and its step if above 0; an undecided one keeps kind 0, and
    classify_batch gives it step -1.  A live point in a region of regions,
    the (region, kind, N) entries of maps._retirements, is retired with that
    region's kind, and with the step it entered it unless the kind is 0.
    x, y and the regions' membership tests are arrays only."""
    idx = np.arange(x.size)
    eps2 = eps_in * eps_in
    # Clamped so that an infinite radius (r2 = inf) always escapes.
    esc2 = min(r_escape * r_escape, np.finfo(float).max)
    sx, sy, snap_at = x, y, 0
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
                done = idx[fin]
                kinds[done] = np.where(conv, 1, 2)
                if t:
                    steps[done] = t
            if t:  # at t = 0 the snapshot is the state itself
                # A repeat keeps kind 0; y is compared only where the x
                # bits already match.
                rep = np.flatnonzero(x.view(np.int64) == sx.view(np.int64))
                keep[rep[y[rep].view(np.int64) == sy[rep].view(np.int64)]] = False
            for region, kind, count in regions:
                if t + count <= budget:
                    hit = keep & region.contains(x, y, r2)
                    if kind:  # a kind-0 retirement keeps kind 0
                        done = idx[hit]
                        kinds[done] = kind
                        if t:
                            steps[done] = t
                    keep &= ~hit
            if not keep.all():
                x, y, idx = x[keep], y[keep], idx[keep]
                if t != snap_at:  # else the snapshot is retaken below
                    sx, sy = sx[keep], sy[keep]
            if idx.size == 0 or t == budget:
                break
            if t == snap_at:
                sx, sy, snap_at = x, y, t + min(max(t, 1), _SNAPSHOT_GAP)
            x, y = caller.run(step_batch, spec, x, y)


def _compose(spec, p: Point, q: int) -> Point:
    for _ in range(q):
        p = eval_map(spec, p)
    return p


def _solve2(a: float, b: float, c: float, d: float, g1: float, g2: float) -> tuple[float, float]:
    # solves [[a, b], [c, d]] (u, v) = (g1, g2), a finite-difference Jacobian
    # (noise ~1e-9 relative): "not invertible within tolerance" means conditioning
    # worse than ~1e6, a derivative of f^q - id at noise level, or a NaN or inf entry
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if not (math.isfinite(det) and scale > 1e-8 and abs(det) > 1e-6 * scale * scale):
        raise RuntimeError("singular Newton system")
    return (d * g1 - b * g2) / det, (-c * g1 + a * g2) / det


_NEWTON_TOL = 1e-12  # residual |f^period(p) - p| at which find_periodic stops
_NEWTON_MAX_ITER = 50


def find_periodic(spec, guess: Point, period: int) -> PeriodicOrbit:
    """Newton-refine a periodic point of the given period.

    Newton runs on f^period(p) - p with a finite-difference Jacobian of the
    composite (works across sector charts) until the residual is at most
    _NEWTON_TOL, for at most _NEWTON_MAX_ITER updates, on floats; the
    multipliers are computed only when read.  Minimality is probed on every
    proper divisor with threshold 10*_NEWTON_TOL and reported as a flag.
    The orbit, the probes and the residual all come from the iterates of
    the last residual evaluation: nothing is re-evaluated after convergence,
    so the solve takes period*(5*iterations + 1) map evaluations.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    p = (float(guess[0]), float(guess[1]))
    residual = math.inf
    for iterations in range(_NEWTON_MAX_ITER):
        orbit = [p]
        for _ in range(period):
            orbit.append(eval_map(spec, orbit[-1]))
        fp = orbit.pop()
        gx, gy = fp[0] - p[0], fp[1] - p[1]
        residual = math.hypot(gx, gy)
        if residual <= _NEWTON_TOL:
            break
        h = 1e-7 * (1.0 + math.hypot(*p))
        cols = []
        for dx, dy in ((h, 0.0), (0.0, h)):
            fp_p = _compose(spec, (p[0] + dx, p[1] + dy), period)
            fp_m = _compose(spec, (p[0] - dx, p[1] - dy), period)
            cols.append(((fp_p[0] - fp_m[0]) / (2 * h), (fp_p[1] - fp_m[1]) / (2 * h)))
        (a, c), (b, d) = cols
        du, dv = _solve2(a - 1.0, b, c, d - 1.0, gx, gy)
        p = (p[0] - du, p[1] - dv)
    else:
        raise RuntimeError(f"no convergence after {_NEWTON_MAX_ITER} Newton iterations "
                           f"(residual {residual:.3e})")

    minimal = not any(math.hypot(orbit[d][0] - p[0], orbit[d][1] - p[1]) <= 10.0 * _NEWTON_TOL
                      for d in range(1, period) if period % d == 0)
    return PeriodicOrbit(p, period, orbit, residual, minimal, spec=spec, iterations=iterations)


def continue_periodic(specs, guess: Point, period: int):
    """Yield find_periodic along specs, each solve started where the last one ended."""
    for spec in specs:
        orb = find_periodic(spec, guess, period)
        guess = orb.point
        yield orb


def equivariance_residual(spec, n: int, samples: int = 10_000, radius: float = 10.0,
                          seed: int = DEFAULT_SEED, normalized: bool = False) -> float:
    """Max |f(R p) - R f(p)| over seeded points, probing order-n symmetry.

    With normalized=True each residual is divided by (1 + |p|^3) before
    taking the max; NaN residuals are skipped.  All points go through
    maps.eval_points, whose functions give libm's bits, so every map value
    is bitwise that of eval_map taken point by point on floats (step_batch's
    numpy functions may move the last bits).  The max is that of math.hypot
    residuals bitwise: np.hypot finds the largest, and only those within a
    relative 1e-12 of it, the candidates, are recomputed with math.hypot.
    """
    px, py = seeded_points(samples, radius, seed).T
    return _max_residual(spec, n, px, py, _cubic_weight(px, py) if normalized else 1.0)


def _cubic_weight(px, py) -> np.ndarray:
    """1 + |p|^3; a float's ** 3 is libm's pow, which np.power need not be."""
    return 1.0 + np.array([v ** 3 for v in _LIBM.hypot(px, py).tolist()])


def _max_residual(spec, n: int, px, py, weight, polar=None) -> float:
    """equivariance_residual at the points (px, py), each divided by its
    weight; polar is their chart for eval_points, if the caller has it."""
    rot = _rotation(1, n)
    f_rp = eval_points(spec, *rot(px, py))
    r_fp = rot(*eval_points(spec, px, py, polar))
    dx, dy = f_rp[0] - r_fp[0], f_rp[1] - r_fp[1]
    # np.hypot is within an ulp or so of math.hypot, so the largest
    # math.hypot residual lies among these candidates (NaN is never one);
    # where math.hypot overflows to inf silently, np.hypot warns
    with np.errstate(over="ignore"):
        res = np.hypot(dx, dy) / weight
    near = res >= float(np.fmax.reduce(res, initial=0.0)) * (1.0 - 1e-12)
    if np.ndim(weight):
        weight = weight[near]
    return float(np.fmax.reduce(_LIBM.hypot(dx[near], dy[near]) / weight, initial=0.0))


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

    grid is an integer, or a pair (nx, ny) of them, of any integer type.
    The grid runs in blocks of whole rows, about _SCAN_BLOCK points each.
    f4/g4 take the closed-form modulus of their analytic Jacobian entries,
    the x row broadcast against the block's y column.  Other families take
    maps.jac_points, the jac_map Jacobian of every point of the block
    bitwise, and np.linalg.eigvals of each Jacobian with four finite
    entries; the others get a NaN modulus.  Blocking changes no bit, and
    far-out points that overflow warn of nothing.  Deterministic; ties, and
    the first NaN if any, go to the first grid point in row-major order
    (y outer, x inner).
    """
    xmin, xmax, ymin, ymax = region
    try:
        nx, ny = map(operator.index, (grid, grid) if np.ndim(grid) == 0 else grid)
    except (TypeError, ValueError):
        raise TypeError(f"grid must be an integer or a pair of integers; got {grid!r}") from None
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    closed_form = not callable(spec) and spec.family in ("f4", "g4")
    mods = np.empty((ny, nx))
    rows = max(1, _SCAN_BLOCK // nx)
    with np.errstate(all="ignore"):  # as in jac_points: overflow gives inf or NaN
        for lo in range(0, ny, rows):
            yb = ys[lo:lo + rows, None]
            if closed_form:
                mods[lo:lo + rows] = _eig_max_modulus(*_jac_entries(spec, xs, yb))
            else:
                gx, gy = np.broadcast_arrays(xs, yb)
                jacs = jac_points(spec, gx.ravel(), gy.ravel())
                finite = np.isfinite(jacs).all(axis=(1, 2))
                block = np.full(len(jacs), np.nan)
                block[finite] = np.abs(np.linalg.eigvals(jacs[finite])).max(axis=1)
                mods[lo:lo + rows] = block.reshape(-1, nx)
    iy, ix = np.unravel_index(int(np.argmax(mods)), mods.shape)
    return SpectralSample(max_modulus=float(mods[iy, ix]),
                          argmax=(float(xs[ix]), float(ys[iy])),
                          samples=nx * ny, region=tuple(region))

