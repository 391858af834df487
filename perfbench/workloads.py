"""The three benchmark workloads: seeded inputs, one operation, and its checks.

An operation calls znmap's public entry points with their default arguments,
the same calls the CLI makes.  Each call is one *item*: it is timed on its
own, and it fails if it raises, breaks a seed-independent invariant, changes
between two operations of one run at the same seed, or (at the default seed)
differs from the stored reference in ``ref.json``.

Why these workloads, and what each one exercises, is in README.md.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from znmap import (
    MapSpec,
    basin_raster,
    estimate_rotation,
    find_periodic,
    from_polar,
    run_suite,
    spectral_scan,
)
from znmap import singularity as sg

K = 1.1
DEFAULT_SEED = 0x5EED
P_POINT = (1.0 / math.sqrt(K - 1.0), 0.0)
OUTER_RADIUS = 11.16179639295155  # attracting period-n cycle of h/hn at k = 1.1
ORDERS = tuple(range(2, 9))
TWO_PI = 2.0 * math.pi
# the CLI echoes the spec of its default family in the verify JSON
CLI_SPEC_ECHO = {"family": "f4", "k": K, "n": 4}
# every pixel centre inside this radius must converge to the origin: there
# k*r^2/(1+r^2) (+ beta for g4) < 1, so each step shrinks the radius
CONVERGED_RADIUS = {"f4": 3.0, "fn": 3.0, "h": 3.0, "hn": 3.0, "g4": 2.4}


@dataclass(frozen=True)
class Sizes:
    name: str
    setups: int  # fresh interpreters timed per run for setup_s
    verify_checks: tuple | None  # None runs all twelve, as `znmap verify --suite all`
    rasters: tuple  # (family, n, beta, resolution) on the window (-5, 5)^2
    orbit_guesses: int  # Newton guesses per (family, n)
    rotation_starts: int  # starts per (family, n)
    spectral_grid: int
    max_traced_ops: int


FULL = Sizes(
    name="full", setups=9, verify_checks=None,
    rasters=(("f4", 4, 0.0, 512), ("g4", 4, 0.05, 512), ("fn", 5, 0.0, 512),
             ("h", 4, 0.0, 64), ("hn", 5, 0.0, 64)),
    orbit_guesses=6, rotation_starts=5, spectral_grid=31, max_traced_ops=6)

TINY = Sizes(
    name="tiny", setups=1,
    verify_checks=("periodic-orbit", "unfolding", "astroid", "negative-control"),
    rasters=(("f4", 4, 0.0, 16), ("g4", 4, 0.05, 16), ("fn", 5, 0.0, 16),
             ("h", 4, 0.0, 8), ("hn", 5, 0.0, 8)),
    orbit_guesses=1, rotation_starts=1, spectral_grid=5, max_traced_ops=1)


def canonical(value):
    """The JSON form of an output, as stored in ref.json (floats exact)."""
    return json.loads(json.dumps(value))


@dataclass
class Op:
    """One workload operation: its timed parts and the verdict on each item.

    ``parts`` maps an end-to-end metric name to [seconds, work units];
    ``seen`` is shared by the operations of one run and holds each item's
    first output, so a later operation at the same seed must repeat it.
    """

    ref: dict | None
    seen: dict
    parts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(sec for sec, _ in self.parts.values())

    def item(self, part, key, call, work=1, output=None, check=None):
        """Time call(), then check its output; returns the value or None."""
        self.attempted += 1
        acc = self.parts.setdefault(part, [0.0, 0])
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # an item that raises is a failed op, not a crash
            acc[0] += time.perf_counter() - t0
            self.failed += 1
            self.problems.append(f"{key}: raised {type(exc).__name__}: {exc}")
            return None
        acc[0] += time.perf_counter() - t0
        acc[1] += work
        out = canonical(output(value) if output else value)
        issues = list(check(value)) if check else []
        if self.seen.setdefault(key, out) != out:
            issues.append("output changed between operations at the same seed")
        if self.ref is not None and self.ref.get(key) != out:
            issues.append("differs from the stored reference")
        self.outputs[key] = out
        if issues:
            self.failed += 1
            self.problems.append(f"{key}: " + "; ".join(issues))
        return value


# ---------------------------------------------------------------------------
# verify: run_suite exactly as `znmap verify --suite all --seed S --json F`
# ---------------------------------------------------------------------------

def verify_inputs(seed, sizes):
    return {"seed": seed, "names": sizes.verify_checks}


def verify_report_text(names, seed) -> str:
    report = run_suite(names, k=K, seed=seed, spec_echo=CLI_SPEC_ECHO)
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def verify_invariants(text, names):
    """Every check passes except unfolding, which fails on its spectral
    clause only (its designed, documented failure)."""
    report = json.loads(text)
    got = [c["name"] for c in report["checks"]]
    want = list(names) if names is not None else [
        "equivariance", "periodic-orbit", "local-attractor", "eigenvalue-bound",
        "unfolding", "properness", "gluing-smoothness", "astroid",
        "rotation-number", "dissipativity", "singularity", "negative-control"]
    if got != want:
        yield f"checks {got} != {want}"
    for c in report["checks"]:
        if c["name"] == "unfolding":
            other_clauses = c["detail"].startswith(
                "continuation ok: True; origin boundary ok: True;")
            if c["pass"] or c["statistic"] < 1.0 or not other_clauses:
                yield "unfolding does not fail on its spectral clause alone"
        elif not c["pass"]:
            yield f"check {c['name']} failed: {c['detail']}"
    if report["pass"] != ("unfolding" not in got):
        yield "overall pass flag inconsistent with the checks"


def verify_op(inp, op):
    names = inp["names"]
    op.item("verify_s", "verify", lambda: verify_report_text(names, inp["seed"]),
            check=lambda text: verify_invariants(text, names))


# ---------------------------------------------------------------------------
# basin: basin_raster on the README window, shifted by a sub-pixel offset
# ---------------------------------------------------------------------------

def make_spec(family, n=4, beta=0.0):
    return MapSpec(family, k=K, n=n, beta=beta)


def basin_inputs(seed, sizes):
    rng = np.random.default_rng([seed, 1])
    u, v = rng.random(2) - 0.5
    rasters = []
    for family, n, beta, res in sizes.rasters:
        pixel = 10.0 / res
        window = (-5.0 + u * pixel, 5.0 + u * pixel, -5.0 + v * pixel, 5.0 + v * pixel)
        rasters.append((make_spec(family, n, beta), window, res))
    return rasters


def _basin_checker(spec, window, res):
    def check(raster):
        counts = raster.counts()
        if sum(counts.values()) != res * res:
            yield f"counts {counts} do not cover {res}x{res} pixels"
        if spec.family in ("h", "hn") and counts["escaped"]:
            yield f"{counts['escaped']} pixels escaped under a dissipative family"
        xmin, xmax, ymin, ymax = window
        xs = xmin + (np.arange(res) + 0.5) * (xmax - xmin) / res
        ys = ymax - (np.arange(res) + 0.5) * (ymax - ymin) / res
        gx, gy = np.meshgrid(xs, ys)
        inner = gx * gx + gy * gy < CONVERGED_RADIUS[spec.family] ** 2
        if (raster.kinds[inner] != 1).any():
            yield "a pixel inside the contracting disk did not converge"
    return check


def _raster_output(raster):
    return {"sha256": hashlib.sha256(raster.kinds.tobytes()).hexdigest(),
            "counts": raster.counts()}


def basin_op(rasters, op):
    for spec, window, res in rasters:
        op.item(f"basin_{spec.family}_px_per_s", f"basin/{spec.family}/{res}",
                lambda: basin_raster(spec, window, res, res), work=res * res,
                output=_raster_output, check=_basin_checker(spec, window, res))


# ---------------------------------------------------------------------------
# explore: scalar paths (Newton, rotation, per-point spectra, exact algebra)
# ---------------------------------------------------------------------------

def explore_inputs(seed, sizes):
    rng = np.random.default_rng([seed, 2])

    def jitter(centre, half_width):
        return tuple(float(c + w * (2.0 * rng.random() - 1.0))
                     for c, w in zip(centre, half_width))

    inner = [(make_spec(fam, n), n, jitter((3.0, 0.1), (0.1, 0.05)))
             for fam in ("fn", "hn") for n in ORDERS for _ in range(sizes.orbit_guesses)]
    outer = [(make_spec(fam, n), n, jitter((11.2, 0.1), (0.05, 0.05)))
             for fam, n in [("h", 4)] + [("hn", n) for n in ORDERS]
             for _ in range(sizes.orbit_guesses)]
    starts = []
    for fam in ("fn", "hn"):
        for n in ORDERS:
            for j in range(sizes.rotation_starts):
                radius = 6.0 + 2.0 * rng.random()
                theta = (j % n + 0.05 + 0.2 * rng.random()) * TWO_PI / n
                starts.append((make_spec(fam, n), n, from_polar((radius, theta))))
    g = sizes.spectral_grid
    cell = 40.0 / (g - 1)
    ox, oy = (rng.random(2) - 0.5) * cell
    region = (-20.0 + ox, 20.0 + ox, -20.0 + oy, 20.0 + oy)
    spectra = [(make_spec(fam, n), region, g) for fam, n in (("fn", 5), ("h", 4), ("hn", 5))]
    return {"inner": inner, "outer": outer, "starts": starts, "spectra": spectra,
            "betas": [float(b) for b in np.linspace(0.0, 0.1, 11)]}


def _near(point, target, tol):
    gap = math.hypot(point[0] - target[0], point[1] - target[1])
    if not gap <= tol:
        yield f"orbit point {point} is {gap:.3e} from {target}"


def _on_outer_cycle(orbit):
    gap = abs(math.hypot(*orbit.point) - OUTER_RADIUS)
    if not gap <= 1e-9:
        yield f"outer cycle radius off by {gap:.3e}"


def _continued(orbit, beta):
    if not orbit.residual <= 1e-10:
        yield f"continuation residual {orbit.residual:.3e}"
    if beta == 0.0:
        yield from _near(orbit.point, P_POINT, 1e-10)


def _spectral_ok(region):
    def check(sample):
        xmin, xmax, ymin, ymax = region
        ax, ay = sample.argmax
        if not (math.isfinite(sample.max_modulus) and sample.max_modulus > 0.0):
            yield f"max modulus {sample.max_modulus}"
        if not (xmin <= ax <= xmax and ymin <= ay <= ymax):
            yield f"argmax {sample.argmax} outside the region"
    return check


def _singularity():
    q = sg.build_Q()
    return sg.rank_exact(q.entries), sg.codimension_check()


def _singularity_ok(result):
    rank, rep = result
    if rank != 12 or rep.complement != ("X1", "X2", "N*X2") or not rep.passed:
        yield f"rank {rank}, complement {rep.complement}, passed {rep.passed}"


def _singularity_output(result):
    rank, rep = result
    return {"rank": rank, "dim_tangent": rep.dim_tangent, "dim_with_v2": rep.dim_with_v2,
            "dim_with_v1": rep.dim_with_v1, "memberships": rep.memberships,
            "complement": rep.complement, "passed": rep.passed}


def explore_op(inp, op):
    point = lambda orbit: orbit.point
    for i, (spec, n, guess) in enumerate(inp["inner"]):
        op.item("orbits_per_s", f"orbit/inner/{spec.family}/{n}/{i}",
                lambda: find_periodic(spec, guess, n), output=point,
                check=lambda orbit: _near(orbit.point, P_POINT, 1e-10))
    for i, (spec, n, guess) in enumerate(inp["outer"]):
        op.item("orbits_per_s", f"orbit/outer/{spec.family}/{n}/{i}",
                lambda: find_periodic(spec, guess, n), output=point,
                check=_on_outer_cycle)
    warm = P_POINT  # continuation warm-started as `znmap unfold-scan` does
    for beta in inp["betas"]:
        spec = make_spec("g4", beta=beta)
        orbit = op.item("orbits_per_s", f"orbit/g4/{beta!r}",
                        lambda: find_periodic(spec, warm, 4), output=point,
                        check=lambda o: _continued(o, beta))
        if orbit is not None:
            warm = orbit.point
    for i, (spec, n, start) in enumerate(inp["starts"]):
        op.item("rotations_per_s", f"rotation/{spec.family}/{n}/{i}",
                lambda: estimate_rotation(spec, start), output=lambda e: e.rational,
                check=lambda e: [] if e.rational == (1, n) else [f"rational {e.rational}"])
    for spec, region, g in inp["spectra"]:
        op.item("spectral_pts_per_s", f"spectral/{spec.family}",
                lambda: spectral_scan(spec, region, g), work=g * g,
                output=lambda s: [s.max_modulus, s.argmax], check=_spectral_ok(region))
    op.item("singularity_s", "singularity", _singularity,
            output=_singularity_output, check=_singularity_ok)


WORKLOADS = {
    "verify": (verify_inputs, verify_op),
    "basin": (basin_inputs, basin_op),
    "explore": (explore_inputs, explore_op),
}
