"""znmap benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload {verify,basin,explore} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; znmap is imported from ``src/``.  One
process, one thread, BLAS pinned to one thread; operations run back to back
(a closed loop with one client).  The report goes to stdout, ending with one
JSON line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  A copy of the report, and the spans of a traced run,
go to ``perfbench/out/``.  See README.md for the workloads and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import znmap, znmap.cli
t2 = time.perf_counter()
znmap.cli.build_parser()
print(t1 - t0, t2 - t1)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(setup: dict, count: int) -> None:
    """Fresh interpreter -> import numpy, znmap, znmap.cli -> build_parser(),
    until ``setup`` holds ``count`` samples."""
    while len(setup["setup_s"]) < count:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True, timeout=120)
        setup["setup_s"].append(time.perf_counter() - t0)
        numpy_s, znmap_s = proc.stdout.split()
        setup["cli.import.numpy_s"].append(float(numpy_s))
        setup["cli.import.znmap_s"].append(float(znmap_s))


def summary(secs: list, unit: str, work=None) -> dict:
    """Median over the run, sample count, and the slow tail: the highest
    percentile of the times with at least ten samples beyond it.  With
    ``work`` the figures are rates, work / time."""
    value = (lambda t: t) if work is None else (lambda t: work / t)
    out = {"median": value(statistics.median(secs)), "unit": unit, "n": len(secs),
           "samples": secs}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(secs) * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(secs, n=1000, method="inclusive")[round(pct * 10) - 1]
            out["tail"] = f"p{pct:g}: {value(cut):.6g}"
            break
    else:
        out["tail"] = "no percentile has 10 samples beyond it"
    return out


def machine() -> dict:
    import numpy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "loadavg": list(os.getloadavg())}


def run_cli_verify(seed: int, names) -> tuple:
    """`znmap verify` in a fresh interpreter: (wall seconds, exit code, JSON text)."""
    out = OUT / f"cli-verify-{seed}.json"
    out.unlink(missing_ok=True)
    suite = "all" if names is None else ",".join(names)
    t0 = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "znmap.cli", "verify", "--suite", suite, "--seed", str(seed),
             "--json", str(out)], cwd=ROOT, env=child_env(), capture_output=True,
            timeout=60).returncode
    except subprocess.TimeoutExpired:
        code = None
    wall = time.perf_counter() - t0
    text = out.read_text(encoding="utf-8") if out.is_file() else ""
    return wall, code, text


def run(workload: str, seed: int, seconds: float, trace: bool, sizes, refs) -> dict:
    """Measure one workload; returns the report whose "result" is the JSON line."""
    import spans
    import workloads

    make_inputs, op_fn = workloads.WORKLOADS[workload]
    ref = refs.get(sizes.name, {}) if seed == workloads.DEFAULT_SEED else None
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "sizes": sizes.name, "machine": machine()}
    inputs = make_inputs(seed, sizes)
    seen = {}
    untraced, traced_ops = [], []
    tracer = spans.Tracer()
    setup = {"setup_s": [], "cli.import.numpy_s": [], "cli.import.znmap_s": []}
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        # spread the set-up samples over the run, as the operations are
        elapsed = (time.perf_counter() - start) / max(seconds, 1e-9)
        measure_setup(setup, min(sizes.setups, 1 + int(sizes.setups * elapsed)))
        op = workloads.Op(ref, seen)
        op_fn(inputs, op)
        untraced.append(op)
        if trace:
            op = workloads.Op(ref, seen)
            tracer.op_id = len(traced_ops)
            with spans.traced(tracer, workloads):
                op_fn(inputs, op)
            traced_ops.append(op)
        if time.perf_counter() >= deadline or len(traced_ops) >= sizes.max_traced_ops:
            break
    measure_setup(setup, sizes.setups)
    ops = untraced + traced_ops
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    problems = [p for op in ops for p in op.problems]

    med_setup = statistics.median(setup["setup_s"])
    op_times = [op.seconds for op in untraced]
    named = {"setup_s": summary(setup["setup_s"], "s"), "op_s": summary(op_times, "s")}
    for part, (_, work) in untraced[0].parts.items():
        secs = [op.parts[part][0] for op in untraced]
        if part.endswith("_per_s"):
            named[part] = summary(secs, "px/s" if "_px_" in part else "1/s", work)
        else:
            named[part] = summary(secs, "s")
    report["named"] = named

    if trace:
        layers = spans.layer_metrics(tracer, len(traced_ops))
        layers["cli.import.numpy_s"] = (statistics.median(setup["cli.import.numpy_s"]), "s")
        layers["cli.import.znmap_s"] = (statistics.median(setup["cli.import.znmap_s"]), "s")
        cli_wall = cli_self = 0.0
        if workload == "verify":
            attempted += 1
            OUT.mkdir(exist_ok=True)
            cli_wall, code, text = run_cli_verify(seed, sizes.verify_checks)
            cli_self = cli_wall - med_setup - statistics.median(op_times)
            expected = untraced[0].outputs.get("verify")
            # exit code 1 is the suite reporting unfolding's designed failure
            want_code = 0 if expected and json.loads(expected)["pass"] else 1
            if text != expected or code != want_code:
                failed += 1
                problems.append(f"cli-verify: exit code {code} (want {want_code}) or "
                                "JSON differs from the in-process report")
        layers["cli.verify.wall_s"] = (cli_wall, "s")
        layers["cli.verify.self_s"] = (cli_self, "s")
        traced_med = statistics.median(op.seconds for op in traced_ops)
        layers["trace.overhead_share"] = (traced_med / statistics.median(op_times) - 1.0,
                                          "ratio")
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layers.items()}
        tracer.save(OUT / f"spans-{workload}-{seed}.npz")
    else:
        metrics = {"setup_s": {"value": med_setup, "unit": "s"},
                   "op_s": {"value": statistics.median(op_times), "unit": "s"}}
    report["problems"] = problems
    report["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    return report


def seed_arg(text: str) -> int:
    seed = int(text, 0)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def load_refs() -> dict:
    return json.loads((HERE / "ref.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "basin", "explore"))
    parser.add_argument("--seed", type=seed_arg, default=0x5EED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "znmap" / "__init__.py").is_file():
        sys.stderr.write(f"no znmap sources at {SRC}; run from a checkout of the repo\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 workloads.FULL, load_refs())
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} machine={json.dumps(report['machine'])}")
    for name, s in report["named"].items():
        print(f"{name:24s} {s['median']:.6g} {s['unit']}  (median of {s['n']}; {s['tail']})")
    result = report["result"]
    print(f"{'ops_attempted':24s} {result['attempted']}")
    print(f"{'ops_failed':24s} {result['failed']}")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{name:56s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
