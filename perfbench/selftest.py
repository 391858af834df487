"""Fast self-test of the benchmark at tiny sizes (about fifteen seconds).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, untraced and traced, at the default
seed (outputs checked against the tiny references) and at another seed
(invariants only): every declared metric is emitted with its declared unit
and as a finite number, the report names the workload's own metrics with
their units, and no item fails.  Then every reference entry is
corrupted, and every item must be counted in ops_failed.
"""

import json
import math
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

# the per-workload metrics every untraced report prints by name and unit
NAMED = {
    "verify": {"verify_s": "s"},
    "basin": {f"basin_{fam}_px_per_s": "px/s" for fam in ("f4", "g4", "fn", "h", "hn")},
    "explore": {"orbits_per_s": "1/s", "rotations_per_s": "1/s",
                "spectral_pts_per_s": "1/s", "singularity_s": "s"},
}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {trace: {m["name"]: m["unit"] for m in bench[key]}
                for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    refs = run.load_refs()
    corrupted = {"tiny": {key: "corrupted" for key in refs["tiny"]}}
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (False, True):
            for seed in (workloads.DEFAULT_SEED, 7):
                report = run.run(name, seed, 0.0, trace, workloads.TINY, refs)
                result = report["result"]
                where = f"{name} trace={int(trace)} seed={seed}"
                named = {k: s["unit"] for k, s in report["named"].items()}
                if named != {"setup_s": "s", "op_s": "s", **NAMED[name]}:
                    errors.append(f"{where}: named metrics {named}")
                units = {k: m["unit"] for k, m in result["metrics"].items()}
                if units != declared[trace]:
                    errors.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                  f"{sorted(set(units.items()) ^ set(declared[trace].items()))}")
                if not all(isinstance(m["value"], float) and math.isfinite(m["value"])
                           for m in result["metrics"].values()):
                    errors.append(f"{where}: a metric value is not a finite float")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    errors.append(f"{where}: {result['failed']} of {result['attempted']} "
                                  "items failed")
        result = run.run(name, workloads.DEFAULT_SEED, 0.0, False, workloads.TINY,
                         corrupted)["result"]
        if result["correct"] or result["failed"] != result["attempted"]:
            errors.append(f"{name}: corrupted references gave {result['failed']} failed "
                          f"of {result['attempted']} items")
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
