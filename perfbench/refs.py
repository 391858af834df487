"""Regenerate ref.json: every workload item's output at the default seed.

    python3 perfbench/refs.py

Run it only when a change to znmap is meant to change an output; the diff
of ref.json then shows which outputs moved.  Refuses to write if any item
raises or breaks an invariant.
"""

import json
import sys

from run import HERE, SRC

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    refs = {"seed": workloads.DEFAULT_SEED}
    for sizes in (workloads.FULL, workloads.TINY):
        outputs = refs[sizes.name] = {}
        for name, (make_inputs, op_fn) in workloads.WORKLOADS.items():
            op = workloads.Op(None, {})
            op_fn(make_inputs(workloads.DEFAULT_SEED, sizes), op)
            if op.problems:
                sys.stderr.write("\n".join(op.problems) + "\n")
                return 1
            outputs.update(op.outputs)
            print(f"{sizes.name} {name}: {op.attempted} items")
    (HERE / "ref.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
