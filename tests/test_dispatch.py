"""numpy picks its SIMD loops at run time, by CPU.  The outputs that rest on
numpy's float functions are rerun in a subprocess with every dispatch
target this CPU offers turned off (NPY_DISABLE_CPU_FEATURES acts on that
process alone) and must keep every byte."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import znmap

# the verify report at two seeds, the Jacobian scans of the families that
# take _LIBM's cos and sin (f4/g4 take closed forms over numpy), the basin
# kinds of the five families on 192^2 pixels, enough for the thread split,
# also over the outer cycle of h/hn, and what the explore benchmark pins:
# periodic points on the inner orbit of fn/hn and the outer cycle of hn
# (fn has none), rotation rationals and the exact codimension computation
CHILD = """\
import hashlib
import math
import sys
from znmap import (MapSpec, basin_raster, estimate_rotation, find_periodic, from_polar,
                   spectral_scan)
from znmap.cli import main
from znmap.singularity import codimension_check

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print([t for t in __cpu_dispatch__ if __cpu_features__.get(t)])
for seed in ("0x5EED", "5"):
    print("exit", main(["verify", "--suite", "all", "--seed", seed, "--json", "-"]))
for family, n in (("fn", 5), ("h", 4), ("hn", 5)):
    s = spectral_scan(MapSpec(family, n=n), (-20.0, 20.0, -20.0, 20.0), 31)
    print(family, n, s.max_modulus.hex(), *(v.hex() for v in s.argmax))
for family, n, beta in (("f4", 4, 0.0), ("g4", 4, 0.05), ("fn", 5, 0.0), ("h", 4, 0.0),
                        ("hn", 5, 0.0)):
    for half in (5.0, 14.0) if family in ("h", "hn") else (5.0,):
        kinds = basin_raster(MapSpec(family, n=n, beta=beta), (-half, half, -half, half),
                             192, 192).kinds
        print("basin", family, n, half, hashlib.sha256(kinds.tobytes()).hexdigest())
for family, guess in (("fn", (3.0, 0.1)), ("hn", (3.0, 0.1)), ("hn", (11.2, 0.1))):
    point = find_periodic(MapSpec(family, n=5), guess, 5).point
    print("orbit", family, *guess, *(v.hex() for v in point))
for family in ("fn", "hn"):
    for n in (5, 7):
        start = from_polar((7.0, 0.3 * math.pi / n))
        print("rotation", family, n, *estimate_rotation(MapSpec(family, n=n), start).rational)
rep = codimension_check()
print("codimension", rep.dim_tangent, rep.dim_with_v2, rep.dim_with_v1, rep.memberships,
      rep.complement)
"""


def run_child(**env) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(znmap.__file__).parents[1]), **env)
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return proc.stdout.splitlines()


def test_outputs_keep_their_bytes_with_simd_dispatch_off():
    default = run_child()
    targets = ast.literal_eval(default[0])  # the child's active dispatch targets
    if not targets:
        pytest.skip("numpy reports no dispatch target on this CPU")
    plain = run_child(NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert plain[0] == "[]"
    assert default.count("exit 1") == 2  # unfolding fails by design
    assert sum(line.startswith("basin ") for line in default) == 7
    assert sum(line.startswith("orbit ") for line in default) == 3
    assert sum(line.startswith("rotation ") for line in default) == 4
    assert default[-1].startswith("codimension ")
    assert plain[1:] == default[1:]
