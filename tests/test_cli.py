import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import znmap
from znmap.analysis import find_periodic
from znmap.cli import main
from znmap.maps import MapSpec
from znmap.verify import scan_unfolding


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsing and validation (exit code 2)
# ---------------------------------------------------------------------------

def test_usage_error_for_out_of_range_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "f4", "--k", "1.2", "--x0", "1", "--y0", "0"])
    assert exc.value.code == 2


def test_usage_error_for_n_with_base_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "f4", "--n", "6", "--x0", "1", "--y0", "0"])
    assert exc.value.code == 2


def test_usage_error_for_unfold_flags_on_fn(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "fn", "--n", "6", "--beta", "0.1",
              "--x0", "1", "--y0", "0"])
    assert exc.value.code == 2


def test_usage_error_for_small_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "fn", "--n", "1", "--x0", "1", "--y0", "0"])
    assert exc.value.code == 2


def test_usage_error_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--nope", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, env_seed", [
    (["unfold-scan", "--beta", "abc"], None),
    (["orbit", "--x0", "1", "--y0", "0", "--steps", "-1"], None),
    (["curve", "--samples", "2"], None),
    (["rotation", "--x0", "0", "--y0", "0"], None),
    (["eval", "--family", "fn", "--n", "5", "--x0", "nan", "--y0", "0"], None),
    (["verify", "--suite", "properness"], "abc"),
    (["eval", "--family", "f4", "--n", "6", "--x0", "1", "--y0", "0"], None),
    (["verify", "--family", "fn", "--beta", "0.1", "--suite", "properness"], None),
    (["basin", "--family", "g4", "--r0", "7", "--window", "-1", "1", "-1", "1",
      "--out", "unused.pgm"], None),
    (["rotation", "--family", "h", "--r-half", "1", "--x0", "1", "--y0", "0"], None),
    (["eval", "--family", "f4", "--x0", "nan", "--y0", "0"], None),
    (["eval", "--family", "g4", "--x0", "1", "--y0", "inf"], None),
    (["eval", "--family", "h", "--x0", "nan", "--y0", "0"], None),
    (["orbit", "--family", "f4", "--x0", "inf", "--y0", "0"], None),
    (["orbit", "--family", "g4", "--x0", "nan", "--y0", "0"], None),
    (["orbit", "--family", "h", "--x0", "0", "--y0", "nan"], None),
    (["basin", "--family", "g4", "--beta", "nan", "--window", "-5", "5", "-5", "5",
      "--res", "8", "--out", "unused.pgm"], None),
    (["eval", "--family", "g4", "--beta", "nan", "--x0", "1", "--y0", "1"], None),
    (["orbit", "--family", "g4", "--delta=-inf", "--x0", "1", "--y0", "1"], None),
    (["unfold-scan", "--alpha", "inf", "--beta", "0:0.1:3"], None),
    (["unfold-scan", "--k", "1", "--beta", "0:0.1:3"], None),
    (["eval", "--family", "h", "--r0", "7", "--r-half", "inf", "--x0", "100", "--y0", "1"], None),
    (["rotation", "--family", "hn", "--n", "5", "--r0", "inf", "--x0", "6", "--y0", "0.5"], None),
    (["curve", "--family", "f4", "--radius", "nan"], None),
    (["curve", "--family", "g4", "--beta", "0.05", "--radius=-inf"], None),
    (["curve", "--family", "fn", "--n", "5", "--radius", "inf"], None),
    (["curve", "--family", "h", "--radius", "nan"], None),
    (["curve", "--family", "hn", "--n", "7", "--radius", "nan"], None),
    (["rotation", "--family", "fn", "--n", "5", "--x0", "6", "--y0", "0.5", "--iters", "3"], None),
    (["rotation", "--family", "fn", "--n", "5", "--x0", "6", "--y0", "0.5", "--iters", "-5"], None),
], ids=["unfold-scan-beta", "orbit-steps", "curve-samples", "rotation-origin",
        "eval-nan", "verify-seed-env", "eval-n-on-f4", "verify-beta-on-fn",
        "basin-r0-on-g4", "rotation-r-half-without-r0", "eval-f4-nan", "eval-g4-inf",
        "eval-h-nan", "orbit-f4-inf", "orbit-g4-nan", "orbit-h-nan", "basin-g4-beta-nan",
        "eval-g4-beta-nan", "orbit-g4-delta-inf", "unfold-scan-alpha-inf", "unfold-scan-k-one",
        "eval-h-r-half-inf", "rotation-hn-r0-inf", "curve-f4-radius-nan", "curve-g4-radius-inf",
        "curve-fn-radius-inf", "curve-h-radius-nan", "curve-hn-radius-nan", "rotation-iters-3",
        "rotation-iters-negative"])
def test_usage_error_for_bad_values_names_the_command(capsys, monkeypatch, argv, env_seed):
    if env_seed is not None:
        monkeypatch.setenv("ZNMAP_SEED", env_seed)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"znmap: error: {argv[0]}: " in capsys.readouterr().err


def test_usage_error_for_empty_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", ","])
    assert exc.value.code == 2
    assert "znmap: error: verify: the suite names no checks" in capsys.readouterr().err


@pytest.mark.parametrize("flags, plain", [
    (["--family", "f4", "--n", "4"], ["--family", "f4"]),
    (["--family", "fn", "--beta", "0"], ["--family", "fn"]),
], ids=["n4-on-f4", "beta0-on-fn"])
def test_flag_that_selects_the_same_map_is_accepted(tmp_path, capsys, flags, plain):
    outputs = []
    for i, family_flags in enumerate((flags, plain)):
        path = tmp_path / f"r{i}.json"
        code, out, _ = run(["eval", *family_flags, "--x0", "1.3", "--y0", "-2.1"], capsys)
        assert code == 0
        code, verify_out, _ = run(["verify", *family_flags, "--suite", "negative-control",
                                   "--json", str(path)], capsys)
        assert code == 0
        outputs.append((out, verify_out, path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_usage_error_for_r_half_without_r0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "h", "--x0", "20", "--y0", "0", "--r-half", "1"])
    assert exc.value.code == 2
    assert "--r-half requires --r0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval / orbit / curve / rotation
# ---------------------------------------------------------------------------

def test_eval_output(capsys):
    code, out, _ = run(["eval", "--family", "f4", "--k", "1.1",
                        "--x0", "1", "--y0", "1"], capsys)
    assert code == 0
    x = float(out.split()[0].split("=")[1])
    y = float(out.split()[1].split("=")[1])
    assert abs(x + 1.1 / 3) <= 1e-15 and abs(y - 1.1 / 3) <= 1e-15


def test_orbit_csv(tmp_path, capsys):
    path = tmp_path / "orbit.csv"
    code, _, _ = run(["orbit", "--family", "f4", "--x0", "0.5", "--y0", "0.5",
                      "--steps", "10", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "step,x,y"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.5


def test_curve_csv_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        code, _, _ = run(["curve", "--family", "f4", "--radius", "1",
                          "--samples", "90", "--out", str(p)], capsys)
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().splitlines()
    assert rows[0] == "theta,x,y"
    theta0 = rows[1].split(",")
    assert float(theta0[1]) == 0.0 or abs(float(theta0[1])) < 1e-16
    assert abs(float(theta0[2]) - 0.55) <= 1e-12


def test_rotation_output_format(capsys):
    code, out, _ = run(["rotation", "--family", "fn", "--n", "6", "--k", "1.1",
                        "--x0", "2", "--y0", "0", "--iters", "200"], capsys)
    assert code == 0
    assert out.strip() == "slope=0.166667 rational=1/6"


# ---------------------------------------------------------------------------
# basin
# ---------------------------------------------------------------------------

def test_basin_pgm(tmp_path, capsys):
    path = tmp_path / "b.pgm"
    code, out, _ = run(["basin", "--family", "f4", "--window", "-0.9", "0.9",
                        "-0.9", "0.9", "--res", "16", "--budget", "200",
                        "--out", str(path)], capsys)
    assert code == 0
    data = path.read_bytes()
    assert data.startswith(b"P5\n16 16\n255\n")
    pixels = np.frombuffer(data[len(b"P5\n16 16\n255\n"):], dtype=np.uint8)
    assert pixels.size == 256
    assert (pixels == 255).all()  # everything converges in the contraction disk
    assert "converged=256" in out


def test_basin_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "1.pgm", tmp_path / "2.pgm"
    args = ["basin", "--family", "hn", "--n", "5", "--k", "1.1",
            "--window", "-5", "5", "-5", "5", "--res", "24", "--budget", "150",
            "--r-escape", "1e3"]
    for p in (p1, p2):
        code, _, _ = run(args + ["--out", str(p)], capsys)
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("flags", [
    ["--res", "0"],
    ["--eps-in", "2", "--r-escape", "1"],
    ["--window", "1", "-1", "-1", "1"],
    ["--budget", "-1"],
    ["--eps-in", "1e-170"],
])
def test_basin_usage_error_for_bad_values(tmp_path, capsys, flags):
    argv = ["basin", "--family", "f4", "--window", "-1", "1", "-1", "1",
            "--res", "8", "--budget", "50", "--out", str(tmp_path / "x.pgm")]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert not (tmp_path / "x.pgm").exists()


def test_basin_io_failure_exit_code(tmp_path, capsys):
    code, _, err = run(["basin", "--family", "f4", "--window", "-1", "1", "-1", "1",
                        "--res", "8", "--budget", "50",
                        "--out", str(tmp_path / "no" / "dir" / "x.pgm")], capsys)
    assert code == 3
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# unfold-scan
# ---------------------------------------------------------------------------

def test_unfold_scan_beta_range(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _, _ = run(["unfold-scan", "--k", "1.1", "--alpha", "0", "--delta", "0",
                      "--beta", "0:0.1:11", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,x,y,residual,mult1_mod,mult2_mod"
    assert len(lines) == 12
    for line in lines[1:]:
        beta, x, y, res = (float(v) for v in line.split(",")[:4])
        assert res <= 1e-10
        # orbit stays on the axes: radius solves k r^2/(1+r^2) + beta = 1
        expected = math.sqrt((1.0 - beta) / (1.1 - 1.0 + beta))
        assert abs(math.hypot(x, y) - expected) <= 1e-8


def test_unfold_scan_is_the_warm_started_chain(tmp_path, capsys):
    # unfold-scan and verify's unfolding check continue the orbit one way:
    # find_periodic from P = ((k-1)^(-1/2), 0), each solve started where
    # the previous one ended; the CSV's 17 significant digits round-trip
    path = tmp_path / "scan.csv"
    code, _, _ = run(["unfold-scan", "--beta", "0.01:0.1:10", "--out", str(path)], capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    warm = (1.0 / math.sqrt(1.1 - 1.0), 0.0)
    chain = []
    for beta in np.linspace(0.01, 0.1, 10).tolist():
        orb = find_periodic(MapSpec("g4", k=1.1, beta=beta), warm, 4)
        warm = orb.point
        chain.append([beta, *orb.point, orb.residual, *(float(abs(m)) for m in orb.multipliers)])
    assert [list(map(float.hex, row)) for row in rows] == [list(map(float.hex, row))
                                                          for row in chain]
    residuals = [row.residual for row in scan_unfolding(1.1).rows]
    assert list(map(float.hex, residuals)) == [float.hex(row[3]) for row in rows]


def test_unfold_scan_requires_exactly_one_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["unfold-scan", "--k", "1.1", "--alpha", "0:0.1:5",
              "--beta", "0:0.1:5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# singularity and verify
# ---------------------------------------------------------------------------

def test_singularity_stdout_and_json(tmp_path, capsys):
    path = tmp_path / "sing.json"
    code, out, _ = run(["singularity", "--json", str(path)], capsys)
    assert code == 0
    assert out.strip() == "rank(Q)=12 codimension=3 complement={X1, X2, N*X2}"
    payload = json.loads(path.read_text())
    assert payload["rank"] == 12
    assert payload["codimension"] == 3
    assert payload["complement"] == ["X1", "X2", "N*X2"]
    assert payload["invariant_relation_holds"] is True
    assert len(payload["entries"]) == 13


def test_import_leaves_out_the_exact_layer():
    # znmap.singularity builds its constants at import; only the singularity
    # command and check import it, so a fresh interpreter that imports the
    # package and the CLI and builds the parser does not; nor does it load a
    # process pool (run_suite forks with os alone)
    child = ("import sys, znmap, znmap.cli; znmap.cli.build_parser(); "
             "print([m in sys.modules for m in "
             "('znmap.singularity', 'multiprocessing', 'concurrent.futures')])")
    env = dict(os.environ, PYTHONPATH=str(Path(znmap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout == "[False, False, False]\n"


def test_verify_selected_checks_pass(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["verify", "--family", "fn", "--n", "6", "--k", "1.1",
                        "--suite",
                        "singularity,negative-control,properness,periodic-orbit",
                        "--json", str(path)], capsys)
    assert code == 0
    assert "PASS singularity" in out
    report = json.loads(path.read_text())
    assert report["pass"] is True
    assert report["spec"]["family"] == "fn" and report["spec"]["n"] == 6
    assert {c["name"] for c in report["checks"]} == {
        "singularity", "negative-control", "properness", "periodic-orbit"}
    for c in report["checks"]:
        assert "tolerance" in c
        assert isinstance(c["pass"], bool)


def test_version_is_the_one_in_pyproject(capsys):
    # a regex, not tomllib: tomllib is missing on Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]*)"$', project, re.M)[1] == znmap.__version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"znmap {znmap.__version__}\n"


def test_suite_all_is_exactly_the_acceptance_battery():
    from znmap.verify import CHECKS_BY_NAME

    assert list(CHECKS_BY_NAME) == [
        "equivariance", "periodic-orbit", "local-attractor", "eigenvalue-bound",
        "unfolding", "properness", "gluing-smoothness", "astroid",
        "rotation-number", "dissipativity", "singularity", "negative-control",
    ]


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "not-a-check"])
    assert exc.value.code == 2


def test_verify_failing_check_exits_one(capsys):
    # verify checks the unfolding criterion as stated, and its uniform
    # eigenvalue bound is false for beta > beta* ~ 0.0413, so it reports FAIL
    # (see tests/test_acceptance.py::test_criterion_05_unfolding)
    code, out, _ = run(["verify", "--suite", "unfolding"], capsys)
    assert code == 1
    assert "FAIL unfolding" in out
    assert "overall: FAIL" in out


def test_verify_seed_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "r.json"
    monkeypatch.setenv("ZNMAP_SEED", "1234")
    code, _, _ = run(["verify", "--suite", "negative-control",
                      "--json", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["seed"] == 1234
    monkeypatch.setenv("ZNMAP_SEED", "99")
    code, _, _ = run(["verify", "--suite", "negative-control", "--seed", "77",
                      "--json", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["seed"] == 77
    # --seed reads an integer literal as ZNMAP_SEED does: 0x5EED is the default
    monkeypatch.delenv("ZNMAP_SEED")
    reports = []
    for flags in ([], ["--seed", "0x5EED"], ["--seed", "24301"]):
        code, _, _ = run(["verify", "--suite", "negative-control", *flags,
                          "--json", str(path)], capsys)
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[1] == reports[0] == reports[2]


def test_verify_json_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(["verify", "--suite", "properness", "--seed", "5",
                          "--json", str(p)], capsys)
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
