import json
import math

import numpy as np
import pytest

from znmap.cli import main


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


def test_suite_all_is_exactly_the_acceptance_battery():
    from znmap.verify import ALL_CHECKS

    assert [name for name, _ in ALL_CHECKS] == [
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


def test_verify_json_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(["verify", "--suite", "properness", "--seed", "5",
                          "--json", str(p)], capsys)
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
