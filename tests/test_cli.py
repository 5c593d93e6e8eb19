import json

import pytest

from obliqueshell import cli


def run(argv):
    return cli.main(argv)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "dispersion" in capsys.readouterr().out


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_dispersion_csv(tmp_path):
    out = tmp_path / "disp.csv"
    rc = run(["dispersion", "--curve", "circle", "--N", "32",
              "--n", "1..3", "--lambda-min", "-10", "--lambda-max", "-1",
              "--lambda-steps", "20", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,n,value"
    assert len(lines) == 1 + 3 * 20


def test_dispersion_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["dispersion", "--curve", "kite", "--N", "32", "--n", "1,2",
            "--lambda-min", "-5", "--lambda-max", "-1",
            "--lambda-steps", "5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dispersion_rejects_positive_lambda(tmp_path, capsys):
    rc = run(["dispersion", "--lambda-min", "-1", "--lambda-max", "1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_bad_tol_is_usage_error(tmp_path):
    rc = run(["dispersion", "--tol", "0", "--lambda-min", "-2",
              "--lambda-max", "-1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bad_branch_spec(tmp_path):
    rc = run(["dispersion", "--n", "1..x", "--lambda-min", "-2",
              "--lambda-max", "-1", "--N", "32", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_malformed_curve_json(tmp_path):
    rc = run(["spectrum", "--curve", '{"radius": 2}', "--alpha", "-1",
              "--count", "1", "--N", "32", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    rc = run(["spectrum", "--curve", "pentagon", "--alpha", "-1",
              "--count", "1", "--N", "32", "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_spectrum_positive_alpha_empty(tmp_path):
    out = tmp_path / "spec.json"
    rc = run(["spectrum", "--alpha", "1.0", "--count", "2", "--N", "32",
              "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["eigenvalues"] == []


def test_spectrum_with_manifest(tmp_path):
    out = tmp_path / "spec.json"
    man = tmp_path / "manifest.json"
    rc = run(["spectrum", "--alpha", "-1", "--count", "1", "--N", "64",
              "--tol", "1e-8", "--out", str(out), "--manifest", str(man)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["eigenvalues"][0]["lambda"] == pytest.approx(-3.6906, abs=1e-3)
    m = json.loads(man.read_text())
    assert m["command"] == "spectrum"
    assert str(out) in m["outputs"]
    assert len(m["outputs"][str(out)]) == 64  # sha256 hex digest
    assert m["wall_time_s"] >= 0


def test_curve_from_file(tmp_path):
    cfg = tmp_path / "curve.json"
    cfg.write_text(json.dumps({"kind": "ellipse", "a": 2, "b": 1}))
    out = tmp_path / "d.csv"
    rc = run(["dispersion", "--curve", str(cfg), "--N", "32",
              "--lambda-min", "-2", "--lambda-max", "-1",
              "--lambda-steps", "3", "--out", str(out)])
    assert rc == 0


def test_eigenfunction_csv(tmp_path):
    out = tmp_path / "ef.csv"
    rc = run(["eigenfunction", "--alpha", "-1", "--branch", "1", "--N", "64",
              "--tol", "1e-7", "--box-n", "12", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 12 * 12
    x, y, re, im = (float(v) for v in lines[1].split(","))


def test_delta_compare_report(tmp_path):
    out = tmp_path / "cmp.json"
    rc = run(["delta-compare", "--alpha", "-50", "--count", "1", "--N", "64",
              "--tol", "1e-8", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["delta"]["kind"] == "delta"
    assert d["oblique"]["kind"] == "oblique"
    assert 0.9 <= d["delta_E1_over_minus_alpha2_over_4"] <= 1.1
    assert "oblique_lambda1" in d


def test_nonrel_limit_outputs(tmp_path):
    out = tmp_path / "gaps.csv"
    rc = run(["nonrel-limit", "--lam", "1j", "--c-list", "8,32", "--N", "48",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c,gap_a0,gap_phi,gap_phistar,gap_c"
    assert len(lines) == 3
    slopes = json.loads((tmp_path / "gaps.csv.slopes.json").read_text())
    assert set(slopes["slopes"]) == {"a0", "phi", "phistar", "c"}


def test_nonrel_limit_bad_lam(tmp_path):
    rc = run(["nonrel-limit", "--lam", "banana", "--out",
              str(tmp_path / "x.csv")])
    assert rc == 2
    # real lambda is a domain error -> usage exit code
    rc = run(["nonrel-limit", "--lam", "-1", "--c-list", "8,16",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_nonrel_limit_repeated_speed_is_usage_error(tmp_path):
    # one distinct c gives no slope
    rc = run(["nonrel-limit", "--lam", "1j", "--c-list", "16,16",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert not (tmp_path / "x.csv").exists()


def test_oracle_check(capsys):
    rc = run(["oracle-check", "--lam", "-2", "--N", "64"])
    assert rc == 0
    assert "mismatch" in capsys.readouterr().out
    rc = run(["oracle-check", "--curve", "kite"])
    assert rc == 2
