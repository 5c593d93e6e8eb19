import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import obliqueshell
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


@pytest.mark.parametrize("branches, code", [("0", 2), ("1,9", 1)])
def test_rejected_dispersion_branch_writes_no_file(tmp_path, capsys, branches, code):
    # n = 0 is a usage error; n = 9 needs N >= 36, a resolution limit
    out = tmp_path / "disp.csv"
    rc = run(["dispersion", "--curve", "circle", "--N", "32", "--n", branches,
              "--lambda-min", "-2", "--lambda-max", "-1", "--lambda-steps", "3",
              "--out", str(out)])
    assert rc == code
    assert "branch" in capsys.readouterr().err
    assert not out.exists()


def test_dispersion_rejects_positive_lambda(tmp_path, capsys):
    rc = run(["dispersion", "--lambda-min", "-1", "--lambda-max", "1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_bad_tol_is_usage_error(tmp_path):
    rc = run(["spectrum", "--tol", "0", "--alpha", "-1", "--count", "1",
              "--N", "32", "--out", str(tmp_path / "x.json")])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [("--lambda-steps", "-1"),
                                         ("--lambda-steps", "0"),
                                         ("--n", "1..0")])
def test_empty_dispersion_sweep_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    rc = run(["dispersion", "--lambda-min", "-2", "--lambda-max", "-1", "--N", "32",
              flag, value, "--out", str(out)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["dispersion", "--tol", "1e-9", "--lambda-min", "-2", "--lambda-max", "-1",
     "--out", "x.csv"],
    ["nonrel-limit", "--tol", "1e-9", "--out", "x.csv"],
    ["oracle-check", "--tol", "1e-9"],
    ["oracle-check", "--manifest", "m.json"],
])
def test_flags_are_registered_only_where_read(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


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


def test_eigenfunction_consistency_gate_follows_tol(tmp_path):
    # the root is found to --tol, and the eigenfunction's check that
    # alpha lambda mu_n is 1 uses the same tolerance
    out = tmp_path / "ef.csv"
    rc = run(["eigenfunction", "--curve", "kite", "--alpha", "-1", "--branch", "2",
              "--N", "64", "--box-n", "8", "--tol", "1e-3", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 8 * 8


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


_NONREL = ["nonrel-limit", "--N", "32"]
_SPECTRUM = ["spectrum", "--count", "1", "--N", "32"]


@pytest.mark.parametrize("argv, name", [
    # non-finite numbers
    (["oracle-check", "--lam=-inf"], "lambda"),
    (_NONREL + ["--lam", "nan+1j"], "lambda"),
    (_NONREL + ["--lam", "1+infj"], "lambda"),
    (_NONREL + ["--c-list", "8,nan"], "c"),
    (_NONREL + ["--c-list", "8,inf"], "c"),
    (_NONREL + ["--c-list", "8,1e300"], "c"),  # c^2 overflows
    (_SPECTRUM + ["--alpha", "inf"], "alpha"),
    (_SPECTRUM + ["--alpha=-inf"], "alpha"),
    (_SPECTRUM + ["--alpha", "nan"], "alpha"),
    (_SPECTRUM + ["--alpha", "-1", "--tol", "inf"], "tol"),
    (["eigenfunction", "--alpha=-inf", "--N", "32"], "alpha"),
    # malformed curve configs
    (_SPECTRUM + ["--alpha", "-1", "--curve", '{"kind":"circle","R":"a"}'], "R"),
    (_SPECTRUM + ["--alpha", "-1", "--curve", '{"kind":"circle","R":true}'], "R"),
    (_SPECTRUM + ["--alpha", "-1", "--curve", '{"kind":"ellipse","a":null}'], "a"),
    (_SPECTRUM + ["--alpha", "-1", "--curve", '{"kind":"ellipse","b":-1}'], "b"),
    (_SPECTRUM + ["--alpha", "-1", "--curve",
                  '{"kind":"custom","x_coeffs":5,"y_coeffs":[0,[0,-0.5]]}'], "x_coeffs"),
    (_SPECTRUM + ["--alpha", "-1", "--curve",
                  '{"kind":"custom","x_coeffs":[1,"b"],"y_coeffs":[0,[0,-0.5]]}'],
     "x_coeffs"),
    (_SPECTRUM + ["--alpha", "-1", "--curve",
                  '{"kind":"custom","x_coeffs":[0,0.5],"y_coeffs":[0,[0]]}'], "y_coeffs"),
    (_SPECTRUM + ["--alpha", "-1", "--curve",
                  '{"kind":"custom","x_coeffs":[0,0.5],"y_coeffs":[]}'], "y_coeffs"),
    # alpha so small that the root bracket's seed 1/(2 alpha^2) overflows
    (_SPECTRUM + ["--alpha=-1e-200"], "alpha"),
    (_SPECTRUM + ["--alpha=-1e-160"], "alpha"),
    (["eigenfunction", "--alpha=-1e-200", "--N", "32"], "alpha"),
    (["eigenfunction", "--alpha=-1e-160", "--N", "32"], "alpha"),
    (["delta-compare", "--alpha=-1e-200", "--count", "1", "--N", "32"], "alpha"),
    (["delta-compare", "--alpha=-1e-160", "--count", "1", "--N", "32"], "alpha"),
    # a curve name that is not a string; a curve that is not the unit circle
    # under the circle's name
    (_SPECTRUM + ["--alpha", "-1", "--curve", '{"kind":"kite","name":5}'], "name"),
    (["oracle-check", "--N", "32", "--curve", '{"kind":"kite","name":"circle(1)"}'],
     "curve"),
    # lambda on [0, inf), rejected where the spectral parameter is made
    (["oracle-check", "--lam", "0"], "lambda"),
])
def test_bad_number_or_curve_is_a_usage_error(tmp_path, capsys, argv, name):
    # each input is rejected before any output is written, with a message
    # that names the parameter
    out = tmp_path / "out"
    if argv[0] != "oracle-check":
        argv = argv + ["--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert re.search(rf"\b{name}\b", err.removeprefix("usage error:")), err
    assert not out.exists()


def test_oracle_check(capsys):
    rc = run(["oracle-check", "--lam", "-2", "--N", "64"])
    assert rc == 0
    assert "mismatch" in capsys.readouterr().out
    rc = run(["oracle-check", "--curve", "kite"])
    assert rc == 2
    # the unit circle under another kind passes: the curve, not its name, counts
    rc = run(["oracle-check", "--N", "64", "--curve", '{"kind":"ellipse","a":1,"b":1}'])
    assert rc == 0


def test_cli_import_defers_numpy_and_every_export_resolves():
    # the CLI copies THREADS into the BLAS variables, which only takes effect
    # if numpy is not loaded yet
    src = str(Path(obliqueshell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import obliqueshell.cli, sys; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
    assert "FieldSamples" not in obliqueshell.__all__
    assert "DiracResolventBlocks" not in obliqueshell.__all__
    missing = [name for name in obliqueshell.__all__ if not hasattr(obliqueshell, name)]
    assert missing == [] and len(obliqueshell.__all__) == 55
