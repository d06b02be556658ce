"""Command-line interface: JSON outputs, exit codes, file round trips."""

import json
import math
import os

import numpy as np
import pytest

from hermanlab import _kernels, curve, rotation
from hermanlab.cfrac import GOLDEN, convergents
from hermanlab.cli import main
from hermanlab.maps import herman_family

B_FIG = "-1.144208,-0.964454"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cfrac_json(capsys):
    code, out, _ = run(capsys, "cfrac", "--theta", "golden", "--depth", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["quotients"] == [1] * 8
    assert doc["q"][:9] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    conv = convergents(GOLDEN, 8)
    assert doc["lengths"][3] == pytest.approx(float(conv.lengths[3]))


def test_cfrac_rejects_rational_theta(capsys):
    code, _, err = run(capsys, "cfrac", "--theta", "0.25", "--depth", "8")
    assert code == 2
    assert "config error" in err


def test_maps_coefficients(capsys):
    # note --param=...: argparse would read a bare leading-minus value as a flag
    code, out, _ = run(capsys, "maps", "--d0", "3", "--dinf", "2",
                       "--param=" + B_FIG)
    assert code == 0
    doc = json.loads(out)
    assert doc["total_degree"] == 4
    # numerator of F_{3,2,b}: b(4z^3 - z^4); check coefficient layout
    b = complex(*[float(t) for t in B_FIG.split(",")])
    assert complex(*doc["num"][3]) == pytest.approx(4 * b)
    assert complex(*doc["num"][4]) == pytest.approx(-b)
    assert [complex(*c) for c in doc["den"][:3]] == [1, -4, 6]


def test_unknown_flag_is_usage_error(capsys):
    assert main(["cfrac", "--theta", "golden", "--bogus"]) == 2


def test_tune_blaschke_json(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    code, _, _ = run(capsys, "tune", "--d0", "2", "--dinf", "2",
                     "--theta", "golden", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["residual"] < 1e-8
    assert 0 < doc["alpha"] < 1


def test_tune_reports_verify(capsys):
    """The Newton ladder's checks are in tune's JSON and decide its exit code;
    the bisection tuners run none."""
    code, out, err = run(capsys, "tune", "--d0", "3", "--dinf", "2")
    assert code == 0 and json.loads(out)["verify"]["all"] is True
    code, out, _ = run(capsys, "tune", "--d0", "2", "--dinf", "2", "--theta", "golden")
    assert code == 0 and json.loads(out)["verify"] is None


def test_tune_fails_when_verify_fails(capsys):
    # the shipped (2,3) preset tunes to a map whose curve checks fail
    code, out, err = run(capsys, "tune", "--d0", "2", "--dinf", "3")
    assert code == 1
    assert json.loads(out)["verify"]["all"] is False
    assert "cyclic_order" in err


def test_tune_decimal_theta_matches_named(capsys):
    """A decimal theta tunes to the same JSON as its name; a rational one is a
    configuration error."""
    argv = ["tune", "--d0", "2", "--dinf", "2", "--theta"]
    code, named, _ = run(capsys, *argv, "golden")
    assert code == 0
    code, decimal, _ = run(capsys, *argv, "0.6180339887498949")
    assert code == 0 and decimal == named
    code, _, err = run(capsys, *argv, "0.25")
    assert code == 2 and "config error" in err


def test_trace_geometry_roundtrip(capsys, tmp_path):
    csv = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "trace", "--d0", "3", "--dinf", "2",
                     "--theta", "golden", "--depth", "12", "--out", str(csv))
    assert code == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0].startswith("k,")
    assert len(rows) - 1 == convergents(GOLDEN, 12).q[12]

    code, out, _ = run(capsys, "geometry", "--curve", str(csv),
                       "--theta", "golden")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == convergents(GOLDEN, 12).q[12]
    assert doc["depth"] == 12
    assert 0 < doc["critical_angle_rad"] < 2 * math.pi
    assert doc["bounded_turning"] > 0


def test_dims_on_circle_csv(capsys, tmp_path):
    csv = tmp_path / "circle.csv"
    t = np.linspace(0.0, 1.0, 20001)[:-1]
    with open(csv, "w") as fh:
        fh.write("k,angle,re,im\n")
        for k, a in enumerate(t):
            fh.write("%d,%.17g,%.17g,%.17g\n" % (k, a, math.cos(2 * math.pi * a),
                                                 math.sin(2 * math.pi * a)))
    code, out, _ = run(capsys, "dims", "--points", str(csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] == pytest.approx(1.0, abs=0.02)


def test_renorm_chi_json(capsys):
    code, out, _ = run(capsys, "renorm", "chi", "--d0", "3", "--dinf", "2",
                       "--theta", "golden", "--param=" + B_FIG, "--depth", "6")
    assert code == 0
    doc = json.loads(out)
    for n in range(2, 7):
        assert doc[str(n)]["chi"] == 1
        assert doc[str(n)]["commutation_residual"] < 1e-6


def test_pipeline_config_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "family": [3, 2],
                               "theta": "golden", "outdir": str(tmp_path),
                               "frobnicate": True}))
    code, _, err = run(capsys, "pipeline", "--config", str(bad))
    assert code == 2
    assert "unknown config fields" in err

    noschema = tmp_path / "noschema.json"
    noschema.write_text(json.dumps({"family": [3, 2], "theta": "golden",
                                    "outdir": str(tmp_path)}))
    assert main(["pipeline", "--config", str(noschema)]) == 2

    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"schema": 1, "family": [3, 2], "theta": "golden",
                                "outdir": str(tmp_path), "precision": "quad"}))
    assert main(["pipeline", "--config", str(quad)]) == 2


def test_pipeline_numeric_failure_exit_code(capsys, tmp_path):
    # a hopeless explicit seed: the tune stage fails, exit code 1,
    # and the report records the failed stage
    outdir = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "family": [3, 2],
                               "theta": "golden", "seed": [10.0, 10.0],
                               "tune_depth": 16, "outdir": str(outdir)}))
    code, _, err = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 1
    report = json.loads((outdir / "report.json").read_text())
    assert report["stages"]["tune"]["ok"] is False


def test_pipeline_small_run_deterministic(capsys, tmp_path):
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        cfg = tmp_path / ("%s.json" % name)
        cfg.write_text(json.dumps({
            "schema": 1, "family": [3, 2], "theta": "golden",
            "seed": "preset", "tune_depth": 16, "trace_depth": 12,
            "renorm_depth": 8, "resolution": 96, "maxiter": 150,
            "outdir": str(outdir)}))
        code, _, _ = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 0
        outs.append(outdir)
    a, b = outs
    for fname in ("curve.csv", "ratios.csv", "grid.bin", "render.ppm"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("config_hash"), rb.pop("config_hash")   # outdir differs
    assert ra == rb
    assert all(st["ok"] for st in ra["stages"].values())


def small_config(tmp_path, name, **extra):
    """The config of test_pipeline_small_run_deterministic, run into tmp_path/name."""
    cfg = tmp_path / ("%s.json" % name)
    cfg.write_text(json.dumps(dict({
        "schema": 1, "family": [3, 2], "theta": "golden",
        "seed": "preset", "tune_depth": 16, "trace_depth": 12,
        "renorm_depth": 8, "resolution": 96, "maxiter": 150,
        "outdir": str(tmp_path / name)}, **extra)))
    return cfg


def test_tune_without_preset_is_config_error(capsys):
    code, _, err = run(capsys, "tune", "--d0", "4", "--dinf", "3")
    assert code == 2
    assert "no preset seed" in err


def test_numeric_keyerror_is_numeric_failure(capsys, tmp_path, monkeypatch):
    def broken_trace(*args, **kwargs):
        raise KeyError("orbit index 7 not in trace")
    monkeypatch.setattr(curve, "trace", broken_trace)
    code, _, err = run(capsys, "trace", "--d0", "3", "--dinf", "2", "--param=" + B_FIG,
                       "--depth", "8", "--out", str(tmp_path / "c.csv"))
    assert code == 1
    assert "numeric failure" in err


def test_pipeline_fails_verify_stage(capsys, tmp_path, monkeypatch):
    checks = {"annulus": False, "cyclic_order": False, "alternation": False, "all": False}
    monkeypatch.setattr(rotation, "verify_herman", lambda *args: dict(checks))
    code, _, _ = run(capsys, "pipeline", "--config", str(small_config(tmp_path, "v")))
    assert code == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["stages"]["verify"]["ok"] is False
    assert "trace" not in report["stages"]


def test_extended_pipeline_leaves_no_process_state(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("HERMANLAB_PRECISION", raising=False)
    m = herman_family(3, 2, complex(*[float(t) for t in B_FIG.split(",")]))
    before = curve.trace(m, "golden", 12)
    cfg = small_config(tmp_path, "x", precision="extended")
    code, _, _ = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 0
    assert "HERMANLAB_PRECISION" not in os.environ
    after = curve.trace(m, "golden", 12)
    assert np.array_equal(before.ks, after.ks)
    assert np.array_equal(before.points, after.points)


def test_pipeline_unknown_seed_name_is_config_error(capsys, tmp_path):
    code, _, err = run(capsys, "pipeline", "--config",
                       str(small_config(tmp_path, "s", seed="bogus")))
    assert code == 2
    assert "config error" in err and "bogus" in err
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["stages"]["tune"]["ok"] is False


def test_pipeline_report_names_backend_and_precision(capsys, tmp_path):
    code, _, _ = run(capsys, "pipeline", "--config",
                     str(small_config(tmp_path, "r", precision="extended")))
    assert code == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["backend"] == _kernels.BACKEND
    assert report["precision"] == "extended"
