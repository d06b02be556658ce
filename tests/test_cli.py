"""Command-line interface: JSON outputs, exit codes, file round trips."""

import json
import math
import os
import struct
import tempfile
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermanlab import _kernels, _reference, cfrac, cli, curve, julia, maps, renorm, rotation
from hermanlab.cfrac import GOLDEN
from hermanlab.cli import main

B_FIG = "-1.144208,-0.964454"
# the (3,2) golden parameter a Newton ladder tunes to depth 20, whose critical
# orbit stays on its curve past q_20 (B_FIG's escapes first)
DEEP = "-1.1442084006991486,-0.9644541436327397"
GOLDEN_DECIMAL = "0.6180339887498949"  # certifies 33 quotients


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
    assert doc["lengths"][3] == pytest.approx(float(GOLDEN.lengths(8)[3]))


def test_cfrac_rejects_rational_theta(capsys):
    code, _, err = run(capsys, "cfrac", "--theta", "0.25", "--depth", "8")
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("argv, config", [
    (["tune", "--d0", "2", "--dinf", "2", "--theta", "1,1,1"], None),
    (["tune", "--d0", "3", "--dinf", "2", "--theta", "1,1,1", "--seed=" + B_FIG], None),
    (None, {"theta": "1,1,1,1,1", "seed": [-1.144208, -0.964454], "trace_depth": 4}),
    (["cfrac", "--theta", "1,2,3"], None),
], ids=["bisection", "ladder", "config", "cfrac"])
def test_short_quotient_list_is_rational_input(capsys, tmp_path, monkeypatch, argv, config):
    """A quotient list of fewer than 8 quotients is refused as a decimal that
    certifies fewer is: exit 2 before any tuning or outdir.  The bisection
    used to exit 1 (theta must be irrational), the ladder and the config 1
    on a bare StopIteration (the config after writing its outdir), and
    cfrac 0."""
    def never(*args, **kwargs):
        raise AssertionError("tuned")

    for name in ("tune_blaschke", "tune_asymmetric"):
        monkeypatch.setattr(rotation, name, never)
    if argv is None:
        argv = ["pipeline", "--config", str(small_config(tmp_path, "m", **config))]
    code, text, err = run(capsys, *argv)
    assert (code, text) == (2, "")
    assert err.startswith("config error: bad ") and "rational input" in err
    assert not (tmp_path / "m").exists()


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
    """An option a subcommand does not take exits 2: maps takes no --theta."""
    assert main(["cfrac", "--theta", "golden", "--bogus"]) == 2
    assert main(["maps", "--d0", "3", "--dinf", "2", "--param=" + B_FIG,
                 "--theta", "golden"]) == 2


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
    for family in (["3", "2"], ["2", "3"]):
        code, out, err = run(capsys, "tune", "--d0", family[0], "--dinf", family[1])
        assert code == 0 and json.loads(out)["verify"]["all"] is True
    code, out, _ = run(capsys, "tune", "--d0", "2", "--dinf", "2", "--theta", "golden")
    assert code == 0 and json.loads(out)["verify"] is None


def test_tune_fails_when_verify_fails(capsys, monkeypatch):
    checks = {"annulus": False, "cyclic_order": False, "alternation": False, "all": False}
    monkeypatch.setattr(rotation, "verify_herman", lambda *args: dict(checks))
    code, out, err = run(capsys, "tune", "--d0", "3", "--dinf", "2")
    assert code == 1
    assert json.loads(out)["verify"]["all"] is False
    assert "cyclic_order" in err


def test_tune_shallow_ladder_verifies_below_its_top(capsys):
    """An explicit seed climbs to m = 6 (q_6 = 13); verify stops at depth 5,
    before the return the ladder has just put on the critical point."""
    code, out, _ = run(capsys, "tune", "--d0", "3", "--dinf", "2", "--seed=" + B_FIG)
    doc = json.loads(out)
    assert code == 0 and doc["verified_depth"] == 5 and doc["verify"]["all"] is True


def test_renorm_mu_refuses_unresolved_factor(capsys):
    """Tuned only to m = 16, the map's mu at N = 16 is noise: mu_err > |mu|."""
    code, out, err = run(capsys, "renorm", "mu", "--d0", "3", "--dinf", "2",
                         "--param=-1.1442085964061983,-0.9644538043068728", "--depth", "16")
    assert code == 1 and out == "" and "mu_err" in err


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
    assert len(rows) - 1 == GOLDEN.q[12]

    code, out, _ = run(capsys, "geometry", "--curve", str(csv),
                       "--theta", "golden")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == GOLDEN.q[12]
    assert doc["depth"] == 12
    assert 0 < doc["critical_angle_rad"] < 2 * math.pi
    assert doc["bounded_turning"] > 0


def test_geometry_golden_decimal_matches_named(capsys, tmp_path):
    """The golden decimal resolves to 33 quotients: geometry recovers the
    depth within them and reports what the name reports."""
    csv = tmp_path / "curve.csv"
    assert main(["trace", "--d0", "3", "--dinf", "2", "--param=" + B_FIG,
                 "--depth", "12", "--out", str(csv)]) == 0
    argv = ["geometry", "--curve", str(csv), "--theta"]
    code, named, _ = run(capsys, *argv, "golden")
    assert code == 0
    code, decimal, err = run(capsys, *argv, "0.6180339887498949")
    assert (code, err) == (0, "") and decimal == named
    assert json.loads(decimal)["depth"] == 12


@pytest.mark.parametrize("depth", [12, 16, 20])
def test_geometry_reads_a_trace_to_thetas_last_level(capsys, tmp_path, depth):
    """A trace to the last level of a theta of depth quotients 1 reads back
    at that depth, and geometry writes the bytes it writes for the same
    file under golden: it used to stop one level short of theta's depth
    (depth 20 read as 19, its angle 3.866087 for golden's 3.864866, and
    depth 12 as 11, too short for the critical angle)."""
    ones, csv = ",".join(["1"] * depth), str(tmp_path / "c.csv")
    assert main(["trace", "--d0", "3", "--dinf", "2", "--param=" + DEEP, "--theta", ones,
                 "--depth", str(depth), "--out", csv]) == 0
    code, text, err = run(capsys, "geometry", "--curve", csv, "--theta", ones)
    assert (code, err) == (0, "") and json.loads(text)["depth"] == depth
    assert run(capsys, "geometry", "--curve", csv, "--theta", "golden") == (0, text, "")


@pytest.mark.parametrize("argv, config", [
    (["render", "--window", "a,b,c,d", "--res", "8"], None),
    (["render", "--window=-2,-2,2,2", "--res", "0"], None),
    (None, {"family": [3]}),
    (None, {"window": [1, 2]}),
    (None, {"trace_depth": "x"}),
    (None, {"maxiter": -5}),
    (["geometry", "--theta", "5,1,1,1,1,1,1,1,1,1", "--curve"], None),
    (["geometry", "--curve"], {"trace": 8}),
    (None, {"tol": "a"}),
    (None, {"tol": 0.0}),
    (None, {"seed": [1, 2, 3]}),
    (None, {"seed": [float("inf"), 0.0]}),
    (["render", "--window", "0,0,0,0", "--res", "8"], None),
    (["render", "--window=2,2,-2,-2", "--res", "8"], None),
    (None, {"window": [2, 2, -2, -2]}),
    (["porosity"], {"window": (0.0, 0.0, 0.0, 0.0)}),
    (["porosity"], {"window": (2.0, 2.0, -2.0, -2.0)}),
    (["cfrac", "--theta", "golden", "--depth=-1"], None),
    (["trace", "--depth", "1"], None),
    (["renorm", "ratios", "--depth=-3"], None),
    (["renorm", "chi", "--depth", "1"], None),
    (["renorm", "mu", "--depth", "4"], None),
    (["tune", "--seed", "preset", "--depth", "1"], None),
    (["tune", "--seed", "preset", "--depth", "4"], None),
    (None, {"trace_depth": 1}),
    (None, {"trace_depth": 3}),
    (None, {"tune_depth": 4}),
    (None, {"tune_depth": 5, "trace_depth": 12}),
    (["render", "--window=-2,-2,2,2", "--res", "8", "--maxiter", "0"], None),
    (["render", "--window=-2,-2,2,2", "--res", "8", "--maxiter=-3",
      "--grid-out", "{tmp}/g.bin"], None),
    (None, {"window": []}),
    (None, {"theta": None}),
    (None, {"outdir": 5}),
    (None, {"schema": True}),
    (None, {"theta": GOLDEN_DECIMAL, "seed": [-1.144208, -0.964454], "trace_depth": 40}),
    (None, {"theta": "1,1,1,1,1,1,1,1,1,1", "seed": [-1.144208, -0.964454], "trace_depth": 10}),
    (["cfrac", "--theta", GOLDEN_DECIMAL, "--depth", "50"], None),
    (["trace", "--theta", GOLDEN_DECIMAL, "--depth", "50"], None),
    (["renorm", "ratios", "--theta", GOLDEN_DECIMAL, "--depth", "31"], None),
    (["renorm", "mu", "--theta", GOLDEN_DECIMAL], None),
], ids=["window-text", "res-zero", "family-one-int", "window-two-numbers",
        "depth-text", "maxiter-negative", "curve-shorter-than-q1", "curve-too-short-for-angle",
        "tol-text", "tol-zero",
        "seed-three-numbers", "seed-infinite", "window-empty", "window-reversed",
        "config-window-reversed", "grid-window-empty", "grid-window-reversed",
        "cfrac-depth-negative", "trace-depth-1", "ratios-depth-negative", "chi-depth-1",
        "mu-depth-4", "tune-depth-1", "tune-depth-4", "config-trace-depth-1",
        "config-trace-depth-3", "config-tune-depth-4", "config-tune-depth-5-trace-depth-12",
        "maxiter-zero", "maxiter-negative-grid-out", "config-window-empty-list",
        "config-theta-null", "config-outdir-number", "config-schema-true",
        "config-trace-depth-past-decimal-theta", "config-trace-depth-verify-past-theta",
        "cfrac-depth-past-decimal-theta",
        "trace-depth-past-decimal-theta", "ratios-depth-past-decimal-theta",
        "mu-decimal-theta"])
def test_malformed_input_is_config_error(capsys, tmp_path, argv, config):
    """A bad window, resolution, family, depth, tolerance, seed, curve
    (one shorter than q_1, or a depth-8 trace, too short for the critical
    angle: it used to exit 1) or grid window is a configuration error
    (exit 2), not a numeric failure,
    and a too-shallow --depth or config depth is named in
    the message.  A Newton ladder to depth m is verified at m - 1, so tune
    refuses --depth below VERIFY_LEAST_DEPTH + 1 (depth 1 used to return
    c = 1 and exit 1), and a config's trace_depth below VERIFY_LEAST_DEPTH
    or tune_depth below its verify depth min(12, trace_depth) plus 1
    (tune_depth 5 with trace_depth 12 used to tune, then exit 1 at verify),
    before any stage runs.  render refuses a --maxiter below 1 before it
    classifies (0 used to give an all-UNDECIDED image, and -3 with
    --grid-out a struct error after classifying).  A null theta, a non-path
    outdir, a bool schema, an empty window list, a depth past the 33
    quotients a golden decimal certifies, a trace_depth whose ladder reads
    past a 10-quotient theta, and renorm mu on a non-periodic theta are
    refused too: each used to exit 1 or 0."""
    if argv is None:
        argv = ["pipeline", "--config", str(small_config(tmp_path, "m", **config))]
    elif argv[0] == "tune":
        argv = [*argv, "--d0", "3", "--dinf", "2", "--out", str(tmp_path / "t.json")]
    elif argv[0] == "geometry":
        csv = tmp_path / "one.csv"
        if config:
            assert main(["trace", "--d0", "3", "--dinf", "2", "--param=" + B_FIG,
                         "--depth", str(config["trace"]), "--out", str(csv)]) == 0
        else:
            csv.write_text("k,angle,re,im\n0,0.0,1.0,0.0\n")
        argv = [*argv, str(csv)]
    elif argv[0] == "porosity":
        argv = [*argv, "--grid", small_grid(tmp_path, config["window"]), "--center-re", "0",
                "--center-im", "0", "--radii", "1"]
    elif argv[0] != "cfrac":
        argv = [*argv, "--d0", "3", "--dinf", "2", "--param=" + B_FIG,
                "--out", str(tmp_path / "r.ppm")]
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "config error" in err
    assert not (tmp_path / "m").exists()
    if argv[0] == "render":
        assert not any(tmp_path.iterdir())  # no image, no grid
    for option in ("--depth", "--maxiter"):
        if any(a.split("=")[0] == option for a in argv):
            assert option in err
    for key in config or ():
        if key.endswith("_depth"):
            assert key in err


@pytest.mark.parametrize("lib", ["c", "numpy"])
def test_render_grid_inputs_are_bounded(monkeypatch, capsys, tmp_path, lib):
    """A --maxiter or config maxiter past the uint32 escape counts (2^32 - 1)
    and a window whose width or height overflows to inf exit 2 on either
    backend, before any tuning: the maxiter used to exit 1 on struct's or
    numpy's uint32 range, the window 0 with infinite pixel centres.
    julia.classify refuses such a maxiter, and --maxiter 2^32 - 1 runs."""
    if lib == "numpy":
        monkeypatch.setattr(_kernels, "_lib", None)
    elif _kernels._lib is None:
        pytest.skip("C kernels not built (no cc)")
    monkeypatch.setattr(cli, "_tune", lambda *a, **k: pytest.fail("tuned a refused run"))
    render = ["render", "--d0", "3", "--dinf", "2", "--res", "4",
              "--out", str(tmp_path / "r.ppm")]
    wide = [-1e308, -1e308, 1e308, 1e308]
    for argv in ([*render, "--window=-2,-2,2,2", "--maxiter", str(2 ** 32),
                  "--grid-out", str(tmp_path / "g.bin")],
                 [*render, "--window=%r,%r,%r,%r" % tuple(wide)],
                 [*render, "--window=-1,-1e308,1,1e308"],
                 ["pipeline", "--config", str(small_config(tmp_path, "m", maxiter=2 ** 32))],
                 ["pipeline", "--config", str(small_config(tmp_path, "m", window=wide))]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "config error" in err and ("maxiter" in err or "wide" in err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
    m = maps.herman_family(3, 2, complex(*map(float, B_FIG.split(","))))
    for maxiter in (-1, 2 ** 32):
        with pytest.raises(ValueError, match="maxiter"):
            julia.classify(m, (-2.0, -2.0, 2.0, 2.0), 4, maxiter)
    # every pixel of a window beyond rinf = 1e6 escapes at iterate 0
    grid = tmp_path / "g.bin"
    assert main([*render, "--param=" + B_FIG, "--window=2e6,2e6,3e6,3e6",
                 "--maxiter", str(2 ** 32 - 1), "--grid-out", str(grid)]) == 0
    loaded = julia.load_grid(str(grid))
    assert loaded.maxiter == 2 ** 32 - 1 and (loaded.escape_iters == 0).all()


@pytest.mark.parametrize("argv, config, named", [
    (["tune", "--d0", "1", "--dinf", "1"], None, "--d0"),
    (["maps", "--d0", "1", "--dinf", "3", "--param", "1,0"], None, "--d0"),
    (["maps", "--d0", "3", "--dinf", "1", "--param", "1,0"], None, "--dinf"),
    (["maps", "--d0", "31", "--dinf", "31", "--param", "1,0"], None, "--d0 + --dinf"),
    (["render", "--d0", "2", "--dinf", "0", "--window=-1,-1,1,1"], None, "--dinf"),
    (None, {"family": [1, 1]}, "family d0"),
    (None, {"family": [3, 0]}, "family dinf"),
    (None, {"family": [40, 22]}, "family d0 + family dinf"),
    (["maps", "--d0", "3", "--dinf", "2", "--param", "0,0"], None, "--param"),
    (["maps", "--d0", "3", "--dinf", "2"], None, "--param"),
    (["trace", "--d0", "3", "--dinf", "2", "--param", "0,0"], None, "--param"),
    (["renorm", "ratios", "--d0", "3", "--dinf", "2", "--param=-0,0"], None, "--param"),
    (["tune", "--d0", "3", "--dinf", "2", "--seed", "0,0"], None, "--seed"),
    (["tune", "--d0", "2", "--dinf", "2", "--seed", "0,0"], None, "--seed"),
    (["maps", "--d0", "3", "--dinf", "2", "--param", "nan,0"], None, "--param"),
    (["trace", "--d0", "3", "--dinf", "2", "--param", "inf,0"], None, "--param"),
    (["tune", "--d0", "3", "--dinf", "2", "--seed", "1,nan"], None, "--seed"),
    (None, {"seed": [0, 0]}, "seed"),
    (None, {"seed": [0.0, -0.0]}, "seed"),
], ids=["tune-degree-1", "maps-d0-1", "maps-dinf-1", "maps-degrees-overflow", "render-dinf-0",
        "config-family-1-1", "config-dinf-0", "config-degrees-overflow", "maps-param-zero",
        "maps-param-missing", "trace-param-zero", "renorm-param-zero", "tune-seed-zero",
        "tune-bisection-seed-zero", "maps-param-nan", "trace-param-inf", "tune-seed-nan",
        "config-seed-zero", "config-seed-signed-zero"])
def test_family_without_member_is_config_error(capsys, tmp_path, argv, config, named):
    """herman_family(d0, dinf, c) exists only for d0, dinf >= 2, d0 + dinf <= 61
    and a finite c != 0.  Any other family degrees, map parameter or seed
    is a configuration error that names its option or config field, found
    before any stage runs (each used to exit 1 as a numeric failure, or 0
    with NaN output for a non-finite --param)."""
    if argv is None:
        argv = ["pipeline", "--config", str(small_config(tmp_path, "m", **config))]
    else:
        argv = [*argv, "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("config error: %s must be" % named) or "needs " + named in err
    assert not (tmp_path / "m").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-3"])
def test_tune_refuses_bad_tol(capsys, tmp_path, tol):
    """--tol is checked as the pipeline's config tol is: a non-finite or
    non-positive tolerance is a configuration error, and nothing is tuned
    (--tol inf used to end the bisection after one step, at alpha = 0.75)."""
    out = tmp_path / "t.json"
    code, _, err = run(capsys, "tune", "--d0", "2", "--dinf", "2", "--tol=" + tol,
                       "--out", str(out))
    assert code == 2 and "tol must be a finite positive number" in err
    assert not out.exists()


def test_tune_tol_defaults_to_the_tuners_own(capsys, monkeypatch):
    """Without --tol, tune passes no tolerance, so each tuner keeps its own
    default (the ladder's 1e-12, which --tol's former default 1e-10
    overrode); a given --tol reaches the tuner."""
    seen = []

    def tuner(real):
        def call(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return real(*args, **kwargs)
        return call

    for name in ("tune_blaschke", "tune_asymmetric"):
        monkeypatch.setattr(rotation, name, tuner(getattr(rotation, name)))
    for argv in (["--d0", "2", "--dinf", "2"], ["--d0", "3", "--dinf", "2"]):
        assert run(capsys, "tune", *argv)[0] == 0
        assert run(capsys, "tune", *argv, "--tol", "1e-9")[0] == 0
    assert seen == [None, 1e-9, None, 1e-9]


def test_tune_explicit_seed_default_depth_verifies(capsys):
    """Without --depth, an explicit seed's ladder climbs to depth
    VERIFY_LEAST_DEPTH + 1 = 5 at least: from the (3,3) silver bisection
    root it tunes as with --depth 5 and passes the curve checks (its top
    used to be depth 3, the first q_n >= 10, refused with exit 1)."""
    argv = ["tune", "--d0", "3", "--dinf", "3", "--theta", "silver",
            "--seed=-0.8659735166849171,0.5000898603254796"]
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0 and doc["verify"]["all"] is True and doc["verified_depth"] == 4
    code, deep, _ = run(capsys, *argv, "--depth", "5")
    assert code == 0 and deep == out


def test_tune_depth_on_the_bisection_is_config_error(capsys, tmp_path):
    """The (d,d) bisection without --seed tunes to its own closest-return
    depth, so an explicit --depth is refused (it used to be ignored, with
    exit 0 and verified_depth 22) and the message names --seed; with a
    seed the Newton ladder runs and reports its curve checks."""
    out = tmp_path / "t.json"
    code, _, err = run(capsys, "tune", "--d0", "2", "--dinf", "2", "--depth", "30",
                       "--out", str(out))
    assert code == 2 and "config error" in err and "--seed" in err
    assert not out.exists()
    code, _, _ = run(capsys, "tune", "--d0", "2", "--dinf", "2", "--seed", "preset",
                     "--depth", "16", "--out", str(out))
    res = json.loads(out.read_text())
    assert code == 0 and res["alpha"] is None and res["verify"]["all"] is True


def test_pipeline_tune_depth_on_the_bisection_is_config_error(capsys, tmp_path):
    """A config's tune_depth for a (d,d) family without a seed is refused
    before any stage runs, with a message that names the seed."""
    cfg = json.loads(small_config(tmp_path, "b", family=[2, 2]).read_text())
    del cfg["seed"]
    path = tmp_path / "b.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "pipeline", "--config", str(path))
    assert code == 2 and "tune_depth" in err and "seed" in err
    assert not (tmp_path / "b").exists()


def _silver_config(tmp_path, family, **extra):
    """A (d,d) silver config without a seed, at the default depths unless extra sets them."""
    return small_config(tmp_path, "s", **{"family": family, "theta": "silver", "seed": None,
                                          "tune_depth": None, "trace_depth": None,
                                          "renorm_depth": None, "resolution": 16, **extra})


@pytest.mark.parametrize("argv, config, said", [
    (["renorm", "mu", "--d0", "2", "--dinf", "2", "--theta", "silver"], None,
     "(2,2) bisection checks theta to level 11 (q_11 = 13860), and --depth 14 reads its map "
     "at level 16: --depth 9 at most"),
    (["renorm", "chi", "--d0", "3", "--dinf", "3", "--theta", "silver"], None,
     "--depth 14 reads its map at level 16: --depth 9 at most"),
    (["renorm", "ratios", "--d0", "2", "--dinf", "2", "--theta", "silver", "--depth", "10"],
     None, "--depth 10 reads its map at level 12: --depth 9 at most"),
    (["renorm", "ratios", "--d0", "2", "--dinf", "2", "--depth", "21"], None,
     "(2,2) bisection checks theta to level 22 (q_22 = 28657), and --depth 21 reads its map "
     "at level 23: --depth 20 at most"),
    (["renorm", "mu", "--d0", "2", "--dinf", "2", "--theta", "bronze-alt", "--depth", "15"],
     None, "level 16 (q_16 = 29681), and --depth 15 reads its map at level 17: --depth 14"),
    (None, {"family": [2, 2]},
     "(2,2) bisection checks theta to level 11 (q_11 = 13860), and trace_depth 16 reads its "
     "map at level 12: trace_depth 11 at most"),
    (None, {"family": [3, 3]}, "trace_depth 16 reads its map at level 12"),
    (None, {"family": [4, 4]}, "trace_depth 16 reads its map at level 12"),
    (None, {"family": [2, 2], "trace_depth": 11, "renorm_depth": 10},
     "renorm_depth 10 reads its map at level 12: renorm_depth 9 at most"),
], ids=["mu-22-silver", "chi-33-silver", "ratios-22-silver-10", "ratios-22-golden-21",
        "mu-22-bronze-15", "config-22-silver", "config-33-silver", "config-44-silver",
        "config-22-silver-renorm-10"])
def test_bisection_depth_past_its_checked_level_is_config_error(capsys, tmp_path, monkeypatch,
                                                                argv, config, said):
    """The (d,d) bisection checks the closest returns q_n <= 30000 alone
    (rotation.checked_level: golden 22, silver 11, bronze-alt 16), so a
    renorm depth N whose orbit reads level N + 2 past that, and a pipeline
    whose verify depth min(12, trace_depth) or renorm_depth + 2 does, is
    refused before any tuning, naming the level and the deepest depth that
    fits.  Silver's defaults used to tune, then exit 1 (|mu| = 2.5085, no
    height chi, cyclic_order False) or print |s_14| = 1.88."""
    def tune_blaschke(*args, **kwargs):
        raise AssertionError("tuned before the depth was checked")

    monkeypatch.setattr(rotation, "tune_blaschke", tune_blaschke)
    if argv is None:
        argv = ["pipeline", "--config", str(_silver_config(tmp_path, **config))]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("config error: ") and said in err
    assert not (tmp_path / "s").exists()


def test_bisection_depths_within_its_checked_level_run(capsys, tmp_path):
    """The largest depths the refusals name run: silver renorm mu at --depth 9
    and a (2,2) silver pipeline at trace_depth 11 read |mu| = 0.3851; golden
    renorm mu keeps its default depth 14."""
    code, out, _ = run(capsys, "renorm", "mu", "--d0", "2", "--dinf", "2", "--theta", "silver",
                       "--depth", "9")
    assert code == 0 and json.loads(out)["mu_abs"] == pytest.approx(0.3851, abs=1e-4)
    code, _, err = run(capsys, "pipeline", "--config",
                       str(_silver_config(tmp_path, [2, 2], trace_depth=11)))
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert (code, err) == (0, "") and report["verify"]["all"] is True
    assert abs(complex(*report["mu"])) == pytest.approx(0.3851, abs=1e-4)
    assert run(capsys, "renorm", "mu", "--d0", "2", "--dinf", "2")[0] == 0


@pytest.mark.parametrize("key, shallow, least", [
    ("trace_depth", (1, 2, 3), rotation.VERIFY_LEAST_DEPTH),
    ("tune_depth", (1, 4), rotation.VERIFY_LEAST_DEPTH + 1),
])
def test_pipeline_refuses_depths_verify_cannot_pass(capsys, tmp_path, key, shallow, least):
    """verify_herman cannot pass below depth VERIFY_LEAST_DEPTH = 4, at which
    the pipeline verifies a trace_depth of 4 and a ladder to tune_depth 5:
    the shallower depths are configuration errors that name their key,
    refused before any stage runs (trace_depth 1 used to tune, then exit 1
    at verify); the least depths pass, with trace_depth 4."""
    assert rotation.VERIFY_LEAST_DEPTH == 4
    for depth in shallow:
        code, _, err = run(capsys, "pipeline", "--config",
                           str(small_config(tmp_path, "s", **{key: depth})))
        assert code == 2 and "config error" in err and key in err
        assert not (tmp_path / "s").exists()
    code, _, _ = run(capsys, "pipeline", "--config",
                     str(small_config(tmp_path, "t", resolution=16,
                                      **{"trace_depth": 4, key: least})))
    report = json.loads((tmp_path / "t" / "report.json").read_text())
    assert code == 0 and report["verify"]["all"] is True


def test_pipeline_measures_the_angle_from_its_least_depth(capsys, tmp_path):
    """The pipeline's geometry stage runs from trace depth
    curve.ANGLE_LEAST_DEPTH = 12 on and is skipped below it (trace depths 9
    to 11 used to run it and exit 1: too few closest returns for the
    angle fit)."""
    assert curve.ANGLE_LEAST_DEPTH == 12
    for depth in (11, 12):
        code, _, err = run(capsys, "pipeline", "--config",
                           str(small_config(tmp_path, "a%d" % depth, resolution=16,
                                            trace_depth=depth)))
        report = json.loads((tmp_path / ("a%d" % depth) / "report.json").read_text())
        assert (code, err) == (0, "")
        assert ("critical_angle_rad" in report) == (depth == 12)


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


def test_dims_on_short_curve_is_config_error(capsys, tmp_path):
    """Criterion 11's depth-16 curve has 1597 vertices, fewer than box
    counting needs: a configuration error that names the file and the
    count."""
    csv = tmp_path / "curve.csv"
    assert main(["trace", "--d0", "3", "--dinf", "2", "--theta", "golden", "--depth", "16",
                 "--out", str(csv)]) == 0
    code, out, err = run(capsys, "dims", "--points", str(csv), "--connect")
    assert (code, out) == (2, "")
    assert "config error: curve %s has 1597 vertices" % csv in err


def test_renorm_mu_json(capsys):
    """renorm mu writes self_similarity's mu as [re, im], |mu|, mu_err and
    Cauchy factors, the same floats."""
    code, out, _ = run(capsys, "renorm", "mu", "--d0", "3", "--dinf", "2",
                       "--param=" + DEEP, "--depth", "14")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_abs"] == pytest.approx(0.662, abs=0.01)
    rep = renorm.self_similarity(maps.herman_family(3, 2, complex(*map(float, DEEP.split(",")))),
                                 "golden", N=14)
    assert doc == {"mu": [rep.mu.real, rep.mu.imag], "mu_abs": abs(rep.mu),
                   "mu_err": rep.mu_err, "cauchy_factors": rep.cauchy_factors}


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

    # orbits run in complex128: the former precision field is unknown
    prec = tmp_path / "prec.json"
    prec.write_text(json.dumps({"schema": 1, "family": [3, 2], "theta": "golden",
                                "outdir": str(tmp_path), "precision": "double"}))
    code, _, err = run(capsys, "pipeline", "--config", str(prec))
    assert code == 2
    assert "unknown config fields: ['precision']" in err

    # a config that is not a JSON object
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    code, _, err = run(capsys, "pipeline", "--config", str(listed))
    assert code == 2 and "config must be a JSON object" in err


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


def test_pipeline_23_golden_passes_verify(capsys, tmp_path):
    code, _, _ = run(capsys, "pipeline", "--config",
                     str(small_config(tmp_path, "f", family=[2, 3])))
    assert code == 0
    report = json.loads((tmp_path / "f" / "report.json").read_text())
    assert report["verify"]["all"] is True


def test_pipeline_tunes_to_its_deepest_use(capsys, tmp_path):
    """Without tune_depth the ladder reaches the depth trace and renorm use
    (here m = 22), not the default 16, at which mu at N = 16 is noise."""
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({
        "schema": 1, "family": [3, 2], "theta": "golden", "seed": "preset",
        "trace_depth": 20, "renorm_depth": 16, "resolution": 32, "maxiter": 50,
        "outdir": str(tmp_path / "d")}))
    code, _, _ = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 0
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    assert 0.65 < abs(complex(*report["mu"])) < 0.68 and report["mu_err"] < 0.01


def test_pipeline_default_ladder_stays_within_theta(capsys, tmp_path):
    """A theta of 17 quotients and no tune_depth (a null field is an absent
    one): for trace_depth 16 the default ladder stops at depth 17, not 18,
    which the tuner refuses (it used to fail the tune stage, exit 1)."""
    cfg = small_config(tmp_path, "q", theta=",".join(["1"] * 17), trace_depth=16,
                       seed=[-1.1442085964061983, -0.9644538043068728], resolution=16,
                       tune_depth=None)
    code, _, err = run(capsys, "pipeline", "--config", str(cfg))
    report = json.loads((tmp_path / "q" / "report.json").read_text())
    assert (code, err) == (0, "") and report["verify"]["all"] is True


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


def test_pipeline_unknown_seed_name_is_config_error(capsys, tmp_path):
    code, _, err = run(capsys, "pipeline", "--config",
                       str(small_config(tmp_path, "s", seed="bogus")))
    assert code == 2
    assert "config error" in err and "bogus" in err
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["stages"]["tune"]["ok"] is False


def test_pipeline_report_names_backend_and_precision(capsys, tmp_path):
    """The report names the kernel backend; every orbit runs in complex128,
    so it names no precision."""
    code, _, _ = run(capsys, "pipeline", "--config", str(small_config(tmp_path, "r")))
    assert code == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["backend"] == _kernels.BACKEND
    assert "precision" not in report


def small_grid(tmp_path, window=(-2.0, -2.0, 2.0, 2.0)):
    """A saved 32 x 32 grid on window ([-2, 2]^2), UNDECIDED on its middle row."""
    from hermanlab.julia import BASIN0, UNDECIDED, GridClassification, save_grid

    labels = np.full((32, 32), BASIN0, np.uint8)
    labels[16] = UNDECIDED
    path = tmp_path / "g.bin"
    save_grid(GridClassification(window=window, labels=labels,
                                 escape_iters=np.zeros((32, 32), np.uint32),
                                 maxiter=1, r0=1e-6, rinf=1e6), path)
    return str(path)


@pytest.mark.parametrize("side", [2 ** 32 - 1, 4096])
def test_grid_header_past_its_file_is_config_error(capsys, tmp_path, side):
    """A grid header is checked against the file's size before its pixels are
    read: a file that holds only the 67-byte header of a side x side grid
    exits 2 as truncated, with no buffer of the header's size allocated
    (side 2^32 - 1 used to exit 1 with an OverflowError, and side 4096
    read into a 16 MB buffer first)."""
    path = tmp_path / "g.bin"
    path.write_bytes(julia.GRID_MAGIC + struct.pack("<4d2IIdd", -2, -2, 2, 2, side, side,
                                                    1, 1e-6, 1e6))
    assert path.stat().st_size == 67
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "porosity", "--grid", str(path), "--center-re", "0",
                             "--center-im", "0", "--radii", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "") and "truncated grid file" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("w, h", [(0, 0), (4, 0), (0, 4)])
def test_empty_grid_is_config_error(capsys, tmp_path, w, h):
    """porosity on a grid of w x h = 0 pixels exits 2 and says so; it used
    to exit 1 on a ZeroDivisionError."""
    path = tmp_path / "g.bin"
    path.write_bytes(julia.GRID_MAGIC + struct.pack("<4d2IIdd", -2, -2, 2, 2, w, h,
                                                    1, 1e-6, 1e6))
    code, out, err = run(capsys, "porosity", "--grid", str(path), "--center-re", "0",
                         "--center-im", "0", "--radii", "1")
    assert (code, out) == (2, "") and "has none" in err, err


def test_porosity_centre_outside_window_is_config_error(capsys, tmp_path):
    """A centre outside the window is refused, half a pixel past its left
    or lower edge too (which used to land in pixel 0 and exit 0)."""
    grid = small_grid(tmp_path)
    code, _, _ = run(capsys, "porosity", "--grid", grid, "--center-re", "0",
                     "--center-im", "0", "--radii", "1.5,1")
    assert code == 0
    for re, im in (("3", "0"), ("-2.0625", "0"), ("0", "-2.0625"), ("inf", "0"), ("1e400", "0"),
                   ("nan", "0")):
        code, out, err = run(capsys, "porosity", "--grid", grid, "--center-re=" + re,
                             "--center-im=" + im, "--radii", "1.5,1")
        assert code == 2 and out == ""
        assert err.startswith("config error:") and "outside window" in err


def test_porosity_refuses_non_square_pixels(capsys, tmp_path):
    """Porosity measures distances in pixels, so a grid whose pixels are not
    square (here 4 x 2 on 16 x 16 pixels) is refused: porosity_profile raises
    ValueError and the CLI exits 2.  Sides that differ only by rounding
    (0.3 - 0.1 < 0.2 < 0.9 - 0.7) still pass."""
    from hermanlab.julia import load_grid, porosity_profile

    path = str(tmp_path / "g.bin")
    assert main(["render", "--d0", "3", "--dinf", "2", "--param=" + B_FIG,
                 "--window", "0,0,4,2", "--res", "16", "--maxiter", "5",
                 "--out", str(tmp_path / "r.ppm"), "--grid-out", path]) == 0
    with pytest.raises(ValueError, match="not square"):
        porosity_profile(load_grid(path), 1.0 + 1.0j, [1.0])
    code, out, err = run(capsys, "porosity", "--grid", path, "--center-re", "1",
                         "--center-im", "1", "--radii", "1")
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "not square" in err
    rounded = small_grid(tmp_path, (0.1, 0.7, 0.3, 0.9))
    assert load_grid(rounded).pixel_size() == pytest.approx(0.2 / 32, rel=1e-12)


def test_porosity_bad_radii_is_config_error(capsys, tmp_path):
    """Radii must be finite numbers above 0: inf used to print a null radius
    with ratio 0, and nan a null in "skipped"."""
    grid = small_grid(tmp_path)
    for radii in ("0.8,abc", "inf,0.5", "nan", "0.5,-inf", "0", "-0.25"):
        code, out, err = run(capsys, "porosity", "--grid", grid, "--center-re", "0",
                             "--center-im", "0", "--radii=" + radii)
        assert (code, out) == (2, ""), radii
        assert err.startswith("config error:") and "--radii" in err and radii in err


@pytest.mark.parametrize("argv", [["geometry", "--curve"], ["dims", "--points"],
                                  ["porosity", "--center-re", "0", "--center-im", "0",
                                   "--radii", "1", "--grid"]])
def test_missing_input_file_is_config_error(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing")
    code, out, err = run(capsys, *argv, missing)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and missing in err


@pytest.mark.parametrize("argv, config, named, least", [
    (["cfrac", "--theta", "golden", "--depth", "100000000"], None, "--depth", 48),
    (["tune", "--d0", "3", "--dinf", "2", "--seed", "preset", "--depth", "60"], None, "--depth",
     48),
    (["trace", "--d0", "3", "--dinf", "2", "--depth", "49", "--out", "{tmp}/c.csv"], None,
     "--depth", 48),
    (["renorm", "ratios", "--d0", "3", "--dinf", "2", "--depth", "47"], None, "--depth", 46),
    (["renorm", "mu", "--d0", "3", "--dinf", "2", "--theta", "silver", "--depth", "47"], None,
     "--depth", 46),
    (None, {"trace_depth": 49}, "trace_depth", 48),
], ids=["cfrac-depth-1e8", "tune-depth-60", "trace-depth-49", "ratios-depth-47", "mu-depth-47",
        "config-trace-depth-49"])
def test_depth_past_the_cap_is_config_error(capsys, tmp_path, argv, config, named, least):
    """A periodic theta's deepest usable level is cfrac.MAX_DEPTH = 48, so
    each depth stops there, less the levels its command reads past it
    (two for the scaling ratios and mu, which read q_{N+2}): refused with exit 2 and no
    output, naming the option or config field.  cfrac --depth 100000000
    used to run until killed, and tune --depth 60 to exit 1 from the
    ladder."""
    assert cfrac.MAX_DEPTH == cfrac.GOLDEN.depth == 48
    if argv is None:
        argv = ["pipeline", "--config", str(small_config(tmp_path, "m", **config))]
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("config error: %s must be at most %d," % (named, least))
    assert "deepest usable level is 48" in err and "quotients" not in err
    assert {p.name for p in tmp_path.iterdir()} <= {"m.json"}  # no output, no outdir


@pytest.mark.parametrize("depth", [33, 40])
def test_trace_depth_past_the_vertex_cap_is_config_error(capsys, tmp_path, monkeypatch, depth):
    """A trace depth whose q_n exceeds curve.MAX_VERTICES = 2^22 exits 2
    before any tuning or tracing, from trace --depth and from a config
    trace_depth (q_40 = 165,580,141 points used to be allocated); golden
    depth 32 (q_32 = 3,524,578) stays accepted."""
    def never(*args):
        raise AssertionError("tuned or traced")

    traced = []
    monkeypatch.setattr(cli, "_tuned_map", lambda args, theta, m: "map")
    monkeypatch.setattr(cli, "_trace", lambda m, theta, n, path: traced.append(n))
    monkeypatch.setattr(curve, "trace", never)
    monkeypatch.setattr(rotation, "tune_asymmetric", never)
    assert curve.MAX_VERTICES == 2 ** 22
    assert GOLDEN.q[32:34] == (3524578, 5702887)
    trace = ["trace", "--d0", "3", "--dinf", "2", "--out", str(tmp_path / "c.csv"), "--depth"]
    assert run(capsys, *trace, "32")[0] == 0
    assert traced == [32]
    monkeypatch.setattr(cli, "_tuned_map", never)
    q = GOLDEN.q[depth]
    config = small_config(tmp_path, "m", trace_depth=depth)
    for argv, named in (([*trace, str(depth)], "--depth"),
                        (["pipeline", "--config", str(config)], "trace_depth")):
        code, text, err = run(capsys, *argv)
        assert (code, text) == (2, "")
        assert err.startswith("config error: %s: depth %d asks for q_%d = %d vertices, more "
                              "than the 4194304 a trace holds" % (named, depth, depth, q))
    assert traced == [32] and {p.name for p in tmp_path.iterdir()} == {"m.json"}


def test_renorm_depth_past_the_vertex_cap_is_config_error(capsys, tmp_path, monkeypatch):
    """renorm --depth N and a config renorm_depth N follow the critical
    orbit to q_{N+2}, held to curve.MAX_VERTICES as a trace is: golden
    N = 31 (q_33 = 5,702,887) exits 2 before any tuning or orbit and makes
    no outdir, and N = 30 (q_32 = 3,524,578) runs.  N = 45 used to iterate
    to q_47 = 4,807,526,976 until killed."""
    ratios = ["renorm", "ratios", "--d0", "3", "--dinf", "2", "--depth"]
    code, text, _ = run(capsys, *ratios, "30", "--param=" + DEEP)
    assert code == 0 and text.splitlines()[-1].startswith("31,")

    def never(*args, **kwargs):
        raise AssertionError("tuned or iterated")

    monkeypatch.setattr(cli, "_tuned_map", never)
    monkeypatch.setattr(renorm, "scaling_ratios", never)
    monkeypatch.setattr(rotation, "tune_asymmetric", never)
    config = small_config(tmp_path, "m", renorm_depth=31)
    for argv, named in (([*ratios, "31"], "--depth"),
                        (["pipeline", "--config", str(config)], "renorm_depth")):
        code, text, err = run(capsys, *argv)
        assert (code, text) == (2, "")
        assert err.startswith("config error: %s 31 follows the critical orbit to depth 33: "
                              "depth 33 asks for q_33 = 5702887 vertices, more than the "
                              "4194304 a trace holds" % named)
    assert {p.name for p in tmp_path.iterdir()} == {"m.json"}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 2), min_size=8, max_size=14))
def test_renorm_depth_reads_theta_to_its_last_level(quotients):
    """renorm ratios and mu at depth N read theta to q_{N+2}, so N stops at
    theta's depth - 2 (it used to stop at depth - 3): the deepest N that
    cli._trace_depth takes, renorm ratios computes (s_1..s_{N+1}), and
    N + 1 is refused."""
    theta = cfrac.ContinuedFraction(quotients)
    N = theta.depth - 2
    assert cli._trace_depth("--depth", N, 1, theta, cli._RENORM_PAST) == N
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.csv")
        assert main(["renorm", "ratios", "--d0", "3", "--dinf", "2", "--param=" + DEEP,
                     "--theta", ",".join(map(str, quotients)), "--depth", str(N),
                     "--out", out]) == 0
        with open(out) as fh:
            assert [int(row.split(",")[0]) for row in fh.readlines()[1:]] == list(range(1, N + 2))
    with pytest.raises(cli.ConfigError, match="must be at most %d, not %d" % (N, N + 1)):
        cli._trace_depth("--depth", N + 1, 1, theta, cli._RENORM_PAST)


def test_ladder_depth_past_the_vertex_cap_is_config_error(capsys, tmp_path, monkeypatch):
    """A Newton ladder to depth m evaluates residuals along the critical orbit
    to q_m, held to curve.MAX_VERTICES as a trace is: golden tune --depth 32
    runs, and --depth 33 and a config tune_depth 33 exit 2 before any
    residual and make no outdir (--depth 45 used to run until killed).  The
    derived default ladder depth keeps to the same cap: golden's 31 stays,
    silver's falls to 17 (q_17 = 2,744,210; q_18 = 6,625,109)."""
    tops = []
    tune = rotation.tune_asymmetric

    def recorded(*args, **kwargs):
        tops.append(kwargs["m"])
        return tune(*args, **kwargs)

    monkeypatch.setattr(rotation, "tune_asymmetric", recorded)
    argv = ["tune", "--d0", "3", "--dinf", "2", "--seed", "preset", "--depth"]
    code, text, _ = run(capsys, *argv, "32")
    assert code == 0 and json.loads(text)["verify"]["all"] is True and tops == [32]

    def never(*args, **kwargs):
        raise AssertionError("tuned")

    monkeypatch.setattr(rotation, "tune_asymmetric", never)
    config = small_config(tmp_path, "m", tune_depth=33)
    for argv, named in (([*argv, "33"], "--depth"),
                        (["pipeline", "--config", str(config)], "tune_depth for trace_depth 12")):
        code, text, err = run(capsys, *argv)
        assert (code, text) == (2, "")
        assert err.startswith("config error: %s: depth 33 asks for q_33 = 5702887 vertices, "
                              "more than the 4194304 a trace holds" % named)
    assert {p.name for p in tmp_path.iterdir()} == {"m.json"}
    assert (cli._tune_depth(40, GOLDEN), cli._tune_depth(40, cfrac.SILVER)) == (31, 17)


def test_derived_ladder_default_keeps_the_verify_rule(capsys, tmp_path, monkeypatch):
    """A config without tune_depth has its ladder depth derived, and the
    derived depth obeys the rule a given one does: at least
    min(12, trace_depth) + 1 and within the vertex cap.  With a_13 =
    5,000,000 the default stops at 12 (q_13 = 1,165,000,144 vertices), one
    below what trace_depth 12 verifies; it used to tune to 12 and exit 0,
    and the least explicit depth, 13, is refused by the cap.  Both exit 2
    before any stage or outdir."""
    monkeypatch.setattr(rotation, "tune_asymmetric", None)
    theta = ",".join(["1"] * 12 + ["5000000"] + ["1"] * 7)
    seed = [-1.1442084006991486, -0.9644541436327397]
    for name, extra, said in (
            ("d", {}, "the derived default tune_depth for trace_depth 12 must be at least 13, "
                      "not 12"),
            ("e", {"tune_depth": 13}, "tune_depth for trace_depth 12: depth 13 asks for "
                                      "q_13 = 1165000144 vertices")):
        cfg = small_config(tmp_path, name, theta=theta, seed=seed,
                           **{"tune_depth": None, **extra})
        code, text, err = run(capsys, "pipeline", "--config", str(cfg))
        assert (code, text) == (2, "") and err.startswith("config error: " + said)
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("family, seed", [([2, 2], None), ([2, 2], "preset"),
                                          ([3, 2], "preset"), ([2, 3], "preset")])
def test_preset_defaults_keep_their_ladder_depth(tmp_path, family, seed):
    """Every preset family at its default depths loads with the ladder depth
    it was tuned to before the derived default was checked, and the (2,2)
    bisection without a seed with none."""
    cfg = small_config(tmp_path, "p", family=family, seed=seed, tune_depth=None,
                       trace_depth=None, renorm_depth=None)
    loaded, _ = cli._load_config(str(cfg))
    assert loaded.tune_depth == (None if seed is None else 18)
    assert (loaded.trace_depth, loaded.renorm_depth) == (16, 14)


def test_chain_config_runs(capsys, tmp_path):
    """The golden chain config's pipeline, with its own tune_depth, and a
    (2,3) preset pipeline at its derived default ladder depth run."""
    for name, extra in (("c", {"tune_depth": 18, "trace_depth": 20, "renorm_depth": 14}),
                        ("p", {"family": [2, 3], "tune_depth": None})):
        cfg = small_config(tmp_path, name, resolution=32, maxiter=50, **extra)
        code, _, err = run(capsys, "pipeline", "--config", str(cfg))
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert (code, err) == (0, "") and report["verify"]["all"] is True


@pytest.mark.parametrize("argv, named", [
    (["cfrac", "--theta", "golden", "--out"], "--out"),
    (["tune", "--d0", "2", "--dinf", "2", "--out"], "--out"),
    (["trace", "--d0", "3", "--dinf", "2", "--param=" + B_FIG, "--out"], "--out"),
    (["renorm", "ratios", "--d0", "3", "--dinf", "2", "--param=" + B_FIG, "--out"], "--out"),
    (["render", "--d0", "3", "--dinf", "2", "--param=" + B_FIG, "--window=-2,-2,2,2", "--res",
      "8", "--out"], "--out"),
    (["render", "--d0", "3", "--dinf", "2", "--param=" + B_FIG, "--window=-2,-2,2,2", "--res",
      "8", "--out", "{tmp}/r.ppm", "--grid-out"], "--grid-out"),
], ids=["cfrac", "tune", "trace", "ratios", "render-out", "render-grid-out"])
def test_missing_output_directory_is_config_error(capsys, tmp_path, monkeypatch, argv, named):
    """An --out or --grid-out in a directory that does not exist, or that is
    a directory, is refused before any work, with exit 2 naming the option
    (trace and cfrac used to do their work, then exit 1 with
    FileNotFoundError or IsADirectoryError)."""
    def work(*args, **kwargs):
        raise AssertionError("work ran")

    for mod, name in ((cfrac.ContinuedFraction, "lengths"), (rotation, "tune_blaschke"),
                      (curve, "trace"), (renorm, "scaling_ratios"), (julia, "classify")):
        monkeypatch.setattr(mod, name, work)
    for path in (str(tmp_path / "missing" / "out"), str(tmp_path)):
        code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv], path)
        assert (code, out) == (2, "")
        assert err == "config error: %s %r must be a file in a directory that exists\n" % (
            named, path)
        assert not any(tmp_path.iterdir())


def test_pipeline_outdir_that_cannot_be_made_is_config_error(capsys, tmp_path):
    """An outdir below a file is refused with exit 2 naming outdir."""
    (tmp_path / "file").write_text("")
    outdir = str(tmp_path / "file" / "run")
    code, out, err = run(capsys, "pipeline", "--config",
                         str(small_config(tmp_path, "p", outdir=outdir)))
    assert (code, out) == (2, "")
    assert err.startswith("config error: cannot create outdir %r" % outdir)


def test_renorm_ratios_matches_the_pipeline_bytes(capsys, tmp_path):
    """renorm ratios --out at the pipeline's tuned parameter and renorm_depth
    writes the pipeline's ratios.csv byte for byte: one writer serves both."""
    assert main(["pipeline", "--config", str(small_config(tmp_path, "p", resolution=16))]) == 0
    param = json.loads((tmp_path / "p" / "report.json").read_text())["parameter"]
    path = tmp_path / "r.csv"
    assert main(["renorm", "ratios", "--d0", "3", "--dinf", "2", "--param=%r,%r" % tuple(param),
                 "--depth", "8", "--out", str(path)]) == 0
    text = path.read_text()
    assert text == (tmp_path / "p" / "ratios.csv").read_text()
    assert text.startswith("n,re_s,im_s,abs_s\n") and len(text.splitlines()) == 10


def test_unreadable_input_file_is_config_error(capsys, tmp_path):
    """A grid with a bad magic or cut short, and a curve CSV with a bad line."""
    grid = open(small_grid(tmp_path), "rb").read()
    for name, data in (("magic.bin", b"NOTAGRID" + grid[8:]), ("head.bin", grid[:20]),
                       ("data.bin", grid[:200])):
        (tmp_path / name).write_bytes(data)
        code, _, err = run(capsys, "porosity", "--grid", str(tmp_path / name),
                           "--center-re", "0", "--center-im", "0", "--radii", "1")
        assert code == 2 and err.startswith("config error:"), err
    (tmp_path / "c.csv").write_text("k,angle,re,im\n0,0.1,1.0,0.0\n1,0.6,abc,0.0\n")
    code, _, err = run(capsys, "dims", "--points", str(tmp_path / "c.csv"))
    assert code == 2 and "line 3" in err


HEADER = "k,angle,re,im\n"


def test_header_only_curve_csv_is_empty(tmp_path):
    """A curve CSV without rows gives empty arrays and no numpy warning."""
    path = tmp_path / "c.csv"
    path.write_text(HEADER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ks, angles, pts = cli._read_curve_csv(str(path))
    assert ks.shape == angles.shape == pts.shape == (0,)
    assert (ks.dtype, angles.dtype, pts.dtype) == (np.int64, np.float64, np.complex128)


@pytest.mark.parametrize("body, line", [
    ("0.5,0.1,1.0,0.0\n", 2),                          # k not an integer
    ("0,0.1,1.0,0.0\n1,0.6,1.0\n", 3),                 # short row
    ("0,0.1,1.0,0.0\n1,0.6,1.0,0.0,7\n", 3),           # long row
    ("0,0.1,1.0,0.0\n\n1,0.6,1.0,0.0\n", 3),            # blank line
    ("\n", 2),
    ("0,0.1,1.0,0.0\n1,0.6,1.0,0.0\n\n", 4),            # trailing blank line
    ("0,0.1,1.0,0.0\n   \n", 3),                      # blanks only
    ("0,0.1,1.0,0.0\n# a comment\n1,0.6,1.0,0.0\n", 3),
    ("0,0.1,1.0,0.0\n\n1,0.6,abc,0.0\n", 3),             # the first bad line
])
def test_bad_curve_csv_line_is_config_error(capsys, tmp_path, body, line):
    """A bad line exits 2 with its number, the header counting as line 1."""
    path = tmp_path / "c.csv"
    path.write_text(HEADER + body)
    code, out, err = run(capsys, "dims", "--points", str(path))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "bad line %d of" % line in err


floats = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1e-300, 1e16, 1e22, -1e22]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1), floats, floats, floats),
                max_size=20))
def test_curve_csv_round_trip(rows):
    """_write_curve_csv writes each float as _fmt does, and _read_curve_csv
    gives back the ks and the floats bit for bit."""
    ks = np.array([r[0] for r in rows], dtype=np.int64)
    angles, re, im = (np.array([r[i] for r in rows], dtype=np.float64) for i in (1, 2, 3))
    pts = np.empty(len(rows), dtype=np.complex128)
    pts.real, pts.imag = re, im
    infinite = [n for n, r in enumerate(rows, 2) if not all(map(math.isfinite, r[1:]))]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.csv")
        cli._write_curve_csv(types.SimpleNamespace(ks=ks, angles=angles, points=pts), path)
        with open(path) as fh:
            text = fh.read()
        if infinite:
            with pytest.raises(cli.ConfigError, match="bad line %d of" % infinite[0]):
                cli._read_curve_csv(path)
        else:
            got_ks, got_angles, got_pts = cli._read_curve_csv(path)
    assert text == HEADER + "".join("%d,%s,%s,%s\n" % (k, cli._fmt(a), cli._fmt(x), cli._fmt(y))
                                    for k, a, x, y in rows)
    if not infinite:
        assert got_ks.dtype == np.int64 and np.array_equal(got_ks, ks)
        assert got_angles.tobytes() == angles.tobytes() and got_pts.tobytes() == pts.tobytes()



def read_both(monkeypatch, path):
    """_read_curve_csv(path) with the library, then on the python reference
    alone (no library): each its arrays, or its ConfigError's message; and
    whether the library's run called the reference reader."""
    calls = []
    parse = _reference._curve_csv_parse
    monkeypatch.setattr(_reference, "_curve_csv_parse",
                        lambda *args: calls.append(args) or parse(*args))
    got = []
    for lib in (_kernels._lib, None):
        monkeypatch.setattr(_kernels, "_lib", lib)
        try:
            ks, angles, pts = cli._read_curve_csv(str(path))
            got.append((ks.dtype, ks.tolist(), angles.dtype, angles.tobytes(), pts.tobytes()))
        except cli.ConfigError as e:
            got.append(str(e))
        got.append(bool(calls))
        calls.clear()
    return got[0], got[2], got[1]


def test_curve_csv_reader_equals_loadtxt_on_written_text(monkeypatch, tmp_path):
    """A file of the writer, with values C formats and values it leaves to
    repr, reads back bit for bit, through the C reader alone when the
    library is loaded and through the python reference without it."""
    rng = np.random.default_rng(29)
    vals = np.concatenate([rng.standard_normal(900) * 10.0 ** rng.integers(-9, 22, 900),
                           [0.0, -0.0, 5e-324, -1e-300, 1e300, 2.0 ** -16, 2.0 ** 61]])
    rng.shuffle(vals)
    n = len(vals) // 3
    pts = np.empty(n, dtype=np.complex128)
    pts.real, pts.imag = vals[n:2 * n], vals[2 * n:3 * n]
    c = types.SimpleNamespace(ks=rng.integers(-2 ** 63, 2 ** 63 - 1, n), angles=vals[:n],
                              points=pts)
    path = tmp_path / "c.csv"
    cli._write_curve_csv(c, str(path))
    with_c, ref, ran = read_both(monkeypatch, path)
    assert with_c == ref and ran == (_kernels.BACKEND != "c")
    assert ref[1] == c.ks.tolist() and ref[3] == vals[:n].tobytes() and ref[4] == pts.tobytes()


@pytest.mark.parametrize("text, grammar", [
    ("1E5", False), ("+1.0", False), (" 1.0", False), ("1.0 ", False), ("1.", False),
    (".5", False), ("1e5", False), ("0x10", False), ("1.50", True), ("007", True),
    ("-0", True), ("-0.0e+00", True), ("1e-400", True), ("1e400", False),
    ("1e+400", False), ("-2.5e+999", False), ("99999999999999999999", True),
])
@pytest.mark.parametrize("field", [0, 1, 2, 3])
def test_curve_csv_reader_equals_loadtxt(monkeypatch, tmp_path, text, grammar, field):
    """A text of the writer's grammar reads as python's int and float read
    it (1.50, 007, -0, 1e-400), through the C reader alone when the library
    is loaded.  Any other text is a bad line with the same message on both
    backends: off the grammar (1E5, +1.0, a blank, 1.), past DBL_MAX (1e+400,
    a non-finite value), or a k that is not an integer within int64 (a
    float there, or 99999999999999999999)."""
    rows = [[str(k), repr(k / 16), repr(math.cos(k)), repr(math.sin(k))] for k in range(6)]
    rows[3][field] = text
    path = tmp_path / "c.csv"
    path.write_text(HEADER + "".join(",".join(r) + "\n" for r in rows))
    with_c, ref, ran = read_both(monkeypatch, path)
    assert with_c == ref
    takes = grammar and (field > 0 or text in ("007", "-0"))
    if not takes:
        assert ref.startswith("bad line 5 of") and ran
        assert ("non-finite" in ref) == (field > 0 and text in ("1e+400", "-2.5e+999"))
        return
    assert ran == (_kernels.BACKEND != "c")
    want = [[int(r[0]), *map(float, r[1:])] for r in rows]
    assert ref[1] == [r[0] for r in want]
    assert ref[3] == np.array([r[1] for r in want]).tobytes()
    assert ref[4] == np.array([complex(r[2], r[3]) for r in want]).tobytes()


@pytest.mark.parametrize("text, line", [
    (HEADER + "0,0.5,0.5,0.5\r\n", 2),                 # CRLF line end
    (HEADER + "0,0.5,0.5,0.5\n1,0.5,0.5,0.5", 3),        # no final newline
    (HEADER.replace("\n", "\r\n") + "0,0.5,0.5,0.5\n", 1),
    ("k,angle,x\n0,0.5,0.5\n", 1),
    ("k,angle,re,im,x\n0,0.5,0.5,0.5\n", 1),
    (HEADER[:-1], 1),                                  # a header with no newline
])
def test_curve_csv_off_the_grammar_is_config_error(capsys, monkeypatch, tmp_path, text, line):
    """CRLF line ends, a last row with no newline and a header other than
    k,angle,re,im exit 2 on both backends, naming the bad line, or the file
    when the header is bad; loadtxt used to read them."""
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode())
    for lib in (_kernels._lib, None):
        monkeypatch.setattr(_kernels, "_lib", lib)
        code, out, err = run(capsys, "dims", "--points", str(path))
        assert code == 2 and out == ""
        want = "not a curve CSV" if line == 1 else "bad line %d of" % line
        assert err.startswith("config error: " + want), err


# a canonical curve CSV row: an int64 k and three floats, non-finite ones too
canonical_rows = st.lists(
    st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1),
              *[st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-300, 2.0 ** 61, 0.1]))] * 3),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(canonical_rows, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10 ** 6),
                                          st.sampled_from(b"0123456789.-+eE,#x\t\r\n ")),
                                max_size=4))
def test_curve_csv_grammar_is_one_on_both_backends(rows, edits):
    """The writer's rows with random one-byte edits (a byte of the
    alphabet replaced or inserted, or a byte deleted): the library's run and the
    python reference's give the same arrays bit for bit, or the same
    ConfigError; with the library the reference runs exactly for the texts
    that C refuses, all of which it refuses too, and an accepted text
    reads as python's int and float read its tokens."""
    body = bytearray(b"".join(b"%d,%r,%r,%r\n" % r for r in rows))
    for kind, at, byte in edits:
        at %= len(body) + (kind == 1)
        if kind == 0:
            body[at] = byte
        elif kind == 1:
            body.insert(at, byte)
        else:
            del body[at]
    text = HEADER.encode() + body
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(d, "c.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        with_c, ref, ran = read_both(mp, path)
    assert with_c == ref
    refused = isinstance(ref, str)
    header_ok = not (refused and ref.startswith("not a curve"))
    assert ran == (header_ok and (refused or _kernels.BACKEND != "c"))
    if not refused:
        want = [line.split(b",") for line in text.split(b"\n")[1:-1]]
        assert ref[1] == [int(r[0]) for r in want]
        assert ref[3] == np.array([float(r[1]) for r in want]).tobytes()
        assert ref[4] == np.array([complex(float(r[2]), float(r[3])) for r in want]).tobytes()


@pytest.mark.parametrize("field", [1, 2, 3])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [["geometry", "--curve"], ["dims", "--points"]])
def test_non_finite_curve_csv_value_is_config_error(capsys, tmp_path, field, value, argv):
    """A non-finite angle, re or im exits 2 and names the first such line;
    before, geometry reported a bounded-turning constant of 0 for it."""
    rows = [[str(k), repr(k / 16), repr(math.cos(k * math.pi / 8)), repr(math.sin(k * math.pi / 8))]
            for k in range(16)]
    rows[5][field] = rows[9][field] = value
    path = tmp_path / "c.csv"
    path.write_text(HEADER + "".join(",".join(r) + "\n" for r in rows))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "bad line 7 of" in err and "non-finite" in err


def test_parser_is_built_once_without_leaking_options(capsys, tmp_path):
    """main reuses one parser, and one call's options and defaults do not
    reach the next call."""
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "cf.json"
    assert run(capsys, "cfrac", "--theta", "silver", "--depth", "5", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["quotients"] == [2] * 5
    code, text, _ = run(capsys, "cfrac", "--theta", "golden")
    assert code == 0 and json.loads(text)["quotients"] == [1] * 20
    fresh = cli.build_parser.__wrapped__
    first = ["tune", "--d0", "2", "--dinf", "2", "--theta", "silver", "--tol", "1e-3",
             "--seed", "preset", "--depth", "9", "--out", "x"]
    for second in (["tune", "--d0", "3", "--dinf", "2"], ["dims", "--points", "p"],
                   ["render", "--d0", "3", "--dinf", "2", "--window", "0,0,1,1", "--out", "r"]):
        cli.build_parser().parse_args(first)
        assert vars(cli.build_parser().parse_args(second)) == vars(fresh().parse_args(second))
