"""Command-line interface: tune, trace, scaling diagnostics, render, measure.

Exit codes: 0 success, 1 numeric stage failure, 2 configuration error.
All outputs (CSV/JSON/PPM) are byte-deterministic for a fixed config.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import types

import numpy as np

from . import __version__, _kernels, cfrac, curve as curve_mod, julia, maps, renorm, rotation

CONFIG_SCHEMA_VERSION = 1

# the default trace --depth and trace_depth; the pipeline verifies at min(_VERIFY_CAP, trace_depth)
_TRACE_DEPTH, _VERIFY_CAP = 16, 12

_CONFIG_FIELDS = {
    "schema", "family", "theta", "seed", "tol", "tune_depth", "trace_depth",
    "renorm_depth", "window", "resolution", "maxiter", "outdir",
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# outside values: one parser per kind, each naming its option or config field
# ---------------------------------------------------------------------------

def _number(x, kind=(int, float)):
    """x is of kind and not a bool (a JSON true or false)."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _theta(name, spec):
    """The ContinuedFraction of a theta spec (cfrac.resolve_theta)."""
    try:
        return cfrac.resolve_theta(spec)
    except (TypeError, ValueError) as e:
        raise ConfigError("bad %s %r: %s" % (name, spec, e))


def _int(name, value, least, theta=None, past=0, most=math.inf):
    """value, an integer from least to most; given theta, at most theta's
    deepest usable level less past, the levels the caller reads past depth value."""
    if not _number(value, int):
        raise ConfigError("%s must be an integer, not %r" % (name, value))
    if value < least:
        raise ConfigError("%s must be at least %d, not %d" % (name, least, value))
    if value > most:
        raise ConfigError("%s must be at most %d, not %d" % (name, most, value))
    if theta is not None and value + past > theta.depth:
        raise ConfigError("%s must be at most %d, not %d: theta's deepest usable level is %d"
                          % (name, theta.depth - past, value, theta.depth))
    return value


def _trace_depth(name, value, least, theta, past=0):
    """A depth as _int takes it whose orbit to level value + past a trace holds
    (curve.trace_size), refused before any tuning or allocation."""
    depth = _int(name, value, least, theta, past)
    try:
        curve_mod.trace_size(theta, depth + past)
    except ValueError as e:
        if past:
            name = "%s %d follows the critical orbit to depth %d" % (name, depth, depth + past)
        raise ConfigError("%s: %s" % (name, e))
    return depth


def _family(pair, names=("--d0", "--dinf")):
    """The degrees (d0, dinf) maps.herman_family takes: each at least 2, and
    d0 + dinf at most 61, past which its binomial coefficients overflow."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ConfigError("family must be two integers [d0, dinf], not %r" % (pair,))
    d0, dinf = _int(names[0], pair[0], 2), _int(names[1], pair[1], 2)
    if d0 + dinf > 61:
        raise ConfigError("%s + %s must be at most 61, not %d" % (*names, d0 + dinf))
    return d0, dinf


def _floats(name, value, n, form):
    """The finite numbers of an option's text "a,b,..." or of a JSON list:
    n of them, or one or more for n None; form names them in the error."""
    listed = isinstance(value, list) and all(map(_number, value))
    items = value.split(",") if isinstance(value, str) else value if listed else ()
    try:
        out = tuple(float(t) for t in items)
    except (ValueError, OverflowError):
        out = ()
    if not out or (n and len(out) != n) or not all(map(math.isfinite, out)):
        raise ConfigError("%s must be %s, not %r" % (name, form, value))
    return out


def _param(name, value):
    """A map parameter or seed re,im: the family has a member only at a
    finite nonzero c."""
    re, im = _floats(name, value, 2, "two finite numbers re,im")
    if re == im == 0:
        raise ConfigError("%s must be nonzero, not %r: the family has no member at c = 0"
                          % (name, value))
    return complex(re, im)


def _window(name, value):
    """A window x0, y0, x1, y1 with x0 < x1 and y0 < y1, of finite width and height."""
    x0, y0, x1, y1 = window = _floats(name, value, 4, "four finite numbers x0,y0,x1,y1")
    if not (x0 < x1 and y0 < y1):
        raise ConfigError("%s %r is empty or reversed: need x0 < x1 and y0 < y1" % (name, value))
    if not math.isfinite(x1 - x0) or not math.isfinite(y1 - y0):
        raise ConfigError("%s %r is too wide: x1 - x0 and y1 - y0 must be finite" % (name, value))
    return window


def _tol(name, value):
    """A tuning tolerance: None keeps the tuner's own, else a finite positive number."""
    if value is not None and not (_number(value) and 0 < value < math.inf):
        raise ConfigError("%s must be a finite positive number, not %r" % (name, value))
    return value


def _out(name, path):
    """An output file in a directory that exists; None (stdout) passes."""
    if path is not None and (os.path.isdir(path)
                             or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError("%s %r must be a file in a directory that exists" % (name, path))


def _ladder_depth(name, value, family, seed, theta, least=rotation.VERIFY_LEAST_DEPTH + 1,
                  why="", default=None):
    """The Newton ladder's depth m: value, else default, else None for the
    tuner's default.  Bisection (_by_bisection) takes no depth; a ladder to
    depth m, given or default, is verified at m - 1, and its top residual
    follows the critical orbit to q_m, held to what a trace holds
    (_trace_depth)."""
    bisection = _by_bisection(*family, seed)
    if value is not None and bisection:
        seed_name = "--seed" if name.startswith("--") else "seed"
        raise ConfigError("%s sets the Newton ladder's depth, but the (%d,%d) family without "
                          "%s is tuned by bisection; give %s ('preset' or re,im) to tune by "
                          "the ladder" % (name, *family, seed_name, seed_name))
    if value is None and not bisection:
        value, name = default, "the derived default " + name
    return None if value is None else _trace_depth(name + why, value, least, theta)


def _bisection_level(name, value, reads, family, seed, theta):
    """Refuse value if the map the bisection tunes (_by_bisection; a --param as seed tunes
    none) is read at level reads(value), past rotation.checked_level's."""
    level = rotation.checked_level(theta)
    if _by_bisection(*family, seed) and reads(value) > level:
        fits = [v for v in range(value) if reads(v) <= level]
        raise ConfigError("the (%d,%d) bisection checks theta to level %d (q_%d = %d), and %s %d "
                          "reads its map at level %d: %s" % (
                              *family, level, level, theta.q[level], name, value, reads(value),
                              "%s %d at most" % (name, fits[-1]) if fits else "none fits"))


def _fmt(x):
    """Deterministic shortest-roundtrip float formatting."""
    return repr(float(x))


def _strict_json(obj):
    """obj in strict JSON's values: a complex number as [re, im], an array as
    a list, a dataclass record as its fields, and NaN or inf as None."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return [_strict_json(float(obj.real)), _strict_json(float(obj.imag))]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write(text, path=None):
    """text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path=None):
    _write(json.dumps(_strict_json(obj), indent=2, sort_keys=True, allow_nan=False) + "\n", path)


_CURVE_HEADER = b"k,angle,re,im\n"


def _write_curve_csv(c, path):
    """The curve's vertices as rows k,angle,re,im under _CURVE_HEADER, each
    k as %d prints it and each float in _fmt's shortest round-trip form
    (_kernels.curve_csv_rows)."""
    rows = _kernels.curve_csv_rows(c.ks, c.angles, c.points.real, c.points.imag)
    with open(path, "wb") as fh:
        fh.write(_CURVE_HEADER + rows)


def _read_curve_csv(path):
    """(ks, angles, points) of a curve CSV of the writer's grammar (see
    _kernels.curve_csv_parse); a ConfigError names the first bad line,
    counting the header as line 1."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError("cannot read curve file: %s" % e)
    if not raw.startswith(_CURVE_HEADER):
        raise ConfigError("not a curve CSV: %s" % path)
    try:
        ks, angles, re, im = _kernels.curve_csv_parse(raw, len(_CURVE_HEADER))
    except ValueError as e:
        n, line, non_finite = e.args
        raise ConfigError("bad line %d of curve CSV %s%s: %r"
                          % (n, path, " (non-finite value)" if non_finite else "", line))
    pts = np.empty(len(ks), dtype=np.complex128)
    pts.real, pts.imag = re, im
    return ks, angles, pts


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_cfrac(args):
    theta = _theta("--theta", args.theta)
    n = _int("--depth", args.depth, 1, theta)
    _emit_json({
        "theta": args.theta,
        "quotients": theta.quotients(n),
        "p": theta.p[:n + 1],
        "q": theta.q[:n + 1],
        "lengths": [float(l) for l in theta.lengths(n)],
    }, args.out)
    return 0


def cmd_maps(args):
    if args.param is None:
        raise ConfigError("maps needs --param re,im")
    m = maps.herman_family(args.d0, args.dinf, _param("--param", args.param))
    _emit_json({
        "family": [args.d0, args.dinf],
        "parameter": m.parameter,
        "total_degree": m.total_degree,
        "num": m.num,
        "den": m.den,
    }, args.out)
    return 0


def _by_bisection(d0, dinf, seed):
    """Whether _tune tunes by Blaschke bisection: the (d,d) family without a
    seed is, every other by the Newton ladder."""
    return d0 == dinf and seed is None


def _tune(d0, dinf, theta, seed=None, m=None, tol=None):
    """Blaschke bisection (_by_bisection), else the Newton ladder (seed None:
    the shipped preset); tol None keeps the tuner's default."""
    kw = {} if tol is None else {"tol": tol}
    if _by_bisection(d0, dinf, seed):
        return rotation.tune_blaschke(d0, theta, **kw)
    return rotation.tune_asymmetric(d0, dinf, theta, "preset" if seed is None else seed,
                                    m=m, **kw)


def cmd_tune(args):
    theta = _theta("--theta", args.theta)
    seed = args.seed if args.seed in (None, "preset") else _param("--seed", args.seed)
    m = _ladder_depth("--depth", args.depth, (args.d0, args.dinf), seed, theta)
    res = _tune(args.d0, args.dinf, theta, seed, m=m, tol=_tol("--tol", args.tol))
    out = {
        "family": [args.d0, args.dinf],
        "parameter": res.parameter,
        "alpha": res.alpha,
        "residual": res.residual,
        "iterations": res.iterations,
        "verified_depth": res.verified_depth,
        # the Newton ladder's Herman curve checks; the bisection tuners run none
        "verify": res.report.get("verify"),
    }
    _emit_json(out, args.out)
    if out["verify"] is not None and not out["verify"]["all"]:
        failed = sorted(k for k, ok in out["verify"].items() if k != "all" and not ok)
        print("tune: Herman curve checks failed: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _tune_depth(depth, theta):
    """Newton ladder depth for a working depth: at least 16, at most 31 and the
    deepest level of theta whose q_n a trace holds (curve.MAX_VERTICES); tuning
    shallower than the use depth leaves the deep combinatorics unresolved."""
    return min(max(depth + 2, 16), 31, theta.level(curve_mod.MAX_VERTICES))


def _tuned_map(args, theta, m=None):
    """The family member at --param, else a tuned one (by a ladder to depth m, if given)."""
    if args.param is not None:
        return maps.herman_family(args.d0, args.dinf, _param("--param", args.param))
    res = _tune(args.d0, args.dinf, theta, m=m)
    return maps.herman_family(args.d0, args.dinf, res.parameter)


def _trace(m, theta, depth, path):
    """m's Herman curve to depth, written to path as a curve CSV."""
    c = curve_mod.trace(m, theta, depth)
    _write_curve_csv(c, path)
    return c


def _ratios(m, theta, N, path=None):
    """m's scaling ratios s_n to depth N, written to path (or stdout) as rows
    n,re_s,im_s,abs_s."""
    rows = ("%d,%s,%s,%s\n" % (n, _fmt(s.real), _fmt(s.imag), _fmt(abs(s)))
            for n, s in sorted(renorm.scaling_ratios(m, theta, N).s.items()))
    _write("n,re_s,im_s,abs_s\n" + "".join(rows), path)


def cmd_trace(args):
    theta = _theta("--theta", args.theta)
    # q_1 = 1 for a theta with a_1 = 1, which leaves no orbit point to trace
    depth = _trace_depth("--depth", args.depth, 2, theta)
    _trace(_tuned_map(args, theta, _tune_depth(depth, theta)), theta, depth, args.out)
    return 0


def cmd_geometry(args):
    ks, angles, pts = _read_curve_csv(args.curve)
    theta = _theta("--theta", args.theta)
    # rebuild the curve container; depth recovered from vertex count, within
    # theta's usable levels
    depth = theta.level(len(ks) + 1)
    if not depth:
        raise ConfigError("curve %s has %d vertices, fewer than q_1 - 1 = %d"
                          % (args.curve, len(ks), theta.q[1] - 1))
    if depth < curve_mod.ANGLE_LEAST_DEPTH:
        raise ConfigError("curve %s has depth %d: the critical angle needs trace depth %d or "
                          "more" % (args.curve, depth, curve_mod.ANGLE_LEAST_DEPTH))
    c = curve_mod.HermanCurve(ks=ks, angles=angles, points=pts, theta=theta,
                              critical_point=1.0 + 0.0j, depth=depth)
    angle, disp = curve_mod.critical_angle(c)
    bt, pair = curve_mod.bounded_turning(c)
    report = {
        "vertices": len(ks),
        "depth": depth,
        "critical_angle_rad": angle,
        "critical_angle_dispersion": disp,
        "bounded_turning": bt,
    }
    try:
        scale = float(np.max(np.abs(pts - pts.mean())))
        report["beta_at_critical"] = curve_mod.beta_number(c, c.critical_point, 0.05 * scale)
    except ValueError:
        report["beta_at_critical"] = None
    _emit_json(report, args.out)
    return 0


# each renorm subcommand's least --depth N (one scaling ratio, three Cauchy differences,
# the level-2 pair), and the levels of theta each reads past N: the ratios and mu read
# q_{N+s}, with renorm.scaling_ratios' step s = 2 for every theta a command takes (the
# named ones have periods of length 1 or 2, and quotient lists and decimals none), and
# chi reads q_{N+1} and tabulates q_{N+1} + q_N + 2 <= q_{N+2} + 2 points
_RENORM_DEPTH = {"ratios": 1, "mu": 5, "chi": 2}
_RENORM_PAST = 2


def cmd_renorm(args):
    theta = _theta("--theta", args.theta)
    if args.what == "mu" and theta.period is None:
        raise ConfigError("renorm mu needs an eventually periodic --theta, not %r" % args.theta)
    depth = _trace_depth("--depth", args.depth, _RENORM_DEPTH[args.what], theta, _RENORM_PAST)
    _bisection_level("--depth", depth, lambda n: n + _RENORM_PAST, (args.d0, args.dinf),
                     args.param, theta)
    m = _tuned_map(args, theta, _tune_depth(depth, theta))
    if args.what == "ratios":
        _ratios(m, theta, depth, args.out)
        return 0
    if args.what == "mu":
        rep = renorm.self_similarity(m, theta, N=depth)
        _emit_json({
            "mu": rep.mu,
            "mu_abs": abs(rep.mu),
            "mu_err": rep.mu_err,
            "cauchy_factors": rep.cauchy_factors,
        }, args.out)
        return 0
    # chi, the one subcommand left
    out = {}
    lift = renorm.log_lift(m, theta)
    for n in range(2, depth + 1):
        pair = renorm.commuting_pair(m, theta, n, lift=lift)
        out[str(n)] = {
            "chi": pair.height(),
            "commutation_residual": pair.commutation_residual(),
            "f_minus_0": pair.endpoint_minus,
        }
    _emit_json(out, args.out)
    return 0


def _render(m, window, res, maxiter, out, overlay=None, grid_out=None):
    """Classify res x res pixels; write their image, overlay drawn, and grid_out."""
    grid = julia.classify(m, window, res, maxiter=maxiter)
    julia.render(grid, out, curve_overlay=overlay)
    if grid_out:
        julia.save_grid(grid, grid_out)


def cmd_render(args):
    window = _window("--window", args.window)
    _int("--res", args.res, 1)
    _int("--maxiter", args.maxiter, 1, most=julia.MAXITER_MAX)
    theta = _theta("--theta", args.theta)
    overlay = _read_curve_csv(args.overlay)[2] if args.overlay else None
    _render(_tuned_map(args, theta), window, args.res, args.maxiter, args.out, overlay,
            args.grid_out)
    return 0


def cmd_dims(args):
    _, _, pts = _read_curve_csv(args.points)
    if len(pts) < julia.BOX_MIN_POINTS:
        raise ConfigError("curve %s has %d vertices, fewer than the %d box counting needs"
                          % (args.points, len(pts), julia.BOX_MIN_POINTS))
    _emit_json(julia.box_dimension(pts, connect=args.connect), args.out)
    return 0


def cmd_porosity(args):
    try:
        grid = julia.load_grid(args.grid)
    except (OSError, ValueError) as e:
        raise ConfigError("cannot read grid file %s: %s" % (args.grid, e))
    radii = _floats("--radii", args.radii, None, "finite numbers r1,r2,... above 0")
    if not all(r > 0 for r in radii):
        raise ConfigError("--radii must be above 0, not %r" % args.radii)
    center = complex(args.center_re, args.center_im)
    try:
        grid.pixel_size()
        grid.pixel_of(center)
    except ValueError as e:
        raise ConfigError("grid %s, centre %r: %s" % (args.grid, center, e))
    _emit_json(julia.porosity_profile(grid, center, radii), args.out)
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _load_config(path):
    """The pipeline's stage arguments from the JSON config at path, and the
    config's hash."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("cannot read config: %s" % e)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object, not %s" % type(cfg).__name__)
    unknown = set(cfg) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError("unknown config fields: %s" % sorted(unknown))
    config_hash = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    cfg = {k: v for k, v in cfg.items() if v is not None}  # a null field is an absent one
    if not (_number(cfg.get("schema"), int) and cfg["schema"] == CONFIG_SCHEMA_VERSION):
        raise ConfigError("config schema must be %d" % CONFIG_SCHEMA_VERSION)
    for req in ("family", "theta", "outdir"):
        if req not in cfg:
            raise ConfigError("config missing required field %r" % req)
    if not (isinstance(cfg["outdir"], str) and cfg["outdir"]):
        raise ConfigError("outdir must be a directory path, not %r" % (cfg["outdir"],))
    theta = _theta("theta", cfg["theta"])
    family = _family(cfg["family"], ("family d0", "family dinf"))
    # a seed name other than "preset" reaches the tuner, whose PresetError
    # (exit 2) the tune stage records in report.json
    seed = cfg.get("seed")
    if not (seed is None or isinstance(seed, str)):
        seed = _param("seed", seed)
    # the map verified at v = min(_VERIFY_CAP, trace_depth) is tuned by a ladder that
    # has to reach v + 1, a level past trace_depth when theta's depth is _VERIFY_CAP or less
    depth = _trace_depth("trace_depth", cfg.get("trace_depth", _TRACE_DEPTH),
                         rotation.VERIFY_LEAST_DEPTH, theta, int(theta.depth <= _VERIFY_CAP))
    N = _trace_depth("renorm_depth", cfg.get("renorm_depth", min(depth - 2, 14)), 1, theta,
                     _RENORM_PAST)
    tune_depth = _ladder_depth("tune_depth", cfg.get("tune_depth"), family, seed, theta,
                               min(_VERIFY_CAP, depth) + 1, " for trace_depth %d" % depth,
                               _tune_depth(max(depth, N), theta))
    _bisection_level("trace_depth", depth, lambda d: min(_VERIFY_CAP, d), family, seed, theta)
    _bisection_level("renorm_depth", N, lambda n: n + _RENORM_PAST, family, seed, theta)
    window = cfg.get("window")
    run = types.SimpleNamespace(
        family=family, theta=theta, seed=seed, tol=_tol("tol", cfg.get("tol")),
        tune_depth=tune_depth, trace_depth=depth,
        renorm_depth=N, window=None if window is None else _window("window", window),
        resolution=_int("resolution", cfg.get("resolution", 512), 1),
        maxiter=_int("maxiter", cfg.get("maxiter", 400), 1, most=julia.MAXITER_MAX),
        outdir=cfg["outdir"])
    return run, config_hash


def cmd_pipeline(args):
    run, config_hash = _load_config(args.config)
    theta, depth, N, outdir = run.theta, run.trace_depth, run.renorm_depth, run.outdir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise ConfigError("cannot create outdir %r: %s" % (outdir, e))
    path = functools.partial(os.path.join, outdir)
    report = {"config_hash": config_hash, "version": __version__, "backend": _kernels.BACKEND,
              "stages": {}}

    @contextlib.contextmanager
    def stage(name):
        try:
            yield
        except Exception as e:
            report["stages"][name] = {"ok": False, "error": "%s: %s" % (type(e).__name__, e)}
            _emit_json(report, path("report.json"))
            if isinstance(e, rotation.PresetError):
                raise  # a configuration error: exit 2
            print("pipeline failed at stage %r: %s" % (name, e), file=sys.stderr)
            raise _StageFailure()
        report["stages"][name] = {"ok": True}

    try:
        with stage("tune"):
            tuned = _tune(*run.family, theta, run.seed, m=run.tune_depth, tol=run.tol)
        report["parameter"] = tuned.parameter
        m = maps.herman_family(*run.family, tuned.parameter)
        with stage("verify"):
            ver = report["verify"] = rotation.verify_herman(m, theta, min(_VERIFY_CAP, depth))
            if not ver["all"]:
                raise RuntimeError("Herman curve checks failed: %s" % ver)
        with stage("trace"):
            c = _trace(m, theta, depth, path("curve.csv"))
        with stage("scaling"):
            _ratios(m, theta, N, path("ratios.csv"))
            if theta.period is not None and N >= 7:
                mu_rep = renorm.self_similarity(m, theta, N=N)
                report.update(mu=mu_rep.mu, mu_err=mu_rep.mu_err)
        if depth >= curve_mod.ANGLE_LEAST_DEPTH:
            with stage("geometry"):
                angle, disp = curve_mod.critical_angle(c)
                report.update(critical_angle_rad=angle, critical_angle_dispersion=disp)
        with stage("render"):
            pts = c.points
            pad = 0.2 * (pts.real.max() - pts.real.min())
            window = run.window or (float(pts.real.min() - pad), float(pts.imag.min() - pad),
                                    float(pts.real.max() + pad), float(pts.imag.max() + pad))
            _render(m, window, run.resolution, run.maxiter, path("render.ppm"), pts,
                    path("grid.bin"))
    except _StageFailure:
        return 1

    _emit_json(report, path("report.json"))
    return 0


class _StageFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    ap = argparse.ArgumentParser(prog="hermanlab",
                                 description="critical quasicircle map numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family(p, param=True, theta=True):
        p.add_argument("--d0", type=int, required=True)
        p.add_argument("--dinf", type=int, required=True)
        if param:
            p.add_argument("--param", default=None,
                           help="re,im map parameter; omit to tune from presets")
        if theta:
            p.add_argument("--theta", default="golden")

    p = sub.add_parser("cfrac", help="continued fraction expansion")
    p.add_argument("--theta", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_cfrac)

    p = sub.add_parser("maps", help="show family coefficients")
    add_family(p, theta=False)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_maps)

    p = sub.add_parser("tune", help="tune parameter to a rotation number")
    add_family(p, param=False)
    p.add_argument("--tol", type=float, default=None, help="default: the tuner's own")
    p.add_argument("--seed", default=None, help="re,im or 'preset'")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("trace", help="trace the Herman curve")
    add_family(p)
    p.add_argument("--depth", type=int, default=_TRACE_DEPTH)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("geometry", help="curve geometry report")
    p.add_argument("--curve", required=True)
    p.add_argument("--theta", default="golden")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_geometry)

    p = sub.add_parser("renorm", help="renormalization diagnostics")
    p.add_argument("what", choices=["ratios", "mu", "chi"])
    add_family(p)
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_renorm)

    p = sub.add_parser("render", help="render basins and curve")
    add_family(p)
    p.add_argument("--window", required=True, help="x0,y0,x1,y1")
    p.add_argument("--res", type=int, default=1024)
    p.add_argument("--maxiter", type=int, default=2000)
    p.add_argument("--overlay", default=None)
    p.add_argument("--grid-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("dims", help="box-counting dimension of a point file")
    p.add_argument("--points", required=True)
    p.add_argument("--connect", action="store_true",
                   help="count boxes crossed by the ordered polyline")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("porosity", help="porosity profile from a saved grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--center-re", type=float, required=True)
    p.add_argument("--center-im", type=float, required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_porosity)

    p = sub.add_parser("pipeline", help="full tune-trace-measure-render run")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_pipeline)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if "d0" in args:
            _family([args.d0, args.dinf])
        for key in ("out", "grid_out"):
            _out("--" + key.replace("_", "-"), getattr(args, key, None))
        return args.fn(args)
    except (ConfigError, cfrac.RationalInputError, rotation.PresetError) as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        print("numeric failure: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
