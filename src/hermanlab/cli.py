"""Command-line interface: tune, trace, renormalize, render, measure.

Exit codes: 0 success, 1 numeric stage failure, 2 configuration error.
All outputs (CSV/JSON/PPM) are byte-deterministic for a fixed config.
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, _kernels, cfrac, curve as curve_mod, julia, maps, renorm, rotation

CONFIG_SCHEMA_VERSION = 1

_CONFIG_FIELDS = {
    "schema", "family", "theta", "seed", "tol", "tune_depth", "trace_depth",
    "renorm_depth", "window", "resolution", "maxiter", "outdir", "precision",
}


class ConfigError(ValueError):
    pass


def _parse_theta(spec):
    """cfrac.resolve_theta, with a bad spec reported as a ConfigError."""
    try:
        return cfrac.resolve_theta(spec)
    except ValueError as e:
        raise ConfigError("bad theta spec %r: %s" % (spec, e))


def _precision(value=None):
    """The orbit precision of one command: the config value if given, else
    HERMANLAB_PRECISION, else "double"."""
    prec = os.environ.get("HERMANLAB_PRECISION", "double") if value is None else value
    try:
        curve_mod._check_precision(prec)
    except ValueError as e:
        raise ConfigError(str(e))
    return prec


def _parse_complex(spec):
    try:
        re, im = (float(t) for t in spec.split(","))
        return complex(re, im)
    except ValueError:
        raise ConfigError("bad complex value %r (expected re,im)" % spec)


def _fmt(x):
    """Deterministic shortest-roundtrip float formatting."""
    return repr(float(x))


def _scrub_nan(obj):
    """Replace NaN/inf floats with None so the output stays strict JSON."""
    if isinstance(obj, dict):
        return {k: _scrub_nan(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub_nan(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit_json(obj, path=None):
    text = json.dumps(_scrub_nan(obj), indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_curve_csv(c, path):
    with open(path, "w") as fh:
        fh.write("k,angle,re,im\n")
        for k, a, p in zip(c.ks, c.angles, c.points):
            fh.write("%d,%s,%s,%s\n" % (k, _fmt(a), _fmt(p.real), _fmt(p.imag)))


def _read_curve_csv(path):
    ks, angles, res, ims = [], [], [], []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("k,angle"):
            raise ConfigError("not a curve CSV: %s" % path)
        for line in fh:
            k, a, re, im = line.strip().split(",")
            ks.append(int(k))
            angles.append(float(a))
            res.append(float(re))
            ims.append(float(im))
    pts = np.array(res) + 1j * np.array(ims)
    return np.array(ks), np.array(angles), pts


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_cfrac(args):
    theta = _parse_theta(args.theta)
    n = args.depth
    conv = cfrac.convergents(theta, n)
    _emit_json({
        "theta": args.theta,
        "quotients": theta.quotients(n),
        "p": conv.p,
        "q": conv.q,
        "lengths": [float(l) for l in conv.lengths],
    }, args.out)
    return 0


def cmd_maps(args):
    m = maps.herman_family(args.d0, args.dinf, _parse_complex(args.param))
    _emit_json({
        "family": [args.d0, args.dinf],
        "parameter": [m.parameter.real, m.parameter.imag],
        "total_degree": m.total_degree,
        "num": [[c.real, c.imag] for c in m.num],
        "den": [[c.real, c.imag] for c in m.den],
    }, args.out)
    return 0


def _tune(d0, dinf, theta, seed=None, m=None, tol=None):
    """Blaschke bisection if d0 == dinf and no seed is given, else the Newton
    ladder (seed None: the shipped preset); tol None keeps the tuner's default."""
    kw = {} if tol is None else {"tol": tol}
    if d0 == dinf and seed is None:
        return rotation.tune_blaschke(d0, theta, **kw)
    return rotation.tune_asymmetric(d0, dinf, theta, "preset" if seed is None else seed,
                                    m=m, **kw)


def cmd_tune(args):
    theta = _parse_theta(args.theta)
    seed = args.seed if args.seed in (None, "preset") else _parse_complex(args.seed)
    res = _tune(args.d0, args.dinf, theta, seed, m=args.depth, tol=args.tol)
    out = {
        "family": [args.d0, args.dinf],
        "parameter": [res.parameter.real, res.parameter.imag],
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


def _tuned_map(args, theta):
    if args.param is not None:
        return maps.herman_family(args.d0, args.dinf, _parse_complex(args.param))
    # ladder at least to the default depth; deeper when the requested
    # working depth needs it (tuning shallower than the use depth
    # leaves the deep combinatorics unresolved)
    m = None
    if getattr(args, "depth", None):
        m = min(max(args.depth + 2, 16), 31)
    res = _tune(args.d0, args.dinf, theta, m=m)
    return maps.herman_family(args.d0, args.dinf, res.parameter)


def cmd_trace(args):
    prec = _precision()
    theta = _parse_theta(args.theta)
    m = _tuned_map(args, theta)
    c = curve_mod.trace(m, theta, args.depth, precision=prec)
    _write_curve_csv(c, args.out)
    return 0


def cmd_geometry(args):
    ks, angles, pts = _read_curve_csv(args.curve)
    theta = _parse_theta(args.theta)
    # rebuild the curve container; depth recovered from vertex count
    conv = cfrac.convergents(theta, 40)
    depth = max(n for n in range(1, 40) if conv.q[n] <= len(ks) + 1)
    c = curve_mod.HermanCurve(ks=ks, angles=angles, points=pts, theta=theta,
                              critical_point=complex(args.critical_point),
                              d0=None, dinf=None, depth=depth)
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
        report["beta_at_critical"] = curve_mod.beta_number(
            c, complex(args.critical_point), 0.05 * scale)
    except ValueError:
        report["beta_at_critical"] = None
    _emit_json(report, args.out)
    return 0


def cmd_renorm(args):
    prec = _precision()
    theta = _parse_theta(args.theta)
    m = _tuned_map(args, theta)
    if args.what == "ratios":
        rep = renorm.scaling_ratios(m, theta, args.depth, precision=prec)
        lines = ["n,re_s,im_s,abs_s,ratio_product_re,ratio_product_im"]
        for n in sorted(rep.s):
            s = rep.s[n]
            r = rep.ratios.get(n, complex("nan"))
            lines.append("%d,%s,%s,%s,%s,%s" % (
                n, _fmt(s.real), _fmt(s.imag), _fmt(abs(s)),
                _fmt(r.real), _fmt(r.imag)))
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    if args.what == "mu":
        rep = renorm.self_similarity(m, theta, period=args.period, N=args.depth,
                                     precision=prec)
        _emit_json({
            "mu": [rep.mu.real, rep.mu.imag],
            "mu_abs": abs(rep.mu),
            "mu_err": rep.mu_err,
            "cauchy_factors": rep.cauchy_factors,
        }, args.out)
        return 0
    if args.what == "chi":
        out = {}
        lift = renorm.log_lift(m, theta)
        for n in range(2, args.depth + 1):
            pair = renorm.commuting_pair(m, theta, n, lift=lift)
            out[str(n)] = {
                "chi": pair.height(),
                "commutation_residual": pair.commutation_residual(),
                "f_minus_0": [pair.endpoint_minus.real, pair.endpoint_minus.imag],
            }
        _emit_json(out, args.out)
        return 0
    raise ConfigError("unknown renorm subcommand %r" % args.what)


def cmd_render(args):
    theta = _parse_theta(args.theta)
    m = _tuned_map(args, theta)
    window = tuple(float(t) for t in args.window.split(","))
    if len(window) != 4:
        raise ConfigError("window must be x0,y0,x1,y1")
    grid = julia.classify(m, window, args.res, maxiter=args.maxiter)
    overlay = None
    if args.overlay:
        _, _, overlay = _read_curve_csv(args.overlay)
    julia.render(grid, args.out, curve_overlay=overlay)
    if args.grid_out:
        julia.save_grid(grid, args.grid_out)
    return 0


def cmd_dims(args):
    _, _, pts = _read_curve_csv(args.points)
    rep = julia.box_dimension(pts, connect=args.connect)
    _emit_json({
        "slope": rep.slope,
        "slope_err": rep.slope_err,
        "scales": rep.scales,
        "counts": rep.counts,
        "point_spacing": rep.point_spacing,
        "diameter": rep.diameter,
    }, args.out)
    return 0


def cmd_porosity(args):
    grid = julia.load_grid(args.grid)
    radii = [float(t) for t in args.radii.split(",")]
    prof = julia.porosity_profile(grid, complex(args.center_re, args.center_im), radii)
    _emit_json({
        "center": [prof.center.real, prof.center.imag],
        "radii": prof.radii,
        "ratios": prof.ratios,
        "delta": prof.delta,
        "skipped": prof.skipped,
    }, args.out)
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("cannot read config: %s" % e)
    unknown = set(cfg) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError("unknown config fields: %s" % sorted(unknown))
    if cfg.get("schema") != CONFIG_SCHEMA_VERSION:
        raise ConfigError("config schema must be %d" % CONFIG_SCHEMA_VERSION)
    for req in ("family", "theta", "outdir"):
        if req not in cfg:
            raise ConfigError("config missing required field %r" % req)
    return cfg


def cmd_pipeline(args):
    cfg = _load_config(args.config)
    prec = _precision(cfg.get("precision"))
    d0, dinf = cfg["family"]
    theta = _parse_theta(cfg["theta"])
    outdir = cfg["outdir"]
    os.makedirs(outdir, exist_ok=True)
    canonical = json.dumps(cfg, sort_keys=True).encode()
    report = {
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "version": __version__,
        "backend": _kernels.BACKEND,
        "precision": prec,
        "stages": {},
    }

    def stage(name, fn):
        try:
            out = fn()
            report["stages"][name] = {"ok": True}
            return out
        except Exception as e:
            report["stages"][name] = {"ok": False, "error": "%s: %s" % (type(e).__name__, e)}
            _emit_json(report, os.path.join(outdir, "report.json"))
            if isinstance(e, rotation.PresetError):
                raise  # a configuration error: exit 2
            print("pipeline failed at stage %r: %s" % (name, e), file=sys.stderr)
            raise _StageFailure()

    try:
        def do_tune():
            seed = cfg.get("seed")
            if isinstance(seed, list):
                seed = complex(*seed)
            return _tune(d0, dinf, theta, seed, m=cfg.get("tune_depth"), tol=cfg.get("tol"))
        tuned = stage("tune", do_tune)
        report["parameter"] = [tuned.parameter.real, tuned.parameter.imag]
        m = maps.herman_family(d0, dinf, tuned.parameter)

        def do_verify():
            ver = report["verify"] = rotation.verify_herman(
                m, theta, min(12, cfg.get("trace_depth", 12)))
            if not ver["all"]:
                raise RuntimeError("Herman curve checks failed: %s" % ver)
        stage("verify", do_verify)

        depth = cfg.get("trace_depth", 16)
        c = stage("trace", lambda: curve_mod.trace(m, theta, depth, precision=prec))
        _write_curve_csv(c, os.path.join(outdir, "curve.csv"))

        def do_scaling():
            N = cfg.get("renorm_depth", min(depth - 2, 14))
            rep = renorm.scaling_ratios(m, theta, N, precision=prec)
            with open(os.path.join(outdir, "ratios.csv"), "w") as fh:
                fh.write("n,re_s,im_s,abs_s\n")
                for n in sorted(rep.s):
                    s = rep.s[n]
                    fh.write("%d,%s,%s,%s\n" % (n, _fmt(s.real), _fmt(s.imag), _fmt(abs(s))))
            if theta.period is not None and N >= 7:
                mu_rep = renorm.self_similarity(m, theta, N=N, precision=prec)
                report["mu"] = [mu_rep.mu.real, mu_rep.mu.imag]
                report["mu_err"] = mu_rep.mu_err
            return rep
        stage("scaling", do_scaling)

        def do_geometry():
            angle, disp = curve_mod.critical_angle(c)
            report["critical_angle_rad"] = angle
            report["critical_angle_dispersion"] = disp
            return angle
        if depth >= 9:
            stage("geometry", do_geometry)

        def do_render():
            pts = c.points
            pad = 0.2 * (pts.real.max() - pts.real.min())
            window = cfg.get("window") or [float(pts.real.min() - pad), float(pts.imag.min() - pad),
                                           float(pts.real.max() + pad), float(pts.imag.max() + pad)]
            grid = julia.classify(m, tuple(window), cfg.get("resolution", 512),
                                  maxiter=cfg.get("maxiter", 400))
            julia.save_grid(grid, os.path.join(outdir, "grid.bin"))
            julia.render(grid, os.path.join(outdir, "render.ppm"), curve_overlay=pts)
        stage("render", do_render)
    except _StageFailure:
        return 1

    _emit_json(report, os.path.join(outdir, "report.json"))
    return 0


class _StageFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="hermanlab",
                                 description="critical quasicircle map numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family(p, param=True):
        p.add_argument("--d0", type=int, required=True)
        p.add_argument("--dinf", type=int, required=True)
        if param:
            p.add_argument("--param", default=None,
                           help="re,im map parameter; omit to tune from presets")
        p.add_argument("--theta", default="golden")

    p = sub.add_parser("cfrac", help="continued fraction expansion")
    p.add_argument("--theta", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_cfrac)

    p = sub.add_parser("maps", help="show family coefficients")
    add_family(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_maps)

    p = sub.add_parser("tune", help="tune parameter to a rotation number")
    add_family(p, param=False)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", default=None, help="re,im or 'preset'")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("trace", help="trace the Herman curve")
    add_family(p)
    p.add_argument("--depth", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("geometry", help="curve geometry report")
    p.add_argument("--curve", required=True)
    p.add_argument("--theta", default="golden")
    p.add_argument("--critical-point", type=complex, default=1.0 + 0j)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_geometry)

    p = sub.add_parser("renorm", help="renormalization diagnostics")
    p.add_argument("what", choices=["ratios", "mu", "chi"])
    add_family(p)
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--period", type=int, default=2)
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
        return args.fn(args)
    except (ConfigError, cfrac.RationalInputError, rotation.PresetError) as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        print("numeric failure: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
