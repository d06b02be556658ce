"""What importing hermanlab loads: curve, renorm and julia on the first use
of one of their names, and the python reference kernels only when a
kernel runs without the C library."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import hermanlab as hl
from hermanlab import _kernels as K

LAZY = ["hermanlab.curve", "hermanlab.renorm", "hermanlab.julia", "hermanlab._reference"]

# the names the package imported eagerly from curve, renorm and julia
NAMES = {
    "curve": ["HermanCurve", "beta_number", "bounded_turning", "critical_angle", "trace"],
    "renorm": ["CommutingPair", "commuting_pair", "convergence_report", "log_lift",
               "scaling_ratios", "self_similarity"],
    "julia": ["DimensionReport", "GridClassification", "PorosityProfile", "box_dimension",
              "classify", "load_grid", "porosity_profile", "render", "save_grid"],
}


def child(code):
    """The JSON that code prints as its last line, run in a fresh interpreter
    with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


TUNE = r"""
import json, sys
import hermanlab
from hermanlab import _kernels, rotation
rotation.tune_asymmetric(3, 2, "golden", "preset", m=16)
rotation.tune_blaschke(2, "golden")
print(json.dumps({"backend": _kernels.BACKEND,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % LAZY


@pytest.mark.skipif(K.BACKEND != "c", reason="C kernels not built (no cc)")
def test_tuning_on_the_library_loads_no_lazy_module():
    """The Newton ladder and the Blaschke bisection, run on the C library,
    import none of curve, renorm, julia and _reference."""
    assert child(TUNE) == {"backend": "c", "loaded": []}


def test_lazy_names_resolve_to_their_modules_at_each_access(monkeypatch):
    """Each name the package imported from curve, renorm and julia, and each
    module's own name, gives the module's object; a name the module holds
    is looked up at each access, so a wrapper set on the module and
    removed again is seen and then gone, and the package keeps no copy."""
    from hermanlab import trace

    for home, names in NAMES.items():
        mod = importlib.import_module("hermanlab." + home)
        assert getattr(hl, home) is mod
        for name in names:
            assert getattr(hl, name) is getattr(mod, name)
            assert name not in vars(hl)
    assert trace is hl.curve.trace

    def wrapper(*args):
        return trace(*args)

    monkeypatch.setattr(hl.curve, "trace", wrapper)
    assert hl.trace is wrapper
    monkeypatch.undo()
    assert hl.trace is trace and "trace" not in vars(hl)
    for name in ("tracee", "Trace", "_LAZY_names"):
        with pytest.raises(AttributeError, match=name):
            getattr(hl, name)


FALLBACK = r"""
import json, sys
import numpy as np
import hermanlab
from hermanlab import _kernels as K, maps

K._lib = None
m = maps.herman_family(3, 2, complex(-1.144208, -0.964454))
num0, den = maps.family_core(3, 2)
bden = maps.blaschke(2, 0.5).den.real[::-1].tobytes()
pts = np.exp(2j * np.pi * np.arange(40) / 40)
calls = {
    "orbit": lambda: K.orbit(m.num, m.den, 1.0 + 0.0j, 5, 1e-8, 1e8),
    "orbit_samples": lambda: K.orbit_samples(m.num, m.den, 1.0 + 0.0j, [1, 3], 1e-8, 1e8),
    "tune_residual": lambda: K.tune_residual(num0, den, complex(-1.144208, -0.964454), 5,
                                             1e-8, 1e8),
    "blaschke_advance": lambda: K.blaschke_advance(bden, 0.3, 2.0, 0.25, 5),
    "classify_kernel": lambda: K.classify_kernel(m.num, m.den, -2.0, -2.0, 1.0, 1.0, 4, 4, 5,
                                                 1e-6, 1e6),
    "arc_ratios": lambda: K.arc_ratios(pts, [0, 3], [20, 30]),
    "distance_transform": lambda: K.distance_transform(np.eye(4, dtype=bool)),
    "curve_csv_rows": lambda: K.curve_csv_rows([0], [0.5], [0.5], [0.5]),
    "curve_csv_parse": lambda: K.curve_csv_parse(b"0,0.5,0.5,0.5\n", 0),
}
out = {"before": "hermanlab._reference" in sys.modules}
for name, call in calls.items():
    sys.modules.pop("hermanlab._reference", None)
    hermanlab.__dict__.pop("_reference", None)
    call()
    out[name] = "hermanlab._reference" in sys.modules
print(json.dumps(out))
"""


def test_each_kernel_without_the_library_loads_the_reference():
    """With _kernels._lib set to None after import, the first call of each
    public kernel with a reference imports _reference, which no import
    before it loaded."""
    doc = child(FALLBACK)
    assert doc.pop("before") is False
    assert doc == dict.fromkeys(doc, True) and len(doc) == 9


CURVE_FILE = r"""
import json, os, sys, tempfile
from hermanlab import _kernels
from hermanlab.cli import main
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "t20.csv")
    codes = [main(["trace", "--d0", "3", "--dinf", "2",
                   "--param=-1.1442084006991486,-0.9644541436327397", "--depth", "20",
                   "--out", path]),
             main(["geometry", "--curve", path, "--out", os.path.join(d, "geometry.json")]),
             main(["dims", "--points", path, "--connect", "--out", os.path.join(d, "dims.json")])]
print(json.dumps({"backend": _kernels.BACKEND, "codes": codes,
                  "loaded": "hermanlab._reference" in sys.modules}))
"""


@pytest.mark.skipif(K.BACKEND != "c", reason="C kernels not built (no cc)")
def test_curve_file_on_the_library_loads_no_reference():
    """A depth-20 trace of the (3,2) golden map, and geometry and dims
    --connect on its curve CSV, write and read the file in C alone: the
    python writer and reader in _reference stay unloaded."""
    assert child(CURVE_FILE) == {"backend": "c", "codes": [0, 0, 0], "loaded": False}
