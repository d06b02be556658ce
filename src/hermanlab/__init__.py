"""hermanlab: numerics for critical quasicircle maps and their renormalization.

Construct the explicit rational families with invariant Herman
quasicircles, tune parameters to bounded-type rotation numbers, trace
the invariant curve, build pre-renormalization commuting pairs, and
measure scaling ratios, self-similarity factors, critical angles, box
dimension, and porosity profiles.
"""

import importlib

from .cfrac import BRONZE_ALT, GOLDEN, SILVER, ContinuedFraction
from .maps import RationalMap, arnold_lift, blaschke, herman_family
from .rotation import (TuneResult, circle_lift, rotation_number, tune_arnold,
                       tune_asymmetric, tune_blaschke, verify_herman)

# curve, renorm and julia by the names they give the package, each imported on first use
_LAZY = {
    "curve": ("HermanCurve", "beta_number", "bounded_turning", "critical_angle", "trace"),
    "renorm": ("CommutingPair", "commuting_pair", "convergence_report", "log_lift",
               "scaling_ratios", "self_similarity"),
    "julia": ("DimensionReport", "GridClassification", "PorosityProfile", "box_dimension",
              "classify", "load_grid", "porosity_profile", "render", "save_grid"),
}


def __getattr__(name):
    """name from its module at each access (PEP 562): a copy kept here would
    outlive a wrapper that replaces the module's own and is then removed."""
    for home, names in _LAZY.items():
        if name == home or name in names:
            mod = importlib.import_module("." + home, __name__)
            return mod if name == home else getattr(mod, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__version__ = "0.1.0"
