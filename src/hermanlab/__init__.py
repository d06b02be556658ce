"""hermanlab: numerics for critical quasicircle maps and their renormalization.

Construct the explicit rational families with invariant Herman
quasicircles, tune parameters to bounded-type rotation numbers, trace
the invariant curve, build pre-renormalization commuting pairs, and
measure scaling ratios, self-similarity factors, critical angles, box
dimension, and porosity profiles.
"""

from .cfrac import BRONZE_ALT, GOLDEN, SILVER, ContinuedFraction
from .maps import RationalMap, arnold_lift, blaschke, herman_family
from .rotation import (TuneResult, circle_lift, rotation_number, tune_arnold,
                       tune_asymmetric, tune_blaschke, verify_herman)
from .curve import HermanCurve, beta_number, bounded_turning, critical_angle, trace
from .renorm import (CommutingPair, commuting_pair, convergence_report, log_lift,
                     scaling_ratios, self_similarity)
from .julia import (DimensionReport, GridClassification, PorosityProfile,
                    box_dimension, classify, load_grid, porosity_profile, render,
                    save_grid)

__version__ = "0.1.0"
