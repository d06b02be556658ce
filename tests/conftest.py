"""Session-scoped tuned maps and deep traces shared across the test suite.

Tuning and deep orbit tracing dominate the suite's runtime, so every
expensive artifact is built once per session here.
"""

import numpy as np
import pytest

import hermanlab as hl


@pytest.fixture(scope="session")
def golden32():
    """Deep-tuned (3,2) golden map: (TuneResult, RationalMap)."""
    res = hl.tune_asymmetric(3, 2, "golden", "preset", m=31)
    return res, hl.herman_family(3, 2, res.parameter)


@pytest.fixture(scope="session")
def blaschke22_golden():
    """Deep-tuned degree-2 Blaschke at golden: (TuneResult, RationalMap)."""
    res = hl.tune_blaschke(2, "golden", tol=1e-15, qcap=200000)
    return res, hl.blaschke(2, res.alpha)


@pytest.fixture(scope="session")
def blaschke3_silver():
    """Deep-tuned degree-3 Blaschke at silver: (TuneResult, RationalMap)."""
    res = hl.tune_blaschke(3, "silver", tol=1e-15, qcap=200000)
    return res, hl.blaschke(3, res.alpha)


@pytest.fixture(scope="session")
def arnold_golden():
    """Deep-tuned Arnold lift at golden: (TuneResult, ArnoldLift)."""
    res = hl.tune_arnold("golden", tol=1e-15, qcap=200000)
    return res, hl.arnold_lift(res.alpha)


@pytest.fixture(scope="session")
def trace32_deep(golden32):
    """Depth-29 trace (832040 vertices) of the (3,2) golden curve."""
    _, m = golden32
    return hl.trace(m, "golden", 29)


@pytest.fixture(scope="session")
def trace22_deep(blaschke22_golden):
    """Depth-29 trace of the (2,2) golden curve, ordered by circle argument (d0 == dinf)."""
    _, m = blaschke22_golden
    return hl.trace(m, "golden", 29)


@pytest.fixture(scope="session")
def grid32_criterion10(golden32):
    """Criterion 10's grid: the (3,2) golden map on [-2, 2]^2 at 2048^2, maxiter 400."""
    _, m = golden32
    return hl.classify(m, (-2.0, -2.0, 2.0, 2.0), 2048, maxiter=400)
