import numpy as np
from hypothesis import given, settings, strategies as st

from layerscatter.nufft import Nufft3Plan


def test_type3_matches_direct():
    rng = np.random.default_rng(3)
    s = rng.uniform(-40, 40, 500)
    t = rng.uniform(-3, 3, 80)
    c = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    ref = np.exp(1j * np.outer(t, s)) @ c
    got = Nufft3Plan(s, t, tol=1e-12).apply(c)
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_type3_plan_batch():
    rng = np.random.default_rng(4)
    s = rng.uniform(-25, 25, 150)
    t = rng.uniform(-2, 5, 60)
    plan = Nufft3Plan(s, t, tol=1e-12)
    C = rng.standard_normal((150, 3)) + 1j * rng.standard_normal((150, 3))
    got = plan.apply(C)
    ref = np.exp(1j * np.outer(t, s)) @ C
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_type3_restricted_plan_matches_direct_sum():
    """A restriction to a subset of the sources evaluates that subset's
    sum, and leaves the full plan unchanged."""
    rng = np.random.default_rng(5)
    s = rng.uniform(-25, 25, 150)
    t = rng.uniform(-2, 5, 60)
    plan = Nufft3Plan(s, t, tol=1e-12)
    idx = np.flatnonzero(s > 10)
    C = (rng.standard_normal((idx.size, 3))
         + 1j * rng.standard_normal((idx.size, 3)))
    got = plan.restrict(idx).apply(C)
    ref = np.exp(1j * np.outer(t, s[idx])) @ C
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()
    full = rng.standard_normal(150) + 0j
    ref = np.exp(1j * np.outer(t, s)) @ full
    assert np.abs(plan.apply(full) - ref).max() <= 1e-11 * np.abs(ref).max()


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 1000), span=st.floats(1.0, 60.0),
       tspan=st.floats(0.5, 8.0))
def test_type3_requested_tolerance_property(seed, span, tspan):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-span, span, 40)
    t = rng.uniform(-tspan, tspan, 30)
    c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    ref = np.exp(1j * np.outer(t, s)) @ c
    got = Nufft3Plan(s, t, tol=1e-10).apply(c)
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(c).sum()

