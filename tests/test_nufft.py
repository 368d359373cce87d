import numpy as np
from hypothesis import given, settings, strategies as st

from layerscatter.nufft import (Nufft3Plan, modes, nufft1d1, nufft1d2,
                                nufft1d3)


def _direct_type1(points, c, n_modes):
    k = modes(n_modes)
    return np.exp(1j * np.outer(k, points)) @ c


def _direct_type2(points, f):
    k = modes(len(f))
    return np.exp(1j * np.outer(points, k)) @ f


def test_type1_matches_direct():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 2 * np.pi, 300)
    c = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    got = nufft1d1(x, c, 64, tol=1e-12)
    ref = _direct_type1(x, c, 64)
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_type2_matches_direct():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 2 * np.pi, 200)
    f = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    got = nufft1d2(x, f, tol=1e-12)
    ref = _direct_type2(x, f)
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_type3_matches_direct():
    rng = np.random.default_rng(3)
    s = rng.uniform(-40, 40, 500)
    t = rng.uniform(-3, 3, 80)
    c = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    ref = np.exp(1j * np.outer(t, s)) @ c
    got = nufft1d3(s, c, t, tol=1e-12)
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
@given(n=st.integers(2, 120), m=st.integers(1, 80),
       seed=st.integers(0, 1000),
       tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_type1_requested_tolerance_property(n, m, seed, tol):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2 * np.pi, m)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    got = nufft1d1(x, c, n, tol=tol)
    ref = _direct_type1(x, c, n)
    scale = np.abs(c).sum() or 1.0
    assert np.abs(got - ref).max() <= 10 * tol * scale


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 1000), span=st.floats(1.0, 60.0),
       tspan=st.floats(0.5, 8.0))
def test_type3_requested_tolerance_property(seed, span, tspan):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-span, span, 40)
    t = rng.uniform(-tspan, tspan, 30)
    c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    ref = np.exp(1j * np.outer(t, s)) @ c
    got = nufft1d3(s, c, t, tol=1e-10)
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(c).sum()


def test_adjoint_consistency():
    """Type-1 and type-2 with conjugate inputs are adjoint to each other."""
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 2 * np.pi, 70)
    c = rng.standard_normal(70) + 1j * rng.standard_normal(70)
    f = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    # bilinear transpose identity: sum_k f_k (F1 c)_k = sum_j c_j (F2 f)_j
    lhs = np.sum(f * nufft1d1(x, c, 41, tol=1e-12))
    rhs = np.sum(c * nufft1d2(x, f, tol=1e-12))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
