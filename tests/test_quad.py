import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octool.errors import DivergentIntegralError, OctoolError, ParameterError
from octool.quad import (
    QuadConfig,
    integrate_finite,
    integrate_positive,
    integrate_real_line,
    integrate_to_infinity,
    integrate_to_zero,
    panel_rule,
)

CFG = QuadConfig()


def test_polynomial_exact():
    r = integrate_finite(lambda x: x**5 - 3 * x**2 + 1, 0.0, 2.0, CFG)
    truth = 2.0**6 / 6 - 2.0**3 + 2.0
    assert abs(r.value - truth) <= 1e-13 * abs(truth)


def test_smooth_oscillatory():
    r = integrate_finite(lambda x: np.sin(10 * x), 0.0, math.pi, CFG)
    truth = (1 - math.cos(10 * math.pi)) / 10
    assert abs(r.value - truth) <= max(r.err_estimate, 1e-12)


def test_inverse_sqrt_singularity():
    r = integrate_to_zero(lambda x: 1.0 / np.sqrt(x), 1.0, CFG)
    assert abs(r.value - 2.0) <= 1e-7


def test_exponential_tail():
    r = integrate_to_infinity(lambda x: np.exp(-x), 0.0, CFG)
    assert abs(r.value - 1.0) <= 1e-9


def test_gaussian_real_line():
    r = integrate_real_line(lambda x: np.exp(-(x**2)), CFG)
    assert abs(r.value - math.sqrt(math.pi)) <= 1e-9


def test_divergent_tail_detected():
    with pytest.raises(DivergentIntegralError):
        integrate_to_infinity(lambda x: 1.0 / x, 1.0, CFG)


@pytest.mark.parametrize("s", [0.01, 0.02, 0.05, 0.07, 0.25, 0.5])
def test_zero_end_near_divergence_edge(s):
    # int_0^1 x^(s-1) = 1/s; the mass below any fixed cut x0 is x0^s/s, so
    # only a tail estimate makes small s both finite and honest
    r = integrate_to_zero(lambda x: x ** (s - 1.0), 1.0, CFG)
    assert math.isfinite(r.value)
    assert abs(r.value - 1.0 / s) <= r.err_estimate
    if s >= 0.05:
        assert abs(r.value - 1.0 / s) <= 1e-8 / s


def test_divergent_origin_detected():
    with pytest.raises(DivergentIntegralError):
        integrate_to_zero(lambda x: 1.0 / x, 1.0, CFG)


@pytest.mark.parametrize("rate", [0.5, 0.25])
def test_fast_growing_tail_detected(rate):
    # the clipped last block dwarfs every full block; it must not lift the
    # divergence floor over them
    with pytest.raises(DivergentIntegralError):
        integrate_to_infinity(lambda s: np.exp(rate * s), 0.0, CFG, cutoff=600.0)


def test_nan_integrand_rejected():
    with pytest.raises(ParameterError):
        integrate_finite(lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0, CFG)


def test_error_estimate_honest():
    r = integrate_finite(lambda x: np.exp(x) * np.cos(3 * x), 0.0, 3.0, CFG)
    truth = (math.e**3 * (math.cos(9) + 3 * math.sin(9)) - 1) / 10
    assert abs(r.value - truth) <= max(r.err_estimate, 1e-11)


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_linearity(c1, c2):
    f = lambda x: np.cos(x)
    g = lambda x: x**2
    lhs = integrate_finite(lambda x: c1 * f(x) + c2 * g(x), 0.0, 1.0, CFG).value
    rhs = c1 * integrate_finite(f, 0.0, 1.0, CFG).value \
        + c2 * integrate_finite(g, 0.0, 1.0, CFG).value
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 4.0))
def test_split_additive(c):
    f = lambda x: np.exp(-(x**2)) * np.sin(x + 1)
    whole = integrate_finite(f, 0.0, 5.0, CFG).value
    split = integrate_finite(f, 0.0, c, CFG).value + \
        integrate_finite(f, c, 5.0, CFG).value
    assert abs(whole - split) <= 1e-10


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", [
    "rel_tol", "abs_tol", "truncation_x", "truncation_lambda", "truncation_t", "lambda_min",
])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ParameterError):
        QuadConfig(**{name: value})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_panel_rule_exactness(seed):
    rng = np.random.default_rng(seed)
    edges = np.cumsum(rng.uniform(0.05, 0.5, int(rng.integers(2, 9))))
    edges -= rng.uniform(0.0, edges[-1])
    x, wk, wg = panel_rule(edges)
    assert x.shape == wk.shape == wg.shape == (edges.size - 1, 15)
    a, b = edges[0], edges[-1]
    for d in range(23):
        scale = np.sum(np.abs(wk * x**d))
        truth = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        assert abs(np.sum(wk * x**d) - truth) <= 1e-13 * scale
        if d <= 13:
            # the embedded Gauss rule is exact here too, panel by panel
            diff = np.sum((wk - wg) * x**d, axis=1)
            assert np.all(np.abs(diff) <= 1e-13 * scale)


@settings(max_examples=40, deadline=5000)
@given(st.integers(1, 2000), st.floats(1e-14, 0.5), st.floats(1e-300, 1.0),
       st.floats(-0.5, 2.0),
       st.sampled_from([(0.0, 1.0), (0.0, math.inf), (1.0, math.inf), (0.5, 2.0)]))
def test_half_line_integrators_finish_on_any_config(max_sub, rel_tol, abs_tol, s, span):
    # every config the constructor accepts gives a value or an OctoolError
    cfg = QuadConfig(rel_tol=rel_tol, abs_tol=abs_tol, max_subdivisions=max_sub)
    f = lambda x: x ** (s - 1.0)
    for call in (lambda: integrate_to_zero(f, 1.0, cfg),
                 lambda: integrate_to_infinity(f, 1.0, cfg),
                 lambda: integrate_positive(f, *span, cfg)):
        try:
            with np.errstate(over="ignore"):
                call()
        except OctoolError:
            pass
