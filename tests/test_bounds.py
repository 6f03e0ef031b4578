import math

import numpy as np
import pytest

from octool.bounds import (
    LogInterpFunction,
    a_constants,
    b_constants,
    e_constant,
    extremal_function,
    grand_bound_constant,
    grand_norm,
    hausdorff_lp_norm,
    interval_measure,
    lp_lq_constant,
    lp_norm,
    mphi_check,
    power_lemma_check,
)
from octool.errors import MonotonicityError, SupportError
from octool.hausdorff import make_kernel
from octool.octransform import FunctionSpec
from octool.quad import QuadConfig
from octool.specfun import JacobiParams

P1 = JacobiParams(0.5, -0.5)
CFG = QuadConfig()
POWERCUT = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf)
ADJOINT = make_kernel("adjoint_hardy")
HALF = (0.0, math.inf)


def test_interval_measure_closed_form():
    # int_0^1 sinh^2 = (sinh 2 - 2)/4 at (1/2, -1/2)
    truth = (math.sinh(2.0) - 2.0) / 4.0
    assert interval_measure(P1, (0.0, 1.0), CFG) == pytest.approx(truth, rel=1e-10)
    assert truth == pytest.approx(0.4067151019617547, rel=1e-14)


def test_interval_measure_additive():
    whole = interval_measure(P1, (0.0, 2.0), CFG)
    parts = interval_measure(P1, (0.0, 0.7), CFG) + \
        interval_measure(P1, (0.7, 2.0), CFG)
    assert whole == pytest.approx(parts, rel=1e-12)


@pytest.mark.parametrize("p_exp,eps", [(2.0, 0.1), (3.0, 0.05)])
def test_extremal_eps_norm_closed_form(p_exp, eps):
    f = extremal_function("eps", P1, p=p_exp, eps=eps)
    truth = (eps * p_exp) ** (-1.0 / p_exp)
    assert lp_norm(f, p_exp, P1, HALF, CFG).value == pytest.approx(truth, rel=1e-8)


@pytest.mark.parametrize("p_exp,delta", [(2.0, 0.1), (3.0, 0.05)])
def test_extremal_delta_norm_closed_form(p_exp, delta):
    f = extremal_function("delta", P1, p=p_exp, delta=delta)
    truth = (delta * p_exp) ** (-1.0 / p_exp)
    assert lp_norm(f, p_exp, P1, HALF, CFG).value == pytest.approx(truth, rel=1e-8)


def test_extremal_zero_norm_closed_form():
    f = extremal_function("zero", P1, p=0.5)
    assert lp_norm(f, 0.5, P1, HALF, CFG).value == pytest.approx(4.0, rel=1e-8)


def test_unit_norm_on_interval():
    one = FunctionSpec("constant_one", domain="unit_interval")
    truth = math.sqrt(0.4067151019617547)
    assert lp_norm(one, 2.0, P1, (0.0, 1.0), CFG).value == \
        pytest.approx(truth, rel=1e-9)


def test_a_constants_closed_form():
    a_sup, a_inf = a_constants(POWERCUT, 2.0, P1, CFG)
    assert a_sup == pytest.approx(0.4, abs=1e-6)   # = 2/5 analytically
    assert a_inf == 0.0
    # kernel with mass below t=1: sup side is the extended value
    assert a_constants(ADJOINT, 2.0, P1, CFG)[0] == math.inf


def test_e_constant_closed_form():
    assert e_constant(POWERCUT, 2.0, CFG) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert e_constant(make_kernel("hardy"), 2.0, CFG) == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(SupportError):
        e_constant(ADJOINT, 2.0, CFG)


def test_b_constants():
    b_sup, b_inf = b_constants(ADJOINT, 0.5, P1, CFG)
    assert b_sup == 0.0          # no kernel mass on t > 1
    assert b_inf == pytest.approx(0.25, rel=1e-8)
    assert b_constants(POWERCUT, 0.5, P1, CFG)[0] == math.inf


def test_lp_lq_constant():
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0)
    assert lp_lq_constant(k, 3.0, 2.0, P1, CFG) == \
        pytest.approx(0.07078448985775, rel=1e-8)
    # support reaching below q(p-1)/(p(q-1)) = 4/3 makes the inner
    # integral diverge: extended value
    wide = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=2.0)
    assert lp_lq_constant(wide, 3.0, 2.0, P1, CFG) == math.inf


def test_grand_norm_of_unit_function():
    one = FunctionSpec("constant_one", domain="unit_interval")
    assert grand_norm(one, 2.0, P1, (0.0, 1.0), CFG).value == \
        pytest.approx(1.0, abs=1e-3)


def test_grand_norm_extremal_bounded():
    fd = extremal_function("delta", P1, p=2.0, delta=0.2)
    v = grand_norm(fd, 2.0, P1, (0.0, 1.0), CFG).value
    assert 0.0 < v <= 3.4527


def test_grand_bound_constant_vs_brute_force():
    v = grand_bound_constant(POWERCUT, 2.0, P1, CFG)
    assert v == pytest.approx(1.9074312589602, rel=1e-9)
    with pytest.raises(SupportError):
        grand_bound_constant(ADJOINT, 2.0, P1, CFG)


def test_hausdorff_lp_norm_divergence_detected():
    fe = extremal_function("eps", P1, p=2.0, eps=0.1)
    r = hausdorff_lp_norm(ADJOINT, fe, 2.0, P1, HALF, CFG)
    assert r.value == math.inf


def test_hausdorff_l1_contraction():
    g = FunctionSpec("gaussian", params={"scale": 1.0})
    r = hausdorff_lp_norm(ADJOINT, g, 1.0, P1, (-math.inf, math.inf), CFG)
    base = lp_norm(g, 1.0, P1, (-math.inf, math.inf), CFG)
    assert r.value == pytest.approx(base.value, rel=1e-6)


def test_log_interp_function_exact_on_powers():
    grid = np.geomspace(1e-6, 1.0, 200)
    h = LogInterpFunction(grid, -0.5 * np.log(grid))
    xs = np.geomspace(2e-6, 0.9, 50)
    assert np.allclose(h.log_abs(xs), -0.5 * np.log(xs), rtol=1e-12)


def test_power_lemma_on_step_function():
    h = FunctionSpec("sampled", params={
        "xs": np.array([0.0, 0.5, 1.0, 2.0]),
        "ys": np.array([3.0, 2.0, 0.5, 0.5]),
        "interp": "previous"})
    for s in (0.2, 0.5, 0.8):
        lhs, rhs = power_lemma_check(h, s, CFG)
        assert lhs <= rhs * (1.0 + 1e-8)


def test_power_lemma_rejects_increasing():
    h = FunctionSpec("sampled", params={
        "xs": np.array([0.0, 1.0, 2.0]),
        "ys": np.array([1.0, 2.0, 3.0]),
        "interp": "previous"})
    with pytest.raises(MonotonicityError):
        power_lemma_check(h, 0.5, CFG)


def test_mphi_gate():
    one = FunctionSpec("constant_one", domain="positive_halfline")
    assert mphi_check(ADJOINT, one, P1, 0.5)
    gauss = FunctionSpec("gaussian", params={"scale": 1.0})
    assert not mphi_check(ADJOINT, gauss, P1, 0.5)


@pytest.mark.parametrize("params", [P1, JacobiParams(1.0, 0.5), JacobiParams(1.5, 1.5)])
def test_extremal_eps_norm_where_reciprocal_rounds(params):
    # p * (-1/p) + 1 is 1.1e-16 here, not 0; the weight must still cancel
    p_exp, eps = 3.146943216337464, 0.2
    f = extremal_function("eps", params, p=p_exp, eps=eps)
    truth = (eps * p_exp) ** (-1.0 / p_exp)
    assert lp_norm(f, p_exp, params, HALF, CFG).value == pytest.approx(truth, rel=1e-9)
