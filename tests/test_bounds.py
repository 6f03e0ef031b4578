import math
from dataclasses import replace

import numpy as np
import pytest

from octool.bounds import (
    _lp_integral,
    a_constants,
    b_constants,
    e_constant,
    extremal_function,
    grand_bound_constant,
    grand_norm,
    interval_measure,
    kernel_moment,
    lp_lq_constant,
    lp_norm,
    mphi_check,
    power_lemma_check,
)
from octool.errors import MonotonicityError, ParameterError, SupportError
from octool.harness_cli import build_default_suite, random_step_function, run_scenario
from octool.hausdorff import HausdorffImage, make_kernel
from octool.octransform import FunctionSpec
from octool.quad import QuadConfig, integrate
from octool.specfun import JacobiParams, log_weight_a, weight_a

P1 = JacobiParams(0.5, -0.5)
P2 = JacobiParams(1.0, 0.5)
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


def _powercut(exponent, lo=1.0, hi=math.inf):
    return make_kernel("power_cutoff", exponent=exponent, lo=lo, hi=hi)


def test_a_sup_divergent_moment():
    # s = 1/2 - 3/2 = -1: the a_sup integrand is t * t^-2 = 1/t on (1, inf)
    assert a_constants(_powercut(1.0), 2.0, P2, CFG) == (math.inf, 0.0)


@pytest.mark.parametrize("kernel", [_powercut(-2.0), make_kernel("hardy")])
def test_b_constants_divergent_moment(kernel):
    # s = 1 + 3/2 = 5/2: phi^(1/2) t^(3/2) grows on (1, inf)
    assert b_constants(kernel, 0.5, P2, CFG) == (math.inf, math.inf)


# a tabulated kernel whose mass below 1 is one spike 2e-5 wide, at t = 0.70001
SPIKE = make_kernel("tabulated", grid=[0.5, 0.7, 0.70001, 0.70002, 2.0, 3.0],
                    values=[0.0, 0.0, 1.0, 0.0, 0.0, 1.0])


def test_kernel_mass_below_one_is_read_from_the_grid():
    # 129 geometric samples in (0, 1) miss the spike: a_sup read 0.1166 and
    # e_constant 0.307, where a_sup = +inf and E is undefined
    assert SPIKE.has_mass_on(0.0, 1.0) and SPIKE.has_mass_on(0.700005, 0.700006)
    assert not SPIKE.has_mass_on(0.5, 0.7) and not SPIKE.has_mass_on(0.70002, 2.0)
    assert a_constants(SPIKE, 2.0, P1, CFG)[0] == math.inf
    with pytest.raises(SupportError):
        e_constant(SPIKE, 2.0, CFG)


def test_kernel_moment_of_a_tabulated_kernel_sums_its_grid_segments():
    # the spike's mass below 1 lies in (0.7, 0.70002), between the nodes of
    # an adaptive panel over (0.5, 1), which read 0 with an estimate of 0.
    # The reference is the tent on the double grid points; interpolating
    # t - 0.7 at a 1e-5 scale costs about 1e-11 relative
    mpmath = pytest.importorskip("mpmath")
    a, m, b = (mpmath.mpf(g) for g in SPIKE.params["grid"][1:4])
    ref = (mpmath.quad(lambda t: (t - a) / (m - a) / mpmath.sqrt(t), [a, m])
           + mpmath.quad(lambda t: (b - t) / (b - m) / mpmath.sqrt(t), [m, b]))
    r = kernel_moment(SPIKE, 0.5, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(float(ref), rel=1e-10)
    assert float(ref) == pytest.approx(1.195e-5, rel=1e-3)


@pytest.mark.parametrize("p_exp", [0.4, 0.5, 0.55, 0.9])
def test_e_constant_below_one(p_exp):
    # integral over (1, inf) of t^(1/p - 3): 1/(2 - 1/p) when 1/p < 2
    x = 1.0 / p_exp - 2.0
    truth = -1.0 / x if x < 0.0 else math.inf
    assert e_constant(_powercut(-2.0), p_exp, CFG) == pytest.approx(truth, rel=1e-9)


# kernel_moment oracle: (id, kernel, power, closed moment of s, and exponent x
# of the t^(x - 1) behaviour at t -> 0 and at t -> inf (None where the support
# stops short of that end))
def _powercut_case(exponent, lo, hi, power):
    def closed(s):
        x = exponent * power + s
        return math.log(hi / lo) if x == 0.0 else (hi ** x - lo ** x) / x

    return (f"power_cutoff({exponent},{lo},{hi})^{power}",
            _powercut(exponent, lo, hi), power, closed,
            lambda s: exponent * power + s if lo == 0.0 else None,
            lambda s: exponent * power + s if hi == math.inf else None)


_MOMENT_CASES = [
    ("hardy", make_kernel("hardy"), 1.0, lambda s: 1.0 / (1.0 - s),
     lambda s: None, lambda s: s - 1.0),
    ("adjoint_hardy", ADJOINT, 1.0, lambda s: 1.0 / s,
     lambda s: s, lambda s: None),
    ("hlp", make_kernel("hlp"), 1.0, lambda s: 1.0 / s + 1.0 / (1.0 - s),
     lambda s: s, lambda s: s - 1.0),
    ("cesaro(2.5)", make_kernel("cesaro", gamma_c=2.5), 1.0,
     lambda s: 2.5 * math.gamma(s) * math.gamma(2.5) / math.gamma(s + 2.5),
     lambda s: s, lambda s: None),
    ("riemann_liouville(2)", make_kernel("riemann_liouville", mu=2.0), 1.0,
     lambda s: math.gamma(1.0 - s) / math.gamma(3.0 - s),
     lambda s: None, lambda s: s - 1.0),
] + [
    _powercut_case(exponent, lo, hi, power)
    for exponent, lo, hi in ((0.5, 0.0, 1.0), (-0.5, 0.0, 1.0), (-2.0, 1.0, math.inf),
                             (-3.0, 1.0, math.inf), (1.5, 0.5, 2.0))
    for power in (1.0, 0.5)
]
_MOMENT_S = [round(-1.5 + 0.05 * i, 2) for i in range(81)]


def _margin(case, s) -> float:
    """Distance of s inside the convergent side; <= 0 where the moment
    diverges."""
    _, _, _, _, at_zero, at_inf = case
    x0, xinf = at_zero(s), at_inf(s)
    return min(math.inf if x0 is None else x0, math.inf if xinf is None else -xinf)


_CHECKED_MARGIN = 0.25 - 1e-12


def _moment_check(case, s):
    _, k, power, closed, _, _ = case
    r = kernel_moment(k, s, 0.0, math.inf, CFG, power=power).value
    margin = _margin(case, s)
    if margin <= 0.0:
        assert r == math.inf, (s, r)
    elif margin >= _CHECKED_MARGIN:
        truth = closed(s)
        assert abs(r - truth) <= 1e-8 * abs(truth), (s, r, truth)


@pytest.mark.parametrize("case", _MOMENT_CASES, ids=[c[0] for c in _MOMENT_CASES])
def test_kernel_moment_closed_forms(case):
    for s in _MOMENT_S:
        _moment_check(case, s)


def test_lp_lq_constant():
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0)
    assert lp_lq_constant(k, 3.0, 2.0, P1, CFG) == \
        pytest.approx(0.07078448985775, rel=1e-8)
    # support reaching below q(p-1)/(p(q-1)) = 4/3 makes the inner
    # integral diverge: extended value
    wide = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=2.0)
    assert lp_lq_constant(wide, 3.0, 2.0, P1, CFG) == math.inf


def _lp_lq_constant_per_node(k, p_exp, q_exp, params, cfg):
    """lp_lq_constant with one adaptive inner u-integral per outer t node."""
    s = p_exp / (p_exp - q_exp)
    c1, c2 = q_exp - q_exp / p_exp, q_exp - 1.0
    rho2 = 2.0 * (params.alpha + params.beta + 1.0)

    def integrand(t):
        out = np.zeros(t.shape)
        for i, ti in enumerate(t):
            phi = float(k(ti))
            if phi == 0.0:
                continue
            rate = rho2 * s * (c1 - c2 * ti)
            assert rate < 0.0

            def gu(u):
                expo = s * (c1 * log_weight_a(params, u) - c2 * log_weight_a(params, ti * u))
                return np.exp(np.minimum(expo, 709.0))

            cutoff = max(cfg.truncation_x, 200.0 / abs(rate) * rho2)
            iv = 2.0 * float((integrate(gu, 1.0, math.inf, cfg, cutoff=1.0 + cutoff)
                              + integrate(gu, 0.0, 1.0, cfg)).value)
            out[i] = phi / ti * ti ** (1.0 / q_exp) * iv ** ((p_exp - q_exp) / (p_exp * q_exp))
        return out

    return float(integrate(integrand, *k.support(), cfg).value)


@pytest.mark.parametrize("params", [P1, P2], ids=["half_minus_half", "one_half"])
def test_lp_lq_constant_matches_per_node_reference(params):
    # the outer panel's inner integrals run as one vector; the per-node loop
    # is the reference, and the default T_LPLQ kernel gives the same value
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0)
    assert lp_lq_constant(k, 3.0, 2.0, params, CFG) == pytest.approx(
        _lp_lq_constant_per_node(k, 3.0, 2.0, params, CFG), rel=1e-13, abs=0.0)


def test_grand_norm_of_unit_function():
    one = FunctionSpec("constant_one", domain="unit_interval")
    assert grand_norm(one, 2.0, P1, (0.0, 1.0), CFG).value == \
        pytest.approx(1.0, abs=1e-3)


def test_grand_norm_extremal_bounded():
    fd = extremal_function("delta", P1, p=2.0, delta=0.2)
    v = grand_norm(fd, 2.0, P1, (0.0, 1.0), CFG).value
    assert 0.0 < v <= 3.4527


@pytest.mark.parametrize("q", [4.0, 3.5])
def test_lp_norm_non_integrable_singularity_is_infinite(q):
    # |f|^4 A ~ x^-3.6 at 0: the integrand overflows before the divergence
    # test sees it, and an overflowing node must count as divergence
    f = extremal_function("delta", P1, p=2.0, delta=0.1)
    assert lp_norm(f, q, P1, (0.0, 1.0), CFG).value == math.inf


def test_grand_norm_divergent_at_smallest_eps():
    f = extremal_function("delta", P1, p=2.0, delta=0.1)
    g = grand_norm(f, 4.0, P1, (0.0, 1.0), CFG)
    assert g.value == math.inf
    assert g.detail["divergent_at"] == g.detail["eps_grid"][0]


# the functions whose grand norms the default T_GRAND scenarios compare
GRAND_CASES = [
    (params, f)
    for params in (P1, P2)
    for f in (FunctionSpec("constant_one", domain="unit_interval"),
              *(extremal_function("delta", params, p=2.0, delta=d) for d in (0.2, 0.1)))
]


@pytest.mark.parametrize("params,f", GRAND_CASES)
def test_grand_norm_matches_per_eps_loop(params, f):
    unit = (0.0, 1.0)
    g = grand_norm(f, 2.0, params, unit, CFG)
    eps = g.detail["eps_grid"]
    q = 2.0 - eps
    mass = interval_measure(params, unit, CFG)
    # per-eps estimates of the one vector run that grand_norm makes
    vec = _lp_integral(f, q, params, unit, CFG)
    assert np.all(g.detail["values"] == eps ** (1.0 / q) * (vec.value / mass) ** (1.0 / q))
    errs = g.detail["values"] * vec.err_estimate / (q * vec.value)
    for i, (e, qi) in enumerate(zip(eps, q)):
        n = lp_norm(f, qi, params, unit, CFG)
        ref = (e / mass) ** (1.0 / qi) * n.value
        ref_err = ref * n.err_estimate / n.value
        assert abs(g.detail["values"][i] - ref) <= errs[i] + ref_err
    assert g.detail["argmax_eps"] == eps[np.argmax(g.detail["values"])]


@pytest.mark.parametrize("params", [P1, P2])
def test_grand_ub_norm_of_image_within_its_estimate(params):
    # the grand norm of H f that the default T_GRAND_UB report gates lies
    # within its own estimate of a run at rel_tol / 100
    s = next(s for s in build_default_suite()
             if s.theorem_id == "T_GRAND_UB" and s.params == params)
    fine = replace(CFG, rel_tol=CFG.rel_tol / 100)
    values = []
    for f in s.functions:
        g = grand_norm(HausdorffImage(s.kernel, f, params, CFG), 2.0, params, (0.0, 1.0), CFG)
        ref = grand_norm(HausdorffImage(s.kernel, f, params, fine), 2.0, params,
                         (0.0, 1.0), fine)
        assert abs(g.value - ref.value) <= g.err_estimate
        values.append(g.value)
    assert run_scenario(s).lhs in values


@pytest.mark.parametrize("theorem_id", ["T_L1", "T_LP_ASUP", "T_LPLQ"])
def test_lp_norm_of_image_within_its_estimate(theorem_id):
    # every H f norm that the first default scenario of each id gates lies
    # within its own estimate of a reference: ||phi||_1 ||f||_1 for T_L1,
    # an identity for non-negative f, and a run at rel_tol / 100 otherwise
    s = next(s for s in build_default_suite() if s.theorem_id == theorem_id)
    p_exp = {"T_L1": 1.0, "T_LP_ASUP": s.exponents.get("p"),
             "T_LPLQ": s.exponents.get("q")}[theorem_id]
    fine = replace(s.cfg, rel_tol=s.cfg.rel_tol / 100)
    line = (-math.inf, math.inf)
    for f in s.functions:
        r = lp_norm(HausdorffImage(s.kernel, f, s.params, s.cfg), p_exp, s.params, line, s.cfg)
        if theorem_id == "T_L1":
            ref = s.kernel.l1_status(fine)[1] * lp_norm(f, 1.0, s.params, line, fine).value
        else:
            ref = lp_norm(HausdorffImage(s.kernel, f, s.params, fine), p_exp, s.params,
                          line, fine).value
        assert abs(r.value - ref) <= r.err_estimate


@pytest.mark.parametrize("theorem_id", ["T_L1", "T_LPLQ"])
def test_lp_norm_of_image_calls_the_engine_once_per_round(theorem_id, monkeypatch):
    # the nodes of every panel of a refinement round go to the engine in one
    # call, so a norm takes a few calls, not one per outer panel
    import octool.hausdorff as hausdorff

    exact, calls = hausdorff.hausdorff_log_grid, []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return exact(*args, **kwargs)

    monkeypatch.setattr(hausdorff, "hausdorff_log_grid", counted)
    for s in build_default_suite():
        if s.theorem_id != theorem_id:
            continue
        p_exp = 1.0 if theorem_id == "T_L1" else s.exponents["q"]
        for f in s.functions:
            calls.clear()
            lp_norm(HausdorffImage(s.kernel, f, s.params, s.cfg), p_exp, s.params,
                    (-math.inf, math.inf), s.cfg)
            assert 1 <= len(calls) <= 16


def test_grand_bound_constant_vs_brute_force():
    v = grand_bound_constant(POWERCUT, 2.0, P1, CFG)
    assert v == pytest.approx(1.9074312589602, rel=1e-9)
    with pytest.raises(SupportError):
        grand_bound_constant(ADJOINT, 2.0, P1, CFG)


def test_grand_bound_constant_takes_an_end_of_grid_minimum_as_it_is(monkeypatch):
    # the minimum lies at the grid's last sigma, where a golden section
    # cannot leave the grid: E(phi, p - sigma) at the 63 grid points (the two
    # 32-point halves share their midpoint) as one vector-valued moment, and
    # no scalar moment after it
    import octool.bounds as bounds

    calls = []

    def counted(k, s, *args, **kw):
        calls.append(np.shape(s))
        return kernel_moment(k, s, *args, **kw)

    monkeypatch.setattr(bounds, "kernel_moment", counted)
    assert grand_bound_constant(POWERCUT, 2.0, P1, CFG) == pytest.approx(1.9074312589602, rel=1e-9)
    assert calls == [(63,)]


def test_kernel_moment_of_an_array_matches_scalar_calls():
    # phi = t^-2 on (1, inf): the moment is 1 / (2 - s), divergent at s >= 2
    s = np.array([-1.0, 0.5, 1.0, 1.5, 2.5, 1.9])
    vec = kernel_moment(POWERCUT, s, 1.0, math.inf, CFG)
    assert vec.value.shape == vec.err_estimate.shape == s.shape
    assert vec.value[4] == vec.err_estimate[4] == math.inf
    for i in (0, 1, 2, 3, 5):
        one = kernel_moment(POWERCUT, float(s[i]), 1.0, math.inf, CFG)
        assert abs(vec.value[i] - one.value) <= vec.err_estimate[i] + one.err_estimate
        assert abs(vec.value[i] - 1.0 / (2.0 - s[i])) <= 1e-8 / (2.0 - s[i])


def test_grand_bound_constant_refines_an_interior_minimum():
    # phi = t^-1.2 on (1, inf): E(phi, r) = 1 / (1.2 - 1/r), and
    # sigma^(-1/(2 - sigma)) E(phi, 2 - sigma) has its minimum inside (0, 1)
    sigma = np.linspace(0.3, 0.8, 500001)
    closed = np.min(sigma ** (-1.0 / (2.0 - sigma)) / (1.2 - 1.0 / (2.0 - sigma)))
    a1 = weight_a(P1, 1.0)
    assert grand_bound_constant(_powercut(-1.2), 2.0, P1, CFG) == \
        pytest.approx(a1 * a1 * closed, rel=1e-8)


def test_hausdorff_lp_norm_divergence_detected():
    fe = extremal_function("eps", P1, p=2.0, eps=0.1)
    r = lp_norm(HausdorffImage(ADJOINT, fe, P1, CFG), 2.0, P1, HALF, CFG)
    assert r.value == math.inf


@pytest.mark.parametrize("f_p", [2.0, 1.5])
def test_hausdorff_lp_norm_overflow_is_divergence(f_p):
    # (H f)^4 of the delta = 0.1 extremal overflows near 0; lp_norm of f
    # itself is inf there, so a finite result would be a clamped exponent
    f = extremal_function("delta", P1, p=f_p, delta=0.1)
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=1.13)
    assert lp_norm(f, 4.0, P1, (0.0, 1.0), CFG).value == math.inf
    r = lp_norm(HausdorffImage(k, f, P1, CFG), 4.0, P1, (0.0, 1.0), CFG)
    assert (r.value, r.err_estimate) == (math.inf, math.inf)


def test_hausdorff_l1_contraction():
    g = FunctionSpec("gaussian", params={"scale": 1.0})
    r = lp_norm(HausdorffImage(ADJOINT, g, P1, CFG), 1.0, P1, (-math.inf, math.inf), CFG)
    base = lp_norm(g, 1.0, P1, (-math.inf, math.inf), CFG)
    assert r.value == pytest.approx(base.value, rel=1e-6)


def test_power_lemma_on_step_function():
    h = FunctionSpec("sampled", params={
        "xs": np.array([0.0, 0.5, 1.0, 2.0]),
        "ys": np.array([3.0, 2.0, 0.5, 0.5]),
        "interp": "previous"})
    for s in (0.2, 0.5, 0.8):
        lhs, rhs = power_lemma_check(h, s, CFG)
        assert lhs <= rhs * (1.0 + 1e-8)


def test_power_lemma_default_cases_exact():
    # the report's 100 random step functions against the sums over their
    # constant pieces: (sum y_j dx_j)^s and sum y_j^s (u_{j+1}^s - u_j^s)
    scenario = next(s for s in build_default_suite() if s.theorem_id == "L_POWER")
    rng = np.random.default_rng(scenario.seed)
    s_list = scenario.exponents["s_list"]
    for i in range(scenario.exponents["n_cases"]):
        h = random_step_function(rng)
        s = s_list[i % len(s_list)]
        xs, ys = h.params["xs"], h.params["ys"]
        lhs, rhs = power_lemma_check(h, s, scenario.cfg)
        assert lhs == pytest.approx(np.sum(ys[:-1] * np.diff(xs)) ** s, rel=1e-12), i
        u = xs - xs[0]
        assert rhs == pytest.approx(np.sum(ys[:-1] ** s * np.diff(u ** s)), rel=1e-12), i


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


def test_power_lemma_takes_one_integral_for_both_sides(monkeypatch):
    # the jumps of a step function are breakpoints of one integrate call of
    # two components, one per side, not one call per side or per constant
    # piece
    import octool.bounds as bounds

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(bounds, "integrate", counted)
    rng = np.random.default_rng(7)
    for s in (0.2, 0.5, 0.8):
        calls.clear()
        power_lemma_check(random_step_function(rng), s, CFG)
        assert len(calls) == 1


def test_tabulated_kernel_moment_is_one_integral(monkeypatch):
    # its inner grid points are the breakpoints of one integrate call; the
    # outer two are the support's ends
    # (kernel_moment integrates through hausdorff.phi_integral)
    import octool.hausdorff as hausdorff

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("points"))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(hausdorff, "integrate", counted)
    r = kernel_moment(SPIKE, 0.5, 0.0, 1.0, CFG)
    assert len(calls) == 1 and list(calls[0]) == SPIKE.params["grid"][1:-1]
    assert r.value == pytest.approx(1.1952e-5, rel=1e-4)


def test_hlp_kernel_moment_takes_its_kink_as_a_panel_edge(monkeypatch):
    # 1/max(1, t) bends at t = 1, a breakpoint of its one integrate call;
    # the moment t^(s - 1) phi(t) over (0, 2) at s = 1/2 is
    # 2 + 2 (1 - 1/sqrt 2)
    # (kernel_moment integrates through hausdorff.phi_integral)
    import octool.hausdorff as hausdorff

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("points"))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(hausdorff, "integrate", counted)
    r = kernel_moment(make_kernel("hlp"), 0.5, 0.0, 2.0, CFG)
    assert calls == [(1.0,)]
    assert abs(r.value - (4.0 - math.sqrt(2.0))) <= r.err_estimate


class _Unfolded:
    """An image that does not declare itself even: its norm integrates both
    sides of 0."""

    def __init__(self, image):
        self.image = image

    is_even = False

    def support(self):
        return self.image.support()

    def log_abs_decomp(self, x):
        return self.image.log_abs_decomp(x)


@pytest.mark.parametrize("kernel", [ADJOINT, POWERCUT, make_kernel("cesaro", gamma_c=2.5)])
@pytest.mark.parametrize("f", [
    FunctionSpec("gaussian", params={"scale": 1.0}),
    FunctionSpec("bump", params={"center": 0.0, "width": 1.0}),
])
def test_even_norm_is_folded_at_zero(monkeypatch, kernel, f):
    # A is even, so H f is even with f: its whole-line norm integrates
    # x > 0 alone and doubles it, with the value of both sides to rounding
    import octool.hausdorff as hausdorff

    engine = hausdorff.hausdorff_log_grid
    rows = []

    def spy(k, g, p, xs, cfg):
        rows.append(np.asarray(xs))
        return engine(k, g, p, xs, cfg)

    monkeypatch.setattr(hausdorff, "hausdorff_log_grid", spy)
    image = HausdorffImage(kernel, f, P1, CFG)
    assert image.is_even
    line = (-math.inf, math.inf)
    for p_exp in (1.0, 2.0):
        rows.clear()
        folded = lp_norm(image, p_exp, P1, line, CFG)
        assert rows and all(np.all(x > 0.0) for x in rows)
        both = lp_norm(_Unfolded(image), p_exp, P1, line, CFG)
        assert any(np.any(x < 0.0) for x in rows)
        assert folded.value == pytest.approx(both.value, rel=1e-15, abs=0.0)
        assert folded.err_estimate == pytest.approx(both.err_estimate, rel=1e-6)


def test_uneven_or_one_sided_norms_are_not_folded():
    f = FunctionSpec("bump", params={"center": 0.3, "width": 1.0})
    assert not HausdorffImage(ADJOINT, f, P1, CFG).is_even
    # an even f on a domain that is not symmetric about 0 integrates it as
    # it is
    g = FunctionSpec("gaussian", params={"scale": 1.0})
    half = _lp_integral(g, 2.0, P1, (-1.0, 3.0), CFG)
    ref = integrate(lambda x: np.exp(-2.0 * x * x) * weight_a(P1, x), -1.0, 3.0, CFG)
    assert abs(half.value - ref.value) <= half.err_estimate + ref.err_estimate


@pytest.mark.parametrize("domain", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_nan_domain_ends_raise(domain):
    # the clip to the support turned a NaN end into an empty domain, 0 +- 0
    gauss = FunctionSpec("gaussian", params={"scale": 1.0})
    with pytest.raises(ParameterError, match="NaN"):
        lp_norm(gauss, 2.0, P1, domain, CFG)
    with pytest.raises(ParameterError, match="NaN"):
        kernel_moment(ADJOINT, 0.5, *domain, CFG)


def test_lp_norm_past_the_double_range_is_infinite():
    # at p = 0.01 the Gaussian's whole-line integral to the power 100 passes
    # 1e308, and the root raised a raw OverflowError; at p = 0.05 it is
    # still a double
    gauss = FunctionSpec("gaussian", params={"scale": 1.0})
    line = (-math.inf, math.inf)
    small = lp_norm(gauss, 0.01, P1, line, CFG)
    assert small.value == math.inf and small.err_estimate == math.inf
    finite = lp_norm(gauss, 0.05, P1, line, CFG)
    assert 1e185 < finite.value < math.inf
    assert finite.err_estimate < 1e-8 * finite.value


@pytest.mark.parametrize("f", [
    FunctionSpec("bump", params={"center": 0.0, "width": 1.0}),
    FunctionSpec("bump", params={"center": 0.8, "width": 0.2}),
])
def test_norm_of_an_image_takes_its_breakpoints_as_panel_edges(monkeypatch, f):
    # the centred bump's image is even, so its norm folds onto (0, inf) and
    # the breakpoints above 0 cut its panels; the other's is not folded
    import octool.bounds as bounds

    calls = []

    def counted(*args, **kwargs):
        calls.append((args[1:3], kwargs.get("points")))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(bounds, "integrate", counted)
    image = HausdorffImage(ADJOINT, f, P1, CFG)
    bp = image.breakpoints()
    assert bp.size
    lp_norm(image, 2.0, P1, (-math.inf, math.inf), CFG)
    [(interval, points)] = calls
    assert interval == ((0.0, math.inf) if image.is_even else (-math.inf, math.inf))
    assert set(bp[bp > interval[0]]) <= set(points)


def test_lplq_witness_norm_within_its_estimate_in_few_engine_calls(monkeypatch):
    # x^(-1/3 - 0.05) A^(-1/3) under t^-2 on (1.5, 2): its image bends at
    # x = 1.5 and 2, which are panel edges; it took 11 engine calls when the
    # norm refined toward them
    import octool.hausdorff as hausdorff

    exact, calls = hausdorff.hausdorff_log_grid, []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return exact(*args, **kwargs)

    monkeypatch.setattr(hausdorff, "hausdorff_log_grid", counted)
    line = (-math.inf, math.inf)
    for s in build_default_suite():
        if s.theorem_id != "T_LPLQ":
            continue
        f, q = s.functions[0], s.exponents["q"]
        assert f.family == "extremal_eps"
        calls.clear()
        r = lp_norm(HausdorffImage(s.kernel, f, s.params, s.cfg), q, s.params, line, s.cfg)
        assert len(calls) <= 10
        fine = replace(s.cfg, rel_tol=s.cfg.rel_tol / 100)
        ref = lp_norm(HausdorffImage(s.kernel, f, s.params, fine), q, s.params, line, fine)
        assert abs(r.value - ref.value) <= r.err_estimate
        # and the whole row, three norms of H f, takes at most 10
        calls.clear()
        run_scenario(s)
        assert len(calls) <= 10
