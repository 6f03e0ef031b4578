import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form
from octool import octransform, specfun
from octool.octransform import (
    FunctionSpec,
    apply_jacobi_cherednik,
    oc_inverse,
    oc_inverse_result,
    oc_transform,
    oc_transform_result,
    plancherel_residual_detailed,
    transform_grid,
)
from octool.errors import ParameterError
from octool.quad import QuadConfig, panel_rule
from octool.specfun import JacobiParams, _g_batch, eigenfunction_g, plancherel_density, weight_a

P1 = JacobiParams(0.5, -0.5)
P2 = JacobiParams(1.0, 0.5)
P3 = JacobiParams(1.5, 1.5)
CFG = QuadConfig()
LOOSE = QuadConfig(rel_tol=1e-6, abs_tol=1e-6)

BUMP = FunctionSpec("bump", params={"center": 0.0, "width": 1.0})
GAUSS = FunctionSpec("gaussian", params={"scale": 1.0})


def test_function_spec_evaluation():
    f = FunctionSpec("bump", params={"center": 1.0, "width": 0.3})
    assert f(1.0) > 0.0
    assert f(0.69) == 0.0 and f(1.31) == 0.0
    assert f.support() == (0.7, 1.3)
    g = FunctionSpec("gaussian", params={"scale": 2.0})
    assert g(0.0) == 1.0
    assert g(2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_function_spec_serialization_roundtrip():
    specs = [
        BUMP,
        FunctionSpec("constant_one", domain="unit_interval"),
        FunctionSpec("extremal_eps", params={"p": 2.0, "eps": 0.1}, jacobi=P1),
        FunctionSpec("sampled", params={"xs": np.array([0.0, 1.0, 2.0]),
                                        "ys": np.array([3.0, 2.0, 1.0]),
                                        "interp": "previous"}),
    ]
    for f in specs:
        g = FunctionSpec.from_dict(f.to_dict())
        xs = np.linspace(-1, 3, 41)
        assert np.allclose(np.asarray(f(xs), dtype=float),
                           np.asarray(g(xs), dtype=float), atol=0, rtol=0)


# every family; the sampled f takes a negative value, under both interps
_SAMPLE_XS = [-2.0, -0.7, 0.3, 1.2, 2.5]
_SAMPLE_YS = [0.5, -1.2, 0.4, 2.0, 0.3]
_FAMILY_PARAMS = (
    ("gaussian", {"scale": 1.3}),
    ("bump", {"center": 0.2, "width": 0.9}),
    ("power_cutoff", {"exponent": -0.7}),
    ("extremal_eps", {"p": 2.0, "eps": 0.1}),
    ("extremal_delta", {"p": 2.0, "delta": 0.2}),
    ("extremal_zero", {"p": 0.5}),
    ("constant_one", {}),
    ("sampled", {"xs": _SAMPLE_XS, "ys": _SAMPLE_YS}),
    ("sampled", {"xs": _SAMPLE_XS, "ys": _SAMPLE_YS, "interp": "previous"}),
    ("zero", {}),
)


def test_log_abs_decomp_consistency():
    from octool.specfun import log_weight_a
    xs = np.array([-3.0, -1.5, -0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 1.5, 3.0])
    for (family, params), domain, reflect in itertools.product(
            _FAMILY_PARAMS, ("real_line", "positive_halfline", "unit_interval"), (False, True)):
        f = FunctionSpec(family, domain, params, P1, reflect)
        values = f(xs)
        with np.errstate(divide="ignore"):
            log_f = np.log(np.abs(values))
        lo, hi = f.support()
        assert np.array_equal(np.isfinite(log_f), (xs > lo) & (xs < hi))
        log_abs = f.log_abs(xs)
        np.testing.assert_allclose(log_abs, log_f, rtol=1e-12)
        np.testing.assert_allclose(np.abs(values), np.exp(log_abs), rtol=1e-12, atol=0.0)
        plain, root = f.log_abs_decomp(xs)
        assert root == (params["p"] if family.startswith("extremal") else math.inf)
        live = plain > -math.inf
        log_a = np.where(live, log_weight_a(P1, xs), 0.0)
        np.testing.assert_allclose(plain - log_a / root, log_f, rtol=1e-12)
        # a scalar call is the matching element of the array call
        for x, value, log_value, plain_value in zip(xs, values, log_abs, plain):
            assert f(float(x)) == value
            assert f.log_abs(float(x)) == log_value
            assert f.log_abs_decomp(float(x)) == (plain_value, root)


def _trapz_transform(f, p, lam, lo, hi, n=4001):
    xs = np.linspace(lo, hi, n)
    # one batch; on this grid it is within 1.5e-15 of scalar eigenfunction_g calls
    g = _g_batch(p, [lam], -xs)[0][0]
    vals = np.asarray(f(xs)) * g * weight_a(p, xs)
    t1 = np.trapezoid(vals, xs)
    t2 = np.trapezoid(vals[::2], xs[::2])
    return t1 + (t1 - t2) / 3.0  # Richardson-extrapolated trapezoid


@pytest.mark.parametrize("lam", [0.7, 1.3, 4.0])
def test_transform_vs_independent_quadrature(lam):
    v = oc_transform(BUMP, P2, lam, CFG)
    truth = _trapz_transform(BUMP, P2, lam, -1.0, 1.0)
    assert abs(v - truth) <= 1e-5 * max(abs(truth), 1e-3)


def test_transform_sine_closed_form():
    # at (1/2,-1/2), even f: transform = (2/lam) * int_0^inf f sin(lam x) sinh x dx
    for lam in (0.6, 2.0):
        xs = np.linspace(0.0, 1.0, 20001)
        integrand = BUMP(xs) * np.sin(lam * xs) * np.sinh(xs)
        truth = 2.0 / lam * np.trapezoid(integrand, xs)
        v = oc_transform(BUMP, P1, lam, CFG)
        assert abs(v - truth) <= 1e-7 * max(abs(truth), 1e-3)


def test_transform_linearity():
    lam = 1.1
    va = oc_transform(BUMP, P2, lam, CFG)
    vb = oc_transform(GAUSS, P2, lam, CFG)
    combo = lambda x: 2.0 * BUMP(x) - 0.5 * GAUSS(x)
    vc = oc_transform(combo, P2, lam, CFG)
    assert abs(vc - (2.0 * va - 0.5 * vb)) <= 1e-7


def test_transform_grid_matches_pointwise():
    lams = np.array([0.5, 1.0, 2.0, 5.0])
    vals, errs = transform_grid(BUMP, P2, lams, CFG)
    for lam, v, e in zip(lams, vals, errs):
        truth = oc_transform(BUMP, P2, float(lam), CFG)
        assert abs(v - truth) <= 10 * max(e, 1e-9)


@pytest.mark.parametrize("lam_max", [40.0, 80.0])
def test_transform_grid_of_an_even_f_sums_phi_alone(monkeypatch, lam_max):
    # the integral is folded onto x >= 0, and an even f has no odd part, so
    # the shifted series of G's odd part is never summed
    seen = []
    phi_batch = specfun._phi_batch

    def spy(p, lams, x, fold_sinh2x=False):
        seen.append((p, np.array(x)))
        return phi_batch(p, lams, x, fold_sinh2x)

    monkeypatch.setattr(specfun, "_phi_batch", spy)
    monkeypatch.setattr(octransform, "_phi_batch", spy)
    for f in (GAUSS, BUMP):
        transform_grid(f, P2, np.array([0.5, lam_max]), CFG)
    assert len(seen) == 2
    assert all(p == P2 for p, _ in seen)
    assert all(np.all(x >= 0.0) for _, x in seen)


def test_transform_grid_off_centre_keeps_its_values():
    # support (0.6, 1.0) lies on one side of 0, so the panels are the plain
    # linspace ones over it; pinned values to within 4 ulps (exp and sinh may
    # round differently on another CPU), while a change of the panels moves
    # them by about 1e-10.  The values and bounds are those of
    # the series summed as one matrix product per eight terms, so they also
    # depend on the BLAS kernel
    f = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    vals, errs = transform_grid(f, P2, np.array([0.5, 3.0, 17.0, 40.0]), CFG)
    pinned_vals = [
        0.1078569119677617 - 0.017774821967687954j,
        0.03033972001844375 - 0.05989560482551219j,
        0.0017077835968421396 + 0.0014254264549695638j,
        -4.446353247005195e-05 - 8.612120444808449e-05j,
    ]
    pinned_errs = [4.66543513880357e-06, 2.66047064539779e-06,
                   2.588874530080031e-07, 4.781037183465744e-05]
    ulps = 2.0 ** -50
    assert vals.real == pytest.approx(np.real(pinned_vals), rel=ulps, abs=0.0)
    assert vals.imag == pytest.approx(np.imag(pinned_vals), rel=ulps, abs=0.0)
    assert errs == pytest.approx(pinned_errs, rel=ulps, abs=0.0)


@pytest.mark.parametrize("f", [
    FunctionSpec("bump", params={"center": 0.8, "width": 0.2}),
    BUMP,
    FunctionSpec("bump", params={"center": 1.0, "width": 2.0}),
])
def test_transform_grid_ignores_the_memory_order_of_g(monkeypatch, f):
    # the panel sums see the values of phi and of G's odd part and their
    # bounds, not their layout: Fortran-ordered arrays with the same bits
    # give the same bits
    lams = np.array([0.5, 3.0, 17.0, 40.0])
    vals, errs = transform_grid(f, P2, lams, CFG)

    def fortran(batch):
        return lambda *args: tuple(np.asfortranarray(v) for v in batch(*args))

    for name in ("_phi_batch", "_g_odd"):
        monkeypatch.setattr(octransform, name, fortran(getattr(octransform, name)))
    vals_f, errs_f = transform_grid(f, P2, lams, CFG)
    assert np.array_equal(vals_f, vals)
    assert np.array_equal(errs_f, errs)


@pytest.mark.parametrize("p", [P1, P2])
@pytest.mark.parametrize("f", [
    FunctionSpec("bump", params={"center": 0.8, "width": 0.2}),  # one side of 0
    FunctionSpec("bump", params={"center": 1.0, "width": 2.0}),  # (-1, 3)
])
def test_transform_grid_of_an_uneven_support_matches_pointwise(f, p):
    lams = np.array([0.5, 3.0, 12.0])
    vals, errs = transform_grid(f, p, lams, CFG)
    for lam, v, e in zip(lams, vals, errs):
        ref = oc_transform_result(f, p, float(lam), CFG)
        assert abs(v - ref.value) <= e + ref.err_estimate, lam


def test_transform_result_has_a_real_estimate():
    # the integrand is complex; its estimate is a real number that covers
    # the closed form
    r = oc_transform_result(GAUSS, P1, 1.0, CFG)
    assert np.isrealobj(r.err_estimate) and np.ndim(r.err_estimate) == 0
    assert abs(r.value - closed_form.gaussian_transform(1.0)) <= r.err_estimate


@pytest.mark.parametrize("doubled", [False, True])
def test_transform_grid_covers_the_closed_form(doubled):
    # the Gaussian at (1/2, -1/2) on every lambda node of the Plancherel
    # residual's grid, at truncation_lambda and at twice it
    cfg = QuadConfig(truncation_lambda=80.0) if doubled else CFG
    lam = octransform._lambda_panels(cfg)[0]
    vals, errs = transform_grid(GAUSS, P1, lam, cfg)
    assert np.all(np.abs(vals - closed_form.gaussian_transform(lam)) <= errs)


def test_closed_form_matches_the_series():
    lams = np.array([0.5, 1.0, 2.5, 5.0])
    xs = np.array([-2.0, -0.3, 0.1, 0.7, 1.5])
    phi, phi_err = specfun._phi_batch(P1, lams, xs)
    g, g_err = _g_batch(P1, lams, xs)
    for ours, err, ref in ((phi, phi_err, closed_form.phi(lams, xs)),
                           (g, g_err, closed_form.g(lams, xs))):
        assert np.all(np.abs(ours - ref) <= err)
        assert np.all(np.abs(ours - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0))


def _noise_cut_interpolant(f, p, cfg):
    lams = np.arange(cfg.lambda_min, cfg.truncation_lambda, 0.02)
    vals, errs = transform_grid(f, p, lams, cfg)
    u = np.where(np.abs(vals) <= 10.0 * errs, 0.0, vals.real)
    return lams, u


def test_roundtrip_and_conjugation():
    # the bump's inverse at x = 0 depends on where the noise cut of its
    # transform falls (cuts at 36 to 40 move it from 1.08 to 0.945), so x = 0
    # is checked on the Gaussian, whose transform is below 1e-15 of its peak
    # past lambda = 12; at x = 0.5 and 1.0 the bump holds for every cut
    lams, u = _noise_cut_interpolant(BUMP, P2, CFG)
    g = lambda lam: np.interp(np.abs(lam), lams, u)
    peak = float(BUMP(0.0))
    for x in (0.5, 1.0):
        v = oc_inverse(g, P2, x, LOOSE)
        assert abs(v.real - float(BUMP(x))) <= 0.02 * peak, x
        if x == 0.5:
            # real even input: the reconstruction must be essentially real
            assert abs(v.imag) <= 1e-6
    short = QuadConfig(rel_tol=1e-6, abs_tol=1e-6, truncation_lambda=12.0)
    lams, u = _noise_cut_interpolant(GAUSS, P2, short)
    v = oc_inverse(lambda lam: np.interp(np.abs(lam), lams, u), P2, 0.0, short)
    assert abs(v - 1.0) <= 0.02


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0])
def test_inverse_of_the_gaussian_transform_is_the_gaussian(x):
    # at (1/2, -1/2) the transform of exp(-x^2) is in closed form, and past
    # lambda = 12 its spectral integrand is below 1e-14
    r = oc_inverse_result(closed_form.gaussian_transform, P1, x, QuadConfig(truncation_lambda=12.0))
    err = abs(r.value - math.exp(-x * x))
    assert err <= r.err_estimate
    assert err <= 1e-12
    # a real even g has a real inverse, exactly
    assert r.value.imag == 0.0


ROUNDTRIP = QuadConfig(rel_tol=1e-6, abs_tol=1e-6, truncation_lambda=12.0)


@pytest.mark.parametrize("p", [P1, P2, P3])
def test_inverse_of_a_noise_cut_interpolant_within_its_estimate(p, monkeypatch):
    # the round trip of a Gaussian: its transform on a grid of step 0.05,
    # noise cut, linearly interpolated.  The reference puts panels between
    # the interpolation nodes, where g is smooth; |K - G| alone reads low on
    # panels across its kinks
    lams = ROUNDTRIP.lambda_min + 0.04995 + 0.05 * np.arange(240)
    vals, errs = transform_grid(GAUSS, p, lams, CFG)
    u = np.where(np.abs(vals) <= 10.0 * errs, 0.0, vals.real)
    g = lambda lam: np.interp(np.abs(lam), lams, u)
    calls = []
    density = octransform.plancherel_density
    monkeypatch.setattr(octransform, "plancherel_density",
                        lambda *a, **kw: calls.append(1) or density(*a, **kw))
    r = oc_inverse_result(g, p, 0.0, ROUNDTRIP)
    # one density call per refinement round, for both halves of the line
    assert len(calls) <= 30
    assert r.value.imag == 0.0
    inside = lams[lams < ROUNDTRIP.truncation_lambda]
    nodes, wk, _ = panel_rule(np.concatenate(
        [[ROUNDTRIP.lambda_min], inside, [ROUNDTRIP.truncation_lambda]]))
    nodes, wk = nodes.ravel(), wk.ravel()
    ref = 0.0
    for lam in (nodes, -nodes):
        k = _g_batch(p, lam, [0.0])[0][:, 0] * density(p, lam, lambda_min=ROUNDTRIP.lambda_min)
        ref += np.sum(wk * g(lam) * k)
    assert abs(r.value - ref) <= r.err_estimate


def test_support_past_the_cut_is_cut_as_the_whole_line():
    # a support past +-truncation_x is cut at |x| = truncation_x, with the
    # tail beyond charged as at an infinite end: the same bits as the same
    # values given as a plain callable on the whole line
    f = FunctionSpec("sampled", params={"xs": [-30.0, 0.0, 30.0], "ys": [1.0, 2.0, 1.0]})
    spec = oc_transform_result(f, P1, 1.0, CFG)
    plain = oc_transform_result(lambda x: f(x), P1, 1.0, CFG)
    assert spec.value == plain.value
    assert spec.err_estimate == plain.err_estimate


@pytest.mark.parametrize("p,f,limit", [
    (P1, GAUSS, 1e-10),
    (P2, GAUSS, 1e-10),
    (P3, GAUSS, 1e-10),
    (P1, BUMP, 0.05),
    (P3, BUMP, 0.05),
])
def test_plancherel_identity(p, f, limit):
    lhs, rhs, gap, _ = plancherel_residual_detailed(f, p, CFG)
    assert gap <= limit
    assert rhs.real > 0.0


def test_plancherel_error_estimate_honest():
    lhs, rhs, gap, err = plancherel_residual_detailed(BUMP, P1, CFG)
    assert abs(lhs - rhs.real) <= max(err, 1e-12) + 1e-12 * lhs


@pytest.mark.parametrize("lam_cut", [40.0, 80.0])
def test_plancherel_gap_is_the_spectral_tail(lam_cut):
    # lhs - rhs is the closed form's spectral mass past truncation_lambda,
    # within the run's own estimate; every cell of the (40, 80] band is
    # dropped as noise (|transform| within 10x its bound), so the gap does not
    # fall from 40 to 80 and its order says nothing.  rhs scaled by 1 + 1e-3
    # fails it
    cfg = QuadConfig(truncation_lambda=lam_cut)
    tail = closed_form.bump_spectral_tail(lam_cut)
    lhs, rhs, _, err = plancherel_residual_detailed(BUMP, P1, cfg)
    assert abs(lhs - rhs.real - tail) <= err
    assert abs(lhs - 1.001 * rhs.real - tail) > err


def test_support_wholly_past_the_cut_raises():
    # bump (13, 0.5) at (1/2, -1/2) transforms to 8.98e4 + 2.90e4i at
    # lambda = 1, all of it past truncation_x = 12: the cut integral would
    # read 0 with an estimate of 0
    for f in (FunctionSpec("bump", params={"center": 13.0, "width": 0.5}),
              FunctionSpec("bump", params={"center": -13.0, "width": 0.5})):
        with pytest.raises(ParameterError):
            transform_grid(f, P1, np.array([1.0]), CFG)
        with pytest.raises(ParameterError):
            oc_transform_result(f, P1, 1.0, CFG)
        with pytest.raises(ParameterError):
            plancherel_residual_detailed(f, P1, CFG)
    # an empty support is not past the cut: the zero function transforms to 0
    zero = FunctionSpec("zero")
    vals, errs = transform_grid(zero, P1, np.array([1.0]), CFG)
    assert vals[0] == 0.0 and errs[0] == 0.0
    res = oc_transform_result(zero, P1, 1.0, CFG)
    assert res.value == 0.0 and res.err_estimate == 0.0
    assert plancherel_residual_detailed(zero, P1, CFG) == (0.0, 0.0, 0.0, 0.0)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.2, 2.0))
def test_eigen_equation_property(lam, x):
    g = lambda y: eigenfunction_g(P2, lam, float(y))
    t_val = apply_jacobi_cherednik(g, P2, x)
    target = 1j * lam * eigenfunction_g(P2, lam, x)
    assert abs(t_val - target) <= 1e-5 * max(abs(target), 1e-6)
