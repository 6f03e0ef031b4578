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
    plancherel_residual_doubled,
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
    # only the Abel transform at (alpha, beta) is built: the kernel at the
    # shifted pair, which G's odd part needs, is never evaluated, and the
    # cosine transform of a real F is real
    seen = []
    kernel = octransform._mehler_kernel

    def spy(q, s, d, unit=1.0):
        seen.append((q, np.array(s), np.array(d)))
        return kernel(q, s, d, unit)

    monkeypatch.setattr(octransform, "_mehler_kernel", spy)
    for f in (GAUSS, BUMP):
        vals, _ = transform_grid(f, P2, np.array([0.5, lam_max]), CFG)
        assert np.all(vals.imag == 0.0)
    assert seen and all(q == P2 for q, _, _ in seen)
    assert all(np.all(s >= 0.0) and np.all(d > 0.0) for _, s, d in seen)


# the transform of the bump (0.8, 0.2) at (1, 1/2) and of its reflection,
# int f(x) G_lambda(-x) A(x) dx by mpmath.quad at 30 digits on pieces of width
# 0.05, with phi and G's odd part from mpmath.hyp2f1
OFF_CENTRE_MPMATH = {
    0.5: (0.10785691392805859 - 0.01777482239489329j, 0.2856051378769915 + 0.01777482239489329j),
    12.0: (0.0006553904003610768 - 0.006568270516419859j,
           0.003392169782202685 + 0.006568270516419859j),
    40.0: (-4.521919781207656e-05 - 8.547581815770016e-05j,
           -3.453472054236404e-05 + 8.547581815770016e-05j),
}


def test_transform_grid_off_centre_keeps_its_values():
    # support (0.6, 1.0) lies on one side of 0, so f has an odd part; each
    # value and that of the reflection lies within its estimate of mpmath,
    # and the estimates are small.  The series path this replaced read
    # -4.446e-05 - 8.612e-05i at lambda = 40, 7.7e-7 off
    f = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    lams = np.array(list(OFF_CENTRE_MPMATH))
    vals, errs, r_vals, r_errs = transform_grid(f, P2, lams, CFG, reflected=True)
    refs = np.array(list(OFF_CENTRE_MPMATH.values()))
    for ours, err, ref in ((vals, errs, refs[:, 0]), (r_vals, r_errs, refs[:, 1])):
        assert np.all(np.abs(ours - ref) <= err)
        assert np.all(err <= 1e-7)


@pytest.mark.parametrize("f", [
    FunctionSpec("bump", params={"center": 0.8, "width": 0.2}),
    BUMP,
    FunctionSpec("bump", params={"center": 1.0, "width": 2.0}),
])
def test_transform_grid_ignores_the_memory_order_of_g(monkeypatch, f):
    # the panel sums see the values of the Abel kernel and its bounds, not
    # their layout: Fortran-ordered arrays with the same bits give the same
    # bits
    lams = np.array([0.5, 3.0, 17.0, 40.0])
    vals, errs = transform_grid(f, P2, lams, CFG)

    def fortran(kernel):
        return lambda *args: tuple(np.asfortranarray(v) for v in kernel(*args))

    monkeypatch.setattr(octransform, "_mehler_kernel", fortran(octransform._mehler_kernel))
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


def test_transform_grid_of_a_complex_f_matches_pointwise():
    # a complex-valued callable: both parts go through the Abel integrals
    f = lambda x: BUMP(np.asarray(x) - 0.3) * (1.0 + 0.5j * np.sin(np.asarray(x)))
    lams = np.array([0.5, 3.0])
    vals, errs = transform_grid(f, P2, lams, CFG)
    for lam, v, e in zip(lams, vals, errs):
        ref = oc_transform_result(f, P2, float(lam), QuadConfig(rel_tol=1e-12))
        assert abs(v - ref.value) <= e + ref.err_estimate
        assert abs(v.imag) > 1e-3


def test_transform_result_has_a_real_estimate():
    # the integrand is complex; its estimate is a real number that covers
    # the closed form
    r = oc_transform_result(GAUSS, P1, 1.0, CFG)
    assert np.isrealobj(r.err_estimate) and np.ndim(r.err_estimate) == 0
    assert abs(r.value - closed_form.gaussian_transform(1.0)) <= r.err_estimate


def test_transform_result_charges_the_bound_of_g(monkeypatch):
    # G's bound at each node enters the estimate as |f| A times it: with a
    # bound of 1e-3 the estimate is at least 1e-3 int |f| A dx, which is
    # sqrt(pi) (e - 1) / 2 for the Gaussian at (1/2, -1/2)
    exact = octransform._g_batch

    def loose(p, lams, x):
        v, e = exact(p, lams, x)
        return v, np.full(e.shape, 1e-3)

    monkeypatch.setattr(octransform, "_g_batch", loose)
    r = oc_transform_result(GAUSS, P1, 1.0, CFG)
    mass = math.sqrt(math.pi) * (math.e - 1.0) / 2.0
    assert r.err_estimate >= 1e-3 * mass * (1.0 - 1e-8)


@pytest.mark.parametrize("doubled", [False, True])
def test_transform_grid_covers_the_closed_form(doubled):
    # the Gaussian at (1/2, -1/2) on every lambda node of the Plancherel
    # residual's grid, at truncation_lambda and at twice it: every estimate
    # covers its error and is below 1e-10 (the series path's reached 4.2e-2
    # at lambda = 40, where it was 1.0e-3 off a value of 2e-175)
    cfg = QuadConfig(truncation_lambda=80.0) if doubled else CFG
    lam = panel_rule(octransform._lambda_edges(cfg.lambda_min, cfg.truncation_lambda))[0]
    vals, errs = transform_grid(GAUSS, P1, lam, cfg)
    miss = np.abs(vals - closed_form.gaussian_transform(lam))
    assert np.all(miss <= errs)
    assert np.all(errs <= 1e-10)
    assert np.all(miss[lam >= 40.0] <= 1e-12)


# the transforms of the Gaussian and of the bump (0.8, 0.2) and its
# reflection: int f(x) G_lambda(-x) A(x) dx by mpmath.quad at 30 digits, on
# pieces of width 1/8 over (0, 10) (0, 11 at (3/2, 3/2)) for the Gaussian, an
# even f, as 2 int_0 f phi A, and of width 0.05 over the bump's support
MPMATH_TRANSFORMS = {
    (P2, 0.5): (3.7269321882193496, 0.10785691392805859 - 0.01777482239489329j,
                0.2856051378769915 + 0.01777482239489329j),
    (P2, 12.0): (-1.110278100918588e-15, 0.0006553904003610768 - 0.006568270516419859j,
                 0.003392169782202685 + 0.006568270516419859j),
    (P2, 40.0): (9.175169914339368e-36, -4.521919781207656e-05 - 8.547581815770016e-05j,
                 -3.453472054236404e-05 + 8.547581815770016e-05j),
    (P3, 0.5): (22.812122822493933, 0.09115989881086316 - 0.014500920622381893j,
                0.32317462876897346 + 0.014500920622381893j),
    (P3, 12.0): (-3.1667582374019994e-17, 0.002213292668047591 - 0.00397079209069866j,
                 0.004860487395180031 + 0.00397079209069866j),
    (P3, 40.0): (4.619237289436667e-35, 4.868630521357429e-07 - 4.4078654817680385e-05j,
                 9.30259401567182e-06 + 4.4078654817680385e-05j),
}


@pytest.mark.parametrize("p", [P2, P3])
def test_transform_grid_against_mpmath(p):
    lams = np.array([0.5, 12.0, 40.0])
    refs = np.array([MPMATH_TRANSFORMS[p, lam] for lam in lams])
    vals, errs = transform_grid(GAUSS, p, lams, CFG)
    assert np.all(np.abs(vals - refs[:, 0]) <= errs)
    off = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    vals, errs, r_vals, r_errs = transform_grid(off, p, lams, CFG, reflected=True)
    assert np.all(np.abs(vals - refs[:, 1]) <= errs)
    assert np.all(np.abs(r_vals - refs[:, 2]) <= r_errs)


@pytest.mark.parametrize("p", [P1, JacobiParams(-0.4, -0.5)])
def test_transform_grid_raises_where_f_a_does_not_vanish_at_0(p):
    # e^(-x^2) / A(x) on x > 0: f A tends to 1 at 0, as A H f does for
    # adjoint Hardy, so F_e grows as log(1/s) there.  The image H f is
    # transformed as one integral in x (hausdorff.commutation_residual)
    def over_a(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        pos = x > 0.0
        out[pos] = np.exp(-x[pos] ** 2) / weight_a(p, x[pos])
        return out

    with pytest.raises(ParameterError):
        transform_grid(over_a, p, np.array([0.5, 3.0]), CFG)


@pytest.mark.parametrize("f", [GAUSS, FunctionSpec("bump", params={"center": 0.3, "width": 1.0})])
def test_transform_grid_below_alpha_0_within_its_estimate(f):
    # at alpha = -0.4 a bounded f has f A ~ x^0.2 and the even Abel
    # integrand is unbounded at x = s: it was refused (read as an f A that
    # does not vanish), and in r alone it read 1.2e-2 off, outside its
    # estimate of 5.4e-3
    p = JacobiParams(-0.4, -0.5)
    lams = np.array([0.0, 0.5, 3.0, 12.0])
    vals, errs = transform_grid(f, p, lams, CFG)
    assert np.all(errs < 1e-9)
    for lam, v, e in zip(lams, vals, errs):
        ref = oc_transform_result(f, p, float(lam), CFG)
        assert abs(v - ref.value) <= e + ref.err_estimate, lam


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


def test_doubled_residual_adds_the_band_past_the_cut():
    # the first four outputs are the residual at Lambda; the doubled gap
    # adds the transform of the band (Lambda, 2 Lambda] alone, and for the
    # Gaussian, whose band is resolved at Lambda = 3, it falls
    cfg = QuadConfig(truncation_lambda=3.0)
    *res, gap2 = plancherel_residual_doubled(GAUSS, P1, cfg)
    assert tuple(res) == plancherel_residual_detailed(GAUSS, P1, cfg)
    assert gap2 < res[2]
    assert plancherel_residual_doubled(FunctionSpec("zero"), P1, CFG) == (0.0,) * 5


@pytest.mark.parametrize("lam_cut", [40.0, 80.0])
def test_plancherel_gap_is_the_spectral_tail(lam_cut):
    # lhs - rhs is the closed form's spectral mass past truncation_lambda,
    # within the run's own estimate, at 40 and at 80, where the transforms
    # resolve the band (40, 80] too.  rhs scaled by 1 + 1e-3 fails it
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



def test_a_lambda_that_is_not_finite_raises():
    # Filon's rule sizes its Gauss rule by lambda: an infinite or NaN lambda
    # has none, and raises ParameterError rather than a raw error
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            transform_grid(GAUSS, P1, np.array([1.0, bad]), CFG)

@settings(max_examples=10, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.2, 2.0))
def test_eigen_equation_property(lam, x):
    g = lambda y: eigenfunction_g(P2, lam, float(y))
    t_val = apply_jacobi_cherednik(g, P2, x)
    target = 1j * lam * eigenfunction_g(P2, lam, x)
    assert abs(t_val - target) <= 1e-5 * max(abs(target), 1e-6)


def _sampled_sweep():
    # nodes every 0.05 on (-3, 3), shifted by an offset, of a smooth
    # e^(-x^2) (1 + 0.3 sin 7x): a kink at every node
    for p in (P1, P2, P3):
        for offset in (0.0, 0.013, 0.049):
            xs = -3.0 + offset + 0.05 * np.arange(int((6.0 - offset) / 0.05) + 1)
            xs = xs[xs < 3.0]
            ys = np.exp(-xs ** 2) * (1.0 + 0.3 * np.sin(7.0 * xs))
            yield p, FunctionSpec("sampled", params={"xs": xs, "ys": ys})


def test_sampled_transform_within_its_estimate_across_kinks():
    # the nodes of a sampled f are panel edges, so no panel reads across a
    # kink; the reference puts four panels between consecutive nodes and 0,
    # where the rule is exact on f.  Without the edges, 10 of the 54 cases
    # were outside their estimate, the worst by 106x
    for p, f in _sampled_sweep():
        xs = np.union1d(f.breakpoints(), [0.0])
        edges = np.concatenate([*(np.linspace(a, b, 5)[:-1] for a, b in zip(xs[:-1], xs[1:])),
                                [xs[-1]]])
        x, wk, _ = panel_rule(edges)
        x, wk = x.ravel(), wk.ravel()
        for lam in (0.3, 0.7, 1.5, 3.0, 6.0, 12.0):
            r = oc_transform_result(f, p, lam, CFG)
            ref = np.sum(f(x) * _g_batch(p, [lam], -x)[0][0] * weight_a(p, x) * wk)
            assert abs(r.value - ref) <= r.err_estimate + 1e-14 * max(abs(ref), 1.0), (p, lam)


def test_breakpoints_of_a_sampled_f_are_its_nodes_reflected_with_it():
    xs = np.array([-1.0, 0.5, 2.0])
    f = FunctionSpec("sampled", params={"xs": xs, "ys": [1.0, 2.0, 0.5]})
    assert np.array_equal(f.breakpoints(), xs)
    assert np.array_equal(f.reflected().breakpoints(), [-2.0, -0.5, 1.0])
    assert BUMP.breakpoints().size == GAUSS.breakpoints().size == 0


def test_is_even_only_on_the_real_line():
    # a family restricted to a half-line or an interval vanishes on one side
    # of 0 only
    assert GAUSS.is_even and BUMP.is_even and FunctionSpec("zero").is_even
    for domain in ("positive_halfline", "unit_interval"):
        for family in ("gaussian", "bump", "constant_one"):
            assert not FunctionSpec(family, domain=domain).is_even
    assert not FunctionSpec("bump", params={"center": 0.3}).is_even


def test_plancherel_residual_keeps_its_values_on_the_default_rows():
    # the three default P_PLANCHEREL rows.  lhs, the integral of f^2 A, is
    # pinned to within 4 ulps; each gap is the spectral mass past
    # truncation_lambda, within the row's estimate: the bump's closed forms at
    # (1/2, -1/2) and (3/2, 3/2), and none for the Gaussian, whose transform
    # past lambda = 40 is below 1e-170 (so its gap is rounding)
    ulps = 2.0 ** -50
    for p, f, lhs_pinned in ((P1, BUMP, 0.12327405684953045), (P2, GAUSS, 1.4836697781107642),
                             (P3, BUMP, 0.07622311224826014)):
        lhs, rhs, gap, err = plancherel_residual_detailed(f, p, CFG)
        assert rhs.imag == 0.0
        assert lhs == pytest.approx(lhs_pinned, rel=ulps, abs=0.0)
        if p == P1:
            tail = closed_form.bump_spectral_tail(CFG.truncation_lambda)
        elif f is GAUSS:
            tail = 0.0
            assert gap <= 1e-14
        else:
            tail = closed_form.bump_spectral_tail_p3(CFG.truncation_lambda)
        assert abs(lhs - rhs.real - tail) <= err


# int f^2 A dx for the bump (0.3, 1) at (1, 1/2), by mpmath.quad at 30 digits
# on (-0.7, 0) and (0, 1.3)
UNEVEN_LHS_MPMATH = 0.320562223540571154563934291404


def test_plancherel_of_an_uneven_f_takes_both_transforms_from_one_fold(monkeypatch):
    # f and its reflection share one fold: one pair of Abel transforms,
    # whose odd one enters the two transforms with opposite signs
    f = FunctionSpec("bump", params={"center": 0.3, "width": 1.0})
    calls = []
    abel = octransform._abel

    def spy(*args, **kwargs):
        calls.append(args[0])
        return abel(*args, **kwargs)

    monkeypatch.setattr(octransform, "_abel", spy)
    lhs, rhs, gap, err = plancherel_residual_detailed(f, P2, CFG)
    assert len(calls) == 1
    # lhs against mpmath; rhs against the same band (lambda_min, Lambda] on
    # fixed quarter-wide panels, its transforms from two separate calls
    assert abs(lhs - UNEVEN_LHS_MPMATH) <= err
    edges = np.concatenate([[CFG.lambda_min], np.arange(0.25, CFG.truncation_lambda + 0.1, 0.25)])
    lam, wk, wg = panel_rule(edges)
    u, u_err = transform_grid(f, P2, lam, CFG)
    v, v_err = transform_grid(f.reflected(), P2, lam, CFG)
    dens = plancherel_density(P2, lam, lambda_min=CFG.lambda_min / 2.0)
    ref = 2.0 * np.sum(wk * u * v * dens).real
    ref_err = 2.0 * (np.sum(np.abs(np.sum((wk - wg) * u * v * dens, axis=1)))
                     + np.sum(wk * np.abs(dens) * (u_err * np.abs(v) + v_err * np.abs(u))))
    assert ref_err <= 1e-3 * err
    assert abs(rhs.real - ref) <= err
    # err covers the gap, the spectral mass past Lambda, and most of it is
    # the tail extrapolation's charge for that mass: err is 3.4 times the
    # gap, where the series path read 7.1e-5, 5 times its gap
    assert abs(lhs - rhs.real) <= err <= 4.0 * abs(lhs - rhs.real)
    # the reflection's transform is the one transform_grid gives it
    lam = np.array([0.5, 3.0, 17.0])
    _, _, v, v_err = transform_grid(f, P2, lam, CFG, reflected=True)
    w, w_err = transform_grid(f.reflected(), P2, lam, CFG)
    assert np.array_equal(v, w) and np.array_equal(v_err, w_err)


@pytest.mark.parametrize("p", [P1, P2, P3])
def test_a_transform_does_not_depend_on_the_rest_of_its_batch(p):
    # the s panels resolve F alone and Filon's rule integrates cos(lambda s)
    # on each, so a value at lambda agrees, within the two estimates, whether
    # the batch ends at 12 or at 2 Lambda, and every estimate stays below
    # 1e-9.  With panels sized by the largest lambda, the off-centre bump at
    # (1/2, -1/2) and lambda = 0.5 read 2.4e-7 in a batch that stopped at 12
    lam_max = 2.0 * CFG.truncation_lambda
    for f in (GAUSS, BUMP, FunctionSpec("bump", params={"center": 0.8, "width": 0.2})):
        long_vals, long_errs = transform_grid(f, p, np.array([0.5, 12.0, 40.0, lam_max]), CFG)
        assert np.all(long_errs <= 1e-9)
        for lams, at in (([0.5, 12.0], slice(0, 2)), ([40.0], slice(2, 3))):
            vals, errs = transform_grid(f, p, np.array(lams), CFG)
            assert np.all(errs <= 1e-9)
            assert np.all(np.abs(vals - long_vals[at]) <= errs + long_errs[at])


def test_plancherel_rhs_of_the_gaussian_against_its_closed_form():
    # at (1/2, -1/2) the Gaussian's transform and the density's real part,
    # lambda^2 / (2 pi), are closed forms: rhs is twice their integral over
    # (lambda_min, Lambda], here on 1/8-wide panels, within rhs's estimate
    lhs, rhs, gap, err = plancherel_residual_detailed(GAUSS, P1, CFG)
    edges = np.concatenate([[CFG.lambda_min], np.arange(0.125, CFG.truncation_lambda + 0.1, 0.125)])
    lam, wk, _ = panel_rule(edges)
    ref = 2.0 * np.sum(wk * closed_form.gaussian_transform(lam) ** 2 * lam ** 2 / (2.0 * math.pi))
    assert rhs.imag == 0.0
    assert abs(rhs.real - ref) <= err
    assert abs(rhs.real - ref) <= 1e-12 * ref


def test_filon_rule_integrates_cosine_against_the_interpolant():
    # int cos(omega v + phase) P15(v) dv on (-1, 1), P15 the interpolant of
    # 15 values on the Kronrod nodes, against a 400-point Gauss rule: each
    # level of the rule, copies of the largest on sub-panels past its cap
    # included, is exact to rounding, and its P15 - P7 matrix gives 0 on
    # values a degree-6 polynomial takes
    rng = np.random.default_rng(5)
    values = rng.standard_normal(15)
    t, w = np.polynomial.legendre.leggauss(400)
    p15 = octransform._lagrange(octransform._UNIT, t)
    for omega in (0.0, 1.5, 9.0, 19.0, 60.0, 150.0):
        v, wp15, wdiff = octransform._filon_rule_at(int(octransform._filon_level(np.array([omega]))[0]))
        for phase in (0.0, 0.7):
            ours = np.cos(omega * v + phase) @ wp15 @ values
            ref = (w * np.cos(omega * t + phase)) @ p15 @ values
            assert abs(ours - ref) <= 1e-14 * np.sum(np.abs(values)), omega
        assert np.all(np.abs(wdiff @ octransform._UNIT ** 6) <= 1e-14)
