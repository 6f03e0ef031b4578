import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form
from octool import hausdorff, octransform
from octool.bounds import lp_norm
from octool.errors import (
    DivergentIntegralError,
    KernelNotIntegrableError,
    ParameterError,
    SingularityError,
)
from octool.hausdorff import (
    HausdorffImage,
    KernelSpec,
    commutation_residual,
    hausdorff_apply,
    hausdorff_apply_result,
    hausdorff_log_grid,
    make_kernel,
)
from octool.octransform import FunctionSpec, oc_transform, oc_transform_result
from octool.quad import QuadConfig, integrate
from octool.specfun import JacobiParams, log_weight_a, weight_a

P1 = JacobiParams(0.5, -0.5)
CFG = QuadConfig()
F = FunctionSpec("bump", params={"center": 1.0, "width": 0.3})
X_POINTS = (0.8, 0.9, 1.0, 1.1, 1.25)


def _weighted(f, p, xs):
    return np.asarray(f(xs)) * weight_a(p, xs)


def _trapz(vals, xs):
    t1 = np.trapezoid(vals, xs)
    t2 = np.trapezoid(vals[::2], xs[::2])
    return t1 + (t1 - t2) / 3.0


def _lower_form(f, p, x, extra=None, n=20001):
    # (1/x) int_0^x f(t) A(t) dt / A(x), optionally with an extra t-weight
    xs = np.linspace(0.0, x, n)
    vals = _weighted(f, p, xs)
    if extra is not None:
        vals = vals * extra(xs)
    return _trapz(vals, xs) / weight_a(p, x)


def _upper_form(f, p, x, extra, hi=1.3, n=20001):
    # int_x^hi f(t) A(t) extra(t) dt / A(x); hi covers supp f
    xs = np.linspace(x, hi, n)
    vals = _weighted(f, p, xs) * extra(xs)
    return _trapz(vals, xs) / weight_a(p, x)


def test_hardy_display_form():
    k = make_kernel("hardy")
    for x in X_POINTS:
        truth = _lower_form(F, P1, x) / x
        v = hausdorff_apply(k, F, P1, x, CFG)
        assert abs(v - truth) <= 1e-6 * max(abs(truth), 1e-9), x


def test_adjoint_hardy_display_form():
    k = make_kernel("adjoint_hardy")
    for x in X_POINTS:
        truth = _upper_form(F, P1, x, lambda t: 1.0 / t)
        v = hausdorff_apply(k, F, P1, x, CFG)
        assert abs(v - truth) <= 1e-6 * max(abs(truth), 1e-9), x


def test_adjoint_hardy_equivalence_point():
    # frozen high-precision witness at x = 0.5
    k = make_kernel("adjoint_hardy")
    v = hausdorff_apply(k, F, P1, 0.5, CFG)
    truth = _upper_form(F, P1, 0.5, lambda t: 1.0 / t, n=80001)
    assert abs(v - truth) <= 1e-7 * abs(truth)
    assert v == pytest.approx(1.8705230294654, rel=1e-10)


def test_hlp_display_form():
    k = make_kernel("hlp")
    for x in X_POINTS:
        truth = _lower_form(F, P1, x) / x + \
            _upper_form(F, P1, x, lambda t: 1.0 / t)
        v = hausdorff_apply(k, F, P1, x, CFG)
        assert abs(v - truth) <= 1e-6 * max(abs(truth), 1e-9), x


def test_cesaro_display_form():
    gamma_c = 2.5
    k = make_kernel("cesaro", gamma_c=gamma_c)
    for x in X_POINTS:
        # s = sqrt(t - x) smooths the (t-x)^(gamma-1) factor for trapezoid
        s = np.linspace(0.0, math.sqrt(1.3 - x), 20001)
        t = x + s * s
        vals = 2.0 * s ** (2 * gamma_c - 1) * _weighted(F, P1, t) / t**gamma_c
        truth = gamma_c * _trapz(vals, s) / weight_a(P1, x)
        v = hausdorff_apply(k, F, P1, x, CFG)
        assert abs(v - truth) <= 1e-6 * max(abs(truth), 1e-9), x


def test_riemann_liouville_display_form():
    mu = 1.5
    k = make_kernel("riemann_liouville", mu=mu)
    for x in X_POINTS:
        # the fractional-derivative display: D_mu f(x) = x^mu * H f(x);
        # s = sqrt(x - t) smooths the (x-t)^(mu-1) factor for trapezoid
        s = np.linspace(0.0, math.sqrt(x), 20001)
        t = x - s * s
        vals = 2.0 * s ** (2 * mu - 1) * _weighted(F, P1, t)
        truth = _trapz(vals, s) / (math.gamma(mu) * weight_a(P1, x))
        v = x**mu * hausdorff_apply(k, F, P1, x, CFG)
        assert abs(v - truth) <= 1e-6 * max(abs(truth), 1e-9), x


def test_hardy_closed_form_witness():
    # f(u) = u^(2a+1)/A(u): the weighted average collapses to
    # x^(2a+1)/((2a+2) A(x)) = 1/(3 sinh^2 1) at x=1, (a,b)=(1/2,-1/2)
    def f(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        m = u > 0
        out[m] = (u[m] / np.sinh(u[m])) ** 2
        return out

    v = hausdorff_apply(make_kernel("hardy"), f, P1, 1.0, CFG)
    truth = 1.0 / (3.0 * math.sinh(1.0) ** 2)
    assert abs(v - truth) <= 1e-6 * truth
    assert truth == pytest.approx(0.24135388698877, rel=1e-12)


def test_zero_function_maps_to_zero():
    z = FunctionSpec("zero")
    assert hausdorff_apply(make_kernel("hardy"), z, P1, 1.0, CFG) == 0.0


def test_undefined_at_origin():
    with pytest.raises(SingularityError):
        hausdorff_apply(make_kernel("hardy"), F, P1, 0.0, CFG)


def test_l1_status_catalog():
    finite = {
        "adjoint_hardy": 1.0,
        "cesaro": 1.0,
    }
    assert make_kernel("adjoint_hardy").l1_status(CFG)[1] == pytest.approx(1.0, rel=1e-10)
    assert make_kernel("cesaro", gamma_c=2.5).l1_status(CFG)[1] == pytest.approx(1.0, rel=1e-8)
    assert make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf) \
        .l1_status(CFG)[1] == pytest.approx(1.0, rel=1e-10)
    for k in (make_kernel("hardy"), make_kernel("hlp"),
              make_kernel("riemann_liouville", mu=0.5)):
        assert k.l1_status(CFG) == ("infinite", None)


@pytest.mark.parametrize("exponent", [0.0, -0.5])
def test_l1_status_growing_log_tail(exponent):
    # t^exponent * t grows like e^((exponent + 1) s) in s = log t
    k = make_kernel("power_cutoff", exponent=exponent, lo=1.0, hi=math.inf)
    assert k.l1_status(CFG) == ("infinite", None)


def test_kernel_validation():
    with pytest.raises(ParameterError):
        make_kernel("cesaro", gamma_c=-1.0)
    with pytest.raises(ParameterError):
        make_kernel("riemann_liouville", mu=0.0)
    with pytest.raises(ParameterError):
        make_kernel("power_cutoff", exponent=1.0, lo=2.0, hi=1.0)
    # its one piece needs the power
    with pytest.raises(ParameterError):
        make_kernel("power_cutoff", lo=1.0)


def test_pieces_state_support_and_breakpoints():
    for k, pieces in [
        (make_kernel("hardy"), ((1.0, math.inf, -1.0),)),
        (make_kernel("hlp"), ((0.0, 1.0, 0.0), (1.0, math.inf, -1.0))),
        (make_kernel("cesaro", gamma_c=2.5), ((0.0, 1.0, None),)),
        (make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0), ((1.5, 2.0, -2.0),)),
        (make_kernel("tabulated", grid=[0.5, 1.0, 4.0], values=[1.0, 0.0, 2.0]),
         ((0.5, 1.0, None), (1.0, 4.0, None))),
    ]:
        assert k.pieces() == pieces
        assert k.support() == (pieces[0][0], pieces[-1][1])
        assert k.breakpoints() == tuple(lo for lo, _, _ in pieces[1:])


@pytest.mark.parametrize("grid, values", [
    # a dip narrower than any fixed sample spacing
    ([0.5, 0.7, 0.70001, 0.7001, 2.0], [1.0, 1.0, -3.0, 1.0, 1.0]),
    # a negative value beyond t = 1e6
    ([1.0, 1e6, 2e6, 3e6], [1.0, 1.0, -1.0, 1.0]),
], ids=["narrow_dip", "far_dip"])
def test_tabulated_kernel_rejects_any_negative_value(grid, values):
    with pytest.raises(ParameterError):
        make_kernel("tabulated", grid=grid, values=values)


def _tabulated_closed_form(t):
    # linear interpolation through (0.5, 1), (1, 0.25), (2, 2), (4, 0.5)
    return np.where(t < 1.0, 1.0 - 1.5 * (t - 0.5),
                    np.where(t < 2.0, 0.25 + 1.75 * (t - 1.0), 2.0 - 0.75 * (t - 2.0)))


@pytest.mark.parametrize("k, lo, hi, closed_form", [
    (make_kernel("hardy"), 1.0, math.inf, lambda t: 1.0 / t),
    (make_kernel("adjoint_hardy"), 0.0, 1.0, np.ones_like),
    (make_kernel("hlp"), 0.0, math.inf, lambda t: 1.0 / np.maximum(1.0, t)),
    (make_kernel("cesaro", gamma_c=2.5), 0.0, 1.0, lambda t: 2.5 * (1.0 - t) ** 1.5),
    (make_kernel("cesaro", gamma_c=0.5), 0.0, 1.0, lambda t: 0.5 * (1.0 - t) ** -0.5),
    (make_kernel("riemann_liouville", mu=0.5), 1.0, math.inf,
     lambda t: ((t - 1.0) / t) ** -0.5 / (math.sqrt(math.pi) * t)),
    (make_kernel("riemann_liouville", mu=2.5), 1.0, math.inf,
     lambda t: ((t - 1.0) / t) ** 1.5 / (0.75 * math.sqrt(math.pi) * t)),
    (make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf), 1.0, math.inf,
     lambda t: t ** -2.0),
    (make_kernel("power_cutoff", exponent=1.5, lo=0.25, hi=3.0), 0.25, 3.0,
     lambda t: t ** 1.5),
    (make_kernel("tabulated", grid=[0.5, 1.0, 2.0, 4.0], values=[1.0, 0.25, 2.0, 0.5]),
     0.5, 4.0, _tabulated_closed_form),
], ids=["hardy", "adjoint_hardy", "hlp", "cesaro_2.5", "cesaro_0.5", "rl_0.5",
        "rl_2.5", "power_cutoff_tail", "power_cutoff_window", "tabulated"])
def test_kernel_values_match_closed_forms(k, lo, hi, closed_form):
    # phi comes from log_phi alone; on a geomspace reaching within 1e-6
    # (relative) of each finite end it is the written-out formula, where
    # 1 - 1/t is formed as (t - 1)/t, exact in t, to keep its own rounding
    # out of the comparison
    t = np.geomspace(max(lo, 1e-6) * (1.0 + 1e-6), min(hi, 1e6) * (1.0 - 1e-6), 401)
    np.testing.assert_allclose(k(t), closed_form(t), rtol=1e-12, atol=0.0)
    assert k(float(t[7])) == k(t)[7]
    # 0 off the support, at t = 0 and for t < 0
    off = np.array([-2.0, -0.5, 0.0] + [e for e in (lo, hi) if 0.0 < e < math.inf])
    assert not k(off).any()


def test_kernel_scale_linearity():
    base_kernel = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=4.0)
    grid = np.geomspace(1.001, 4.0, 400)
    k1 = make_kernel("tabulated", grid=grid, values=base_kernel(grid))
    k3 = make_kernel("tabulated", grid=grid, values=3.0 * base_kernel(grid))
    base = hausdorff_apply(k1, F, P1, 0.9, CFG)
    tripled = hausdorff_apply(k3, F, P1, 0.9, CFG)
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)
    # and the interpolated copy tracks its source kernel (up to the edge
    # cell excluded from the tabulation grid)
    exact = hausdorff_apply(base_kernel, F, P1, 0.9, CFG)
    assert base == pytest.approx(exact, rel=2e-2)


def test_positivity():
    for variant in ("hardy", "adjoint_hardy", "hlp"):
        k = make_kernel(variant)
        for x in (0.5, 1.0, 2.0):
            assert hausdorff_apply(k, F, P1, x, CFG) >= 0.0


def test_log_grid_matches_direct():
    k = make_kernel("adjoint_hardy")
    xs = np.array([0.3, 0.7, 1.2])
    lg, rel = hausdorff_log_grid(k, F, P1, xs, CFG)
    for x, l in zip(xs, lg - log_weight_a(P1, xs)):
        direct = hausdorff_apply(k, F, P1, float(x), CFG)
        if direct == 0.0:
            assert l == -math.inf
        else:
            assert abs(math.exp(l) - direct) <= 1e-8 * direct


# A(x) H f(x) for adjoint Hardy on e^(-u^2) at (1/2, -1/2): the integral over
# u > x of e^(-u^2) sinh^2 u / u, by mpmath at 60 digits on 400 panels of
# (x, x + 2) and three beyond
ADJOINT_GAUSSIAN_REFERENCE = {
    1.0: 0.3587661985821891768891698,
    3.0: 0.0008777570827059428378910158,
    8.0: 3.122545742973171160596519e-24,
}


def test_log_grid_estimate_has_a_rounding_floor():
    # QUADPACK's scaling of |K - G|, which the engine once reported, read
    # 9.1e-34, 3.7e-31 and 5.2e-16 relative here, for errors of 4.1e-16,
    # 1.2e-15 and 4.1e-14
    xs = np.array(list(ADJOINT_GAUSSIAN_REFERENCE))
    lg, rel = hausdorff_log_grid(make_kernel("adjoint_hardy"), FunctionSpec("gaussian"),
                                 P1, xs, CFG)
    for l, r, ref in zip(lg, rel, ADJOINT_GAUSSIAN_REFERENCE.values()):
        assert abs(math.exp(l) - ref) <= r * ref


class _NoSupport:
    """|u|^-4 for u > 0 and e^(-u^2) for u < 0, with no support(): under
    phi = 1 on (1, inf), H f diverges at x > 0 where the t-integrand grows
    toward the clipped upper edge, and is finite at every x < 0."""

    def log_abs_decomp(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(u > 0.0, -4.0 * np.log(np.abs(u)), -u * u), math.inf


# 150 signed x values in a fixed shuffled order, so every 64-row chunk mixes
# signs and window kinds
_BATCH_XS = np.random.default_rng(7).permutation(np.concatenate([
    -np.geomspace(1e-3, 20.0, 70), np.geomspace(1e-4, 50.0, 80)]))


@pytest.mark.parametrize("k, f", [
    # x < 0 and x >= 1.3 leave no t-window for the bump under (0, 1)
    (make_kernel("adjoint_hardy"), F),
    (make_kernel("hlp"), FunctionSpec("gaussian")),
    (make_kernel("power_cutoff", exponent=0.0, lo=1.0, hi=math.inf), _NoSupport()),
], ids=["empty_windows", "gaussian", "no_support"])
def test_log_grid_batch_matches_one_x_calls(k, f):
    lg, rel = hausdorff_log_grid(k, f, P1, _BATCH_XS, CFG)
    one = [hausdorff_log_grid(k, f, P1, np.array([x]), CFG) for x in _BATCH_XS]
    # bit for bit: a row's result must not depend on its chunk-mates
    assert lg.tobytes() == np.concatenate([o[0] for o in one]).tobytes()
    assert rel.tobytes() == np.concatenate([o[1] for o in one]).tobytes()
    neg = _BATCH_XS < 0.0
    if isinstance(f, _NoSupport):
        assert np.any(lg[~neg] == math.inf)
        assert np.all(np.isfinite(lg[neg]))
    elif f is F:
        assert np.all(lg[neg | (_BATCH_XS >= 1.3)] == -math.inf)
        assert np.isfinite(lg[(_BATCH_XS > 0.1) & (_BATCH_XS < 1.2)]).all()
    else:
        assert np.isfinite(lg).all()


_CATALOG_KERNELS = [
    make_kernel("hardy"), make_kernel("adjoint_hardy"), make_kernel("hlp"),
    make_kernel("cesaro", gamma_c=2.5), make_kernel("cesaro", gamma_c=0.5),
    make_kernel("riemann_liouville", mu=0.5), make_kernel("riemann_liouville", mu=1.5),
    make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf),
    make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0),
]
_CATALOG_FUNCTIONS = [
    FunctionSpec("gaussian"), F, FunctionSpec("bump", params={"center": 0.0, "width": 1.0}),
    FunctionSpec("constant_one", domain="unit_interval"),
    FunctionSpec("extremal_eps", params={"p": 2.0, "eps": 0.1}, jacobi=P1),
    FunctionSpec("extremal_delta", params={"p": 2.0, "delta": 0.2}, jacobi=P1),
    FunctionSpec("extremal_zero", params={"p": 0.5}, jacobi=P1),
]
_POSITIVE_FLOATS = st.floats(min_value=0.0, max_value=1e308, exclude_min=True,
                             allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(k=st.sampled_from(_CATALOG_KERNELS), f=st.sampled_from(_CATALOG_FUNCTIONS),
       truncation_t=_POSITIVE_FLOATS, rel_tol=_POSITIVE_FLOATS,
       xs=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(-300, 300)),
                   min_size=1, max_size=4))
def test_log_grid_any_config_and_scale(k, f, truncation_t, rel_tol, xs):
    # every window the clips admit lies on the lattice, whatever the config
    # and |x|: each value is a float or +-inf with a non-negative estimate
    cfg = QuadConfig(truncation_t=truncation_t, rel_tol=rel_tol)
    x = np.array([sign * 10.0 ** e for sign, e in xs])
    lg, rel = hausdorff_log_grid(k, f, P1, x, cfg)
    assert lg.shape == rel.shape == x.shape
    assert not np.isnan(lg).any()
    assert np.all(rel >= 0.0)


def test_apply_zero_dim_x_keeps_scalar_result():
    k = make_kernel("adjoint_hardy")
    r = hausdorff_apply_result(k, F, P1, np.asarray(0.5), CFG)
    one = hausdorff_apply_result(k, F, P1, 0.5, CFG)
    assert np.ndim(r.value) == 0 and np.ndim(r.err_estimate) == 0
    assert r.value == one.value and r.err_estimate == one.err_estimate
    # the value pinned for the scalar path
    assert float(one.value) == pytest.approx(1.870523029464705, rel=1e-14)


class _LogOnly:
    """e^(-u^2), read only through log_abs_decomp: a call for its value fails."""

    def log_abs_decomp(self, u):
        return -np.asarray(u, dtype=float) ** 2, math.inf

    def __call__(self, u):
        raise AssertionError("f read for its sign")


def test_apply_reads_a_non_negative_f_once_per_node():
    # only an f that may be negative is evaluated for its sign
    for variant in ("hardy", "adjoint_hardy"):
        k = make_kernel(variant)
        once = hausdorff_apply_result(k, _LogOnly(), P1, 0.7, CFG)
        spec = hausdorff_apply_result(k, FunctionSpec("gaussian"), P1, 0.7, CFG)
        assert (once.value, once.err_estimate) == (spec.value, spec.err_estimate)


def test_apply_divergent_extremal_is_inf():
    # A(x/t)/A(x) grows like e^(2 x/t) as t -> 0 under the adjoint Hardy
    # kernel, faster than the eps extremal decays: H f = +inf, as the log
    # grid says, not a clamped finite value
    k = make_kernel("adjoint_hardy")
    f = FunctionSpec("extremal_eps", params={"p": 2.0, "eps": 0.1}, jacobi=P1)
    xs = np.array([0.5, 1.0, 2.0])
    assert np.all(hausdorff_log_grid(k, f, P1, xs, CFG)[0] == math.inf)
    for x in xs:
        r = hausdorff_apply_result(k, f, P1, float(x), CFG)
        assert r.value == math.inf and r.err_estimate == math.inf


def test_apply_extremal_with_overflowing_f():
    # at t near e^600, f(x/t) ~ (x/t)^-1.4 overflows while A(x/t)/A(x)
    # underflows; their product, formed in log space, stays finite.  For
    # (1/2, -1/2): H f(x) = int_0^x u^(delta - 1/p) sinh u du / (x sinh^2 x)
    k = make_kernel("hardy")
    f = FunctionSpec("extremal_delta", params={"p": 2.0, "delta": 0.1}, jacobi=P1)
    for x in (0.3, 1.0):
        r = hausdorff_apply_result(k, f, P1, x, CFG)
        truth = float(mpmath.quad(lambda u: u ** -0.4 * mpmath.sinh(u), [0, x])
                      / (x * mpmath.sinh(x) ** 2))
        assert abs(r.value - truth) <= r.err_estimate + 1e-12 * truth, x
        assert r.err_estimate <= max(CFG.abs_tol, CFG.rel_tol * truth)
        # the log grid stops at t = truncation_t max(x, 1); its estimate
        # charges the mass past the cut, 4e-7 of H f at x = 0.3
        lg, rel = hausdorff_log_grid(k, f, P1, np.array([x]), CFG)
        assert abs(math.exp(lg[0] - log_weight_a(P1, x)) - truth) <= rel[0] * truth


def test_apply_signed_function():
    k = make_kernel("hardy")
    xs, ys = np.linspace(0.0, 2.0, 9), np.sin(3.0 * np.linspace(0.0, 2.0, 9))
    f = FunctionSpec("sampled", params={"xs": xs, "ys": ys})
    neg = FunctionSpec("sampled", params={"xs": xs, "ys": -ys})
    for x in (0.5, 1.5):
        v = hausdorff_apply_result(k, f, P1, x, CFG)
        truth = _lower_form(f, P1, x) / x
        assert abs(v.value - truth) <= 1e-6 * abs(truth), x
        assert hausdorff_apply(k, neg, P1, x, CFG) == -v.value


def test_apply_divergent_signed_function_raises():
    # phi(t)/t A(x/t)/A(x) grows like t^(e - 3) as t -> inf for (1/2, -1/2);
    # exponent 3 fails the dyadic shrink test, exponent 4 overflows a node.
    # f > 0 on the nodes reads +inf; f < 0 there raises as it did before
    # the log-space integrand, since no sign of the divergence is known
    xs = np.linspace(0.0, 2.0, 9)
    pos = FunctionSpec("sampled", params={"xs": xs, "ys": 2.0 - np.cos(xs)})
    neg = FunctionSpec("sampled", params={"xs": xs, "ys": np.cos(xs) - 2.0})
    for exponent in (3.0, 4.0):
        k = make_kernel("power_cutoff", exponent=exponent, lo=1.0)
        assert hausdorff_apply(k, pos, P1, 0.5, CFG) == math.inf
        with pytest.raises(DivergentIntegralError):
            hausdorff_apply(k, neg, P1, 0.5, CFG)


def test_commutation_rejects_non_integrable_kernel():
    with pytest.raises(KernelNotIntegrableError):
        commutation_residual(make_kernel("hardy"), F, P1, 1.0, CFG)


def test_commutation_keeps_lambda_t_within_the_spectral_range(monkeypatch):
    # t^-2 on (1, inf) reaches truncation_t = 1e4: a t range cut only there
    # asked for transforms at lambda t up to 1e4, a 16 GiB batch; each
    # cosine transform of the rhs is checked before it is computed
    exact = hausdorff._cosine_transform

    def checked(abel, p, lams):
        assert np.max(np.abs(lams)) <= CFG.truncation_lambda * (1.0 + 1e-12)
        return exact(abel, p, lams)

    monkeypatch.setattr(hausdorff, "_cosine_transform", checked)
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf)
    f = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    lhs, rhs, gap, err = commutation_residual(k, f, P1, 1.0, CFG)
    assert math.isfinite(gap) and math.isfinite(err) and err > 0.0
    # beyond lambda = truncation_lambda / lo no t is left
    with pytest.raises(ParameterError):
        commutation_residual(k, f, P1, 100.0, CFG)


def test_commutation_residual_reports_gap():
    k = make_kernel("adjoint_hardy")
    f = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    lhs, rhs, gap, err = commutation_residual(k, f, P1, 0.0, CFG)
    assert gap == abs(lhs - rhs)
    assert np.isfinite(gap)
    assert math.isfinite(err) and err > 0.0


# the default T_COMM_DIAG row: adjoint Hardy on a bump at (1, 1/2), lambda = 1
COMM_P = JacobiParams(1.0, 0.5)
COMM_F = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
# the row's rhs with each of its 3,840 transforms of f at lambda t taken by
# oc_transform at rel_tol 1e-11 (the same 256 log-spaced panels in t over
# (1e-8, 1)); 3,840 adaptive transforms take minutes, so it is pinned here.
# The second term is the rest over (0, 1e-8), where u(lambda t) is u(0) =
# 0.110843080432000 (oc_transform at rel_tol 1e-11, estimate 9e-14) to
# within 1e-16 of it
COMM_RHS_REF = 0.10690714196958448 - 0.017506053332121543j + 1e-8 * 0.11084308043200047


@pytest.fixture(scope="module")
def comm_lhs_ref():
    """The row's lhs by nested adaptive quadrature at rel_tol 1e-11: an
    oc_transform_result whose integrand takes H f from hausdorff_apply_result
    at every node."""
    k, fine = make_kernel("adjoint_hardy"), QuadConfig(rel_tol=1e-11)

    def hf(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape)
        nonzero = x != 0.0
        out[nonzero] = [hausdorff_apply_result(k, COMM_F, COMM_P, v, fine).value
                         for v in x[nonzero]]
        return out

    return complex(oc_transform_result(hf, COMM_P, 1.0, fine).value)


def _lhs_estimate(monkeypatch, *args):
    """commutation_residual(*args) and the estimate of its lhs, the one
    integrate run in x whose value is lhs."""
    runs, exact = [], hausdorff.integrate

    def recorded(*a, **kw):
        runs.append(exact(*a, **kw))
        return runs[-1]

    monkeypatch.setattr(hausdorff, "integrate", recorded)
    out = commutation_residual(*args)
    [lhs_err] = [r.err_estimate for r in runs if r.value == out[0]]
    return out, lhs_err


def test_commutation_lhs_within_its_transform_estimate(comm_lhs_ref, monkeypatch):
    # lhs is one integrate run in x of A H f G_lambda(-x); that run's own
    # estimate covers its distance to the nested reference, and is below
    # 1e-8 (the transform of H f on a graded s rule read 3.1e-7)
    (lhs, _, _, _), lhs_err = _lhs_estimate(
        monkeypatch, make_kernel("adjoint_hardy"), COMM_F, COMM_P, 1.0, CFG)
    assert abs(lhs - comm_lhs_ref) <= lhs_err <= 1e-8


@pytest.mark.parametrize("lam", [0.5, 3.0, 12.0, 30.0])
def test_commutation_lhs_where_a_h_f_tends_to_a_constant(lam, monkeypatch):
    # adjoint Hardy on the Gaussian at (1/2, -1/2): A H f(x) = int_|x|^inf
    # e^(-u^2) sinh^2 u du / u tends to a constant at 0, and is even, so lhs
    # = 2 int_0^inf A H f phi_lambda dx with the closed-form phi.  The
    # reference takes both integrals on 40-point Gauss-Legendre panels of
    # width 1/8 over (0, 8)
    t, w = np.polynomial.legendre.leggauss(40)
    edges = np.arange(0.0, 8.01, 0.125)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    x = mid[:, None] + half[:, None] * t

    def g(u):
        return np.exp(-u * u) * np.sinh(u) ** 2 / u

    # A H f at each node: the rest of its own panel, then every panel above
    rest = ((edges[1:, None] - x)[..., None] / 2.0 * w) * g(
        ((edges[1:, None] + x)[..., None] + (edges[1:, None] - x)[..., None] * t) / 2.0)
    above = np.cumsum(((half[:, None] * w) * g(x)).sum(axis=1)[::-1])[::-1]
    ahf = rest.sum(axis=-1) + np.append(above[1:], 0.0)[:, None]
    ref = 2.0 * np.sum(half[:, None] * w * ahf * closed_form.phi([lam], x.ravel()).reshape(x.shape))
    gaussian = FunctionSpec("gaussian", params={"scale": 1.0})
    (lhs, _, _, _), lhs_err = _lhs_estimate(
        monkeypatch, make_kernel("adjoint_hardy"), gaussian, P1, lam, CFG)
    assert abs(lhs - ref) <= lhs_err <= 1e-8


def test_commutation_estimate_covers_both_sides(comm_lhs_ref):
    lhs, rhs, gap, err = commutation_residual(
        make_kernel("adjoint_hardy"), COMM_F, COMM_P, 1.0, CFG)
    assert err >= abs(lhs - comm_lhs_ref) + abs(rhs - COMM_RHS_REF)


# ROADMAP item 13's probe: t^-2 on (1, inf), a Gaussian, (1, 1/2), lambda = 1.
# Its rhs from 64 fixed log-spaced panels in t over (1, 40), 960 transforms:
# their estimates and the panels' |Kronrod - Gauss| come to 7.5e-12
PROBE_K = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf)
PROBE_RHS_FIXED = 0.9260984932804106


def _spy_transform_rows(monkeypatch):
    """The number of lambdas of every transform commutation_residual takes,
    each cosine transform of its rhs, as a list the spy appends to."""
    cosine, rows = hausdorff._cosine_transform, []

    def cosine_spy(abel, p, lams):
        rows.append(np.size(lams))
        return cosine(abel, p, lams)

    monkeypatch.setattr(hausdorff, "_cosine_transform", cosine_spy)
    return rows


def test_commutation_probe_stops_at_the_noise_of_its_transforms(monkeypatch):
    # lambda t reaches truncation_lambda = 40, where the transforms of the
    # Gaussian are below 1e-170 and each within its own estimate: panels
    # there stay whole once their |K - G| is within that noise.  When the
    # transforms were series noise, splitting them took the rhs to 4,218
    # transform rows and a 215 MB peak.  The transforms of an even f are real.
    # One Abel transform, f's, for every round of the rhs, which took 7 at
    # one per round; the lhs is one integrate run in x, whose rounds take H f
    # at 630 nodes (its transform on a graded s rule took 124,950)
    rows = _spy_transform_rows(monkeypatch)
    abel, abels = octransform._abel, []
    grid, nodes = hausdorff.hausdorff_log_grid, []

    def abel_spy(*args, **kwargs):
        abels.append(args[0])
        return abel(*args, **kwargs)

    def grid_spy(k, f, p, xs, cfg):
        nodes.append(np.size(xs))
        return grid(k, f, p, xs, cfg)

    monkeypatch.setattr(octransform, "_abel", abel_spy)
    monkeypatch.setattr(hausdorff, "hausdorff_log_grid", grid_spy)
    gaussian = FunctionSpec("gaussian", params={"scale": 1.0})
    lhs, rhs, gap, err = commutation_residual(PROBE_K, gaussian, COMM_P, 1.0, CFG)
    assert sum(rows) < 600 and len(rows) > 2
    assert len(abels) == 1
    assert sum(nodes) <= 1000
    assert math.isfinite(gap) and 0.0 < err < 1e-6
    assert rhs.imag == 0.0
    assert abs(rhs - PROBE_RHS_FIXED) <= err


def test_commutation_default_row_transforms_few_rows(monkeypatch):
    # the default T_COMM_DIAG row's rhs is one integrate run over phi's
    # support, one transform batch per round; the 256 fixed panels took 3,840
    rows = _spy_transform_rows(monkeypatch)
    commutation_residual(make_kernel("adjoint_hardy"), COMM_F, COMM_P, 1.0, CFG)
    assert sum(rows) <= 200


def test_commutation_near_truncation_lambda_splits_only_above_the_noise(monkeypatch):
    # phi = (1 - t)^(-1/2) / 2 on (0, 1) and lambda = 39, so lambda t nears
    # truncation_lambda = 40 at phi's singular end.  The transforms of f hold
    # their values to small estimates there, so the rhs converges to rel_tol:
    # in tau = 1 - t, with that end reached in log coordinates, in 301 rows,
    # batches of at most 150; bisection in t took 1,381.  Integrating phi
    # beside phi u, with no inner error, let its |K - G| split the noisy
    # panels of phi u: 60,152 rows, a batch of 20,610, a 207 MB peak and an
    # exhausted budget
    rows = _spy_transform_rows(monkeypatch)
    k = make_kernel("cesaro", gamma_c=0.5)
    lhs, rhs, gap, err = commutation_residual(k, COMM_F, COMM_P, 39.0, CFG)
    assert sum(rows) <= 400 and max(rows) <= 200
    assert math.isfinite(gap) and 0.0 < err < 1e-6


def test_power_end_keeps_the_mass_next_to_it():
    # Cesaro gamma_c = 0.1 in tau = 1 - t: 1 - tau rounds to 1 below
    # tau ~ 1e-16, where phi(1) = 0 would drop tau^0.1 ~ 0.025 of its mass
    k = make_kernel("cesaro", gamma_c=0.1)
    phi_hi = k.power_end()
    tau = np.array([0.5, 1e-3, 1e-9])
    assert np.allclose(phi_hi(tau), k(1.0 - tau), rtol=1e-6, atol=0.0)
    r = integrate(phi_hi, 0.0, 1.0, CFG)
    assert abs(r.value - 1.0) <= r.err_estimate < 1e-8
    for smooth in (make_kernel("cesaro", gamma_c=2.0), make_kernel("adjoint_hardy")):
        assert smooth.power_end() is None


# cos 3x on [0.2, 2] changes sign: the engine, which integrates log|f|,
# would return H|f| (8.51 at x = 0.5 with adjoint Hardy at (1/2, -1/2),
# against 0.773 for H f)
_SIGNED_XS = np.linspace(0.2, 2.0, 41)
SIGNED = FunctionSpec("sampled", params={"xs": _SIGNED_XS, "ys": np.cos(3.0 * _SIGNED_XS)})


def test_log_grid_rejects_a_signed_f():
    with pytest.raises(ParameterError):
        hausdorff_log_grid(make_kernel("adjoint_hardy"), SIGNED, P1, np.array([0.5]), CFG)


def test_norm_of_the_image_of_a_signed_f_raises():
    image = HausdorffImage(make_kernel("adjoint_hardy"), SIGNED, P1, CFG)
    with pytest.raises(ParameterError):
        lp_norm(image, 1.0, P1, (-math.inf, math.inf), CFG)


def test_commutation_residual_rejects_a_signed_f():
    with pytest.raises(ParameterError):
        commutation_residual(make_kernel("adjoint_hardy"), SIGNED, P1, 1.0, CFG)


@pytest.mark.parametrize("kernel", [
    make_kernel("adjoint_hardy"),
    make_kernel("cesaro", gamma_c=2.5),
    make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=1.13),
])
@pytest.mark.parametrize("f", [
    FunctionSpec("gaussian", params={"scale": 1.0}),
    FunctionSpec("bump", params={"center": 0.0, "width": 1.0}),
])
def test_log_grid_of_an_even_f_is_even_bit_for_bit(kernel, f):
    # the identity the fold of an even norm rests on: u = x/t and log|u|
    # are the same at -x, and f(-u) = f(u) bit for bit
    xs = np.geomspace(1e-3, 1e3, 41)
    for p in (P1, JacobiParams(1.5, 1.5)):
        plus = hausdorff_log_grid(kernel, f, p, xs, CFG)
        minus = hausdorff_log_grid(kernel, f, p, -xs, CFG)
        assert np.array_equal(plus[0], minus[0]) and np.array_equal(plus[1], minus[1])
        assert HausdorffImage(kernel, f, p, CFG).is_even


_POWER_KERNELS = [
    make_kernel("hardy"), make_kernel("adjoint_hardy"),
    make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf),
    make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0),
    make_kernel("hlp"),
]
_SAMPLED_XS = np.linspace(0.2, 2.0, 9)
_TABLE_FUNCTIONS = [
    FunctionSpec("gaussian"),
    FunctionSpec("bump", params={"center": 0.8, "width": 0.2}),
    FunctionSpec("bump", params={"center": 0.0, "width": 1.0}),
    FunctionSpec("sampled", params={"xs": _SAMPLED_XS, "ys": 1.5 + np.sin(3.0 * _SAMPLED_XS)}),
]
# seeded x in +-[1e-9, 1e9]
_TABLE_XS = np.random.default_rng(27).choice([-1.0, 1.0], 24) * 10.0 ** np.random.default_rng(
    28).uniform(-9.0, 9.0, 24)


@pytest.mark.parametrize("k", _POWER_KERNELS, ids=["hardy", "adjoint_hardy", "power_cutoff_tail",
                                                   "power_cutoff_window", "hlp"])
def test_table_path_within_its_estimate_of_a_finer_run(k):
    # the power kernels take their whole panels from the row-free table; a
    # run at rel_tol / 100 is the reference each value's estimate must cover
    fine = QuadConfig(rel_tol=CFG.rel_tol / 100.0)
    for p in (P1, JacobiParams(1.0, 0.5), JacobiParams(1.5, 1.5)):
        fns = [*_TABLE_FUNCTIONS, FunctionSpec("extremal_eps", params={"p": 2.0, "eps": 0.1},
                                               jacobi=p)]
        for f in fns:
            lg, rel = hausdorff_log_grid(k, f, p, _TABLE_XS, CFG)
            ref, ref_rel = hausdorff_log_grid(k, f, p, _TABLE_XS, fine)
            finite = np.isfinite(ref)
            assert np.array_equal(lg[~finite], ref[~finite]), (k.variant, f.family, p)
            gap = np.abs(np.expm1(lg[finite] - ref[finite]))
            assert np.all(gap <= rel[finite] + ref_rel[finite]), (k.variant, f.family, p)


# H f for hlp = adjoint Hardy + Hardy on the Gaussian at (1/2, -1/2); at
# x = e^0.7 its kink sigma = log x lies on a lattice edge
_HLP_XS = np.array([0.5, 1.3, 2.0, 3.0, math.exp(0.7)])


def test_hlp_kink_is_a_panel_edge():
    # each side of the kink t = 1 is its own power piece, so no panel
    # straddles it; the estimate covers the error against the sum of the
    # two one-piece kernels at rel_tol 1e-14
    f, tight = FunctionSpec("gaussian"), QuadConfig(rel_tol=1e-14)
    lg, rel = hausdorff_log_grid(make_kernel("hlp"), f, P1, _HLP_XS, CFG)
    parts = [hausdorff_log_grid(make_kernel(v), f, P1, _HLP_XS, tight)
             for v in ("adjoint_hardy", "hardy")]
    ref = np.exp(parts[0][0]) + np.exp(parts[1][0])
    ref_err = np.exp(parts[0][0]) * parts[0][1] + np.exp(parts[1][0]) * parts[1][1]
    assert np.all(np.abs(np.exp(lg) - ref) <= rel * ref + ref_err)


TABULATED = make_kernel("tabulated", grid=[0.5, 1.0, 2.0, 4.0], values=[1.0, 0.25, 2.0, 0.5])
_TABULATED_FUNCTIONS = {
    "gaussian": (FunctionSpec("gaussian"), lambda u: mpmath.exp(-u * u)),
    "bump": (FunctionSpec("bump", params={"center": 0.0, "width": 1.0}),
             lambda u: mpmath.exp(1 - 1 / (1 - u * u)) if abs(u) < 1 else mpmath.mpf(0)),
}


def _mp_weight(p, u):
    return mpmath.sinh(abs(u)) ** (2 * p.alpha + 1) * mpmath.cosh(u) ** (2 * p.beta + 1)


def _mp_image(phi, fn, p, x, points):
    """H f(x) by mpmath: the t-integral of phi(t)/t f(x/t) A(x/t)/A(x),
    split at ``points``."""
    x = mpmath.mpf(x)
    return mpmath.quad(lambda t: phi(t) / t * fn(x / t) * _mp_weight(p, x / t),
                       points) / _mp_weight(p, x)


@pytest.mark.parametrize("p", [P1, JacobiParams(1.0, 0.5)], ids=["half", "one_half"])
@pytest.mark.parametrize("name", list(_TABULATED_FUNCTIONS))
def test_tabulated_kernel_bends_at_panel_edges(p, name):
    # each grid segment is a piece, so a row's panels end at every grid
    # point, as at hlp's kink; with the points inside panels the estimate
    # read 1e-13 where the error was up to 4.6e-8
    f, fn = _TABULATED_FUNCTIONS[name]
    grid = [mpmath.mpf(g) for g in TABULATED.params["grid"]]
    vals = [mpmath.mpf(v) for v in TABULATED.params["values"]]

    def phi(t):
        j = max(i for i in range(3) if grid[i] <= t)
        return vals[j] + (vals[j + 1] - vals[j]) * (t - grid[j]) / (grid[j + 1] - grid[j])

    mpmath.mp.dps = 40
    try:
        xs = np.array([0.3, 0.7, 1.3, 2.2, 3.1])
        lg, rel = hausdorff_log_grid(TABULATED, f, p, xs, CFG)
        for x, l, r in zip(xs, lg, rel):
            # the bump vanishes for t <= x: there the range starts
            lo = max(grid[0], mpmath.mpf(x) if name == "bump" else 0)
            ref = float(_mp_image(phi, fn, p, x, [lo, *(t for t in grid if t > lo)]))
            assert abs(math.exp(l - log_weight_a(p, x)) - ref) <= r * ref, x
    finally:
        mpmath.mp.dps = 15


def test_cesaro_singular_end_within_its_estimate():
    # (1 - t)^1.5 bends without bound at t = 1, in each row's cut panel,
    # whose |K - G| covers the error; QUADPACK's scaling of it read 6.2e-13,
    # 1.3e-13 and 8.4e-14 here, for errors of 4.1e-11, 6.9e-12 and 3.9e-12
    k, (f, fn) = make_kernel("cesaro", gamma_c=2.5), _TABULATED_FUNCTIONS["gaussian"]
    xs = np.array([0.5, 0.2476, 0.13])
    lg, rel = hausdorff_log_grid(k, f, P1, xs, CFG)
    mpmath.mp.dps = 60
    try:
        for x, l, r in zip(xs, lg, rel):
            ref = float(_mp_image(lambda t: 2.5 * (1 - t) ** 1.5, fn, P1, x,
                                  [0, x / 8, x / 2, x, 1]))
            assert abs(math.exp(l - log_weight_a(P1, x)) - ref) <= r * ref, x
    finally:
        mpmath.mp.dps = 15


def test_many_kinks_on_many_rows_match_one_x_calls():
    # 199 pieces on 300 rows: each row's segments, chunked with the other
    # rows', give what it gives alone, bit for bit
    grid = np.geomspace(0.1, 10.0, 200)
    k = make_kernel("tabulated", grid=grid, values=1.5 + np.sin(3.0 * grid))
    xs = np.random.default_rng(29).choice([-1.0, 1.0], 300) * np.geomspace(1e-2, 1e2, 300)
    f = FunctionSpec("gaussian")
    lg, rel = hausdorff_log_grid(k, f, P1, xs, CFG)
    assert np.isfinite(lg).all() and np.all(rel > 0.0)
    one = [hausdorff_log_grid(k, f, P1, np.array([x]), CFG) for x in xs]
    assert lg.tobytes() == np.concatenate([o[0] for o in one]).tobytes()
    assert rel.tobytes() == np.concatenate([o[1] for o in one]).tobytes()


def test_adaptive_hlp_takes_its_kink_as_a_panel_edge(monkeypatch):
    # hausdorff_apply_result passes phi's breakpoints to integrate, as
    # kernel_moment does; its value agrees with the engine's within both
    # estimates
    calls = []
    exact = hausdorff.integrate

    def recorded(*args, **kwargs):
        calls.append(kwargs.get("points"))
        return exact(*args, **kwargs)

    monkeypatch.setattr(hausdorff, "integrate", recorded)
    f = FunctionSpec("gaussian")
    for x in _HLP_XS:
        r = hausdorff_apply_result(make_kernel("hlp"), f, P1, float(x), CFG)
        lg, rel = hausdorff_log_grid(make_kernel("hlp"), f, P1, np.array([x]), CFG)
        v = math.exp(lg[0] - log_weight_a(P1, float(x)))
        assert abs(r.value - v) <= r.err_estimate + rel[0] * v
    assert all(tuple(c) == (1.0,) for c in calls) and len(calls) == _HLP_XS.size


class _Counted:
    """A FunctionSpec read through log_abs_decomp, recording every u."""

    def __init__(self, f):
        self.f, self.seen = f, []

    def support(self):
        return self.f.support()

    def breakpoints(self):
        return self.f.breakpoints()

    def log_abs_decomp(self, u):
        self.seen.append(np.array(u, dtype=float))
        return self.f.log_abs_decomp(u)


def test_rows_evaluate_only_their_cut_panels_beyond_the_table():
    # adjoint Hardy on the bump (0.8, 0.2): a row with x < 0.6 takes the
    # window (log 0.6, 0), both of its ends f's support ends on panel edges,
    # so 1 row and 200 rows read log f A at the same table nodes and nothing
    # else; a row with 0.6 < x < 1 adds only the nodes of its cut panel at
    # sigma = log x, whose panel and its neighbour are at most 0.2 wide
    k = make_kernel("adjoint_hardy")
    bump = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})

    def nodes(xs):
        f = _Counted(bump)
        hausdorff_log_grid(k, f, P1, xs, CFG)
        return np.sort(np.concatenate(f.seen))

    one = nodes(np.array([0.3]))
    assert np.array_equal(nodes(np.geomspace(1e-3, 0.59, 200)), one)
    cut = np.geomspace(0.61, 0.99, 100)
    more = nodes(np.concatenate([np.geomspace(1e-3, 0.59, 100), cut]))
    extra = more[~np.isin(more, one)]
    assert np.isin(one, more).all() and extra.size
    assert np.all(np.min(np.abs(np.log(extra)[:, None] - np.log(cut)), axis=1) <= 0.2)


def test_image_reads_f_again_only_at_its_cut_panels():
    # an image keeps its table across its calls: a second call on new x
    # evaluates f only at the nodes of its rows' cut panels, each row's the
    # panel (log x, sigma) up to the lattice edge at most 0.15 above it (of
    # the window (log x, 0)), and returns what a call of its own returns,
    # bit for bit.  A table built per call read its panels up to sigma = 0
    k = make_kernel("adjoint_hardy")
    bump = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    f = _Counted(bump)
    image = HausdorffImage(k, f, P1, CFG)
    image.log_abs_decomp(np.geomspace(0.61, 0.99, 60))
    f.seen.clear()
    cut = np.array([0.7, 0.75])
    core, _, rel = image.log_abs_decomp(cut)
    above = np.log(np.concatenate(f.seen))[:, None] - np.log(cut)
    assert above.size
    assert np.all(np.any((above > 0.0) & (above <= 0.15), axis=1))
    alone = hausdorff_log_grid(k, bump, P1, cut, CFG)
    assert core.tobytes() == alone[0].tobytes() and rel.tobytes() == alone[1].tobytes()


# SHA-256 of the log values and estimates, as bytes, of a Gaussian at (1,
# 1/2): out to |x| = 1e300 under three power kernels, where a row reads only
# the table panels that can add more than exactly 0, and under Cesaro, whose
# rows drop their panels that sum to exactly 0.  Taken before either skip.
_FAR_XS = np.concatenate([-np.geomspace(1e-3, 1e300, 20), np.geomspace(1e-300, 1e300, 41)])
_PINNED = {
    "power_cutoff": (make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf), _FAR_XS,
                     "541645e94da3ef6581070e80401818ebfc4d2d8c6b2b27f8688444a6a040fbbc"),
    "adjoint_hardy": (make_kernel("adjoint_hardy"), _FAR_XS,
                      "5231feb57226b1655e158ef04d952b605ad6234083fb8f2dd0bbc00ba6e9eb3f"),
    "hlp": (make_kernel("hlp"), _FAR_XS,
            "32fc7fff50c2340f54aae71eb1bef1f95431e1f1b77c3768d5f73f29619e6f63"),
    "cesaro": (make_kernel("cesaro", gamma_c=2.5), np.geomspace(1e-8, 1e8, 61),
               "cba8f885b8eb07cafa3258a30f84784b41bca5dc0587df7080368cffeaa16430"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_log_grid_bytes_are_pinned(name):
    k, xs, digest = _PINNED[name]
    lg, rel = hausdorff_log_grid(k, FunctionSpec("gaussian"), JacobiParams(1.0, 0.5), xs, CFG)
    assert hashlib.sha256(lg.tobytes() + rel.tobytes()).hexdigest() == digest, (lg, rel)


# f's finite non-zero support ends and its inner breakpoints, u, for the
# products u t
_KINK_BUMP = (FunctionSpec("bump", params={"center": 0.8, "width": 0.2}),
              [0.8 - 0.2, 0.8 + 0.2], [])
_KINK_SAMPLED = (FunctionSpec("sampled", params={"xs": [-1.0, 0.0, 0.5, 2.0],
                                                 "ys": [1.0, 2.0, 0.5, 1.0]}),
                 [-1.0, 2.0], [0.5])


@pytest.mark.parametrize("k, t_end, t_inner", [
    (make_kernel("hardy"), [1.0], []),
    (make_kernel("adjoint_hardy"), [1.0], []),
    (make_kernel("hlp"), [], [1.0]),
    (make_kernel("cesaro", gamma_c=2.5), [1.0], []),
    (make_kernel("riemann_liouville", mu=1.5), [1.0], []),
    (make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0), [1.5, 2.0], []),
    (make_kernel("power_cutoff", exponent=-0.5), [], []),
    (make_kernel("tabulated", grid=[0.5, 1.0, 2.0, 4.0], values=[1.0, 3.0, 0.5, 1.0]),
     [0.5, 4.0], [1.0, 2.0]),
])
@pytest.mark.parametrize("f, u_end, u_inner", [_KINK_BUMP, _KINK_SAMPLED])
def test_image_breakpoints_are_the_products_of_the_kinks(k, t_end, t_inner, f, u_end, u_inner):
    # H f(x) integrates f(x/t) against phi(t): an end of f or phi meets every
    # kink of the other at x = u t; 0 and infinite ends carry no kink, and
    # two inner kinks (0.5 against 1 and 2) are left out
    bp = HausdorffImage(k, f, P1, CFG).breakpoints()
    expected = {a * b for a in u_end for b in t_end + t_inner}
    expected |= {a * b for a in u_inner for b in t_end}
    assert list(bp) == sorted(expected)


def test_image_of_a_plain_callable_has_no_breakpoints():
    image = HausdorffImage(make_kernel("hlp"), lambda x: np.exp(-x * x), P1, CFG)
    assert image.breakpoints().size == 0


def test_image_bends_at_its_breakpoints():
    # T_LPLQ's witness, x^(-1/3 - 0.05) A^(-1/3) from x = 1, under t^-2 on
    # (1.5, 2): H f is 0 up to x = 1.5 and bends at 1.5 and 2, where its
    # one-sided slopes differ
    from octool.bounds import extremal_function

    f = extremal_function("eps", P1, p=3.0, eps=0.05)
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0)
    image = HausdorffImage(k, f, P1, CFG)
    assert list(image.breakpoints()) == [1.5, 2.0]
    h = 1e-4
    for x in (1.5, 2.0):
        xs = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
        hf = np.exp(image.log_abs_decomp(xs)[0] - log_weight_a(P1, xs))
        left, right = (hf[2] - hf[0]) / (2 * h), (hf[4] - hf[2]) / (2 * h)
        assert abs(right - left) > 0.1 * max(abs(left), abs(right))
