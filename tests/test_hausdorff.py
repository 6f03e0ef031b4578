import math

import numpy as np
import pytest

from octool.errors import (
    KernelNotIntegrableError,
    ParameterError,
    SingularityError,
)
from octool.hausdorff import (
    KernelSpec,
    commutation_residual,
    hausdorff_apply,
    hausdorff_apply_result,
    hausdorff_log_grid,
    make_kernel,
)
from octool.octransform import FunctionSpec, oc_transform
from octool.quad import QuadConfig
from octool.specfun import JacobiParams, weight_a

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
    for x, l in zip(xs, lg):
        direct = hausdorff_apply(k, F, P1, float(x), CFG)
        if direct == 0.0:
            assert l == -math.inf
        else:
            assert abs(math.exp(l) - direct) <= 1e-8 * direct


class _NoSupport:
    """|u|^-4 for u > 0 and e^(-u^2) for u < 0, with no support(): under
    phi = 1 on (1, inf), H f diverges at x > 0 where the t-integrand grows
    toward the clipped upper edge, and is finite at every x < 0."""

    def log_abs_decomp(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(u > 0.0, -4.0 * np.log(np.abs(u)), -u * u), 0.0


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


@pytest.mark.parametrize("variant", ["adjoint_hardy", "hardy"])
def test_apply_array_matches_scalar_calls(variant):
    k = make_kernel(variant)
    xs = np.array([0.3, 0.75, 0.9, 1.1, 1.6, -0.4, 2.5])
    r = hausdorff_apply_result(k, F, P1, xs, CFG)
    assert r.value.shape == xs.shape and r.err_estimate.shape == xs.shape
    for x, v, e in zip(xs, r.value, r.err_estimate):
        one = hausdorff_apply_result(k, F, P1, float(x), CFG)
        assert abs(v - one.value) <= e + one.err_estimate, x
        # each x on the shared mesh is held to its own tolerance
        assert e <= max(CFG.abs_tol, CFG.rel_tol * abs(v)), x


def test_apply_zero_dim_x_keeps_scalar_result():
    k = make_kernel("adjoint_hardy")
    r = hausdorff_apply_result(k, F, P1, np.asarray(0.5), CFG)
    one = hausdorff_apply_result(k, F, P1, 0.5, CFG)
    assert np.ndim(r.value) == 0 and np.ndim(r.err_estimate) == 0
    assert r.value == one.value and r.err_estimate == one.err_estimate
    # the scalar path keeps its value from before the array form
    assert float(one.value) == pytest.approx(1.870523029464705, rel=1e-14)


def test_apply_array_with_zero_raises():
    with pytest.raises(SingularityError):
        hausdorff_apply_result(make_kernel("hardy"), F, P1,
                               np.array([0.5, 0.0, 1.0]), CFG)


def test_commutation_rejects_non_integrable_kernel():
    with pytest.raises(KernelNotIntegrableError):
        commutation_residual(make_kernel("hardy"), F, P1, 1.0, CFG)


def test_commutation_residual_reports_gap():
    k = make_kernel("adjoint_hardy")
    f = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    lhs, rhs, gap = commutation_residual(k, f, P1, 0.0, CFG)
    assert gap == abs(lhs - rhs)
    assert np.isfinite(gap)
