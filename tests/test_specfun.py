import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from octool.bounds import grand_norm, lp_norm
from octool.errors import NonConvergenceError, ParameterError
from octool import specfun
from octool.hausdorff import hausdorff_apply, hausdorff_log_grid, make_kernel
from octool.octransform import FunctionSpec, oc_inverse
from octool.quad import QuadConfig
from octool.specfun import (
    JacobiParams,
    _g_batch,
    _hyp_series,
    _phi_batch,
    eigenfunction_g,
    gauss_2f1,
    jacobi_phi,
    log_gamma_complex,
    plancherel_density,
    weight_a,
    weight_ratio_extrema,
)

P1 = JacobiParams(0.5, -0.5)
P2 = JacobiParams(1.0, 0.5)
P3 = JacobiParams(1.5, 1.5)
CATALOG = (P1, P2, P3)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        JacobiParams(-0.5, -0.5)   # needs alpha > -1/2
    with pytest.raises(ParameterError):
        JacobiParams(0.0, 0.5)     # needs alpha >= beta


def test_rho():
    assert JacobiParams(0.5, -0.5).rho == 1.0
    assert JacobiParams(1.5, 1.5).rho == 4.0


@pytest.mark.parametrize("z", [-0.5, -2.0, -10.0, -50.0])
def test_hyp2f1_log_closed_form(z):
    # 2F1(1,1;2;z) = -log(1-z)/z; b - a = 0 is an integer, so the connection
    # formula degenerates and large |z| stay on the series
    v = gauss_2f1(1.0, 1.0, 2.0, z).value
    truth = -math.log(1 - z) / z
    assert abs(v - truth) <= 1e-10 * abs(truth)


@pytest.mark.parametrize("z", [0.0, -0.0, -0.5, -2.0, -10.0])
def test_hyp2f1_binomial_closed_form(z):
    # 2F1(a,b;b;z) = (1-z)^(-a)
    v = gauss_2f1(0.3, 0.7, 0.7, z).value
    truth = (1 - z) ** -0.3
    assert abs(v - truth) <= 1e-10 * abs(truth)


def test_hyp2f1_vs_mpmath():
    for a, b, c in [(0.5 + 1j, 0.5 - 1j, 1.5), (1.2, 0.4 + 2j, 2.5),
                    (0.5 + 4j, 0.5 - 4j, 2.0)]:
        for z in (-0.3, -0.8, -3.0, -30.0, -500.0):
            r = gauss_2f1(a, b, c, z)
            with mpmath.workdps(30):
                truth = complex(mpmath.hyp2f1(a, b, c, z))
            assert abs(r.value - truth) <= 1e-9 * max(abs(truth), 1.0), (a, b, c, z)
            assert abs(r.value - truth) <= r.abs_err_estimate, (a, b, c, z)


_RE = st.floats(0.1, 3.0, exclude_min=True, exclude_max=True)
_IM = st.floats(-4.0, 4.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(_RE, _IM, _RE, _IM, st.floats(0.6, 4.0, exclude_min=True, exclude_max=True),
       st.floats(-200.0, -1e-3))
def test_hyp2f1_vs_mpmath_property(re_a, im_a, re_b, im_b, c, z):
    a, b = complex(re_a, im_a), complex(re_b, im_b)
    r = gauss_2f1(a, b, c, z)
    with mpmath.workdps(30):
        truth = complex(mpmath.hyp2f1(a, b, c, z))
    scale = max(abs(truth), 1.0)
    err = abs(r.value - truth)
    assert err <= 1e-10 * scale
    # the claimed bound covers the error, up to round-off it cannot see
    assert err <= r.abs_err_estimate + 1e-12 * scale


# one series batch: lambda rows 0..40 against |w| columns from 1e-8 to 0.7,
# both signs, so columns converge after very different term counts
SERIES_LAMS = np.linspace(0.0, 40.0, 41)
SERIES_W = np.geomspace(1e-8, 0.7, 36) * np.resize([1.0, -1.0], 36)
SERIES_ABC = (
    (0.5 * (P2.rho + 1j * SERIES_LAMS))[:, None],
    (0.5 * (P2.rho - 1j * SERIES_LAMS))[:, None],
    P2.alpha + 1.0,
)


def test_hyp_series_column_permutation_is_exact():
    s, e, n = _hyp_series(*SERIES_ABC, SERIES_W)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(SERIES_W.size)
        s_p, e_p, n_p = _hyp_series(*SERIES_ABC, SERIES_W[perm])
        assert np.array_equal(s_p, s[:, perm])
        assert np.array_equal(e_p, e[:, perm])
        assert n_p == n


def test_hyp_series_batch_matches_one_column_calls():
    # the batch of 41 x 36 cells takes 8-term steps, a one-cell call long
    # ones: every cell agrees within the sum of the two bounds
    a, b, c = SERIES_ABC
    assert a.size * SERIES_W.size > specfun._FEW_CELLS
    s, e, n = _hyp_series(a, b, c, SERIES_W)
    assert (n - 1) % specfun._BLOCK == 0 and (n - 1) % specfun._LONG_BLOCK != 0
    for i in range(0, SERIES_LAMS.size, 4):
        for j, w in enumerate(SERIES_W):
            s1, e1, n1 = _hyp_series(a[i, 0], b[i, 0], c, w)
            assert (n1 - 1) % specfun._LONG_BLOCK == 0
            assert abs(s1 - s[i, j]) <= e1 + e[i, j], (SERIES_LAMS[i], w)


@pytest.mark.parametrize("p", CATALOG)
def test_scalar_phi_and_g_match_a_batch_of_eight_term_steps(p, monkeypatch):
    # lambda in [1, 40] against direct-series, Pfaff and far columns, three
    # of each, so every series of the batch has 27 cells, above the
    # threshold; the scalar calls sum one-cell series in long steps
    lams = np.linspace(1.0, 40.0, 9)
    xs = np.array([0.05, 0.3, 0.6, 0.9, 1.1, 1.2, 1.5, 2.5, 6.0])
    cells = []
    series = specfun._hyp_series

    def spy(a, b, c, w):
        cells.append(int(np.prod(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(w)))))
        return series(a, b, c, w)

    monkeypatch.setattr(specfun, "_hyp_series", spy)
    batches = [batch(p, lams, xs) for batch in (_phi_batch, _g_batch)]
    assert min(cells) > specfun._FEW_CELLS
    monkeypatch.undo()
    for scalar, batch, (v, e) in zip((jacobi_phi, eigenfunction_g), (_phi_batch, _g_batch),
                                     batches):
        for i, lam in enumerate(lams):
            for j, x in enumerate(xs):
                one, one_e = batch(p, [lam], [x])
                assert scalar(p, lam, x) == one[0, 0]
                assert abs(one[0, 0] - v[i, j]) <= one_e[0, 0] + e[i, j], (scalar.__name__, lam, x)


def test_hyp_series_keeps_its_factors_in_range():
    # the Pochhammer product (a)_n (b)_n / ((c)_n n!) passes 1e308 near
    # n = 95, while every term, times w^n, stays below 1e83
    a, b, c, w = 0.5 + 3000j, 0.5 - 3000j, 1.5, 1e-3
    with mpmath.workdps(40):
        poch = mpmath.rf(a, 100) * mpmath.rf(b, 100) / (mpmath.rf(c, 100) * mpmath.factorial(100))
        assert abs(poch) > 1e308 and abs(poch) * mpmath.mpf(w) ** 100 < 1e83
        ref = complex(mpmath.hyp2f1(a, b, c, w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, e, _ = _hyp_series(a, b, c, w)
    assert abs(s - ref) <= e
    assert e <= 1e-13 * abs(ref)


def test_few_cells_take_short_steps_where_long_ones_would_overflow():
    # at (1, 1/2), lambda = 7e4 and x = 1e-4, 48 terms from n = 0 raise the
    # Pochhammer product past 1e308 while the terms peak near 1e3: a one-cell
    # call takes 8-term steps there, as a batch of more than _FEW_CELLS does,
    # and both agree within their bounds
    lams, xs = np.array([7e4, 7.1e4]), np.linspace(1e-4, 2e-4, 9)
    assert lams.size * xs.size > specfun._FEW_CELLS
    a, b = (P2.rho + 1j * lams[:, None]) / 2, (P2.rho - 1j * lams[:, None]) / 2
    w = -np.sinh(xs) ** 2
    s, e, n = _hyp_series(a, b, P2.alpha + 1.0, w)
    s1, e1, n1 = _hyp_series(a[0, 0], b[0, 0], P2.alpha + 1.0, w[0])
    assert (n1 - 1) % specfun._LONG_BLOCK != 0
    assert abs(s1 - s[0, 0]) <= e1 + e[0, 0]
    for batch, scalar in ((_phi_batch, jacobi_phi), (_g_batch, eigenfunction_g)):
        v, err = batch(P2, lams, xs)
        assert np.isfinite(err).all()
        one, one_err = batch(P2, lams[:1], xs[:1])
        assert scalar(P2, lams[0], xs[0]) == one[0, 0]
        assert abs(one[0, 0] - v[0, 0]) <= one_err[0, 0] + err[0, 0], scalar.__name__
    # |a|, |b| = 4e4 at a small z: the direct series of gauss_2f1
    a, b, z = 0.5 + 4e4j, 0.5 - 4e4j, -1e-10
    r = gauss_2f1(a, b, 1.5, z)
    assert abs(r.value - complex(mpmath.hyp2f1(a, b, 1.5, z))) <= r.abs_err_estimate


@pytest.mark.parametrize("a,w", [(0.5, np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])),
                                 (0.5, np.array([[0.1], [0.2]])),
                                 (np.array([0.5, 0.6]), np.array([0.1, 0.2]))],
                         ids=["w0", "w1", "a_along_the_last_axis"])
def test_hyp_series_rejects_w_varying_along_a_leading_axis(a, w):
    # and parameters varying along the last axis, w's own
    with pytest.raises(ParameterError):
        _hyp_series(a, 0.5, 1.5, w)


def test_hyp_series_peak_holds_beyond_the_unit_disc():
    # 2F1(-1, b; c; w) = 1 - b w / c terminates, so it converges at |w| > 1
    # too: at w = 20 its second term is -2 although (b/c) |q| is 0.1, and the
    # round-off bound charges that largest term
    s, e, n = _hyp_series(-1.0, 0.1, 1.0, np.array([20.0, 0.5]))
    assert s == pytest.approx([-1.0, 0.95], rel=1e-15, abs=0.0)
    assert e == pytest.approx(5e-16 * math.sqrt(n) * np.array([2.0, 1.0]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam,x", [(1000.0, 1.0), (2000.0, 0.5), (2000.0, 1.0)])
def test_overflowing_series_raise_at_once(lam, x):
    # phi's own 2F1 at z = -sinh^2 x: the terms pass the float range long
    # before the series would converge, and gauss_2f1 stops there, rather
    # than warning and spinning to the budget.  G_lambda(x) sums no such
    # series: its near cells are Mehler integrals, finite and within G_0,
    # up to |lambda| x = 4096, past which they raise at once
    a = 0.5 * (P2.rho + 1j * lam)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="overflow"):
            gauss_2f1(a, a.conjugate(), P2.alpha + 1.0, -math.sinh(x) ** 2)
        with pytest.raises(NonConvergenceError, match="Mehler"):
            eigenfunction_g(P2, 10.0 * lam, x)
        (g0, g), (e0, e) = _g_batch(P2, [0.0, lam], [x])
    assert time.perf_counter() - t0 < 1.0
    assert np.isfinite(g).all() and e[0] < 1e-8
    assert abs(g[0]) <= g0[0].real + e0[0] + e[0]


@pytest.mark.parametrize("lam,x", [(500.0, 0.5), (500.0, 1.0), (1000.0, 0.5)])
def test_large_lambda_series_keep_finite_bounds(lam, x):
    # terms near 1e230 are still summed: huge values with bounds to match
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for batch in (_phi_batch, _g_batch):
            v, e = batch(P2, [lam], [x])
            assert np.all(np.isfinite(v)) and np.all(np.isfinite(e))
            assert np.all(e > 0.0)


def _phi_and_g_mpmath(p, lam, x):
    """phi_lambda(x) and G_lambda(x) at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        z = -mpmath.sinh(x) ** 2

        def phi(q):
            a = (q.rho + 1j * mpmath.mpf(lam)) / 2
            return mpmath.hyp2f1(a, mpmath.conj(a), q.alpha + 1, z)

        v = phi(p)
        coef = (p.rho + 1j * mpmath.mpf(lam)) / (4 * (p.alpha + 1))
        return complex(v), complex(v + coef * mpmath.sinh(2 * x) * phi(p.shifted()))


@pytest.mark.parametrize("p", CATALOG)
def test_series_bounds_hold_up_to_lambda_80(p):
    # past |Im a| = 4 the Pfaff and connection series cancel badly, so the
    # values may be far off (ROADMAP item 1), but never by more than their
    # bounds: as one batch and as one-point calls
    rng = np.random.default_rng(int(10 * p.alpha + p.beta))
    lams = rng.uniform(0.0, 80.0, 8)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(12.0), 12))
    # lambda = 0 is summed at the nudged 1e-5, and its bound charges the move
    lams = np.append(lams, 0.0)
    batches = [batch(p, lams, xs) for batch in (_phi_batch, _g_batch)]
    for i, lam in enumerate(lams):
        for j, x in enumerate(xs):
            refs = _phi_and_g_mpmath(p, lam, x)
            for batch, (v, e), ref in zip((_phi_batch, _g_batch), batches, refs):
                slack = 1e-15 * max(abs(ref), 1.0)
                assert abs(v[i, j] - ref) <= e[i, j] + slack, (batch.__name__, lam, x)
                v1, e1 = batch(p, [lam], [x])
                assert abs(v1[0, 0] - ref) <= e1[0, 0] + slack, (batch.__name__, lam, x)


def _phi_ref(p, lam, x):
    """phi_lambda(x): the closed form at (1/2, -1/2), (x / sinh x) sinc(lambda
    x / pi), and mpmath's 2F1 at 30 digits elsewhere."""
    if p == P1:
        return float(x / math.sinh(x) * np.sinc(lam * x / math.pi)) if x else 1.0
    with mpmath.workdps(30):
        a = (p.rho + 1j * mpmath.mpf(lam)) / 2
        return complex(mpmath.hyp2f1(a, mpmath.conj(a), p.alpha + 1, -mpmath.sinh(x) ** 2)).real


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(CATALOG + (JacobiParams(0.7, 0.2), JacobiParams(-0.3, -0.5))),
       lams=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=4),
       xs=st.lists(st.floats(0.0, 12.0, exclude_min=True), min_size=1, max_size=4))
@example(p=JacobiParams(0.7, 0.2), lams=[0.0, 155.0], xs=[1.0, 4.0, 1.25])
def test_phi_within_its_bound_and_1e_8_up_to_lambda_200(p, lams, xs):
    # the near cells are Mehler integrals, which do not cancel (ROADMAP item
    # 1: the series there was off by up to 1e65 at lambda = 200), also where
    # 2 alpha is not an integer and K's end needs the graded rule: each cell,
    # in a mixed batch and alone, lies within its bound and within 1e-8 of
    # max(|phi|, 1), |phi_lambda| <= phi_0 up to the bounds, and a batch
    # costs a cell at most 10 times its error alone.  The slack of 1e-15
    # max(|phi|, 1) covers the closed form's own rounding
    v, e = _phi_batch(p, lams, xs)
    v0, e0 = _phi_batch(p, [0.0], xs)
    for i, lam in enumerate(lams):
        for j, x in enumerate(xs):
            ref = _phi_ref(p, lam, x)
            scale = max(abs(ref), 1.0)
            one, one_e = _phi_batch(p, [lam], [x])
            assert jacobi_phi(p, lam, x) == one[0, 0]
            alone, mixed = abs(one[0, 0] - ref), abs(v[i, j] - ref)
            assert alone <= one_e[0, 0] + 1e-15 * scale, (lam, x)
            assert mixed <= e[i, j] + 1e-15 * scale, (lam, x)
            assert max(alone, mixed) <= 1e-8 * scale, (lam, x)
            assert mixed <= 10.0 * alone + 1e-15 * scale, (lam, x)
            assert abs(v[i, j]) <= v0[0, j].real + e0[0, j] + e[i, j], (lam, x)


def test_scalar_values_that_were_wrong_against_mpmath():
    # jacobi_phi read 6.7e7 here, where |phi| <= 1, and eigenfunction_g
    # 187 - 284i (ROADMAP item 1); now each is within 1e-13 of mpmath at 30
    # digits and within its bound
    phi_ref = _phi_ref(P2, 200.0, 0.3)
    _, g_ref = _phi_and_g_mpmath(P2, 60.0, 1.0)
    for got, (v, e), ref in ((jacobi_phi(P2, 200.0, 0.3), _phi_batch(P2, [200.0], [0.3]), phi_ref),
                             (eigenfunction_g(P2, 60.0, 1.0), _g_batch(P2, [60.0], [1.0]), g_ref)):
        assert got == v[0, 0]
        assert abs(got - ref) <= min(e[0, 0], 1e-13 * max(abs(ref), 1.0))


# cells past sinh^2 x = 7/3 with max(|lambda|, 1/2) x <= 32, which a small
# batch takes to the Mehler integral rather than the series (summed at the
# nudged lambda = 1e-5 where lambda = 0)
REROUTED = ((0.0, 5.0), (0.0, 64.0), (0.3, 7.0), (0.45, 64.0), (1.0, 20.0), (3.0, 2.0),
            (7.0, 3.0), (12.0, 2.5), (20.0, 1.5))
REROUTED_BATCH = ([0.0, 3.0, 12.0], [1.5, 2.0, 2.5])


@pytest.mark.parametrize("p", [*CATALOG, *(q.shifted() for q in CATALOG), JacobiParams(0.7, 0.2)])
def test_rerouted_cells_against_mpmath(p):
    # jacobi_phi, eigenfunction_g and one small batch: each cell within its
    # bound and within 1e-12 of mpmath at 40 digits, relative to max(|ref|, 1)
    lams, xs = REROUTED_BATCH
    batch_cells = [(lam, x) for lam in lams for x in xs]
    refs = {cell: _phi_and_g_mpmath(p, *cell) for cell in REROUTED + tuple(batch_cells)}
    for lam, x in REROUTED:
        assert all(z is not None for *_, z in specfun._blocks(p, np.array([lam]), np.array([x])))
        for scalar, batch, ref in zip((jacobi_phi, eigenfunction_g), (_phi_batch, _g_batch),
                                      refs[lam, x]):
            (v,), (e,) = batch(p, [lam], [x])
            assert scalar(p, lam, x) == v[0]
            assert abs(v[0] - ref) <= min(e[0], 1e-12 * max(abs(ref), 1.0)), (scalar.__name__, lam, x)
    for k, batch in enumerate((_phi_batch, _g_batch)):
        v, e = batch(p, lams, xs)
        assert all(z is not None for *_, z in specfun._blocks(p, np.array(lams), np.array(xs)))
        for (i, j), cell in zip(np.ndindex(v.shape), batch_cells):
            ref = refs[cell][k]
            assert abs(v[i, j] - ref) <= min(e[i, j], 1e-12 * max(abs(ref), 1.0)), (batch.__name__, cell)


def test_phi_at_lambda_0_and_x_64_against_mpmath():
    # at (2, 3/2) the series summed at the nudged lambda = 1e-5 reads phi_0(64)
    # 6.6e-8 off relative to |phi|; the Mehler integral on 128 panels reads
    # 9.4e-16 (and 1.7e-10 on 4)
    p = P2.shifted()
    ref = _phi_ref(p, 0.0, 64.0)
    (v,), (e,) = _phi_batch(p, [0.0], [64.0])
    assert abs(v[0] - ref) <= min(e[0], 1e-12 * abs(ref))


@pytest.mark.parametrize("p,lams,xs", [(P1, [0.0, 6.0], [11.0]),
                                       (JacobiParams(-0.3, -0.5), [14.0, 112.0], [1.3, 2.2]),
                                       (P2, [0.5, 3.0, 40.0], [1.5, 2.0, 5.0, 70.0])])
def test_a_cell_of_a_small_batch_takes_its_path_alone(p, lams, xs):
    # one rule for the whole batch puts lambda = 0 at x = 11 on the nudged
    # series in the first (7.4e-13 off) and on the integral alone (1e-19
    # off), which the phi test's 10x batch-against-alone check refuses; one
    # per block of the split puts lambda = 14 at x = 2.2 on the series in
    # the second (1.5e-15 off) and on the integral alone (1.4e-16 off)
    lams, ax = np.array(lams), np.array(xs)

    def far(lams, ax):
        out = np.zeros((lams.size, ax.size), dtype=bool)
        for _, _, cells, z in specfun._blocks(p, lams, ax):
            out[cells] = z is None
        return out

    batch = far(lams, ax)
    assert batch.any() and not batch.all()
    for i, lam in enumerate(lams):
        for j, x in enumerate(ax):
            assert batch[i, j] == far(lams[i:i + 1], ax[j:j + 1])[0, 0], (lam, x)


def test_a_flat_cell_reads_1_in_a_batch_as_alone():
    # phi_0(1e-10) is 1 to rounding; lambda = 16 beside it lifted the
    # batch's flat test, taken at the largest lambda, past 2^-60, and the
    # graded rule read 1 - 1.1e-15
    p = JacobiParams(-0.3, -0.5)
    (v, e), (w, f) = _phi_batch(p, [0.0, 16.0], [1e-10]), _phi_batch(p, [0.0], [1e-10])
    assert v[0, 0] == w[0, 0] == 1.0 and e[0, 0] == f[0, 0]


def test_a_large_alpha_keeps_the_series_where_the_integral_underflows():
    # at (12, 0) the shifted pair's Mehler integrand at x = 40 is about
    # e^(-27 x), below the doubles, though G ~ e^(-13 x) is not: past (2
    # alpha + 3) x = 600 the cell stays on the series
    p = JacobiParams(12.0, 0.0)
    for lam in (0.0, 0.5):
        _, ref = _phi_and_g_mpmath(p, lam, 40.0)
        (v,), (e,) = _g_batch(p, [lam], [40.0])
        assert abs(v[0] - ref) <= min(e[0], 1e-6 * abs(ref)), lam


@pytest.mark.parametrize("lams,xs", [([1.0], np.linspace(0.05, 12.0, 300)),
                                     (np.linspace(0.0, 40.0, 255), [2.0]),
                                     ([5.0], np.linspace(1.3, 6.0, 8)),
                                     ([0.5, 1.0, 2.0, 5.0], [1.5 - 1e-4, 1.5, 1.5 + 1e-4, 2.0, 0.7])],
                         ids=["one_lambda_300_x", "255_lambda_one_x", "one_lambda_8_x", "4_lambda_5_x"])
def test_a_large_batch_keeps_the_series(lams, xs):
    # a batch of more than 4 lambda or 4 x keeps the parent's split, where
    # the series is the cheaper (one lambda = 5 over 8 x: 0.71 ms per G
    # batch against 1.18 for the integral, medians on one core of a shared
    # 2-core Linux container), and its far cells stay far: |lambda| >= 1
    # past sinh^2 x = 7/3, and every lambda past sinh^2 x = 200
    lams, ax = np.asarray(lams, dtype=float), np.asarray(xs, dtype=float)
    sz = np.sinh(ax) ** 2
    want = np.where(np.abs(lams)[:, None] >= 1.0, sz > 7.0 / 3.0, sz > 200.0)
    for p in CATALOG:
        far = np.zeros(want.shape, dtype=bool)
        for _, _, cells, z in specfun._blocks(p, lams, ax):
            far[cells] = z is None
        assert np.array_equal(far, want)


@pytest.mark.parametrize("p", [JacobiParams(0.7, 0.2), JacobiParams(-0.45, -0.5),
                               JacobiParams(-0.4999, -0.5)])
def test_g_where_2_alpha_is_not_an_integer_against_mpmath(p):
    # the first panel of a Mehler integral at such a pair runs in t = u^(2
    # alpha + 1), on a grade that stays below 28 levels as alpha -> -1/2
    # (G was NaN at alpha = -0.45, where the grade in u alone took 530
    # levels, and its edges fell below the doubles at alpha = -0.49)
    lams, xs = [0.0, 0.7, 40.0, 200.0], [-1.2, 1e-4, 0.3, 3.0]
    batches = [batch(p, lams, xs) for batch in (_phi_batch, _g_batch)]
    for i, lam in enumerate(lams):
        for j, x in enumerate(xs):
            refs = _phi_and_g_mpmath(p, lam, x)
            for (v, e), ref in zip(batches, refs):
                assert abs(v[i, j] - ref) <= min(e[i, j], 1e-10 * max(abs(ref), 1.0)), (lam, x)
            assert abs(eigenfunction_g(p, lam, x) - refs[1]) <= 1e-10 * max(abs(refs[1]), 1.0)


CANCELLING_LAMS = (40.0, 60.0, 80.0)
CANCELLING_XS = (0.7, 1.0, 1.2)


def test_cancelling_cells_stay_within_their_bounds():
    # at (1, 1/2) the Pfaff series cancels on these cells, to relative errors
    # of up to 2.5e17 (ROADMAP item 1), but never beyond the bounds: as one
    # batch and as one-point calls
    batches = [batch(P2, CANCELLING_LAMS, CANCELLING_XS) for batch in (_phi_batch, _g_batch)]
    for i, lam in enumerate(CANCELLING_LAMS):
        for j, x in enumerate(CANCELLING_XS):
            refs = _phi_and_g_mpmath(P2, lam, x)
            for batch, (v, e), ref in zip((_phi_batch, _g_batch), batches, refs):
                v1, e1 = batch(P2, [lam], [x])
                assert abs(v[i, j] - ref) <= e[i, j], (batch.__name__, lam, x)
                assert abs(v1[0, 0] - ref) <= e1[0, 0], (batch.__name__, lam, x)


G_LAMS = np.array([0.0, 0.3, 2.0, 7.5, 40.0, -3.0])
G_XS = np.array([0.05, 0.4, 1.3, 2.7, 6.0, 11.5])
# mirror pairs, both zeros and repeats, in one shuffled order
G_MIXED = np.random.default_rng(3).permutation(
    np.concatenate([G_XS, -G_XS, [0.0, -0.0], G_XS[:3], -G_XS[4:]]))


@pytest.mark.parametrize("p", CATALOG)
def test_g_batch_folds_mirrors_and_repeats(p):
    v, e = _g_batch(p, G_LAMS, G_MIXED)
    # bit for bit the calls that hold each |x| once, one call per sign
    ax = np.concatenate([[0.0], G_XS])
    plus, minus = _g_batch(p, G_LAMS, ax), _g_batch(p, G_LAMS, -ax)
    for j, x in enumerate(G_MIXED):
        ref_v, ref_e = minus if np.signbit(x) else plus
        i = int(np.flatnonzero(ax == abs(x))[0])
        assert np.array_equal(v[:, j], ref_v[:, i]), x
        assert np.array_equal(e[:, j], ref_e[:, i]), x
        # and within the bounds of one-column calls, whose series stop on
        # their own column's scale rather than the batch's
        one_v, one_e = _g_batch(p, G_LAMS, [x])
        assert np.all(np.abs(v[:, j] - one_v[:, 0]) <= e[:, j] + one_e[:, 0]), x
    assert np.all(v[:, G_MIXED == 0.0] == 1.0)


@pytest.mark.parametrize("p", CATALOG)
def test_negative_lambda_is_the_conjugate_bit_for_bit(p):
    # oc_inverse sums both halves of the lambda line from lambda > 0 alone:
    # G_(-lambda)(x) = conj G_lambda(x) and density(-lambda) =
    # conj density(lambda), values and bounds, nudged lambdas and far
    # cells included
    lams = np.array([1e-6, 4e-6, 2e-5, 0.3, 0.999, 1.0, 2.5, 11.7, 40.0, 123.4])
    xs = np.array([-400.0, -30.0, -6.0, -1.0, -0.3, 0.0, 0.01, 0.3, 1.0, 2.5, 6.0, 30.0, 400.0])
    far = [(rows, cols) for rows, cols, _, z in specfun._blocks(p, lams, np.abs(xs)) if z is None]
    # a nudged row and the largest lambda both have far cells, and near ones
    assert {0, lams.size - 1} <= {i for rows, _ in far for i in rows.tolist()}
    assert all(0 < cols.size < xs.size for _, cols in far)
    (v, e), (w, f) = _g_batch(p, lams, xs), _g_batch(p, -lams, xs)
    assert np.array_equal(w, np.conj(v))
    assert np.array_equal(f, e)
    dens = plancherel_density(p, lams, lambda_min=5e-7)
    assert np.array_equal(plancherel_density(p, -lams, lambda_min=5e-7), np.conj(dens))


def test_g_batch_sums_each_abs_x_once(monkeypatch):
    seen = []
    phi_batch = specfun._phi_batch

    def spy(p, lams, x, **kw):
        seen.append((p, np.array(x)))
        return phi_batch(p, lams, x, **kw)

    monkeypatch.setattr(specfun, "_phi_batch", spy)
    _g_batch(P2, G_LAMS, G_MIXED)
    assert [p for p, _ in seen] == [P2, P2.shifted()]
    for _, x in seen:
        assert np.array_equal(x, np.unique(np.abs(G_MIXED)))
        assert x.size == G_XS.size + 1


# the catalog and a pair whose kernel 2F1 is a series in z at its shift
SHARED_PAIRS = (*CATALOG, JacobiParams(2.0, 1.5))


def _flat_in_one_pair(p):
    """An x whose cell at lambda = 0 is flat in p's series and not in its
    shift's: sinh^2 x = 2^-60 / (alpha + 1.5), between the two largest term
    ratios' thresholds 2^-60 / (alpha + 1) and 2^-60 / (alpha + 2)."""
    return math.asinh(math.sqrt(2.0 ** -60 / (p.alpha + 1.5)))


def _two_passes(monkeypatch):
    """Route every pair-form ``_phi_near`` call through two single-pair
    calls, as a G batch at a fractional 2 alpha takes them."""
    near = specfun._phi_near

    def single(p, *args):
        return near(p, *args) if isinstance(p, JacobiParams) else tuple(near(q, *args) for q in p)

    monkeypatch.setattr(specfun, "_phi_near", single)


@pytest.mark.parametrize("p", SHARED_PAIRS)
def test_the_pair_form_of_phi_near_is_two_single_calls(p, monkeypatch):
    # one Mehler pass for phi and phi^(alpha+1, beta+1) gives each pair's
    # values and bounds bit for bit, block by block and through G, on near,
    # far, mixed and 4 x 4 batches and on a cell flat in one pair only
    up = p.shifted()
    flat = _flat_in_one_pair(p)
    batches = {
        "near": ([0.0, 2.5], [0.3, -1.1]),
        "far": ([3.0, 7.0], [40.0, -60.0]),
        "mixed": ([0.0, 0.5, 6.0], [0.2, 2.0, -9.0]),
        "4x4": ([0.0, 1.5, 8.0, 30.0], [0.05, -0.9, 2.4, 5.0]),
        "flat": ([0.0, 4.0], [flat, 0.4]),
        "flat alone": ([0.0], [flat]),
    }
    shared, kinds = {}, {}
    for name, (lams, xs) in batches.items():
        lams, ax = np.array(lams), np.abs(xs)
        blocks = specfun._blocks(p, lams, ax)
        kinds[name] = {args is not None for *_, args in blocks}
        for rows, cols, _, args in blocks:
            if args is None:
                continue
            both = specfun._phi_near((p, up), lams[rows], ax[cols], *args)
            for (v, e), q in zip(both, (p, up)):
                w, f = specfun._phi_near(q, lams[rows], ax[cols], *args)
                assert np.array_equal(v, w) and np.array_equal(e, f)
        shared[name] = _g_batch(p, lams, xs)
    assert (kinds["near"], kinds["far"], kinds["mixed"]) == ({True}, {False}, {True, False})
    # the flat cell is flat in p only; alone, it leaves p no live column
    # and its shift one, and each pair takes its own pass
    sz = np.sinh(flat) ** 2
    assert (p.alpha + 1.0) * sz <= specfun._FLAT < (p.alpha + 2.0) * sz
    _two_passes(monkeypatch)
    for name, (lams, xs) in batches.items():
        (v, e), (w, f) = shared[name], _g_batch(p, lams, xs)
        assert np.array_equal(v, w) and np.array_equal(e, f), name


@pytest.mark.parametrize("p,shared", [(P2, True), (P3, True), (JacobiParams(0.7, 0.2), False)])
def test_g_batch_shares_one_mehler_pass_where_2_alpha_is_an_integer(p, shared, monkeypatch):
    # where 2 alpha is an integer p and its shift share _mehler_rule, and
    # each near block is one pair-form call; at (0.7, 0.2) the first panel
    # of each is graded differently, and each pair takes its own pass
    calls = []
    near = specfun._phi_near

    def spy(q, *args):
        calls.append(q)
        return near(q, *args)

    monkeypatch.setattr(specfun, "_phi_near", spy)
    _g_batch(p, [0.0, 3.0], [0.4, -1.2])
    if shared:
        assert calls and all(q == (p, p.shifted()) for q in calls)
    else:
        assert set(calls) == {p, p.shifted()}
        assert calls.count(p) == calls.count(p.shifted())


@pytest.mark.parametrize("p", CATALOG)
def test_far_cells_against_mpmath(p):
    # |lambda| >= 1 with sinh^2 x > 7/3: the Harish-Chandra expansion, real
    rng = np.random.default_rng(int(10 * p.alpha + p.beta) + 7)
    lams = rng.uniform(1.0, 80.0, 7)
    xs = rng.uniform(1.3, 12.0, 7)
    batches = [batch(p, lams, xs) for batch in (_phi_batch, _g_batch)]
    assert np.all(batches[0][0].imag == 0.0)
    for i, lam in enumerate(lams):
        for j, x in enumerate(xs):
            refs = _phi_and_g_mpmath(p, lam, x)
            for batch, (v, e), ref in zip((_phi_batch, _g_batch), batches, refs):
                scale = max(abs(ref), 1.0)
                v1, e1 = batch(p, [lam], [x])
                for val, bound in ((v[i, j], e[i, j]), (v1[0, 0], e1[0, 0])):
                    assert abs(val - ref) <= bound + 1e-15 * scale, (batch.__name__, lam, x)
                    assert abs(val - ref) <= 1e-12 * scale, (batch.__name__, lam, x)
                if batch is _phi_batch:
                    assert v1[0, 0].imag == 0.0


@pytest.mark.parametrize("lams,xs", [(np.linspace(1.0, 80.0, 9), np.linspace(1.3, 12.0, 7)),
                                     ([40.0], [3.0])])
def test_far_only_phi_sums_one_series(monkeypatch, lams, xs):
    calls = []
    series = specfun._hyp_series

    def spy(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(specfun, "_hyp_series", spy)
    _phi_batch(P2, lams, xs)
    assert len(calls) == 1


@pytest.mark.parametrize("x", [360.0, 1000.0])
def test_large_x_keeps_the_range_of_phi_and_g(x):
    # sinh x overflows past 355 while phi ~ e^(-rho x) is a double up to
    # 745 / rho; at x = 1000 both are below the smallest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (0.0, 5.0, 40.0):
            refs = _phi_and_g_mpmath(P1, lam, x)
            for batch, ref in zip((_phi_batch, _g_batch), refs):
                v, e = batch(P1, [lam], [x])
                assert np.isfinite(v[0, 0]) and np.isfinite(e[0, 0]), (batch.__name__, lam)
                assert abs(v[0, 0] - ref) <= e[0, 0] + 1e-15 * abs(ref), (batch.__name__, lam)
                # the nudge's charge at lambda = 0 is (1e-5 x)^2 / 2 relative
                assert e[0, 0] <= (1e-5 if lam == 0.0 else 1e-10) * abs(ref)
            assert np.isfinite(jacobi_phi(P1, lam, x))
            assert np.isfinite(eigenfunction_g(P1, lam, -x))


def test_log_gamma_complex_grid():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4, 4, 20) + 1j * rng.uniform(-6, 6, 20)
    for z in pts:
        z = complex(z)
        if abs(z.imag) < 0.2 and z.real <= 0.5:
            continue  # keep away from the real-axis poles
        truth = complex(mpmath.loggamma(z))
        assert abs(log_gamma_complex(z) - truth) <= 1e-12 * max(abs(truth), 1.0)


@pytest.mark.parametrize("re", [-1e3, -1e6, -1e9])
def test_log_gamma_far_left_against_mpmath(re):
    # below Re z = -10 the reflection formula, in constant time: the shift
    # recurrence took time linear in -Re z (33 ms at -99999.5 + 3i)
    for im in (-40.0, -3.0, -0.5, 0.25, 1.0, 7.0, 400.0):
        for z in (complex(re + 0.5, im), complex(re - 0.3, im)):
            t0 = time.perf_counter()
            got = log_gamma_complex(z)
            assert time.perf_counter() - t0 < 5e-3, z
            with mpmath.workdps(30):
                truth = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            vals, bound, _ = specfun._log_gamma(z)
            assert got == complex(vals)
            assert abs(got - truth) <= min(float(bound), 1e-14 * abs(truth)), z


def test_weight_closed_form():
    for p in CATALOG:
        for x in (0.3, 1.0, -2.0):
            truth = (
                math.sinh(abs(x)) ** (2 * p.alpha + 1)
                * math.cosh(abs(x)) ** (2 * p.beta + 1)
            )
            assert abs(weight_a(p, x) - truth) <= 1e-14 * truth
    assert weight_a(P1, 0.0) == 0.0


def test_phi_sine_kernel_closed_form():
    # at (1/2, -1/2) the symmetric eigenfunction is sin(lam x)/(lam sinh x)
    for lam in (0.5, 1.0, 3.0, 7.0):
        for x in (0.2, 1.0, 2.5):
            v = jacobi_phi(P1, lam, x)
            truth = math.sin(lam * x) / (lam * math.sinh(x))
            assert abs(v - truth) <= 1e-10 * max(abs(truth), 1e-3)


def test_phi_vs_mpmath():
    for p in (P2, P3):
        a1 = p.alpha + 1.0
        for lam in (0.7, 2.0, 5.0):
            for x in (0.4, 1.3, 2.62):
                z = -math.sinh(x) ** 2
                truth = complex(mpmath.hyp2f1(
                    (p.rho + 1j * lam) / 2, (p.rho - 1j * lam) / 2, a1, z))
                v = jacobi_phi(p, lam, x)
                assert abs(v - truth) <= 1e-9 * max(abs(truth), 1e-6)


def test_eigenfunction_normalized_at_origin():
    for p in CATALOG:
        for lam in (0.0, 0.5, 2.0, 10.0):
            assert eigenfunction_g(p, lam, 0.0) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 8.0), st.floats(-2.5, 2.5))
def test_eigenfunction_conjugate_symmetry(lam, x):
    g1 = eigenfunction_g(P2, lam, x)
    g2 = eigenfunction_g(P2, -lam, x)
    assert abs(g1 - np.conj(g2)) <= 1e-9 * max(abs(g1), 1.0)


def test_phi_even_in_lambda():
    for lam in (0.3, 1.7):
        assert abs(jacobi_phi(P2, lam, 0.9) - jacobi_phi(P2, -lam, 0.9)) <= 1e-12


def test_density_sine_kernel_closed_form():
    # at (1/2, -1/2) the spectral measure must reproduce the sine-transform
    # Parseval constant: density = lam^2/(2 pi) + i lam/(2 pi)
    for lam in (0.3, 1.0, 3.7, 11.0):
        d = plancherel_density(P1, lam)
        assert abs(d.real - lam * lam / (2 * math.pi)) <= 1e-12 * lam * lam
        assert abs(d.imag - lam / (2 * math.pi)) <= 1e-12 * lam


def test_density_positive_real_part():
    lams = np.geomspace(0.05, 30.0, 12)
    for p in CATALOG:
        batch = plancherel_density(p, lams)
        for lam, d in zip(lams, batch):
            one = plancherel_density(p, float(lam))
            assert one.real > 0.0
            assert abs(d - one) <= 1e-15 * abs(one)


@pytest.mark.parametrize("p", [*CATALOG, JacobiParams(0.7, 0.2)])
def test_density_against_mpmath(p):
    # (1 - rho / (i lambda)) |Gamma(rho/2 + i lambda/2) Gamma((alpha - beta +
    # 1)/2 + i lambda/2)|^2 / (Gamma(alpha + 1) |Gamma(i lambda)|)^2 / (8 pi)
    # at 30 digits, over lambda in [1e-6, 200]
    lams = np.geomspace(1e-6, 200.0, 40)
    ours = plancherel_density(p, lams)
    with mpmath.workdps(30):
        for lam, d in zip(lams, ours):
            y = mpmath.mpf(float(lam))
            inv_c2 = (abs(mpmath.gamma(mpmath.mpf(p.rho) / 2 + 0.5j * y)
                          * mpmath.gamma(mpmath.mpf(p.alpha - p.beta + 1.0) / 2 + 0.5j * y)) ** 2
                      / (mpmath.gamma(mpmath.mpf(p.alpha) + 1) * abs(mpmath.gamma(1j * y))) ** 2)
            ref = complex((1 - p.rho / (1j * y)) * inv_c2 / (8 * mpmath.pi))
            assert abs(d - ref) <= 2e-13 * abs(ref), lam


@pytest.mark.parametrize("p", [JacobiParams(1.0, 0.5), JacobiParams(2.0, 1.5),
                               JacobiParams(1.5, 0.5), JacobiParams(1.0, -0.5),
                               JacobiParams(0.7, 0.2)])
def test_mehler_kernel_against_mpmath(p):
    # c_alpha (cosh 2x - cosh 2s)^(alpha - 1/2) 2F1(alpha + beta, alpha - beta;
    # alpha + 1/2; z) at 30 digits: each value within its bound and within
    # 5e-15 relative.  At (1, 1/2) and its shift (2, 3/2), and at (3/2, 1/2),
    # Euler's form ends at n <= 1 where the plain series takes about 50
    # terms, so the bound is a few units, as at (1, -1/2), where Euler's form
    # is 1 too; at (0.7, 0.2) neither form ends
    rng = np.random.default_rng(7)
    s = np.concatenate([[0.0, 1e-8, 0.5], 12.0 * rng.random(20)])
    d = np.concatenate([[1e-3, 2.0, 1e-7], 10.0 ** rng.uniform(-8.0, 1.0, 20)])
    k, k_err = specfun._mehler_kernel(p, s, d)
    ends = p.beta in (-0.5, 0.5, 1.5)
    with mpmath.workdps(30):
        a = mpmath.mpf(p.alpha)
        c = 2 ** (a + 1.5) * mpmath.gamma(a + 1) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(a + 0.5))
        for si, di, ki, ei in zip(s, d, k, k_err):
            sm, x = mpmath.mpf(float(si)), mpmath.mpf(float(si)) + mpmath.mpf(float(di))
            z = (mpmath.cosh(x) - mpmath.cosh(sm)) / (2 * mpmath.cosh(x))
            ref = float(c * (mpmath.cosh(2 * x) - mpmath.cosh(2 * sm)) ** (a - 0.5)
                        * mpmath.hyp2f1(a + p.beta, a - p.beta, a + 0.5, z))
            assert abs(ki - ref) <= ei and abs(ki - ref) <= 5e-15 * ref
            if ends:
                assert ei <= 2e-14 * ref


def test_weight_ratio_extrema_sides():
    assert weight_ratio_extrema(P1, 2.0) == (2.0 ** -2.0, 0.0)  # t^-(2a+1) at u -> 0
    assert weight_ratio_extrema(P1, 0.5) == (math.inf, 0.5 ** -2.0)
    assert weight_ratio_extrema(P1, 1.0) == (1.0, 1.0)
    assert weight_ratio_extrema(P1, 1e-200) == (math.inf, math.inf)  # t^-2 overflows


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.5, 3.0), st.floats(0.0, 3.0), st.floats(-4.0, 4.0))
def test_weight_ratio_extrema_bracket_monotone_ratio(beta, gap, log10_t):
    # A(u)/A(tu) is monotone in u and lies between the returned extrema
    alpha = beta + gap
    assume(alpha > -0.5)
    p, t = JacobiParams(alpha, beta), 10.0 ** log10_t
    sup, inf = weight_ratio_extrema(p, t)
    with mpmath.workdps(40):
        def a(u):
            return mpmath.sinh(u) ** (2 * alpha + 1) * mpmath.cosh(u) ** (2 * beta + 1)

        ratios = [a(mpmath.mpf(u)) / a(mpmath.mpf(t) * mpmath.mpf(u))
                  for u in np.geomspace(1e-6, 1e3, 60)]
        slack = mpmath.mpf(10) ** -30
        step = 1 if t < 1.0 else -1
        for r0, r1 in zip(ratios, ratios[1:]):
            assert step * (r1 - r0) >= -slack * r0
        for r in ratios:
            assert inf * (1 - 1e-12) <= r <= sup * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(CATALOG),
       lams=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
       xs=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=16))
def test_g_is_dominated_by_g_at_zero(p, lams, xs):
    # |G_lambda(x)| <= G_0(x) for real lambda (Schapira, GAFA 2008), which
    # bounds what a relative error of a non-negative f carries into its
    # transform; up to rounding and the two cells' bounds
    g, e = _g_batch(p, [0.0, *lams], xs)
    assert (np.abs(g[1:]) <= g[0].real * (1.0 + 1e-12) + e[1:] + e[0]).all()


def test_connection_term_dropped_near_a_pole_is_charged():
    # c - b = -4.697e-19 i lies within _POLE_TOL of the pole 0 of Gamma, so
    # its connection coefficient, about 7.7e-8 here, is dropped; its bound
    # (n! + 1) |d| times the other factors is charged to the estimate
    a, b = 1 + 6.106e-12j, 1 + 4.697e-19j
    r = gauss_2f1(a, b, 1.0, -3.0)
    with mpmath.workdps(30):
        truth = complex(mpmath.hyp2f1(a, b, 1, -3))
    assert abs(r.value - truth) <= r.abs_err_estimate
    q, rel, dropped = specfun._gamma_quotient([np.array([1.0])], [np.array([-2.0 + 1e-13j])])
    assert q[0] == 0.0 and dropped[0] == pytest.approx(3.0 * 1e-13, rel=1e-12)


@pytest.mark.parametrize("p", [P1, P2, P3])
def test_mehler_kernel_integrates_to_phi_at_lambda_zero(p):
    # Koornwinder's Mehler-type integral at lambda = 0: c_alpha (sinh 2x)^(-2
    # alpha) (cosh x)^(alpha - beta) int_0^x K(x, s) ds = phi_0(x), here in
    # s = x (1 - u^2), which takes up K's (x - s)^(alpha - 1/2) end.  A
    # prefactor of 2^(3 alpha + 3/2) would be off by exactly 2^(2 alpha)
    from octool.quad import panel_rule
    u, wu, _ = panel_rule(np.linspace(0.0, 1.0, 9))
    for x in (0.3, 1.0, 2.0):
        s = x * (1.0 - u * u)
        k, k_err = specfun._mehler_kernel(p, s, x - s)
        assert np.all(k > 0.0) and np.all(k_err <= 1e-13 * k)
        mehler = (np.sinh(2.0 * x) ** (-2.0 * p.alpha) * np.cosh(x) ** (p.alpha - p.beta)
                  * np.sum(k * 2.0 * x * u * wu))
        # phi_0 within its own bound, which charges the nudge to lambda = 1e-5
        phi, phi_err = _phi_batch(p, [0.0], [x])
        assert abs(mehler - phi[0, 0]) <= phi_err[0, 0] + 1e-14


def test_mehler_kernel_sums_its_2f1_in_closed_form_where_it_is_one():
    # at (1/2, -1/2) and (3/2, 3/2) one of alpha + beta, alpha - beta is 0, so
    # the kernel's 2F1 is 1; at (1, 1/2) it is (1 - z)^(-1/2).  The reference
    # takes cosh 2x - cosh 2s and z at 30 digits
    mpmath.mp.dps = 30
    s, d = [0.0, 0.3, 2.0], [0.5, 1e-6, 3.0]
    for p, exponent in ((P1, 0.0), (P3, 0.0), (P2, -0.5)):
        c = 2.0 ** (p.alpha + 1.5) * math.gamma(p.alpha + 1.0) / (
            math.sqrt(math.pi) * math.gamma(p.alpha + 0.5))
        k, k_err = specfun._mehler_kernel(p, np.array(s), np.array(d))
        for kv, ke, sv, dv in zip(k, k_err, s, d):
            x, s_mp = mpmath.mpf(sv) + mpmath.mpf(dv), mpmath.mpf(sv)
            z = (mpmath.cosh(x) - mpmath.cosh(s_mp)) / (2 * mpmath.cosh(x))
            want = float(c * (mpmath.cosh(2 * x) - mpmath.cosh(2 * s_mp)) ** (p.alpha - 0.5)
                         * (1 - z) ** exponent)
            assert abs(kv - want) <= ke + 1e-15 * want


_K, _F = make_kernel("hardy"), FunctionSpec("gaussian")
# one call per entry point that takes lambda, x or p_exp, at a value v of it
ENTRY_CALLS = {
    "jacobi_phi x": lambda v: jacobi_phi(P2, 1.0, v),
    "jacobi_phi lambda": lambda v: jacobi_phi(P2, v, 1.0),
    "eigenfunction_g x": lambda v: eigenfunction_g(P2, 1.0, v),
    "eigenfunction_g lambda": lambda v: eigenfunction_g(P2, v, 1.0),
    "_g_batch x": lambda v: _g_batch(P2, [1.0, 2.0], [0.5, v]),
    "_g_batch lambda": lambda v: _g_batch(P2, [1.0, v], [0.5, 3.0]),
    "_phi_batch x": lambda v: _phi_batch(P2, [1.0, 2.0], [0.5, v]),
    "_phi_batch lambda": lambda v: _phi_batch(P2, [1.0, v], [0.5, 3.0]),
    "c_function": lambda v: specfun.c_function(P2, v),
    "plancherel_density": lambda v: plancherel_density(P2, v),
    "plancherel_density batch": lambda v: plancherel_density(P2, np.array([1.0, v])),
    "hausdorff_apply": lambda v: hausdorff_apply(_K, _F, P2, v, QuadConfig()),
    "hausdorff_log_grid": lambda v: hausdorff_log_grid(_K, _F, P2, np.array([1.0, v]), QuadConfig()),
    "oc_inverse": lambda v: oc_inverse(lambda lam: np.exp(-lam * lam), P2, v, QuadConfig()),
    "lp_norm": lambda v: lp_norm(_F, v, P2, (0.0, math.inf), QuadConfig()),
    "grand_norm": lambda v: grand_norm(_F, v, P2, (0.0, 1.0), QuadConfig()),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", list(ENTRY_CALLS))
def test_a_non_finite_input_raises_parameter_error_at_entry(call, value):
    # a NaN or infinite lambda, x or p_exp read as a raw RuntimeWarning, a
    # panel budget, a series overflow or a NaN integrand; each entry now
    # refuses it, once per call, before any work
    with pytest.raises(ParameterError, match="finite"):
        ENTRY_CALLS[call](value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_at_a_huge_lambda_is_its_stirling_limit_or_inf():
    # lambda^2 overflowed in _log_abs_gamma past 1e154 and read 0j, and the
    # exact logs cancel from about 1e8 (at 1e16 no digit was left, and from
    # there to 1e154 the density read 1 / (8 pi)); past 1e7 log|c| is
    # Stirling's leading terms, which at (1/2, -1/2) give the closed form
    # (lambda^2 + i lambda) / (2 pi), finite up to 3.3e154, and a density
    # past the float range is inf, its imaginary part signed as lambda
    for lam in (2e7, -1e10, 1e12, 1e16, 1e120, 1e152, -1e154, 3e154):
        want = complex(lam * (lam / (2.0 * math.pi)), lam / (2.0 * math.pi))
        got = plancherel_density(P1, lam)
        assert abs(got.real / want.real - 1.0) <= 1e-12
        assert abs(got.imag / want.imag - 1.0) <= 1e-12
    assert plancherel_density(P1, 3.0) == pytest.approx(complex(9.0, 3.0) / (2.0 * math.pi),
                                                        rel=1e-14)
    assert plancherel_density(P2, 1e120) == complex(math.inf, math.inf)
    assert plancherel_density(P2, 1e300) == complex(math.inf, math.inf)
    batch = plancherel_density(P2, np.array([3.0, -1e300]))
    assert batch[0] == plancherel_density(P2, 3.0)
    assert batch[1] == complex(math.inf, -math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenfunction_at_a_huge_lambda_raises_or_is_one_at_zero():
    # lambda^2 overflowed in _phi_near; the Mehler integral is past its
    # range there except at x = 0, where G is 1
    with pytest.raises(NonConvergenceError, match="past its range"):
        eigenfunction_g(P2, 1e300, 1.0)
    assert eigenfunction_g(P2, 1e300, 0.0) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inverse_at_a_huge_x_is_zero():
    # the nudge charge of _phi_batch squared 1e-5 x and overflowed; G decays
    # as e^(-rho x), so the inverse there is 0
    assert oc_inverse(lambda lam: np.exp(-lam * lam), P2, 1e300, QuadConfig()) == 0j
