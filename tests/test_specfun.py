import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octool.errors import ParameterError
from octool.specfun import (
    JacobiParams,
    _hyp_series,
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


@pytest.mark.parametrize("z", [-0.5, -2.0, -10.0])
def test_hyp2f1_log_closed_form(z):
    # 2F1(1,1;2;z) = -log(1-z)/z
    v = gauss_2f1(1.0, 1.0, 2.0, z).value
    truth = -math.log(1 - z) / z
    assert abs(v - truth) <= 1e-10 * abs(truth)


@pytest.mark.parametrize("z", [-0.5, -2.0, -10.0])
def test_hyp2f1_binomial_closed_form(z):
    # 2F1(a,b;b;z) = (1-z)^(-a)
    v = gauss_2f1(0.3, 0.7, 0.7, z).value
    truth = (1 - z) ** -0.3
    assert abs(v - truth) <= 1e-10 * abs(truth)


def test_hyp2f1_vs_mpmath():
    for a, b, c in [(0.5 + 1j, 0.5 - 1j, 1.5), (1.2, 0.4 + 2j, 2.5),
                    (0.5 + 4j, 0.5 - 4j, 2.0)]:
        for z in (-0.3, -0.8, -3.0, -30.0, -500.0):
            v = gauss_2f1(a, b, c, z).value
            truth = complex(mpmath.hyp2f1(a, b, c, z))
            assert abs(v - truth) <= 1e-9 * max(abs(truth), 1.0), (a, b, c, z)


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
    a, b, c = SERIES_ABC
    s, e, _ = _hyp_series(a, b, c, SERIES_W)
    for i in range(0, SERIES_LAMS.size, 4):
        for j, w in enumerate(SERIES_W):
            s1, e1, _ = _hyp_series(a[i, 0], b[i, 0], c, w)
            assert abs(s1 - s[i, j]) <= e1 + e[i, j], (SERIES_LAMS[i], w)


def test_log_gamma_complex_grid():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4, 4, 20) + 1j * rng.uniform(-6, 6, 20)
    for z in pts:
        z = complex(z)
        if abs(z.imag) < 0.2 and z.real <= 0.5:
            continue  # keep away from the real-axis poles
        truth = complex(mpmath.loggamma(z))
        assert abs(log_gamma_complex(z) - truth) <= 1e-12 * max(abs(truth), 1.0)


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
            for x in (0.4, 1.3):
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
    for p in CATALOG:
        for lam in np.geomspace(0.05, 30.0, 12):
            assert plancherel_density(p, float(lam)).real > 0.0


def test_weight_ratio_extrema_sides():
    sup, inf = weight_ratio_extrema(P1, 2.0)
    assert sup == pytest.approx(2.0 ** -2.0, rel=1e-6)  # t^-(2a+1) at u -> 0
    assert inf == 0.0
    sup, inf = weight_ratio_extrema(P1, 0.5)
    assert sup == math.inf
    assert inf == pytest.approx(0.5 ** -2.0, rel=1e-6)
    assert weight_ratio_extrema(P1, 1.0) == (1.0, 1.0)
