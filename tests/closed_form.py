"""Exact references at (alpha, beta) = (1/2, -1/2), where A = sinh^2|x|, rho = 1
and the Jacobi function is the spherical function of hyperbolic 3-space
(Koornwinder, Jacobi functions, 1984):

    phi_lambda(x) = sin(lambda x) / (lambda sinh x),
    G_lambda(x)   = phi_lambda(x) - phi_lambda'(x) / (1 - i lambda),

the second from G = phi + c sinh(2x) phi^(3/2, 1/2) and the derivative
identity phi' = -(rho^2 + lambda^2) / (4(alpha + 1)) sinh(2x) phi^(alpha+1, beta+1).
An even f has the transform (2/lambda) int_0^inf f(x) sin(lambda x) sinh x dx,
since the odd part of G integrates to 0 against it, and the spectral density
is lambda (lambda + i) / (2 pi).

At (3/2, 3/2), rho = 4, the quadratic transformation phi^(a,a)_lambda(x) =
phi^(a,-1/2)_(lambda/2)(2x) (Koornwinder, 1984) gives phi the spherical
function of hyperbolic 5-space,

    phi_mu(r) = 3 (sin(mu r) cosh r / sinh^3 r - mu cos(mu r) / sinh^2 r) / (mu (mu^2 + 1)),

and |c(lambda)|^-2 is the polynomial 4 lambda^2 (lambda^2 + 4) / 9, so the
real part of the density is lambda^2 (lambda^2 + 4) / (18 pi).  They stay
here: a closed-form branch in the library would be a second phi path.
"""
import math

import numpy as np


def phi(lams, x):
    """phi_lambda(x) on the (lambda, x) grid; lambda and x != 0."""
    lam = np.asarray(lams, dtype=float)[:, None]
    ax = np.abs(np.asarray(x, dtype=float))[None, :]
    return np.sin(lam * ax) / (lam * np.sinh(ax))


def g(lams, x):
    """G_lambda(x) on the (lambda, x) grid; lambda and x != 0."""
    lam = np.asarray(lams, dtype=float)[:, None]
    x = np.asarray(x, dtype=float)[None, :]
    s = np.sinh(x)
    dphi = (lam * np.cos(lam * x) * s - np.sin(lam * x) * np.cosh(x)) / (lam * s * s)
    return np.sin(lam * x) / (lam * s) - dphi / (1.0 - 1j * lam)


def gaussian_transform(lams):
    """Transform of f = exp(-x^2): sqrt(pi) e^((1 - lambda^2)/4) sin(lambda/2) / lambda."""
    lam = np.asarray(lams, dtype=float)
    return math.sqrt(math.pi) * np.exp((1.0 - lam * lam) / 4.0) * np.sin(lam / 2.0) / lam


def bump_sine_integral(lams, n=1000):
    """S(lambda) = int_0^1 f(x) sinh(x) sin(lambda x) dx for the bump
    f = exp(1 - 1/(1 - x^2)) on (-1, 1), so that its transform is
    2 S(lambda) / lambda.  The integrand is even, smooth and vanishes to all
    orders at +-1, so the trapezoid rule on [-1, 1] (n points a side)
    converges faster than any power of 1/n for lambda well below pi n."""
    x = np.linspace(-1.0, 1.0, 2 * n + 1)[1:-1]
    f = np.exp(1.0 - 1.0 / (1.0 - x * x))
    w = f * np.sinh(x) / (2.0 * n)
    return np.sin(np.outer(np.asarray(lams, dtype=float), x)) @ w


def bump_spectral_tail(lam_cut, lam_end=300.0):
    """The spectral side of the bump's Plancherel identity past lam_cut:
    2 int_cut^inf |transform|^2 Re density dlambda = (4/pi) int_cut^inf S^2,
    on unit-wide Gauss-Legendre panels to lam_end, where S^2 is about 1e-11
    of its value at 40."""
    t, w = np.polynomial.legendre.leggauss(12)
    edges = np.arange(lam_cut, lam_end + 0.5, 1.0)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    lams = (mid[:, None] + half[:, None] * t).ravel()
    weights = (half[:, None] * w).ravel()
    return 4.0 / math.pi * float(np.sum(weights * bump_sine_integral(lams) ** 2))


def phi_p3(lams, x):
    """phi_lambda(x) at (3/2, 3/2) on the (lambda, x) grid; lambda and x != 0."""
    mu = np.asarray(lams, dtype=float)[:, None] / 2.0
    r = 2.0 * np.abs(np.asarray(x, dtype=float))[None, :]
    sh = np.sinh(r)
    return 3.0 * (np.sin(mu * r) * np.cosh(r) / sh ** 3 - mu * np.cos(mu * r) / sh ** 2) \
        / (mu * (mu * mu + 1.0))


def bump_transform_p3(lams, n=1000):
    """The transform at (3/2, 3/2) of the bump f = exp(1 - 1/(1 - x^2)) on
    (-1, 1), int f phi_lambda A dx with A = sinh^4|x| cosh^4 x: f is even, so
    the odd part of G drops out.  The integrand is even, smooth and vanishes
    to all orders at +-1, so the midpoint rule on [-1, 1] (n panels a side)
    converges faster than any power of 1/n for lambda well below pi n."""
    x = (np.arange(n) + 0.5) / n
    f = np.exp(1.0 - 1.0 / (1.0 - x * x))
    w = 2.0 * f * (np.sinh(x) * np.cosh(x)) ** 4 / n
    return phi_p3(lams, x) @ w


def bump_spectral_tail_p3(lam_cut, lam_end=300.0):
    """The spectral side of the bump's Plancherel identity at (3/2, 3/2) past
    lam_cut: 2 int_cut^inf transform^2 lambda^2 (lambda^2 + 4) / (18 pi)
    dlambda, on unit-wide Gauss-Legendre panels to lam_end."""
    t, w = np.polynomial.legendre.leggauss(12)
    edges = np.arange(lam_cut, lam_end + 0.5, 1.0)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    lams = (mid[:, None] + half[:, None] * t).ravel()
    weights = (half[:, None] * w).ravel() * lams ** 2 * (lams ** 2 + 4.0) / (18.0 * math.pi)
    return 2.0 * float(np.sum(weights * bump_transform_p3(lams) ** 2))
