"""Norms and boundedness constants for the Hausdorff operator.

Weighted L^p norms, grand Lebesgue norms on finite-measure intervals, the
dilation constants controlling operator bounds (a_sup/a_inf, E, b_sup/b_inf,
the L^p -> L^q constant, the grand-bound constant), the extremal witness
functions from the sharpness arguments, the power-mean lemma for
non-increasing functions, and the monotone-integrand membership gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentIntegralError,
    KernelNotIntegrableError,
    MonotonicityError,
    ParameterError,
    SupportError,
)
from .hausdorff import KernelSpec
from .octransform import FunctionSpec
from .quad import IntegralResult, QuadConfig, integrate
from .specfun import JacobiParams, log_weight_a, weight_a

__all__ = [
    "NormResult",
    "interval_measure",
    "lp_norm",
    "grand_norm",
    "kernel_moment",
    "a_constants",
    "e_constant",
    "b_constants",
    "lp_lq_constant",
    "grand_bound_constant",
    "extremal_function",
    "power_lemma_check",
    "mphi_check",
]


@dataclass
class NormResult:
    """A non-negative extended-real value with an error estimate; ``detail``
    optionally carries grids or maximizer diagnostics."""

    value: float
    err_estimate: float
    detail: dict | None = None

    def __float__(self) -> float:
        return float(self.value)


def interval_measure(p: JacobiParams, interval: tuple[float, float],
                     cfg: QuadConfig) -> float:
    """Weight mass of the interval: integral of A over it."""
    return float(integrate(lambda x: weight_a(p, x), *interval, cfg).value)


def _lp_integral(f: FunctionSpec, p_exp, params: JacobiParams,
                 domain: tuple[float, float], cfg: QuadConfig) -> IntegralResult:
    """Integral of |f|^p_exp A over domain, computed in log space so that
    f ~ A^(-1/p) tails neither overflow nor underflow.  An array of exponents
    gives one component per exponent, each held to its own tolerance; log |f|
    and log A are formed once per node set.

    The integral is :func:`quad.integrate`, whose blocks (split at 0 with
    x < 0 folded onto |x|, a 0 end and an infinite end in log coordinates on
    the dyadic edges 0, 1, 3, ..., 511 and the cut at 600) are refined
    together, so ``log_abs_decomp`` is called once per refinement round for
    every panel and both signs of x: one engine call per round for a
    :class:`HausdorffImage`.

    A function whose ``log_abs_decomp`` also returns a relative error per
    node (as :class:`HausdorffImage` does) has it charged to each exponent's
    estimate as sum w v p_exp rel over the final panels, with w the Kronrod
    weights and v the integrand, since v carries |f|^p_exp.

    An even f (``is_even``, which a :class:`HausdorffImage` takes from its
    f) on a domain symmetric about 0 is folded there: (0, b) is integrated
    once, and its value and estimate are doubled, so no node is evaluated
    at x < 0.  The breakpoints of any f that states them (a
    :class:`FunctionSpec`, a :class:`HausdorffImage`) are panel edges, on
    either path: the folded one takes those above 0.  A NaN domain end
    raises ParameterError."""
    if math.isnan(domain[0]) or math.isnan(domain[1]):
        raise ParameterError(f"domain ends must not be NaN, got {tuple(domain)}")
    flo, fhi = f.support()
    a, b = max(domain[0], flo), min(domain[1], fhi)
    q = np.asarray(p_exp, dtype=float)
    if not a < b:
        return IntegralResult(0.0 * q, 0.0 * q, 0)

    q_col = q[..., None]

    def g(x):
        plain, root, *rel = f.log_abs_decomp(x)
        plain = np.atleast_1d(plain)
        # combined weight exponent, cancelled symbolically so huge log A
        # values cannot absorb the plain part in floating point; with |f| ~
        # A^(-1/root) it is 1 - p_exp/root, exactly 0 at p_exp = root, where
        # p_exp * (-1/root) + 1 can leave a rounding residue that e^600-sized
        # x turns into overflow
        w_coeff = 1.0 - q_col / root
        out = np.zeros(q.shape + x.shape)
        live = plain > -math.inf
        if live.any():
            expo = q_col * plain[live]
            if w_coeff.any():
                expo = expo + w_coeff * log_weight_a(params, x[live])
            out[..., live] = np.exp(expo)
        return out, q_col * rel[0] * out if rel else None

    # an overflowing node is an infinite value, which quad reports as
    # divergence before it reads the inner errors
    with np.errstate(over="ignore", invalid="ignore"):
        # integrate ignores the points outside its interval
        points = getattr(f, "breakpoints", tuple)()
        if a == -b and getattr(f, "is_even", False):
            r = integrate(g, 0.0, b, cfg, points=points)
            return r + r
        return integrate(g, a, b, cfg, points=points)


def lp_norm(f: FunctionSpec, p_exp: float, params: JacobiParams,
            domain: tuple[float, float], cfg: QuadConfig) -> NormResult:
    """(integral of |f|^p_exp A over domain)^(1/p_exp); +inf on divergence,
    and +inf, value and estimate, for a root past the double range (a small
    p_exp takes a large power of the integral)."""
    if not 0.0 < p_exp < math.inf:
        raise ParameterError(f"lp_norm requires a finite p_exp > 0, got {p_exp}")
    try:
        r = _lp_integral(f, p_exp, params, domain, cfg)
    except DivergentIntegralError:
        return NormResult(math.inf, math.inf)
    base = float(r.value)
    if base == 0.0:
        return NormResult(0.0, 0.0)
    try:
        value = base ** (1.0 / p_exp)
    except OverflowError:
        return NormResult(math.inf, math.inf)
    err = value * r.err_estimate / (p_exp * base)
    return NormResult(value, err)


def grand_norm(f: FunctionSpec, p_exp: float, params: JacobiParams,
               interval: tuple[float, float], cfg: QuadConfig) -> NormResult:
    """sup over 0 < eps < p_exp - 1 of
    eps^(1/(p-eps)) ((1/A(I)) int_I |f|^(p-eps) A)^(1/(p-eps)),
    on a geometric eps grid, 32 points refined toward each endpoint.  The
    integrals for the whole grid are one vector-valued adaptive run, each
    exponent held to its own tolerance."""
    if not 1.0 < p_exp < math.inf:
        raise ParameterError(f"grand_norm requires a finite p_exp > 1, got {p_exp}")
    mass = interval_measure(params, interval, cfg)
    if not 0.0 < mass < math.inf:
        raise ParameterError("grand_norm needs an interval of finite positive mass")
    width = p_exp - 1.0
    frac = np.geomspace(1e-8, 0.5, 32)
    eps_grid = np.unique(np.concatenate([width * frac, width * (1.0 - frac)]))
    q = p_exp - eps_grid
    try:
        r = _lp_integral(f, q, params, interval, cfg)
    except DivergentIntegralError as exc:
        return NormResult(math.inf, math.inf, {
            "eps_grid": eps_grid, "divergent_at": float(eps_grid[exc.mask][0])})
    values = eps_grid ** (1.0 / q) * (r.value / mass) ** (1.0 / q)
    errs = values * r.err_estimate / (q * np.maximum(r.value, 1e-300))
    i = int(np.argmax(values))
    return NormResult(
        float(values[i]), float(errs[i]),
        {"eps_grid": eps_grid, "values": values, "argmax_eps": float(eps_grid[i])},
    )


def kernel_moment(k: KernelSpec, s, lo: float, hi: float,
                  cfg: QuadConfig, power: float = 1.0) -> NormResult:
    """Integral of phi(t)^power t^(s-1) over (lo, hi) within the kernel
    support, formed as one exponential of log phi and log t so that neither
    factor under- or overflows on its own; +inf on divergence.  The
    kernel's breakpoints, where it bends, are panel edges, or a narrow
    spike of a ``tabulated`` kernel could fall between the nodes.

    An array ``s`` is one vector-valued adaptive run, one component per
    exponent on a shared mesh, each held to its own tolerance: value and
    estimate are arrays of the shape of ``s``, +inf where that component
    diverges.  A NaN interval end raises ParameterError."""
    if math.isnan(lo) or math.isnan(hi):
        raise ParameterError(f"interval ends must not be NaN, got ({lo}, {hi})")
    klo, khi = k.support()
    a, b = max(lo, klo), min(hi, khi)
    if not a < b:
        zero = np.zeros(np.shape(s)) if np.ndim(s) else 0.0
        return NormResult(zero, zero)
    s_col = np.asarray(s, dtype=float)[..., None]
    points = k.breakpoints()

    def integrand(t):
        log_t = np.log(np.asarray(t, dtype=float))
        return np.exp(power * k.log_phi(log_t) + (s_col - 1.0) * log_t)

    try:
        # an overflowing node is an infinite value, which quad reports as
        # divergence
        with np.errstate(over="ignore"):
            r = integrate(integrand, a, b, cfg, points=points)
    except DivergentIntegralError as exc:
        if np.ndim(s) == 0:
            return NormResult(math.inf, math.inf)
        div = exc.mask
        value, err = np.full(div.shape, math.inf), np.full(div.shape, math.inf)
        if not div.all():  # the other exponents in a run of their own
            rest = kernel_moment(k, np.asarray(s)[~div], lo, hi, cfg, power)
            value[~div], err[~div] = rest.value, rest.err_estimate
        return NormResult(value, err)
    if np.ndim(s) == 0:
        return NormResult(float(r.value), float(r.err_estimate))
    return NormResult(r.value, r.err_estimate)


def a_constants(k: KernelSpec, p_exp: float, params: JacobiParams,
                cfg: QuadConfig) -> tuple[float, float]:
    """(a_sup, a_inf): t-integrals of (phi(t)/t) t^(1/p) times the
    (sup / inf over u) of A(u)/A(tu), raised to 1 - 1/p.

    The extrema are (t^-(2 alpha + 1), 0) for t > 1 and (+inf,
    t^-(2 alpha + 1)) for t < 1, so a_sup is +inf if phi has mass below 1
    and otherwise the moment over (1, inf), and a_inf is the moment over
    (0, 1), with s = 1/p - (2 alpha + 1)(1 - 1/p)."""
    if not p_exp > 1:
        raise ParameterError("a_constants require p_exp > 1")
    s = 1.0 / p_exp - (2.0 * params.alpha + 1.0) * (1.0 - 1.0 / p_exp)
    if k.has_mass_on(0.0, 1.0):
        a_sup = math.inf
    else:
        a_sup = kernel_moment(k, s, 1.0, math.inf, cfg).value
    return a_sup, kernel_moment(k, s, 0.0, 1.0, cfg).value


def e_constant(k: KernelSpec, p_exp: float, cfg: QuadConfig) -> float:
    """E(phi, p) = integral over t > 1 of (phi(t)/t) t^(1/p); requires the
    kernel supported in [1, inf)."""
    if not p_exp > 0:
        raise ParameterError("e_constant requires p_exp > 0")
    if k.has_mass_on(0.0, 1.0):
        raise SupportError("e_constant requires the kernel supported in [1, inf)")
    return kernel_moment(k, 1.0 / p_exp, 1.0, math.inf, cfg).value


def b_constants(k: KernelSpec, p_exp: float, params: JacobiParams,
                cfg: QuadConfig) -> tuple[float, float]:
    """(b_sup, b_inf): (integral of phi^p times ratio-extremum^(p-1))^(1/p).

    With the extrema of ``a_constants`` and p - 1 < 0, t < 1 drops out of
    b_sup and mass above 1 makes b_inf +inf; what is left are the moments
    of phi^p over (1, inf) and (0, 1), with s = 1 - (2 alpha + 1)(p - 1)."""
    if not 0.0 < p_exp < 1.0:
        raise ParameterError("b_constants require 0 < p_exp < 1")
    s = 1.0 - (2.0 * params.alpha + 1.0) * (p_exp - 1.0)
    if k.has_mass_on(1.0, math.inf):
        b_inf = math.inf
    else:
        b_inf = kernel_moment(k, s, 0.0, 1.0, cfg, power=p_exp).value ** (1.0 / p_exp)
    b_sup = kernel_moment(k, s, 1.0, math.inf, cfg, power=p_exp).value ** (1.0 / p_exp)
    return b_sup, b_inf


def lp_lq_constant(k: KernelSpec, p_exp: float, q_exp: float,
                   params: JacobiParams, cfg: QuadConfig) -> float:
    """The L^p -> L^q bound constant for 1 < q < p: the t-integral of
    (phi(t)/t) t^(1/q) (u-integral of (A(u)^(q-q/p)/A(tu)^(q-1))^(p/(p-q)))
    raised to (p-q)/(pq)."""
    if not 1.0 < q_exp < p_exp:
        raise ParameterError("lp_lq_constant requires 1 < q < p")
    s = p_exp / (p_exp - q_exp)
    c1 = q_exp - q_exp / p_exp
    c2 = q_exp - 1.0
    rho2 = 2.0 * (params.alpha + params.beta + 1.0)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        phi = np.asarray(k(t), dtype=float)
        live = phi != 0.0
        if not live.any():
            return out
        # the inner u-integrals of every live node as one vector-valued run,
        # t a column; exponential rate at u -> inf: converges iff c1 < c2 t
        t_live = t[live]
        rate = rho2 * s * (c1 - c2 * t_live)
        if (rate >= 0.0).any():
            raise DivergentIntegralError(
                f"inner dilation integral diverges at t={t_live[rate >= 0.0][0]:g}"
            )
        t_col = t_live[:, None]

        def gu(u):
            u = np.asarray(u, dtype=float)
            expo = s * (c1 * log_weight_a(params, u) - c2 * log_weight_a(params, t_col * u))
            return np.exp(np.minimum(expo, 709.0))

        reach = max(cfg.truncation_x, float(np.max(200.0 / np.abs(rate) * rho2)))
        iv = 2.0 * (integrate(gu, 1.0, math.inf, cfg, cutoff=1.0 + reach)
                    + integrate(gu, 0.0, 1.0, cfg)).value
        out[live] = (
            phi[live] / t_live * t_live ** (1.0 / q_exp)
            * iv ** ((p_exp - q_exp) / (p_exp * q_exp))
        )
        return out

    lo, hi = k.support()
    try:
        r = integrate(integrand, lo, hi, cfg)
    except DivergentIntegralError:
        return math.inf
    return float(r.value)


def grand_bound_constant(k: KernelSpec, p_exp: float, params: JacobiParams,
                         cfg: QuadConfig) -> float:
    """(A(1))^2 (p-1) inf over 0 < sigma < p-1 of
    sigma^(-1/(p-sigma)) E(phi, p-sigma), by grid search (32 geometric points
    toward each end) with one golden-section refinement between the grid
    neighbours of an interior grid minimum; a minimum at an end of the grid
    is taken as it is."""
    if not p_exp > 1:
        raise ParameterError("grand_bound_constant requires p_exp > 1")
    if k.has_mass_on(0.0, 1.0):
        raise SupportError(
            "grand_bound_constant requires the kernel supported in [1, inf)"
        )
    width = p_exp - 1.0
    frac = np.geomspace(1e-6, 0.5, 32)
    grid = np.unique(np.concatenate([width * frac, width * (1.0 - frac)]))

    def objective(sigma):
        # E(phi, p - sigma), +inf where it diverges
        e = kernel_moment(k, 1.0 / (p_exp - sigma), 1.0, math.inf, cfg).value
        return sigma ** (-1.0 / (p_exp - sigma)) * e

    # the whole grid as one vector-valued moment run
    vals = objective(grid)
    if not np.any(np.isfinite(vals)):
        raise KernelNotIntegrableError(
            "E(phi, p - sigma) is infinite for every grid sigma"
        )
    i = int(np.argmin(vals))
    best = float(vals[i])
    if 0 < i < grid.size - 1:
        phi_ratio = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = grid[i - 1], grid[i + 1]
        c = b - phi_ratio * (b - a)
        d = a + phi_ratio * (b - a)
        fc, fd = objective(c), objective(d)
        for _ in range(40):
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - phi_ratio * (b - a)
                fc = objective(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi_ratio * (b - a)
                fd = objective(d)
        best = min(best, fc, fd)
    a1 = weight_a(params, 1.0)
    return a1 * a1 * (p_exp - 1.0) * best


def extremal_function(kind: str, params: JacobiParams, **kw) -> FunctionSpec:
    """The sharpness witnesses: kind in {"eps", "delta", "zero"} with their
    defining parameters (p and eps / delta)."""
    if kind == "eps":
        return FunctionSpec(
            "extremal_eps", params={"p": kw["p"], "eps": kw["eps"]}, jacobi=params
        )
    if kind == "delta":
        return FunctionSpec(
            "extremal_delta", params={"p": kw["p"], "delta": kw["delta"]},
            jacobi=params,
        )
    if kind == "zero":
        return FunctionSpec("extremal_zero", params={"p": kw["p"]}, jacobi=params)
    raise ParameterError(f"unknown extremal kind {kind!r}")


def power_lemma_check(h: FunctionSpec, s: float,
                      cfg: QuadConfig) -> tuple[float, float]:
    """For non-negative non-increasing h on (a, b) and 0 < s < 1:
    lhs = (int h)^s, rhs = s int h(t)^s (t-a)^(s-1) dt; the lemma asserts
    lhs <= rhs."""
    if not 0.0 < s < 1.0:
        raise ParameterError("power_lemma_check requires 0 < s < 1")
    a, b = h.support()
    if h.family == "zero" or not a < b:
        return 0.0, 0.0
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ParameterError("power_lemma_check needs a bounded support")
    probe = np.linspace(a, b, 257)[1:-1]
    vals = h(probe)
    if np.any(vals < 0.0):
        raise MonotonicityError("h must be non-negative")
    if np.any(np.diff(vals) > 1e-12 * (np.max(np.abs(vals)) + 1e-300)):
        raise MonotonicityError("h must be non-increasing on its support")
    # across a jump the Gauss and Kronrod rules can agree on a wrong value:
    # h's breakpoints are panel edges
    points = h.breakpoints()
    lhs = float(integrate(h, a, b, cfg, points=points).value) ** s

    def g(u):
        # u = t - a, singular weight u^(s-1) at 0
        u = np.asarray(u, dtype=float)
        return np.asarray(h(a + u)) ** s * u ** (s - 1.0)

    rhs = integrate(g, 0.0, b - a, cfg, points=points - a).value
    return lhs, s * float(rhs)


def mphi_check(k: KernelSpec, f: FunctionSpec, params: JacobiParams,
               x: float) -> bool:
    """Whether t -> (phi(t)/t) f(x/t) A(x/t)/A(x) is non-increasing on the
    sampled grid (the membership gate for the quasi-Banach upper bound)."""
    if x == 0.0:
        raise ParameterError("mphi_check requires x != 0")
    if f.family == "zero":
        return True
    t = np.geomspace(1e-3, 1e3, 601)
    u = x / t
    fv = np.asarray(f(u), dtype=float)
    vals = np.zeros(t.shape)
    live = fv != 0.0
    if np.any(live):
        log_ratio = log_weight_a(params, u[live]) - log_weight_a(params, x)
        vals[live] = (
            k(t[live]) / t[live] * fv[live]
            * np.exp(np.minimum(log_ratio, 700.0))
        )
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    return not np.any(np.diff(vals) > 1e-12 * (scale + 1e-300))
