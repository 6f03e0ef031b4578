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
from .hausdorff import KernelSpec, hausdorff_log_grid
from .octransform import FunctionSpec
from .quad import (
    IntegralResult,
    QuadConfig,
    integrate_finite,
    integrate_positive,
    integrate_to_infinity,
    integrate_to_zero,
)
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
    "LogInterpFunction",
    "hausdorff_lp_norm",
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


def _integrate_folded(g, a: float, b: float, cfg: QuadConfig) -> IntegralResult:
    """Integrate g over (a, b): split at 0 and fold each piece onto |x| for
    :func:`integrate_positive`."""
    pieces = [(a, 0.0), (0.0, b)] if a < 0.0 < b else [(a, b)]
    total = IntegralResult(0.0, 0.0, 0)
    for lo, hi in pieces:
        s_lo, s_hi = sorted((abs(lo), abs(hi)))
        sign = -1.0 if hi <= 0.0 else 1.0
        total = total + integrate_positive(lambda x: g(sign * x), s_lo, s_hi, cfg)
    return total


def interval_measure(p: JacobiParams, interval: tuple[float, float],
                     cfg: QuadConfig) -> float:
    """Weight mass of the interval: integral of A over it."""
    a, b = interval
    if not a < b:
        return 0.0
    return float(_integrate_folded(lambda x: weight_a(p, x), a, b, cfg).value)


def _lp_integral(f: FunctionSpec, p_exp, params: JacobiParams,
                 domain: tuple[float, float], cfg: QuadConfig) -> IntegralResult:
    """Integral of |f|^p_exp A over domain, computed in log space so that
    f ~ A^(-1/p) tails neither overflow nor underflow.  An array of exponents
    gives one component per exponent, integrated on one shared mesh; log |f|
    and log A are formed once per node set."""
    flo, fhi = f.support()
    a, b = max(domain[0], flo), min(domain[1], fhi)
    q = np.asarray(p_exp, dtype=float)
    if not a < b:
        return IntegralResult(0.0 * q, 0.0 * q, 0)

    # combined weight exponent, cancelled symbolically so huge log A values
    # cannot absorb the plain part in floating point; with |f| ~ A^(-1/r) it
    # is 1 - p_exp/r, exactly 0 at p_exp = r, where p_exp * (-1/r) + 1 can
    # leave a rounding residue that e^600-sized x turns into overflow
    w_coeff = 1.0 - q / f.weight_root()
    weighted = bool(w_coeff.any())
    q, w_coeff = q[..., None], w_coeff[..., None]

    def g(x):
        x = np.asarray(x, dtype=float)
        plain = np.atleast_1d(f.log_abs_decomp(x)[0])
        out = np.zeros(q.shape[:-1] + x.shape)
        live = plain > -math.inf
        if live.any():
            expo = q * plain[live]
            if weighted:
                expo = expo + w_coeff * log_weight_a(params, x[live])
            out[..., live] = np.exp(expo)
        return out

    # an overflowing node is an infinite value, which quad reports as
    # divergence
    with np.errstate(over="ignore"):
        return _integrate_folded(g, a, b, cfg)


def lp_norm(f: FunctionSpec, p_exp: float, params: JacobiParams,
            domain: tuple[float, float], cfg: QuadConfig) -> NormResult:
    """(integral of |f|^p_exp A over domain)^(1/p_exp); +inf on divergence."""
    if not p_exp > 0:
        raise ParameterError("lp_norm requires p_exp > 0")
    try:
        r = _lp_integral(f, p_exp, params, domain, cfg)
    except DivergentIntegralError:
        return NormResult(math.inf, math.inf)
    base = float(r.value)
    if base == 0.0:
        return NormResult(0.0, 0.0)
    value = base ** (1.0 / p_exp)
    err = value * r.err_estimate / (p_exp * base)
    return NormResult(value, err)


def grand_norm(f: FunctionSpec, p_exp: float, params: JacobiParams,
               interval: tuple[float, float], cfg: QuadConfig) -> NormResult:
    """sup over 0 < eps < p_exp - 1 of
    eps^(1/(p-eps)) ((1/A(I)) int_I |f|^(p-eps) A)^(1/(p-eps)),
    on a geometric eps grid, 32 points refined toward each endpoint.  The
    integrals for the whole grid are one vector-valued adaptive run, each
    exponent held to its own tolerance."""
    if not p_exp > 1:
        raise ParameterError("grand_norm requires p_exp > 1")
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


def _kernel_positive_on(k: KernelSpec, lo: float, hi: float) -> bool:
    """Whether the kernel has mass on (lo, hi), by support overlap plus a
    positivity spot check."""
    klo, khi = k.support()
    a, b = max(lo, klo), min(hi, khi)
    if not a < b:
        return False
    t = np.geomspace(max(a, 1e-12) * (1 + 1e-9), min(b, 1e9), 129)
    return bool(np.any(k(t) > 0.0))


def kernel_moment(k: KernelSpec, s: float, lo: float, hi: float,
                  cfg: QuadConfig, power: float = 1.0) -> NormResult:
    """Integral of phi(t)^power t^(s-1) over (lo, hi) within the kernel
    support, formed as one exponential of log phi and log t so that neither
    factor under- or overflows on its own; +inf on divergence."""
    klo, khi = k.support()
    a, b = max(lo, klo), min(hi, khi)
    if not a < b:
        return NormResult(0.0, 0.0)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.exp(power * k.log_abs(t) + (s - 1.0) * np.log(t))

    try:
        # an overflowing node is an infinite value, which quad reports as
        # divergence
        with np.errstate(over="ignore"):
            r = integrate_positive(integrand, a, b, cfg)
    except DivergentIntegralError:
        return NormResult(math.inf, math.inf)
    return NormResult(float(r.value), float(r.err_estimate))


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
    if _kernel_positive_on(k, 0.0, 1.0):
        a_sup = math.inf
    else:
        a_sup = kernel_moment(k, s, 1.0, math.inf, cfg).value
    return a_sup, kernel_moment(k, s, 0.0, 1.0, cfg).value


def e_constant(k: KernelSpec, p_exp: float, cfg: QuadConfig) -> float:
    """E(phi, p) = integral over t > 1 of (phi(t)/t) t^(1/p); requires the
    kernel supported in [1, inf)."""
    if not p_exp > 0:
        raise ParameterError("e_constant requires p_exp > 0")
    if _kernel_positive_on(k, 0.0, 1.0):
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
    if _kernel_positive_on(k, 1.0, math.inf):
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

    def inner(t: float) -> float:
        # exponential rate at u -> inf: converges iff c1 < c2 t
        rate = rho2 * s * (c1 - c2 * t)
        if rate >= 0.0:
            return math.inf

        def gu(u):
            u = np.asarray(u, dtype=float)
            expo = s * (c1 * log_weight_a(params, u) - c2 * log_weight_a(params, t * u))
            return np.exp(np.minimum(expo, 709.0))

        cutoff = max(cfg.truncation_x, 200.0 / abs(rate) * rho2)
        r = integrate_to_infinity(gu, 1.0, cfg, cutoff=cutoff)
        r = r + integrate_to_zero(gu, 1.0, cfg)
        return 2.0 * float(r.value)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for i, ti in enumerate(t.ravel()):
            phi = float(k(ti))
            if phi == 0.0:
                continue
            iv = inner(float(ti))
            if iv == math.inf:
                raise DivergentIntegralError(
                    f"inner dilation integral diverges at t={ti:g}"
                )
            out.ravel()[i] = (
                phi / ti * ti ** (1.0 / q_exp)
                * iv ** ((p_exp - q_exp) / (p_exp * q_exp))
            )
        return out

    lo, hi = k.support()
    try:
        r = integrate_positive(integrand, lo, hi, cfg)
    except DivergentIntegralError:
        return math.inf
    return float(r.value)


def grand_bound_constant(k: KernelSpec, p_exp: float, params: JacobiParams,
                         cfg: QuadConfig) -> float:
    """(A(1))^2 (p-1) inf over 0 < sigma < p-1 of
    sigma^(-1/(p-sigma)) E(phi, p-sigma), by grid search (32 geometric points
    toward each end) with one golden-section refinement around the grid
    minimum."""
    if not p_exp > 1:
        raise ParameterError("grand_bound_constant requires p_exp > 1")
    if _kernel_positive_on(k, 0.0, 1.0):
        raise SupportError(
            "grand_bound_constant requires the kernel supported in [1, inf)"
        )
    width = p_exp - 1.0
    frac = np.geomspace(1e-6, 0.5, 32)
    grid = np.unique(np.concatenate([width * frac, width * (1.0 - frac)]))

    def objective(sigma: float) -> float:
        e = e_constant(k, p_exp - sigma, cfg)
        if e == math.inf:
            return math.inf
        return sigma ** (-1.0 / (p_exp - sigma)) * e

    vals = np.array([objective(s) for s in grid])
    if not np.any(np.isfinite(vals)):
        raise KernelNotIntegrableError(
            "E(phi, p - sigma) is infinite for every grid sigma"
        )
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    phi_ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
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
    best = min(float(np.min(vals)), fc, fd)
    a1 = weight_a(params, 1.0)
    return a1 * a1 * (p_exp - 1.0) * best


class LogInterpFunction:
    """A non-negative function tabulated as log-value against log-argument
    on (0, inf), linearly interpolated in log-log coordinates (exact for
    powers).  Provides the protocol lp_norm/grand_norm need."""

    def __init__(self, grid, log_vals):
        self.grid = np.asarray(grid, dtype=float)
        self.log_vals = np.asarray(log_vals, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.log_vals.shape:
            raise ParameterError("grid and log_vals must be matching 1-d arrays")
        if not np.all(np.diff(self.grid) > 0) or self.grid[0] <= 0:
            raise ParameterError("grid must be positive increasing")

    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def log_abs(self, x):
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(xx.shape, -math.inf)
        inside = (xx >= self.grid[0]) & (xx <= self.grid[-1])
        out[inside] = np.interp(
            np.log(xx[inside]), np.log(self.grid), self.log_vals
        )
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    def log_abs_decomp(self, x):
        return self.log_abs(x), 0.0

    def weight_root(self) -> float:
        return math.inf

    def __call__(self, x):
        la = self.log_abs(x)
        return np.exp(np.minimum(np.atleast_1d(la), 709.0)) if np.ndim(x) else float(np.exp(min(la, 709.0)))


def hausdorff_lp_norm(k: KernelSpec, f, p_exp: float, params: JacobiParams,
                      domain: tuple[float, float], cfg: QuadConfig) -> NormResult:
    """(integral over domain of (H f)^p_exp A)^(1/p_exp) for non-negative f,
    with H f evaluated in log space at every quadrature node; +inf on
    divergence."""
    if not p_exp > 0:
        raise ParameterError("hausdorff_lp_norm requires p_exp > 0")
    a, b = domain
    # integrand-mass-weighted inner relative error: the sums of rel * vals
    # and of vals, both times 2^-acc[2]
    acc = [0.0, 0.0, 0]

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        live = x != 0.0
        if np.any(live):
            # core = log H f + log A(x): combining the exponents here avoids
            # cancelling two huge floats when A(x) over/underflows in logs
            core, rel = hausdorff_log_grid(
                k, f, params, x[live], cfg, include_weight=False
            )
            expo = p_exp * core + (1.0 - p_exp) * log_weight_a(params, x[live])
            with np.errstate(over="ignore"):
                vals = np.exp(expo)
            if np.any(vals == math.inf):
                raise DivergentIntegralError(
                    "H f is infinite, or overflows, at a quadrature node")
            out[live] = vals
            # a power-of-two scale is exact, so it keeps the ratio of the two
            # sums while holding them below the float range
            shift = max(acc[2], math.frexp(float(np.max(vals)))[1] - 960)
            v = np.ldexp(vals, -shift)
            acc[0] = math.ldexp(acc[0], acc[2] - shift) + float(np.sum(rel * v))
            acc[1] = math.ldexp(acc[1], acc[2] - shift) + float(np.sum(v))
            acc[2] = shift
        return out

    try:
        total = _integrate_folded(g, a, b, cfg)
    except DivergentIntegralError:
        return NormResult(math.inf, math.inf)
    base = float(total.value)
    if base == 0.0:
        return NormResult(0.0, 0.0)
    value = base ** (1.0 / p_exp)
    # inner H f relative error enters the integrand to power p_exp
    inner_rel = acc[0] / acc[1] if acc[1] > 0.0 else 0.0
    err_frac = total.err_estimate / base + p_exp * inner_rel
    return NormResult(value, value * err_frac / p_exp)


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
    knots = np.array([a, b])
    if h.family == "sampled" and h.params.get("interp") == "previous":
        # across a jump the Gauss and Kronrod rules can agree on a wrong
        # value: integrate each constant piece on its own
        xs = np.asarray(h.params["xs"], dtype=float)
        knots = np.unique(np.clip(-xs if h.reflect else xs, a, b))
    lhs = sum(float(integrate_finite(h, lo, hi, cfg).value)
              for lo, hi in zip(knots[:-1], knots[1:])) ** s

    def g(u):
        # u = t - a, singular weight u^(s-1) at 0
        u = np.asarray(u, dtype=float)
        return np.asarray(h(a + u)) ** s * u ** (s - 1.0)

    u = knots - a
    rhs = integrate_to_zero(g, u[1], cfg).value + sum(
        integrate_finite(g, lo, hi, cfg).value for lo, hi in zip(u[1:-1], u[2:]))
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
