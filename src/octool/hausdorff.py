"""Hausdorff-type averaging operator for the hyperbolic weight.

``H f(x) = integral over t > 0 of (phi(t)/t) f(x/t) A(x/t)/A(x) dt`` for a
non-negative kernel ``phi`` supported in (0, infinity), together with the
catalog of named kernels (Hardy, adjoint Hardy, Hardy-Littlewood-Polya,
Cesaro, Riemann-Liouville) and a diagnostic comparing the spectral transform
of ``H f`` with the kernel-averaged transform of ``f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentIntegralError,
    KernelNotIntegrableError,
    ParameterError,
    SingularityError,
)
from .octransform import FunctionSpec, oc_transform_result, transform_grid
from .quad import IntegralResult, QuadConfig, integrate_positive, panel_rule
from .specfun import JacobiParams, log_weight_a

__all__ = ["KernelSpec", "make_kernel", "hausdorff_apply", "commutation_residual"]

_VARIANTS = {
    "hardy",
    "adjoint_hardy",
    "hlp",
    "cesaro",
    "riemann_liouville",
    "power_cutoff",
    "tabulated",
}


@dataclass(frozen=True)
class KernelSpec:
    """A non-negative averaging kernel phi on (0, infinity).

    Variants
    --------
    hardy                     1/t on (1, inf)
    adjoint_hardy             1 on (0, 1)
    hlp                       1/max(1, t) on (0, inf)
    cesaro(gamma_c)           gamma_c (1-t)^(gamma_c - 1) on (0, 1)
    riemann_liouville(mu)     (1 - 1/t)^(mu - 1) / (Gamma(mu) t) on (1, inf)
    power_cutoff(exponent, lo, hi)   t^exponent on (lo, hi)
    tabulated(grid, values)   linear interpolation, zero outside the grid
    """

    variant: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ParameterError(f"unknown kernel variant {self.variant!r}")
        q = self.params
        if self.variant == "cesaro" and not q.get("gamma_c", 0.0) > 0:
            raise ParameterError("cesaro kernel requires gamma_c > 0")
        if self.variant == "riemann_liouville" and not q.get("mu", 0.0) > 0:
            raise ParameterError("riemann_liouville kernel requires mu > 0")
        if self.variant == "power_cutoff":
            lo, hi = q.get("lo", 0.0), q.get("hi", math.inf)
            if not 0.0 <= lo < hi:
                raise ParameterError("power_cutoff needs 0 <= lo < hi")
        if self.variant == "tabulated":
            grid = np.asarray(q["grid"], dtype=float)
            vals = np.asarray(q["values"], dtype=float)
            if grid.ndim != 1 or grid.shape != vals.shape or grid.size < 2:
                raise ParameterError("tabulated kernel needs matching 1-d arrays")
            if not np.all(np.diff(grid) > 0) or grid[0] <= 0:
                raise ParameterError("tabulated grid must be positive increasing")
        self._check_nonnegative()

    def _check_nonnegative(self):
        lo, hi = self.support()
        a, b = max(lo, 1e-9), min(hi, 1e6)
        t = np.geomspace(a * (1 + 1e-12) if a > 0 else 1e-9, b, 101)
        if np.any(self(t) < 0.0):
            raise ParameterError(
                f"kernel {self.variant!r} is negative somewhere on its support"
            )

    def support(self) -> tuple[float, float]:
        if self.variant in ("hardy", "riemann_liouville"):
            return 1.0, math.inf
        if self.variant in ("adjoint_hardy", "cesaro"):
            return 0.0, 1.0
        if self.variant == "hlp":
            return 0.0, math.inf
        if self.variant == "power_cutoff":
            return self.params.get("lo", 0.0), self.params.get("hi", math.inf)
        grid = np.asarray(self.params["grid"], dtype=float)
        return float(grid[0]), float(grid[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.support()
        inside = (t > lo) & (t < hi)
        out = np.zeros(t.shape, dtype=float)
        ti = t[inside]
        if self.variant == "hardy":
            out[inside] = 1.0 / ti
        elif self.variant == "adjoint_hardy":
            out[inside] = 1.0
        elif self.variant == "hlp":
            out[inside] = 1.0 / np.maximum(1.0, ti)
        elif self.variant == "cesaro":
            g = self.params["gamma_c"]
            out[inside] = g * (1.0 - ti) ** (g - 1.0)
        elif self.variant == "riemann_liouville":
            mu = self.params["mu"]
            out[inside] = (1.0 - 1.0 / ti) ** (mu - 1.0) / (math.gamma(mu) * ti)
        elif self.variant == "power_cutoff":
            out[inside] = ti ** self.params["exponent"]
        else:
            grid = np.asarray(self.params["grid"], dtype=float)
            vals = np.asarray(self.params["values"], dtype=float)
            out[inside] = np.interp(ti, grid, vals)
        return out

    def log_abs(self, t):
        """log phi(t), -inf off the support; power_cutoff's exponent * log t
        in closed form, so that t^exponent cannot overflow or underflow."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            if self.variant != "power_cutoff":
                return np.log(self(t))
            lo, hi = self.support()
            return np.where((t > lo) & (t < hi),
                            self.params["exponent"] * np.log(t), -math.inf)

    def l1_status(self, cfg: QuadConfig) -> tuple[str, float | None]:
        """("finite", value) or ("infinite", None) for the integral of phi."""
        try:
            r = integrate_positive(self, *self.support(), cfg)
        except DivergentIntegralError:
            return "infinite", None
        return "finite", float(r.value)

def make_kernel(variant: str, **params) -> KernelSpec:
    """Construct a catalog kernel, e.g. make_kernel("cesaro", gamma_c=2.5)."""
    return KernelSpec(variant, dict(params))


def hausdorff_apply(
    k: KernelSpec, f, p: JacobiParams, x: float, cfg: QuadConfig
) -> float:
    """Value of H f at x (x != 0): the kernel average of f over dilations,
    weighted by the ratio A(x/t)/A(x)."""
    return float(hausdorff_apply_result(k, f, p, x, cfg).value)


def hausdorff_apply_result(
    k: KernelSpec, f, p: JacobiParams, x: float, cfg: QuadConfig
) -> IntegralResult:
    """H f(x) with its quadrature error estimate."""
    if x == 0.0:
        raise SingularityError("hausdorff_apply is undefined at x = 0")
    log_ax = log_weight_a(p, x)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        u = x / t
        fv = np.asarray(f(u), dtype=float)
        out = np.zeros(t.shape, dtype=float)
        live = fv != 0.0
        if np.any(live):
            log_ratio = log_weight_a(p, u[live]) - log_ax
            out[live] = (
                k(t[live]) / t[live] * fv[live] * np.exp(np.minimum(log_ratio, 700.0))
            )
        return out

    return integrate_positive(integrand, *k.support(), cfg)


def hausdorff_log_grid(k: KernelSpec, f, p: JacobiParams, xs, cfg: QuadConfig,
                       include_weight: bool = True):
    """log H f at each x in xs for non-negative f, via a fixed log-spaced
    Gauss-Kronrod grid of 128 panels in t, entirely in log space so that
    weight-cancelling tails (f ~ A^(-1/p)) neither overflow nor underflow.

    Returns (log_vals, rel_err) with log_vals = -inf where H f vanishes.
    ``f`` must provide ``log_abs_decomp`` (see FunctionSpec).

    With ``include_weight=False`` the exact -log A(x) term of log H f is left
    out, so callers that multiply H f by a power of A can combine the
    exponents analytically instead of cancelling two huge floats.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs == 0.0):
        raise SingularityError("hausdorff operator is undefined at x = 0")
    klo, khi = k.support()
    try:
        flo, fhi = f.support()
    except AttributeError:
        flo, fhi = -math.inf, math.inf
    log_vals = np.full(xs.shape, -math.inf)
    rel_err = np.zeros(xs.shape)
    for i, x in enumerate(xs):
        # t-window where f(x/t) can be non-zero (u = x/t is monotone in t)
        if x > 0.0:
            tlo = 0.0 if fhi == math.inf else (x / fhi if fhi > 0 else math.inf)
            thi = math.inf if flo <= 0.0 else x / flo
        else:
            tlo = 0.0 if flo == -math.inf else (x / flo if flo < 0 else math.inf)
            thi = math.inf if fhi >= 0.0 else x / fhi
        # artificial clips scale with |x| so the u = x/t range they admit is
        # x-independent; a fixed floor would cut off the integrand's peak
        # (near t ~ x when f lives at unit scale) for very small or large x
        lo_clip = 1e-8 * min(abs(x), 1.0)
        hi_clip = cfg.truncation_t * max(abs(x), 1.0)
        a = max(klo, tlo, lo_clip)
        b = min(khi, thi, hi_clip)
        if not a < b:
            continue
        # whether the window edges are artificial truncations rather than
        # genuine support boundaries; used for divergence detection below
        clip_lo = a > max(klo, tlo)
        clip_hi = b < min(khi, thi)
        t, wk, wg = panel_rule(np.geomspace(a, b, 129))
        u = x / t
        log_a_x = log_weight_a(p, x)
        plain, a_coeff = f.log_abs_decomp(u)
        plain = np.asarray(plain)
        with np.errstate(divide="ignore"):
            summand = (
                k.log_abs(t) - np.log(t) + plain
                + (a_coeff + 1.0) * log_weight_a(p, u)
            )
        m = float(np.max(summand))
        if not np.isfinite(m):
            continue
        # integrand peaking at an artificially truncated edge with
        # non-negligible magnitude: the t-integral diverges there
        jmax = int(np.argmax(summand))
        if m - log_a_x > -650.0 and (
            (clip_lo and jmax < 15) or (clip_hi and jmax >= summand.size - 15)
        ):
            log_vals[i] = math.inf
            continue
        scaled = np.exp(summand - m)
        sk = float(np.sum(wk * scaled))
        sg = float(np.sum(wg * scaled))
        if sk <= 0.0:
            continue
        log_vals[i] = m + math.log(sk) - (log_a_x if include_weight else 0.0)
        rel_err[i] = abs(sk - sg) / sk
    return log_vals, rel_err


def commutation_residual(
    k: KernelSpec, f: FunctionSpec, p: JacobiParams, lam: float, cfg: QuadConfig
) -> tuple[complex, complex, float]:
    """Diagnostic pair (lhs, rhs, abs_gap) comparing the spectral transform
    of H f at lam with the kernel average of the transform of f at lam*t.

    Requires phi integrable; raises KernelNotIntegrableError otherwise.
    """
    status, _ = k.l1_status(cfg)
    if status != "finite":
        raise KernelNotIntegrableError(
            f"kernel {k.variant!r} is not integrable; the identity assumes it is"
        )

    def hf(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=float)
        for i, xi in enumerate(x):
            if xi != 0.0:
                out[i] = hausdorff_apply(k, f, p, float(xi), cfg)
        return out

    lhs = complex(oc_transform_result(hf, p, lam, cfg).value)

    # rhs: fixed log-spaced panels in t, transform evaluated as one batch
    lo, hi = k.support()
    a = max(lo, 1e-8)
    b = min(hi, cfg.truncation_t)
    t, wk, _ = panel_rule(np.geomspace(a, b, 257))
    u, _ = transform_grid(f, p, lam * t, cfg)
    rhs = complex(np.sum(wk * k(t) * u))
    return lhs, rhs, abs(lhs - rhs)
