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
    k: KernelSpec, f, p: JacobiParams, x, cfg: QuadConfig
) -> IntegralResult:
    """H f(x) with its quadrature error estimate.

    The integrand is formed in log space, as in :func:`hausdorff_log_grid`,
    so that f(x/t) and A(x/t)/A(x) cannot overflow or meet as inf * 0, and it
    takes its sign from f(x/t).  Where the t-integral diverges and f took no
    negative value on the nodes, value and estimate are +inf; a divergence
    where f changed sign has no value and raises DivergentIntegralError.

    An array ``x`` is one adaptive run over the kernel's support, which does
    not depend on x: each x is a component on the shared t mesh, held to its
    own tolerance, and value and estimate have the shape of ``x``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise SingularityError("hausdorff_apply is undefined at x = 0")
    shape = x.shape
    log_ax = log_weight_a(p, x)
    if shape:
        # one row of u = x/t per x
        x, log_ax = x.reshape(-1, 1), log_ax.reshape(-1, 1)
    log_parts = getattr(f, "log_abs_decomp", None)
    # per x: whether f(x/t) was negative at some node
    negative = np.zeros(x.shape[:-1], dtype=bool)

    def integrand(t):
        nonlocal negative
        t = np.asarray(t, dtype=float)
        u = x / t
        fv = np.asarray(f(u), dtype=float)
        negative = negative | (fv < 0.0).any(axis=-1)
        # log f = -inf where f vanishes; an overflow to +inf is divergence
        with np.errstate(divide="ignore", over="ignore"):
            if log_parts is None:
                plain, a_coeff = np.log(np.abs(fv)), 0.0
            else:
                plain, a_coeff = log_parts(u)
            out = np.exp(k.log_abs(t) - np.log(t) + plain
                         + (a_coeff + 1.0) * log_weight_a(p, u) - log_ax)
        return np.copysign(out, fv)

    try:
        r = integrate_positive(integrand, *k.support(), cfg)
    except DivergentIntegralError as exc:
        div = True if exc.mask is None else exc.mask
        if np.any(div & negative):
            raise
        # H f(x) = +inf, as in hausdorff_log_grid
        if not shape:
            return IntegralResult(math.inf, math.inf)
        value, err = np.full(div.shape, math.inf), np.full(div.shape, math.inf)
        if not div.all():  # the other xs in a run of their own
            rest = hausdorff_apply_result(k, f, p, x[~div, 0], cfg)
            value[~div], err[~div] = rest.value, rest.err_estimate
        return IntegralResult(value.reshape(shape), err.reshape(shape))
    if shape:
        r.value, r.err_estimate = r.value.reshape(shape), r.err_estimate.reshape(shape)
    return r


# x nodes per array pass of hausdorff_log_grid: 64 rows of 1920 t nodes keep
# each temporary near 1 MB
_CHUNK_ROWS = 64
_PANELS = 128
# the (7, 15) pair on (-1, 1): its nodes, and its Kronrod and Gauss weights
# as the two columns of one table
_UNIT_NODES = panel_rule([-1.0, 1.0])[0][0]
_KG_WEIGHTS = np.stack(panel_rule([-1.0, 1.0])[1:], axis=-1)[0]


def hausdorff_log_grid(k: KernelSpec, f, p: JacobiParams, xs, cfg: QuadConfig,
                       include_weight: bool = True):
    """log H f at each x in xs for non-negative f, via a fixed log-spaced
    Gauss-Kronrod grid of 128 panels in t, entirely in log space so that
    weight-cancelling tails (f ~ A^(-1/p)) neither overflow nor underflow.

    The x nodes are evaluated together, in chunks of 64: each chunk is one
    array pass over its rows of t nodes, and a row's result does not depend
    on the other x values or on the chunking.

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
    inf = math.inf
    # t-window where f(x/t) can be non-zero (u = x/t is monotone in t)
    pos = xs > 0.0
    tlo = np.where(pos, 0.0 if fhi == inf else (xs / fhi if fhi > 0 else inf),
                   0.0 if flo == -inf else (xs / flo if flo < 0 else inf))
    thi = np.where(pos, inf if flo <= 0.0 else xs / flo,
                   inf if fhi >= 0.0 else xs / fhi)
    # artificial clips scale with |x| so the u = x/t range they admit is
    # x-independent; a fixed floor would cut off the integrand's peak
    # (near t ~ x when f lives at unit scale) for very small or large x
    ax = np.abs(xs)
    a = np.maximum(np.maximum(klo, tlo), 1e-8 * np.minimum(ax, 1.0))
    b = np.minimum(np.minimum(khi, thi), cfg.truncation_t * np.maximum(ax, 1.0))
    # whether the window edges are artificial truncations rather than
    # genuine support boundaries; used for divergence detection below
    clip_lo = a > np.maximum(klo, tlo)
    clip_hi = b < np.minimum(khi, thi)
    log_a_x = log_weight_a(p, xs)
    log_vals = np.full(xs.shape, -inf)
    rel_err = np.zeros(xs.shape)
    rows = np.flatnonzero(a < b)
    edge = _UNIT_NODES.size  # nodes in the first or last panel of a row
    for start in range(0, rows.size, _CHUNK_ROWS):
        r = rows[start:start + _CHUNK_ROWS]
        n = r.size
        edges = np.geomspace(a[r], b[r], _PANELS + 1, axis=-1)
        half = 0.5 * np.diff(edges, axis=-1)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        t = (mid[..., None] + half[..., None] * _UNIT_NODES).ravel()
        u = np.repeat(xs[r], t.size // n) / t
        plain, a_coeff = f.log_abs_decomp(u)
        with np.errstate(divide="ignore"):
            summand = (
                k.log_abs(t) - np.log(t) + np.asarray(plain)
                + (a_coeff + 1.0) * log_weight_a(p, u)
            ).reshape(n, -1)
        jmax = np.argmax(summand, axis=1)
        m = summand[np.arange(n), jmax]
        live = np.isfinite(m)
        # integrand peaking at an artificially truncated edge with
        # non-negligible magnitude: the t-integral diverges there
        divergent = live & (m - log_a_x[r] > -650.0) & (
            (clip_lo[r] & (jmax < edge))
            | (clip_hi[r] & (jmax >= summand.shape[1] - edge)))
        live &= ~divergent
        log_vals[r[divergent]] = inf
        # rows that are not live are dropped below; shifting them by 0
        # keeps their inf - inf out of the exponent
        shift = np.where(live, m, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.exp(summand - shift[:, None]).reshape(n, _PANELS, edge)
            # Kronrod and Gauss sums of each panel against the weight table,
            # then over each row's panels with their half-widths; a reduction
            # along a contiguous last axis sums every row in the same order,
            # however many rows there are
            panel = np.ascontiguousarray((scaled @ _KG_WEIGHTS).transpose(0, 2, 1))
            sk, sg = np.add.reduce(panel * half[:, None, :], axis=-1).T
        good = live & (sk > 0.0)
        rg = r[good]
        log_vals[rg] = (m[good] + np.log(sk[good])
                        - (log_a_x[rg] if include_weight else 0.0))
        rel_err[rg] = np.abs(sk[good] - sg[good]) / sk[good]
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
        nonzero = x != 0.0
        if nonzero.any():
            out[nonzero] = hausdorff_apply_result(k, f, p, x[nonzero], cfg).value
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
