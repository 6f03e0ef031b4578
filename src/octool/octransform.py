"""Integral transform against the Jacobi-Cherednik eigenfunctions.

Forward and inverse transforms, numerical application of the
differential-difference operator, the Plancherel-identity residual, and the
catalog of evaluable test functions (:class:`FunctionSpec`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SingularityError
from .quad import (
    _NODES,
    _WG15,
    _WK,
    IntegralResult,
    QuadConfig,
    integrate_finite,
    integrate_real_line,
    integrate_to_infinity,
    integrate_to_zero,
)
from .specfun import (
    JacobiParams,
    _g_array,
    _g_batch,
    eigenfunction_g,
    log_weight_a,
    plancherel_density,
    weight_a,
)

__all__ = [
    "FunctionSpec",
    "oc_transform",
    "oc_transform_result",
    "oc_inverse",
    "apply_jacobi_cherednik",
    "plancherel_residual",
]

_FAMILIES = {
    "gaussian",
    "bump",
    "power_cutoff",
    "extremal_eps",
    "extremal_delta",
    "extremal_zero",
    "constant_one",
    "sampled",
    "zero",
}
_DOMAINS = {"real_line", "positive_halfline", "unit_interval"}


@dataclass(frozen=True)
class FunctionSpec:
    """An evaluable test function: a named family plus its parameters.

    Families
    --------
    gaussian(scale)        exp(-(x/scale)^2) on the real line
    bump(center, width)    smooth, compactly supported on (center-width, center+width)
    power_cutoff(exponent) x^exponent on (0, 1)
    extremal_eps(p, eps)   x^(-1/p-eps) A(x)^(-1/p) on (1, inf)     [needs jacobi]
    extremal_delta(p, delta) x^(delta-1/p) A(x)^(-1/p) on (0, 1)    [needs jacobi]
    extremal_zero(p)       x^(-1/p-1) A(x)^(-1/p) on (1, inf)       [needs jacobi]
    constant_one           1 on its domain
    sampled                interpolation of (x, value) pairs; rule "linear" or
                           "previous" (left-continuous step)
    zero                   identically 0

    Evaluation returns 0 outside the family's support and outside ``domain``.
    ``reflect=True`` evaluates the reflection f(-x).
    """

    family: str
    domain: str = "real_line"
    params: dict = field(default_factory=dict)
    jacobi: JacobiParams | None = None
    reflect: bool = False

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        if self.domain not in _DOMAINS:
            raise ParameterError(f"unknown domain {self.domain!r}")
        q = self.params
        if self.family == "gaussian" and not q.get("scale", 1.0) > 0:
            raise ParameterError("gaussian scale must be positive")
        if self.family == "bump" and not q.get("width", 1.0) > 0:
            raise ParameterError("bump width must be positive")
        if self.family == "extremal_eps":
            if not 0 < q["eps"] < 1:
                raise ParameterError("extremal_eps requires 0 < eps < 1")
            if not q["p"] > 0:
                raise ParameterError("extremal_eps requires p > 0")
        if self.family == "extremal_delta":
            if not q["p"] > 0 or not 0 < q["delta"] < 1.0 / q["p"]:
                raise ParameterError("extremal_delta requires 0 < delta < 1/p")
        if self.family == "extremal_zero" and not 0 < q["p"] < 1:
            raise ParameterError("extremal_zero requires 0 < p < 1")
        if self.family.startswith("extremal") and self.jacobi is None:
            raise ParameterError(f"{self.family} requires jacobi parameters")
        if self.family == "sampled":
            xs = np.asarray(q["xs"], dtype=float)
            ys = np.asarray(q["ys"], dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
                raise ParameterError("sampled needs matching 1-d xs/ys, size >= 2")
            if not np.all(np.diff(xs) > 0):
                raise ParameterError("sampled grid must be strictly increasing")
            if q.get("interp", "linear") not in ("linear", "previous"):
                raise ParameterError("sampled interp must be 'linear' or 'previous'")

    # -- support -----------------------------------------------------------
    def support(self) -> tuple[float, float]:
        """Open interval outside which the function vanishes."""
        fam, q = self.family, self.params
        if fam == "gaussian":
            lo, hi = -math.inf, math.inf
        elif fam == "bump":
            c, w = q.get("center", 0.0), q.get("width", 1.0)
            lo, hi = c - w, c + w
        elif fam in ("power_cutoff", "extremal_delta"):
            lo, hi = 0.0, 1.0
        elif fam in ("extremal_eps", "extremal_zero"):
            lo, hi = 1.0, math.inf
        elif fam == "sampled":
            xs = np.asarray(q["xs"], dtype=float)
            lo, hi = float(xs[0]), float(xs[-1])
        elif fam == "zero":
            return 0.0, 0.0
        else:  # constant_one
            lo, hi = -math.inf, math.inf
        if self.reflect:
            lo, hi = -hi, -lo
        dlo, dhi = {
            "real_line": (-math.inf, math.inf),
            "positive_halfline": (0.0, math.inf),
            "unit_interval": (0.0, 1.0),
        }[self.domain]
        return max(lo, dlo), min(hi, dhi)

    @property
    def is_even(self) -> bool:
        fam, q = self.family, self.params
        if fam == "gaussian":
            return True
        if fam == "constant_one" and self.domain == "real_line":
            return True
        if fam == "bump" and q.get("center", 0.0) == 0.0:
            return True
        if fam == "zero":
            return True
        return False

    # -- evaluation --------------------------------------------------------
    def __call__(self, x):
        xx = np.asarray(x, dtype=float)
        scalar = xx.ndim == 0
        xx = np.atleast_1d(xx).copy()
        if self.reflect:
            xx = -xx
        fam, q = self.family, self.params
        out = np.zeros_like(xx)
        if fam == "gaussian":
            s = q.get("scale", 1.0)
            out = np.exp(-((xx / s) ** 2))
        elif fam == "bump":
            c, w = q.get("center", 0.0), q.get("width", 1.0)
            s = (xx - c) / w
            inside = np.abs(s) < 1.0
            si = s[inside]
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
        elif fam == "power_cutoff":
            a = q.get("exponent", 0.0)
            inside = (xx > 0.0) & (xx < 1.0)
            out[inside] = xx[inside] ** a
        elif fam in ("extremal_eps", "extremal_delta", "extremal_zero"):
            p_exp = q["p"]
            if fam == "extremal_eps":
                power, lo, hi = -1.0 / p_exp - q["eps"], 1.0, math.inf
            elif fam == "extremal_zero":
                power, lo, hi = -1.0 / p_exp - 1.0, 1.0, math.inf
            else:
                power, lo, hi = q["delta"] - 1.0 / p_exp, 0.0, 1.0
            inside = (xx > lo) & (xx < hi)
            xi = xx[inside]
            out[inside] = np.exp(
                power * np.log(xi) - log_weight_a(self.jacobi, xi) / p_exp
            )
        elif fam == "constant_one":
            out = np.ones_like(xx)
        elif fam == "sampled":
            xs = np.asarray(q["xs"], dtype=float)
            ys = np.asarray(q["ys"], dtype=float)
            inside = (xx >= xs[0]) & (xx <= xs[-1])
            if q.get("interp", "linear") == "linear":
                out[inside] = np.interp(xx[inside], xs, ys)
            else:
                idx = np.clip(np.searchsorted(xs, xx[inside], side="right") - 1, 0, xs.size - 1)
                out[inside] = ys[idx]
        # restrict to the declared domain (in original coordinates)
        orig = -xx if self.reflect else xx
        if self.domain == "positive_halfline":
            out = np.where(orig > 0.0, out, 0.0)
        elif self.domain == "unit_interval":
            out = np.where((orig > 0.0) & (orig < 1.0), out, 0.0)
        if scalar:
            return float(out[0])
        return out

    def log_abs(self, x):
        """log|f(x)| (-inf where f vanishes), evaluable far beyond the
        exp-range of ``__call__`` for the analytic families."""
        xx = np.atleast_1d(np.asarray(x, dtype=float)).copy()
        if self.reflect:
            xx = -xx
        fam, q = self.family, self.params
        out = np.full(xx.shape, -math.inf)
        if fam == "gaussian":
            s = q.get("scale", 1.0)
            with np.errstate(over="ignore"):
                out = -np.minimum((xx / s) ** 2, math.inf)
        elif fam == "power_cutoff":
            a = q.get("exponent", 0.0)
            inside = (xx > 0.0) & (xx < 1.0)
            out[inside] = a * np.log(xx[inside])
        elif fam in ("extremal_eps", "extremal_delta", "extremal_zero"):
            p_exp = q["p"]
            if fam == "extremal_eps":
                power, lo, hi = -1.0 / p_exp - q["eps"], 1.0, math.inf
            elif fam == "extremal_zero":
                power, lo, hi = -1.0 / p_exp - 1.0, 1.0, math.inf
            else:
                power, lo, hi = q["delta"] - 1.0 / p_exp, 0.0, 1.0
            inside = (xx > lo) & (xx < hi)
            xi = xx[inside]
            out[inside] = power * np.log(xi) - log_weight_a(self.jacobi, xi) / p_exp
        elif fam == "constant_one":
            out = np.zeros(xx.shape)
        else:
            with np.errstate(divide="ignore"):
                out = np.log(np.abs(np.atleast_1d(self(np.asarray(x, dtype=float)))))
            if np.ndim(x) == 0:
                return float(out[0])
            return out
        orig = -xx if self.reflect else xx
        if self.domain == "positive_halfline":
            out = np.where(orig > 0.0, out, -math.inf)
        elif self.domain == "unit_interval":
            out = np.where((orig > 0.0) & (orig < 1.0), out, -math.inf)
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    def log_abs_decomp(self, x):
        """(plain, a_coeff) with log|f(x)| = plain + a_coeff * log A(x).

        The families built from a power of the weight report the exponent
        symbolically so norm integrands can cancel it exactly against the
        measure's own weight; all other families return a_coeff = 0.
        """
        if self.family not in ("extremal_eps", "extremal_delta", "extremal_zero"):
            return self.log_abs(x), 0.0
        xx = np.atleast_1d(np.asarray(x, dtype=float)).copy()
        if self.reflect:
            xx = -xx
        q = self.params
        p_exp = q["p"]
        if self.family == "extremal_eps":
            power, lo, hi = -1.0 / p_exp - q["eps"], 1.0, math.inf
        elif self.family == "extremal_zero":
            power, lo, hi = -1.0 / p_exp - 1.0, 1.0, math.inf
        else:
            power, lo, hi = q["delta"] - 1.0 / p_exp, 0.0, 1.0
        out = np.full(xx.shape, -math.inf)
        inside = (xx > lo) & (xx < hi)
        out[inside] = power * np.log(xx[inside])
        orig = -xx if self.reflect else xx
        if self.domain == "positive_halfline":
            out = np.where(orig > 0.0, out, -math.inf)
        elif self.domain == "unit_interval":
            out = np.where((orig > 0.0) & (orig < 1.0), out, -math.inf)
        if np.ndim(x) == 0:
            return float(out[0]), -1.0 / p_exp
        return out, -1.0 / p_exp

    def weight_root(self) -> float:
        """q such that |f| carries the weight factor A^(-1/q) of
        :meth:`log_abs_decomp` (a_coeff = -1/q); inf when it carries none.
        Norm integrands use it to cancel the weight exponent exactly."""
        if self.family in ("extremal_eps", "extremal_delta", "extremal_zero"):
            return self.params["p"]
        return math.inf

    def reflected(self) -> "FunctionSpec":
        """The reflection x -> f(-x)."""
        return FunctionSpec(
            self.family, self.domain, dict(self.params), self.jacobi,
            not self.reflect,
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        d = {"family": self.family, "domain": self.domain, "reflect": self.reflect}
        params = {
            k: (list(np.asarray(v, dtype=float)) if k in ("xs", "ys") else v)
            for k, v in self.params.items()
        }
        d["params"] = params
        if self.jacobi is not None:
            d["jacobi"] = {"alpha": self.jacobi.alpha, "beta": self.jacobi.beta}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSpec":
        jac = d.get("jacobi")
        return cls(
            d["family"],
            d.get("domain", "real_line"),
            dict(d.get("params", {})),
            JacobiParams(jac["alpha"], jac["beta"]) if jac else None,
            bool(d.get("reflect", False)),
        )


# ---------------------------------------------------------------------------
# forward / inverse transform

def _integrate_support(integrand, lo: float, hi: float, cfg: QuadConfig,
                       cutoff: float) -> IntegralResult:
    """Integrate over (lo, hi) splitting at 0 and truncating infinite ends."""
    total = IntegralResult(0.0, 0.0, 0)
    pieces: list[tuple[float, float]] = []
    if lo < 0.0 < hi:
        pieces = [(lo, 0.0), (0.0, hi)]
    elif lo < hi:
        pieces = [(lo, hi)]
    for a, b in pieces:
        if a == -math.inf:
            r = integrate_to_infinity(lambda s: integrand(-s), -b, cfg, cutoff=cutoff)
        elif b == math.inf:
            r = integrate_to_infinity(integrand, a, cfg, cutoff=cutoff)
        elif a == 0.0:
            r = integrate_to_zero(integrand, b, cfg)
        elif b == 0.0:
            r = integrate_to_zero(lambda s: integrand(-s), -a, cfg)
        else:
            r = integrate_finite(integrand, a, b, cfg)
        total = total + r
    return total


def oc_transform_result(f, p: JacobiParams, lam: float, cfg: QuadConfig) -> IntegralResult:
    """Transform value with its quadrature error estimate.

    ``f`` may be a :class:`FunctionSpec` (its support bounds the integral) or
    any vectorized callable on the real line.
    """
    def integrand(x):
        return np.asarray(f(x)) * _g_array(p, lam, -np.asarray(x)) * weight_a(p, x)

    if isinstance(f, FunctionSpec):
        lo, hi = f.support()
        lo = max(lo, -cfg.truncation_x) if lo != -math.inf else -math.inf
        hi = min(hi, cfg.truncation_x) if hi != math.inf else math.inf
    else:
        lo, hi = -math.inf, math.inf
    return _integrate_support(integrand, lo, hi, cfg, cutoff=cfg.truncation_x)


def oc_transform(f, p: JacobiParams, lam: float, cfg: QuadConfig) -> complex:
    """Integral of f(x) G_lambda(-x) A(x) over the real line."""
    return complex(oc_transform_result(f, p, lam, cfg).value)


def _panel_nodes(lo: float, hi: float, width: float):
    """Composite 15-point panels covering (lo, hi): nodes, weights shaped
    (panels, 15) for the Kronrod rule and the embedded Gauss rule."""
    n_panels = max(int(math.ceil((hi - lo) / width)), 1)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    wk = half[:, None] * _WK[None, :]
    wg = half[:, None] * _WG15[None, :]
    return x, wk, wg


def transform_grid(f, p: JacobiParams, lams, cfg: QuadConfig):
    """Transform of ``f`` at every lambda in ``lams`` on a shared fixed grid.

    Returns (values (n,), err (n,)).  The spatial integral uses composite
    Gauss-Kronrod panels common to all lambdas so the eigenfunction series
    can be evaluated as one (lambda, x) batch; the panel width is chosen
    against the fastest oscillation in the batch.  Intended for smooth,
    bounded functions (the transform and spectral-identity sweeps).
    """
    lams = np.asarray(lams, dtype=float)
    lo, hi = f.support() if isinstance(f, FunctionSpec) else (-math.inf, math.inf)
    lo = max(lo, -cfg.truncation_x)
    hi = min(hi, cfg.truncation_x)
    if not lo < hi:
        z = np.zeros(lams.shape, dtype=complex)
        return z, np.zeros(lams.shape)
    width = min(0.25, 4.0 / max(1.0, float(np.max(np.abs(lams)))))
    x, wk, wg = _panel_nodes(lo, hi, width)
    fa = np.asarray(f(x.ravel())).reshape(x.shape) * weight_a(p, x)
    # skip panels where f A vanishes identically (compact supports, decay)
    keep = np.max(np.abs(fa), axis=1) > 1e-18 * (np.max(np.abs(fa)) + 1e-300)
    x, wk, wg, fa = x[keep], wk[keep], wg[keep], fa[keep]
    g, g_err = _g_batch(p, lams, -x.ravel())
    n = lams.shape[0]
    g = g.reshape(n, *x.shape)
    g_err = g_err.reshape(n, *x.shape)
    k_panels = np.sum(g * (fa * wk)[None, :, :], axis=2)
    g_panels = np.sum(g * (fa * wg)[None, :, :], axis=2)
    vals = np.sum(k_panels, axis=1)
    quad_err = np.sum(np.abs(k_panels - g_panels), axis=1)
    series_err = np.sum(np.abs(fa * wk)[None, :, :] * g_err, axis=(1, 2))
    return vals, quad_err + series_err


def oc_inverse_result(g, p: JacobiParams, x: float, cfg: QuadConfig) -> IntegralResult:
    """Inverse-transform value with error estimate (see :func:`oc_inverse`)."""
    def integrand(lams):
        lams = np.atleast_1d(lams)
        vals = np.empty(lams.shape, dtype=complex)
        for i, lam in enumerate(lams):
            vals[i] = (
                g(lam)
                * eigenfunction_g(p, lam, x)
                * plancherel_density(p, lam, lambda_min=cfg.lambda_min / 2.0)
            )
        return vals

    pos = integrate_finite(integrand, cfg.lambda_min, cfg.truncation_lambda, cfg)
    neg = integrate_finite(integrand, -cfg.truncation_lambda, -cfg.lambda_min, cfg)
    total = pos + neg
    # bound the mass of the excised (-lambda_min, lambda_min) window
    probe = np.abs(integrand(np.array([cfg.lambda_min, -cfg.lambda_min])))
    total.err_estimate += 2.0 * cfg.lambda_min * float(np.max(probe))
    return total


def oc_inverse(g, p: JacobiParams, x: float, cfg: QuadConfig) -> complex:
    """Integral of g(lambda) G_lambda(x) against the spectral density over
    lambda_min < |lambda| < truncation_lambda."""
    return complex(oc_inverse_result(g, p, x, cfg).value)


# ---------------------------------------------------------------------------
# differential-difference operator

def apply_jacobi_cherednik(f, p: JacobiParams, x: float, h: float = 1e-4) -> complex:
    """First derivative plus hyperbolic-cotangent reflection terms:

        f'(x) + [(2a+1) coth x + (2b+1) tanh x] (f(x) - f(-x)) / 2 - rho f(-x)

    with a central-difference derivative of step ``h``.
    """
    if not h > 0:
        raise ParameterError("step h must be positive")
    if abs(x) < 10.0 * h:
        raise SingularityError(
            f"x = {x} too close to the coth singularity for step {h}"
        )
    deriv = (f(x + h) - f(x - h)) / (2.0 * h)
    coef = (2.0 * p.alpha + 1.0) / math.tanh(x) + (2.0 * p.beta + 1.0) * math.tanh(x)
    fx, fmx = f(x), f(-x)
    return deriv + coef * 0.5 * (fx - fmx) - p.rho * fmx


# ---------------------------------------------------------------------------
# Plancherel residual

def plancherel_residual(
    f: FunctionSpec, p: JacobiParams, cfg: QuadConfig
) -> tuple[float, complex, float]:
    """(lhs, rhs, rel_gap) for the energy identity."""
    lhs, rhs, rel_gap, _ = plancherel_residual_detailed(f, p, cfg)
    return lhs, rhs, rel_gap


def plancherel_residual_detailed(
    f: FunctionSpec, p: JacobiParams, cfg: QuadConfig
) -> tuple[float, complex, float, float]:
    """(lhs, rhs, rel_gap, err_estimate) for the energy identity.

    lhs = integral of |f|^2 A over x; rhs = integral of u(lam) * conj(v(-lam))
    against the spectral density, where u, v are the transforms of f and of
    its reflection.  For real f the integrand pairs conjugately in +-lambda,
    so the spectral integral is evaluated as twice the real part over
    lambda > 0.
    """
    lo, hi = f.support()

    def sq(x):
        v = np.asarray(f(x))
        return v * v * weight_a(p, x)

    lhs_res = _integrate_support(sq, max(lo, -cfg.truncation_x) if lo != -math.inf else lo,
                                 min(hi, cfg.truncation_x) if hi != math.inf else hi,
                                 cfg, cutoff=cfg.truncation_x)
    lhs = float(lhs_res.value)
    if lhs == 0.0:
        return 0.0, 0.0 + 0.0j, 0.0, 0.0

    frev = f.reflected()
    even = f.is_even

    # lambda panels, graded: the spectral integrand concentrates at small
    # lambda and decays rapidly (smooth f)
    lam_edges = [cfg.lambda_min]
    for e in (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
              8.0, 12.0, 16.0, 24.0, 32.0):
        if e < cfg.truncation_lambda:
            lam_edges.append(e)
    while lam_edges[-1] < cfg.truncation_lambda:
        lam_edges.append(min(lam_edges[-1] * 1.5, cfg.truncation_lambda))
    edges = np.asarray(lam_edges)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    lam = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    wk = (half[:, None] * _WK[None, :]).ravel()
    wg = (half[:, None] * _WG15[None, :]).ravel()

    u, u_err = transform_grid(f, p, lam, cfg)
    if even:
        v, v_err = u, u_err
    else:
        v, v_err = transform_grid(frev, p, lam, cfg)
    dens = np.array(
        [plancherel_density(p, la, lambda_min=cfg.lambda_min / 2.0) for la in lam]
    )
    # conj(v(-lam)) = v(lam) for real f; the +-lambda halves pair conjugately.
    # Transform values buried inside their own series-error bound are pure
    # cancellation noise; drop them before summing.
    noisy = (np.abs(u) <= 10.0 * u_err) | (np.abs(v) <= 10.0 * v_err)
    u = np.where(noisy, 0.0, u)
    v = np.where(noisy, 0.0, v)
    integrand = u * v * dens
    rhs = 2.0 * float(np.sum(wk * integrand).real) + 0.0j
    n_panel = len(edges) - 1
    quad_err = sum(
        abs(np.sum((wk * integrand)[i * 15:(i + 1) * 15])
            - np.sum((wg * integrand)[i * 15:(i + 1) * 15]))
        for i in range(n_panel)
    )
    inner_err = float(
        np.sum(wk * np.abs(dens) * (u_err * np.abs(v) + v_err * np.abs(u)))
    )
    # Error charged for the dropped noise: within a panel that still has
    # resolved nodes, the true integrand at a dropped node is at the level of
    # its resolved neighbours (the same smoothness assumption quadrature
    # makes), so charge the panel's peak resolved level over the dropped
    # weight.  Panels with no resolved node at all lie beyond the point where
    # the data says anything; together with the lambda > Lambda truncation
    # they are covered by a geometric-decay extrapolation of the last two
    # resolved panel masses.
    dens_kept = np.abs(integrand).reshape(-1, 15)
    wk_p = wk.reshape(-1, 15)
    noisy_p = noisy.reshape(-1, 15)
    panel_peak = dens_kept.max(axis=1)
    noise_charge = float(
        np.sum(panel_peak * np.sum(np.where(noisy_p, wk_p, 0.0), axis=1))
    )
    resolved = np.flatnonzero(panel_peak > 0.0)
    tail = 0.0
    if resolved.size >= 2:
        panel_mass = np.abs(np.sum((wk * integrand).reshape(-1, 15), axis=1))
        last, prev = float(panel_mass[resolved[-1]]), float(panel_mass[resolved[-2]])
        # floor the ratio: stretched-exponential decay slows down, so the
        # observed panel-to-panel ratio can understate the remaining mass
        ratio = min(max(last / prev, 0.5), 0.9) if prev > 0 else 0.9
        tail = last * ratio / (1.0 - ratio)
    excised = 2.0 * cfg.lambda_min * float(np.abs(integrand[0]))
    spectral_err = 2.0 * (quad_err + inner_err + noise_charge + tail) + excised
    rel_gap = abs(lhs - rhs) / lhs
    return lhs, rhs, rel_gap, lhs_res.err_estimate + spectral_err
