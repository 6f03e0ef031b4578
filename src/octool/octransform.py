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
from .quad import IntegralResult, QuadConfig, integrate, panel_rule
from .specfun import (
    JacobiParams,
    _g_batch,
    _g_odd,
    _phi_batch,
    log_weight_a,
    plancherel_density,
    weight_a,
)

__all__ = [
    "FunctionSpec",
    "oc_transform",
    "oc_transform_result",
    "transform_grid",
    "oc_inverse",
    "oc_inverse_result",
    "apply_jacobi_cherednik",
    "plancherel_residual_detailed",
    "plancherel_residual_doubled",
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
# the families defined by their values; the others by log_abs_decomp
_VALUED = ("bump", "sampled", "zero")
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
        """Whether f(-x) = f(x) for every x, bit for bit: the folds of the
        norms and the transform rest on it, so a family on a half-line or
        an interval, which vanishes on one side of 0 only, is not even."""
        fam = self.family
        if fam == "zero":
            return True
        if self.domain != "real_line":
            return False
        return fam in ("gaussian", "constant_one") or (
            fam == "bump" and self.params.get("center", 0.0) == 0.0)

    def breakpoints(self) -> np.ndarray:
        """Where f jumps or bends inside its support: the nodes of a
        ``sampled`` f, reflected with f, and none for the other families."""
        if self.family != "sampled":
            return np.empty(0)
        xs = np.asarray(self.params["xs"], dtype=float)
        return -xs[::-1] if self.reflect else xs

    # -- evaluation --------------------------------------------------------
    def _coords(self, x):
        """x as a 1-d array in the family's own coordinates (reflected)."""
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        return -xx if self.reflect else xx

    def _restrict(self, xx, out, fill: float):
        """``out`` with ``fill`` outside the declared domain; ``xx`` comes from
        :meth:`_coords`, so the domain is tested in original coordinates."""
        orig = -xx if self.reflect else xx
        if self.domain == "positive_halfline":
            return np.where(orig > 0.0, out, fill)
        if self.domain == "unit_interval":
            return np.where((orig > 0.0) & (orig < 1.0), out, fill)
        return out

    def _extremal(self) -> tuple[float, float, float, float]:
        """(power, lo, hi, root): power_cutoff and the extremal families are
        x^power A(x)^(-1/root) on (lo, hi), with root = inf for power_cutoff."""
        q = self.params
        if self.family == "power_cutoff":
            return q.get("exponent", 0.0), 0.0, 1.0, math.inf
        if self.family == "extremal_eps":
            return -1.0 / q["p"] - q["eps"], 1.0, math.inf, q["p"]
        if self.family == "extremal_zero":
            return -1.0 / q["p"] - 1.0, 1.0, math.inf, q["p"]
        return q["delta"] - 1.0 / q["p"], 0.0, 1.0, q["p"]

    def _value(self, xx):
        """f at ``xx`` from :meth:`_coords`, before the domain restriction,
        for bump, sampled and zero, the families defined by their values."""
        q = self.params
        out = np.zeros_like(xx)
        if self.family == "bump":
            c, w = q.get("center", 0.0), q.get("width", 1.0)
            s = (xx - c) / w
            inside = np.abs(s) < 1.0
            si = s[inside]
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
        elif self.family == "sampled":
            xs = np.asarray(q["xs"], dtype=float)
            ys = np.asarray(q["ys"], dtype=float)
            inside = (xx >= xs[0]) & (xx <= xs[-1])
            if q.get("interp", "linear") == "linear":
                out[inside] = np.interp(xx[inside], xs, ys)
            else:
                idx = np.clip(np.searchsorted(xs, xx[inside], side="right") - 1, 0, xs.size - 1)
                out[inside] = ys[idx]
        return out

    def __call__(self, x):
        if self.family in _VALUED:
            xx = self._coords(x)
            out = self._restrict(xx, self._value(xx), 0.0)
        else:
            out = np.exp(np.atleast_1d(self.log_abs(x)))
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    def log_abs(self, x):
        """log|f(x)| (-inf where f vanishes), evaluable far beyond the
        exp-range of ``__call__`` for the analytic families."""
        plain, root = self.log_abs_decomp(x)
        if root == math.inf:
            return plain
        plain = np.atleast_1d(plain)
        # log A is -inf at x = 0: only points in the support take it
        live = plain > -math.inf
        plain[live] -= log_weight_a(self.jacobi, np.atleast_1d(x)[live]) / root
        if np.ndim(x) == 0:
            return float(plain[0])
        return plain

    def log_abs_decomp(self, x):
        """(plain, root) with log|f(x)| = plain - log A(x) / root.

        The one definition of the analytic families.  The extremal families
        carry the weight power A^(-1/p) and report root = p, so that norm
        integrands cancel it exactly against the measure's own weight; all
        other families carry none and return root = inf.
        """
        xx = self._coords(x)
        fam, q = self.family, self.params
        root = math.inf
        if fam == "gaussian":
            s = q.get("scale", 1.0)
            with np.errstate(over="ignore"):
                plain = -((xx / s) ** 2)
        elif fam == "constant_one":
            plain = np.zeros(xx.shape)
        elif fam in _VALUED:
            with np.errstate(divide="ignore"):
                plain = np.log(np.abs(self._value(xx)))
        else:
            power, lo, hi, root = self._extremal()
            plain = np.full(xx.shape, -math.inf)
            inside = (xx > lo) & (xx < hi)
            plain[inside] = power * np.log(xx[inside])
        plain = self._restrict(xx, plain, -math.inf)
        if np.ndim(x) == 0:
            return float(plain[0]), root
        return plain, root

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

def _support(f, cfg: QuadConfig) -> tuple[float, float]:
    """f's support (the whole line for a plain callable); ParameterError if
    it is not empty and lies wholly past |x| = ``truncation_x``, where the
    cut integral would read 0 with an estimate of 0."""
    lo, hi = f.support() if isinstance(f, FunctionSpec) else (-math.inf, math.inf)
    if lo < hi and (lo >= cfg.truncation_x or hi <= -cfg.truncation_x):
        raise ParameterError(
            f"support ({lo}, {hi}) lies wholly past truncation_x = {cfg.truncation_x}")
    return lo, hi


def oc_transform_result(f, p: JacobiParams, lam: float, cfg: QuadConfig) -> IntegralResult:
    """Transform value with its quadrature error estimate.

    ``f`` may be a :class:`FunctionSpec` (its support bounds the integral) or
    any vectorized callable on the real line.  The integral is cut at |x| =
    ``truncation_x``, and the estimate charges the tail beyond the cut as a
    geometric extrapolation of the last blocks: a bound only where the
    integrand decays past the cut.  A support wholly past the cut raises
    ParameterError.  The breakpoints of a :class:`FunctionSpec` are panel
    edges, so no panel reads across a kink or a jump of f.
    """
    def integrand(x):
        return np.asarray(f(x)) * _g_batch(p, [lam], -np.asarray(x))[0][0] * weight_a(p, x)

    points = f.breakpoints() if isinstance(f, FunctionSpec) else ()
    return integrate(integrand, *_support(f, cfg), cfg, cutoff=cfg.truncation_x,
                     points=points)


def oc_transform(f, p: JacobiParams, lam: float, cfg: QuadConfig) -> complex:
    """Integral of f(x) G_lambda(-x) A(x) over the real line."""
    return complex(oc_transform_result(f, p, lam, cfg).value)


def transform_grid(f, p: JacobiParams, lams, cfg: QuadConfig, reflected: bool = False):
    """Transform of ``f`` at every lambda in ``lams`` on a shared fixed grid.

    Returns (values, err), both shaped like ``lams``.  With G_lambda(+-x) =
    phi_lambda(x) +- o_lambda(x), o the odd part of ``_g_odd``, the integral
    is folded onto x >= 0:

        int f(x) G_lambda(-x) A dx
            = int_0^inf A [(f(x) + f(-x)) phi_lambda - (f(x) - f(-x)) o_lambda] dx,

    on composite Gauss-Kronrod panels over [a, b], b the largest |x| of f's
    support and a = 0 if the support straddles 0 (else its smallest |x|),
    cut at ``truncation_x``.  The panels are common to all lambdas, so each
    series is one (lambda, x) batch; the panel width is chosen against the
    fastest oscillation in the batch.  f is evaluated once on the stacked
    [x; -x] nodes, each half only inside f's support, and the odd part is
    summed only on the nodes where f(x) - f(-x) is not 0: an even f needs
    phi alone.  Intended for smooth, bounded functions (the transform and
    spectral-identity sweeps); a support wholly past the cut raises
    ParameterError.

    With ``reflected``, returns (values, err, r_values, r_err), the last two
    the transform of f(-x), which only swaps f(x) and f(-x) in the fold: it
    adds the odd part's term where f's own subtracts it, from the same
    series.
    """
    lams = np.asarray(lams, dtype=float)
    lo, hi = _support(f, cfg)
    lo = max(lo, -cfg.truncation_x)
    hi = min(hi, cfg.truncation_x)
    if not lo < hi:
        zero = (np.zeros(lams.shape, dtype=complex), np.zeros(lams.shape))
        return zero + zero if reflected else zero
    a = 0.0 if lo < 0.0 < hi else min(abs(lo), abs(hi))
    b = max(abs(lo), abs(hi))
    width = min(0.25, 4.0 / max(1.0, float(np.max(np.abs(lams)))))
    n_panels = max(int(math.ceil((b - a) / width)), 1)
    x, wk, wg = panel_rule(np.linspace(a, b, n_panels + 1))
    nodes = np.concatenate([x.ravel(), -x.ravel()])
    inside = (nodes >= lo) & (nodes <= hi)
    f_inside = np.asarray(f(nodes[inside]))
    fx = np.zeros(nodes.shape, dtype=np.result_type(f_inside, float))
    fx[inside] = f_inside
    f_plus, f_minus = fx.reshape(2, *x.shape)
    w = weight_a(p, x)
    # skip panels where f A vanishes identically on both sides (compact
    # supports, decay)
    size = np.maximum(np.abs(f_plus), np.abs(f_minus)) * w
    keep = np.max(size, axis=1) > 1e-18 * (np.max(size) + 1e-300)
    x, wk, wg = x[keep].ravel(), wk[keep], wg[keep]
    even = ((f_plus + f_minus) * w)[keep].ravel()
    odd = ((f_plus - f_minus) * w)[keep].ravel()
    phi, phi_err = _phi_batch(p, lams.ravel(), x)
    # np.sum adds a strided axis in another order than a contiguous one, so
    # the sums would depend on the layout the series return, not on its values
    h = np.ascontiguousarray(phi * even)
    err = np.ascontiguousarray(np.abs(even) * phi_err)
    folds = [h, h.copy()] if reflected else [h]
    live = np.flatnonzero(odd)
    if live.size:
        o, o_err = _g_odd(p, lams.ravel(), x[live])
        o *= odd[live]
        folds[0][:, live] -= o
        if reflected:
            folds[1][:, live] += o
        err[:, live] += np.abs(odd[live]) * o_err
    sums = []
    for h in folds:
        h = h.reshape(*lams.shape, *wk.shape)
        k_panels = np.sum(h * wk, axis=-1)
        g_panels = np.sum(h * wg, axis=-1)
        sums.append((np.sum(k_panels, axis=-1), np.sum(np.abs(k_panels - g_panels), axis=-1)))
    series_err = np.sum(err.reshape(*lams.shape, *wk.shape) * wk, axis=(-2, -1))
    return tuple(v for vals, quad_err in sums for v in (vals, quad_err + series_err))


def oc_inverse_result(g, p: JacobiParams, x: float, cfg: QuadConfig) -> IntegralResult:
    """Inverse-transform value with error estimate (see :func:`oc_inverse`);
    ``g`` is called on arrays of lambda.

    With K(lambda) = G_lambda(x) density(lambda), G_(-lambda)(x) =
    conj G_lambda(x) and density(-lambda) = conj density(lambda), so both
    halves are one :func:`quad.integrate` run over (lambda_min,
    truncation_lambda) of the components [g(lambda) K, g(-lambda) conj K]:
    each refinement round makes one ``_g_batch`` and one
    ``plancherel_density`` call, on lambda > 0 only.  The estimate is the sum
    of the components' estimates, which charge |g| times G's series bound
    times |density| at every node, plus 2 lambda_min max|integrand(+-lambda_min)|
    for the excised (-lambda_min, lambda_min) window.
    """
    def integrand(lams):
        k, k_err = _g_batch(p, lams, [x])
        dens = plancherel_density(p, lams, lambda_min=cfg.lambda_min / 2.0)
        kd = k[:, 0] * dens
        gs = np.stack([g(lams), g(-lams)])
        return gs * np.stack([kd, np.conj(kd)]), np.abs(gs) * (k_err[:, 0] * np.abs(dens))

    r = integrate(integrand, cfg.lambda_min, cfg.truncation_lambda, cfg)
    probe = np.abs(integrand(np.array([cfg.lambda_min]))[0])
    excised = 2.0 * cfg.lambda_min * float(np.max(probe))
    return IntegralResult(r.value.sum(), r.err_estimate.sum() + excised, r.subdivisions_used)


def oc_inverse(g, p: JacobiParams, x: float, cfg: QuadConfig) -> complex:
    """Integral of g(lambda) G_lambda(x) against the spectral density over
    lambda_min < |lambda| < truncation_lambda.

    ``g`` is called on arrays of lambda (like ``f`` in
    :func:`oc_transform_result`) and must return an array of the same shape.
    """
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

def _lambda_edges(lo: float, hi: float) -> list:
    """The edges of the spectral side's panels over [lo, hi], graded
    because the spectral integrand of a smooth f concentrates at small
    lambda and decays rapidly: the fixed edges inside (lo, hi), then steps
    of x1.5 up to hi."""
    lam_edges = [lo]
    for e in (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
              8.0, 12.0, 16.0, 24.0, 32.0):
        if lo < e < hi:
            lam_edges.append(e)
    while lam_edges[-1] < hi:
        lam_edges.append(min(lam_edges[-1] * 1.5, hi))
    return lam_edges


def _spectral_band(f: FunctionSpec, p: JacobiParams, lam_edges, cfg: QuadConfig):
    """The spectral side of the energy identity over the Gauss-Kronrod
    panels on ``lam_edges``: (share, err, k_panels, panel_peak, first), with
    share its part of rhs, twice the real Kronrod sum of the integrand
    u v density, k_panels that sum per panel, panel_peak the largest
    |integrand| of each panel, 0 where every node was dropped, and first
    |integrand| at the lowest node.

    u and v are the transforms of f and of its reflection, from one fold
    (one and the same for an even f); for real f the +-lambda halves pair conjugately, conj(v(-lambda)) =
    v(lambda).  Transform values buried inside their own series-error bound
    are pure cancellation noise and are dropped before summing.  err sums
    the panels' |Kronrod - Gauss|, the series bounds of u and v weighted by
    the Kronrod rule, and the charge for the dropped noise: within a panel
    that still has resolved nodes, the true integrand at a dropped node is
    at the level of its resolved neighbours (the same smoothness assumption
    quadrature makes), so the panel's peak resolved level is charged over
    the dropped weight."""
    lam, wk, wg = panel_rule(lam_edges)
    if f.is_even:
        u, u_err = transform_grid(f, p, lam, cfg)
        v, v_err = u, u_err
    else:
        u, u_err, v, v_err = transform_grid(f, p, lam, cfg, reflected=True)
    dens = plancherel_density(p, lam, lambda_min=cfg.lambda_min / 2.0)
    noisy = (np.abs(u) <= 10.0 * u_err) | (np.abs(v) <= 10.0 * v_err)
    u = np.where(noisy, 0.0, u)
    v = np.where(noisy, 0.0, v)
    integrand = u * v * dens
    share = 2.0 * float(np.sum(wk * integrand).real)
    k_panels = np.sum(wk * integrand, axis=1)
    quad_err = float(np.sum(np.abs(k_panels - np.sum(wg * integrand, axis=1))))
    inner_err = float(
        np.sum(wk * np.abs(dens) * (u_err * np.abs(v) + v_err * np.abs(u)))
    )
    panel_peak = np.abs(integrand).max(axis=1)
    noise_charge = float(
        np.sum(panel_peak * np.sum(np.where(noisy, wk, 0.0), axis=1))
    )
    err = quad_err + inner_err + noise_charge
    return share, err, k_panels, panel_peak, float(np.abs(integrand[0, 0]))


def plancherel_residual_detailed(
    f: FunctionSpec, p: JacobiParams, cfg: QuadConfig
) -> tuple[float, complex, float, float]:
    """(lhs, rhs, rel_gap, err_estimate) for the energy identity.

    lhs = integral of |f|^2 A over x; rhs = integral of u(lam) * conj(v(-lam))
    against the spectral density, where u, v are the transforms of f and of
    its reflection.  For real f the integrand pairs conjugately in +-lambda,
    so the spectral integral is evaluated as twice the real part over
    lambda > 0, by :func:`_spectral_band` over (lambda_min,
    truncation_lambda].
    """
    def sq(x):
        v = np.asarray(f(x))
        return v * v * weight_a(p, x)

    lhs_res = integrate(sq, *_support(f, cfg), cfg, cutoff=cfg.truncation_x)
    lhs = float(lhs_res.value)
    if lhs == 0.0:
        return 0.0, 0.0 + 0.0j, 0.0, 0.0

    share, band_err, k_panels, panel_peak, first = _spectral_band(
        f, p, _lambda_edges(cfg.lambda_min, cfg.truncation_lambda), cfg)
    rhs = share + 0.0j
    # Panels with no resolved node at all lie beyond the point where the data
    # says anything; together with the lambda > Lambda truncation they are
    # covered by a geometric-decay extrapolation of the last two resolved
    # panel masses.
    panel_mass = np.abs(k_panels)
    resolved = np.flatnonzero(panel_peak > 0.0)
    tail = 0.0
    if resolved.size >= 2:
        last, prev = float(panel_mass[resolved[-1]]), float(panel_mass[resolved[-2]])
        # floor the ratio: stretched-exponential decay slows down, so the
        # observed panel-to-panel ratio can understate the remaining mass
        ratio = min(max(last / prev, 0.5), 0.9) if prev > 0 else 0.9
        tail = last * ratio / (1.0 - ratio)
    excised = 2.0 * cfg.lambda_min * first
    spectral_err = 2.0 * (band_err + tail) + excised
    rel_gap = abs(lhs - rhs) / lhs
    return lhs, rhs, rel_gap, lhs_res.err_estimate + spectral_err


def plancherel_residual_doubled(
    f: FunctionSpec, p: JacobiParams, cfg: QuadConfig
) -> tuple[float, complex, float, float, float]:
    """:func:`plancherel_residual_detailed`'s (lhs, rhs, rel_gap,
    err_estimate) and the rel_gap at a doubled cut 2 truncation_lambda,
    whose rhs adds to rhs the band (Lambda, 2 Lambda] alone, on the panels
    :func:`_lambda_edges` lays there, instead of transforming every node
    below Lambda again."""
    lhs, rhs, rel_gap, err = plancherel_residual_detailed(f, p, cfg)
    if lhs == 0.0:
        return lhs, rhs, rel_gap, err, 0.0
    lam = cfg.truncation_lambda
    band = _spectral_band(f, p, _lambda_edges(lam, 2.0 * lam), cfg)[0]
    return lhs, rhs, rel_gap, err, abs(lhs - (rhs + band)) / lhs
