"""Integral transform against the Jacobi-Cherednik eigenfunctions.

Forward and inverse transforms, numerical application of the
differential-difference operator, the Plancherel-identity residual, and the
catalog of evaluable test functions (:class:`FunctionSpec`).  The batched
forward transform, :func:`transform_grid`, follows Koornwinder's
factorisation of the Jacobi transform (1984): an Abel transform of f, free of
lambda and on s panels sized by it alone, then Filon's cosine rule (1928)
for every lambda, so no Jacobi series in lambda is summed and one Abel
transform serves every lambda of a call chain.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SingularityError
from .quad import IntegralResult, QuadConfig, integrate, panel_rule
from .specfun import (
    _ROUND,
    JacobiParams,
    _g_batch,
    _mehler_kernel,
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
    edges, so no panel reads across a kink or a jump of f.  G's bound enters
    as each node's inner error, |f| A times it, as in
    :func:`oc_inverse_result`.
    """
    def integrand(x):
        fa = np.asarray(f(x)) * weight_a(p, x)
        g, g_err = _g_batch(p, [lam], -np.asarray(x))
        return fa * g[0], np.abs(fa) * g_err[0]

    points = f.breakpoints() if isinstance(f, FunctionSpec) else ()
    return integrate(integrand, *_support(f, cfg), cfg, cutoff=cfg.truncation_x,
                     points=points)


def oc_transform(f, p: JacobiParams, lam: float, cfg: QuadConfig) -> complex:
    """Integral of f(x) G_lambda(-x) A(x) over the real line."""
    return complex(oc_transform_result(f, p, lam, cfg).value)


# the (7, 15) pair on (-1, 1): nodes, Kronrod and Gauss weights
_UNIT, _UNIT_WK, _UNIT_WG = (w[0] for w in panel_rule([-1.0, 1.0]))
# an Abel panel is bisected while its |Kronrod - Gauss| exceeds this share of
# its component's mean |F| under the s rule, for at most _ABEL_ROUNDS rounds
_ABEL_RTOL = 1e-11
# an s panel is bisected while the integral of |P15 - P7| over it, P15 and P7
# F's interpolants on its Kronrod and its Gauss nodes, exceeds this share of
# F's mass (the odd half of each weighted by its largest 4 |c_lambda|)
_S_RTOL = 1e-9
_ABEL_ROUNDS = 24
# the width of the s panels before any is bisected
_S_WIDTH = 0.25
# cos(lambda s) cells per block of the cosine step, a megabyte
_COSINE_CELLS = 1 << 17
# f against the Abel weight below this share of its peak on an s panel and
# every panel after it: the integrals end before that panel
_NEGLIGIBLE = 1e-18


def _gauss_legendre(m: int):
    """The m-point Gauss-Legendre rule on (-1, 1): the roots of P_m by
    Newton's method from Tricomi's (1 - (m - 1) / (8 m^3)) cos(pi (i - 1/4)
    / (m + 1/2)), P_m and P_m' by the three-term recurrence, and the weights
    2 / ((1 - x^2) P_m'(x)^2).  No LAPACK call, whose buffers would add a
    megabyte and a half to the resident memory of every process."""
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5)) * (1.0 - (m - 1.0) / (8.0 * m ** 3))
    step = np.ones(m)
    for _ in range(100):
        p_prev, p = np.ones(m), x
        for k in range(2, m + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = m * (x * p - p_prev) / (x * x - 1.0)
        if np.max(np.abs(step)) <= 1e-15:
            break
        step = p / slope
        x = x - step
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _lagrange(nodes, v):
    """The Lagrange basis of ``nodes`` at the points v: (v.size, nodes.size)."""
    own = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(own, 1.0)
    ratio = (v[:, None, None] - nodes[None, None, :]) / own
    diag = np.arange(nodes.size)
    ratio[:, diag, diag] = 1.0
    return np.prod(ratio, axis=-1)


def _filon_rule(v, w):
    """A fine rule (v, w) on (-1, 1) with the matrices that take F at the 15
    Kronrod nodes to P15 and to P15 - P7 at its nodes, each times w."""
    p15 = _lagrange(_UNIT, v)
    p7 = np.zeros(p15.shape)
    gauss = _UNIT_WG > 0.0
    p7[:, gauss] = _lagrange(_UNIT[gauss], v)
    rule = v, w[:, None] * p15, w[:, None] * (p15 - p7)
    for a in rule:
        a.flags.writeable = False
    return rule


# Filon's rule: the cosine integral of F's interpolants on an s panel, taken
# on a Gauss rule of m points, exact to rounding for cos(omega v) times a
# polynomial of degree 14 while omega, lambda times the panel's half-width
# (in s), is at most the cap: (m, cap)
_FILON_SIZES = ((16, 2.0), (20, 6.0), (24, 10.0), (32, 20.0), (64, 70.0))


def _filon_level(omega):
    """The Filon rule for the phases ``omega``: the index into _FILON_SIZES
    of the smallest rule whose cap covers each, or past the largest cap,
    len(_FILON_SIZES) - 2 + the number of copies of the largest rule needed
    on equal sub-panels."""
    caps = np.array([cap for _, cap in _FILON_SIZES])
    level = np.searchsorted(caps, omega)
    over = level == caps.size
    level[over] = caps.size - 2 + np.ceil(omega[over] / caps[-1]).astype(int)
    return level


@functools.lru_cache(maxsize=16)
def _filon_rule_at(level: int):
    """The rule of a :func:`_filon_level` level, built on its first use, so
    that importing the package costs nothing for rules a process never
    needs."""
    n = max(level - len(_FILON_SIZES) + 2, 1)
    v, w = _gauss_legendre(_FILON_SIZES[min(level, len(_FILON_SIZES) - 1)][0])
    return _filon_rule(np.ravel((np.arange(1.0 - n, n, 2.0)[:, None] + v) / n), np.tile(w, n) / n)


def _abel(sides, p: JacobiParams, panels, edges, odd: bool, gain=1.0):
    """The Abel transforms of f on an s rule that resolves them: (panels,
    F, err), ``panels`` the final s panels (centre, half), whose (7, 15)
    nodes are centre + half _UNIT, and F and err each (2, panels, 15), rows
    even and odd (the odd row 0 unless ``odd``), err a bound per node.  With
    h_e = f(x) + f(-x) and h_o = (f(x) - f(-x)) / sinh 2x,

        F_e(s) = int_s^b h_e(x) 2^(-2 alpha) sinh x (cosh x)^(beta - alpha + 1)
                 c_alpha K(x, s) dx,

    and F_o the same at ``p.shifted()`` on h_o, where the sinh 2x cancels:
    h_o's weight is (f(x) - f(-x)) 2^(-2 alpha - 3) (cosh x)^(beta - alpha)
    c_(alpha+1) K(x, s).  ``sides(x)`` returns f(x), f(-x) and the sum of
    their node errors; ``edges`` are the sorted x where f starts, bends or
    ends, its support (edges[0], edges[-1]) on x >= 0.

    Each integral runs in r = sqrt(x - s) up to b, so K's (x - s)^(alpha -
    1/2) end is r^(2 alpha).  Below alpha = 0, where that is unbounded, a
    panel from r = 0 runs in t = r^q, q = 2 alpha + 1, with the kernel's
    unit r: its weights 2 r (dr/dt) r^(2 alpha' - 1), alpha' the
    component's alpha, are 2 r^(2 alpha' - 2 alpha) / q (and r at least
    2^-400 keeps r^2 a normal double).  Its first panels end at every edge
    and at sqrt(s) 2^m, the geometric grading of K's branch points at r =
    +-i sqrt(2s + r^2).  Then each round bisects
    - every Abel panel whose |Kronrod - Gauss| exceeds both _ABEL_RTOL times
      its component's mean |F| (weighted by the s rule) and the
      Kronrod-weighted node errors of f and K there;
    - every s panel whose integral of |P15 - P7| (on the first Filon rule)
      exceeds _S_RTOL times F's mass and the node errors there, the odd
      half of each weighted by ``gain``.  A node of its halves starts on its
      own first Abel panels and on the x where the panels of the nearest
      node of the cut panel end, so it needs few rounds of its own;
    with one ``sides`` call on all new nodes per round.  err sums |Kronrod -
    Gauss| and those node errors."""
    centre, half = panels
    lo_x, hi_x = edges[0], edges[-1]
    # (pair, constant, power of cosh x, sign of f(-x)): the even half's
    # weight also carries sinh x, the odd half's has lost it to sinh 2x
    components = [(p, 2.0 ** (-2.0 * p.alpha), p.beta - p.alpha + 1.0, 1.0)]
    if odd:
        components.append((p.shifted(), 2.0 ** (-2.0 * p.alpha - 3.0), p.beta - p.alpha, -1.0))
    gains = np.array([1.0, gain])[:len(components)]
    indicator = _filon_rule_at(0)[2]

    def first_panels(s, base: int, x_edges=None):
        """The first Abel panels (owner, lo, hi) in r of the nodes ``s``,
        owners counted from ``base``, with edges at f's edges and at the x of
        ``x_edges`` (one row per node, inf past its last) as well."""
        reach = np.sqrt(np.maximum(hi_x - s, 0.0))
        start = np.sqrt(np.maximum(lo_x - s, 0.0))
        levels = math.ceil(math.log2(max(reach.max(), 1.0) / math.sqrt(max(s.min(), 1e-300))))
        x_all = np.broadcast_to(np.asarray(edges), (s.size, len(edges)))
        if x_edges is not None:
            x_all = np.concatenate([x_all, x_edges], axis=1)
        cand = np.concatenate([
            np.sqrt(np.maximum(x_all - s[:, None], 0.0)),
            np.sqrt(s)[:, None] * 2.0 ** np.arange(min(levels, 60) + 1),
        ], axis=1)
        cand = np.sort(np.clip(cand, start[:, None], reach[:, None]), axis=1)
        live = cand[:, 1:] > cand[:, :-1]
        return [base + np.nonzero(live)[0], cand[:, :-1][live], cand[:, 1:][live]]

    def panel_ends(s, owner, hi, donors):
        """The x where the Abel panels of each node in ``donors`` end, one
        row per donor, inf past its last."""
        mine = np.flatnonzero(np.isin(owner, donors))
        mine = mine[np.argsort(owner[mine], kind="stable")]
        row = np.searchsorted(donors, owner[mine])
        counts = np.bincount(row, minlength=donors.size)
        col = np.arange(mine.size) - np.repeat(np.cumsum(counts) - counts, counts)
        out = np.full((donors.size, max(int(counts.max(initial=0)), 1)), np.inf)
        out[row, col] = s[owner[mine]] + hi[mine] ** 2
        return out

    q = 2.0 * p.alpha + 1.0

    def evaluate(s, owner, lo, hi):
        """Kronrod sums, |Kronrod - Gauss| and node errors of the Abel panels
        (owner, lo, hi) in r, per component (leading axis), from one
        ``sides`` call."""
        half_r = 0.5 * (hi - lo)
        r = 0.5 * (lo + hi)[:, None] + half_r[:, None] * _UNIT
        unit, ends = 1.0, np.flatnonzero(lo == 0.0) if q < 1.0 else lo[:0]
        if ends.size:
            half_r[ends] = 0.5 * hi[ends] ** q
            r[ends] = np.maximum((half_r[ends, None] * (1.0 + _UNIT)) ** (1.0 / q), 2.0 ** -400)
            unit = np.ones(r.shape)
            unit[ends] = r[ends]
        sj, d = s[owner][:, None], r * r
        x = sj + d
        f_plus, f_minus, node_err = sides(x)
        ch = np.cosh(x)
        out = []
        for comp, scale, power, sign in components:
            k, k_err = _mehler_kernel(comp, sj, d, unit)
            jac = 2.0 * r
            if ends.size:
                jac[ends] = 2.0 / q * r[ends] ** (2.0 * (comp.alpha - p.alpha))
            weight = scale * jac if power == 0.0 else scale * ch ** power * jac
            if sign > 0.0:
                weight = weight * np.sinh(x)
            h = f_plus + sign * f_minus
            y = h * weight * k
            e = (np.abs(h) * k_err + node_err * k) * weight
            kron = half_r * (y @ _UNIT_WK)
            out.append((kron, np.abs(kron - half_r * (y @ _UNIT_WG)), half_r * (e @ _UNIT_WK)))
        return [np.stack(v) for v in zip(*out)]

    s = (centre[:, None] + half[:, None] * _UNIT).ravel()
    ws = (half[:, None] * _UNIT_WK).ravel()
    # the Abel panels: their geometry (owner, lo, hi), then their sums
    # (Kronrod, |Kronrod - Gauss|, node errors)
    abel = first_panels(s, 0)
    abel += evaluate(s, *abel)
    for _ in range(_ABEL_ROUNDS):
        owner, lo, hi, kron, diff, inner = abel
        totals = _per_node(owner, kron, s.size)
        node_err = _per_node(owner, diff + inner, s.size)
        mass = np.abs(totals) @ ws
        floor = _ABEL_RTOL * mass / ws.sum()
        # the s panels whose interpolants P15 and P7 part by more than that
        # share of F's mass and than their nodes' errors
        per_panel = totals.reshape(len(gains), -1, _UNIT.size)
        spread = gains @ (np.abs(per_panel @ indicator.T).sum(axis=-1) * half)
        noise = gains @ (node_err * ws).reshape(per_panel.shape).sum(axis=-1)
        # (a panel too narrow to halve in floating point stays whole)
        s_cut = np.flatnonzero((spread > np.maximum(_S_RTOL * (gains @ mass), noise))
                               & (centre - half < centre) & (centre < centre + half))
        kept = np.ones(centre.size, dtype=bool)
        kept[s_cut] = False
        dead = np.repeat(~kept, _UNIT.size)
        mid = 0.5 * (lo + hi)
        cut = np.flatnonzero((diff > np.maximum(floor[:, None], inner)).any(axis=0)
                             & ~dead[owner] & (mid > lo) & (mid < hi))
        if not (cut.size or s_cut.size):
            break
        kids = [np.concatenate([owner[cut]] * 2), np.concatenate([lo[cut], mid[cut]]),
                np.concatenate([mid[cut], hi[cut]])]
        if s_cut.size:
            # the halves of the cut s panels, whose nodes come last: each new
            # node starts on the Abel panels of the nearest node of its
            # parent, mapped to its own r, as well as on its own first ones
            parent = np.concatenate([s_cut, s_cut])
            new_half = 0.5 * half[parent]
            new_centre = centre[parent] + np.repeat([-1.0, 1.0], s_cut.size) * new_half
            s_new = new_centre[:, None] + new_half[:, None] * _UNIT
            old_s = s.reshape(-1, _UNIT.size)[parent]
            nearest = np.abs(s_new[:, :, None] - old_s[:, None, :]).argmin(axis=-1)
            donor = (parent[:, None] * _UNIT.size + nearest).ravel()
            donors = _sorted_edges(donor)
            which = np.searchsorted(donors, donor)
            x_edges = panel_ends(s, owner, hi, donors)[which]
            # the cut s panels' nodes go, with their Abel panels
            keep = ~dead
            index = np.cumsum(keep) - 1
            alive = keep[owner]
            abel = [a[..., alive] for a in abel]
            abel[0] = index[abel[0]]
            kids[0] = index[kids[0]]
            cut = (np.cumsum(alive) - 1)[cut]
            first = first_panels(s_new.ravel(), int(keep.sum()), x_edges)
            kids = [np.concatenate([k, n]) for k, n in zip(kids, first)]
            centre = np.concatenate([centre[kept], new_centre])
            half = np.concatenate([half[kept], new_half])
            s = (centre[:, None] + half[:, None] * _UNIT).ravel()
            ws = (half[:, None] * _UNIT_WK).ravel()
        abel = _bisected(abel, cut, kids + evaluate(s, *kids))
    owner, _, _, kron, diff, inner = abel
    out, err = np.zeros((2, s.size), dtype=kron.dtype), np.zeros((2, s.size))
    rows = kron.shape[0]
    out[:rows] = _per_node(owner, kron, s.size)
    err[:rows] = _per_node(owner, diff + inner, s.size)
    shape = (2, centre.size, _UNIT.size)
    return (centre, half), out.reshape(shape), err.reshape(shape)


def _per_node(owner, rows, n: int):
    """The sums of ``rows`` (components x panels) over the panels of each of
    n nodes, ``owner`` the node of each panel; complex rows sum their real
    and imaginary parts apart, as np.bincount takes real weights only."""
    if np.iscomplexobj(rows):
        return _per_node(owner, rows.real, n) + 1j * _per_node(owner, rows.imag, n)
    return np.stack([np.bincount(owner, r, n) for r in rows])


def _bisected(arrays, cut, kids):
    """``arrays``, panels along their last axis, with each panel in ``cut``
    replaced by its lower child and its upper child appended; ``kids`` hold
    the lower children of ``cut``, then the upper ones, then any new panels
    to append after them."""
    c = cut.size
    out = []
    for a, k in zip(arrays, kids):
        a = a.copy()
        a[..., cut] = k[..., :c]
        out.append(np.concatenate([a, k[..., c:]], axis=-1))
    return out


def _sorted_edges(*parts):
    """The values of ``parts``, sorted, each once (np.union1d or np.unique
    would do, but import numpy.ma, a megabyte of memory, on their first
    call)."""
    e = np.sort(np.concatenate(parts))
    return e[np.concatenate([[True], e[1:] > e[:-1]])]


class _AbelTransform(NamedTuple):
    """F_e and F_o of one f on their s panels, whose (7, 15) nodes are
    centre + half _UNIT: the input of every cosine transform of f."""

    centre: np.ndarray
    half: np.ndarray
    # (components, panels, 15): F_e (and F_o) at the nodes
    y: np.ndarray
    # (components,): the estimate's lambda-free part, bounding |cos| by 1
    inner: np.ndarray


def _abel_transform(f, p: JacobiParams, cfg: QuadConfig, lam_max: float):
    """The Abel transforms of ``f`` for every cosine transform up to
    |lambda| = ``lam_max``, which sets only the weight 4 |c_lambda| of F_o in
    the s panels' split rule; None where f vanishes on the cut line, and
    ParameterError where f A does not vanish at 0.  See
    :func:`transform_grid`."""
    lo, hi = _support(f, cfg)
    lo = max(lo, -cfg.truncation_x)
    hi = min(hi, cfg.truncation_x)
    if not lo < hi:
        return None
    a = 0.0 if lo < 0.0 < hi else min(abs(lo), abs(hi))
    b = max(abs(lo), abs(hi))
    bends = np.abs(f.breakpoints()) if isinstance(f, FunctionSpec) else np.empty(0)
    mirrored = isinstance(f, FunctionSpec) and f.is_even
    n_panels = max(int(math.ceil(b / _S_WIDTH)), 1)
    s_edges = _sorted_edges(np.linspace(0.0, b, n_panels + 1), [a], bends[bends < b])

    def sides(x):
        # f at x and at -x, each only inside f's support (once for an even
        # FunctionSpec), and the sum of the two sides' node errors
        if mirrored:
            values = f(x)
            return values, values, np.zeros(x.shape)
        nodes = np.stack([x, -x])
        inside = (nodes >= lo) & (nodes <= hi)
        got = f(nodes[inside])
        values, node_err = got if isinstance(got, tuple) else (got, None)
        values = np.asarray(values)
        out = np.zeros(nodes.shape, dtype=np.result_type(values, float))
        out[inside] = values
        err = np.zeros(nodes.shape)
        if node_err is not None:
            err[inside] = np.abs(node_err)
        return out[0], out[1], err[0] + err[1]

    # f on the s panels' nodes as x: where the integrals end (f against the
    # Abel weight at s = 0, sinh^(2 alpha) x (cosh x)^(beta - alpha + 1),
    # which bounds every F_e(s) and F_o(s) from above), whether f has an odd
    # part, and whether f A vanishes at 0, falling at least as fast as
    # x^min(1/2, alpha + 1/2) over the first two nodes, as a bounded f's
    # x^(2 alpha + 1) does
    x, _, _ = panel_rule(s_edges)
    f_plus, f_minus, _ = sides(x)
    size = (np.maximum(np.abs(f_plus), np.abs(f_minus))
            * np.sinh(x) ** (2.0 * p.alpha) * np.cosh(x) ** (p.beta - p.alpha + 1.0))
    live = np.flatnonzero(np.max(size, axis=1) > _NEGLIGIBLE * np.max(size))
    if not live.size:
        return None
    s_edges = s_edges[:live[-1] + 2]
    edges = _sorted_edges([a, s_edges[-1]], bends[(bends > a) & (bends < s_edges[-1])])
    odd = not np.array_equal(f_plus, f_minus)
    e_size = np.abs(f_plus[0, :2] + f_minus[0, :2]) * weight_a(p, x[0, :2])
    fall = min(0.5, p.alpha + 0.5)
    if e_size[0] > 0.0 and e_size[0] > (x[0, 0] / x[0, 1]) ** fall * e_size[1]:
        raise ParameterError(
            f"f A falls slower than x^{fall:g} at 0: its Abel transform is unbounded there, "
            "or too steep for the s rule")

    lo_s, hi_s = s_edges[:-1], s_edges[1:]
    gain = abs(p.rho + 1j * lam_max) / (p.alpha + 1.0)
    (centre, half), F, F_err = _abel(
        sides, p, (0.5 * (lo_s + hi_s), 0.5 * (hi_s - lo_s)), edges, odd, gain)
    wk = half[:, None] * _UNIT_WK
    inner = (F_err * wk).sum(axis=(1, 2)) + _ROUND * (np.abs(F) * wk).sum(axis=(1, 2))
    rows = 2 if odd else 1
    return _AbelTransform(centre, half, F[:rows], inner[:rows])


def _cosine_transform(F: _AbelTransform | None, p: JacobiParams, lams, reflected: bool = False):
    """:func:`transform_grid`'s output at ``lams`` from the Abel transforms
    ``F`` of :func:`_abel_transform`."""
    lams = np.asarray(lams, dtype=float)
    zero = (np.zeros(lams.shape, dtype=complex), np.zeros(lams.shape))
    if F is None:
        return zero + zero if reflected else zero
    flat = lams.ravel()
    if not np.all(np.isfinite(flat)):
        raise ParameterError("every lambda of a transform must be finite")
    rows = F.y.shape[0]
    value = np.zeros((rows, flat.size), dtype=np.result_type(F.y, float))
    est = np.zeros((rows, flat.size))
    level = _filon_level(np.abs(flat) * float(F.half.max()))
    # (np.unique would import numpy.ma, a megabyte, on its first call)
    for lev in sorted(set(level.tolist())):
        v, wp15, wdiff = _filon_rule_at(lev)
        s = F.centre[:, None] + F.half[:, None] * v
        # P15 and P15 - P7 at the fine nodes, times the fine weights and the
        # half-widths: (panels, fine nodes, 2 rows)
        weights = np.concatenate([F.y @ wp15.T, F.y @ wdiff.T]) * F.half[:, None]
        weights = weights.transpose(1, 2, 0)
        idx = np.flatnonzero(level == lev)
        step = max(1, _COSINE_CELLS // s.size)
        for j in range(0, idx.size, step):
            chunk = idx[j:j + step]
            # per panel, the integrals of cos(lambda s) P15 and of cos(lambda
            # s) (P15 - P7): (panels, lambda, 2 rows)
            panel = np.matmul(np.cos(flat[chunk, None, None] * s[None]).transpose(1, 0, 2), weights)
            value[:, chunk] = panel[..., :rows].sum(axis=0).T
            est[:, chunk] = np.abs(panel[..., rows:]).sum(axis=0).T
    even = value[0]
    err = est[0] + F.inner[0]
    odd_sum = 0j
    if rows == 2:
        four_c = (p.rho + 1j * flat) / (p.alpha + 1.0)
        odd_sum = four_c * value[1]
        err = err + np.abs(four_c) * (est[1] + F.inner[1])
    out = [(even - odd_sum).reshape(lams.shape), err.reshape(lams.shape)]
    if reflected:
        out += [(even + odd_sum).reshape(lams.shape), err.reshape(lams.shape)]
    return tuple(out)


def transform_grid(f, p: JacobiParams, lams, cfg: QuadConfig, reflected: bool = False):
    """Transform of ``f`` at every lambda in ``lams``, from one Abel transform.

    Returns (values, err), both shaped like ``lams``.  With G_lambda(+-x) =
    phi_lambda(x) +- c_lambda sinh(2x) phi^(alpha+1, beta+1)_lambda(x),
    c_lambda = (rho + i lambda) / (4 (alpha + 1)), the integral folds onto
    x >= 0, and Koornwinder's factorisation of the Jacobi transform (1984),
    Fubini on the Mehler-type integral of ``specfun._mehler_kernel``, turns
    each half into a cosine transform of an Abel transform free of lambda:

        int f(x) G_lambda(-x) A dx
            = int_0^b cos(lambda s) [F_e(s) - 4 c_lambda F_o(s)] ds,

    F_e the Abel transform of f(x) + f(-x) and F_o that of (f(x) - f(-x)) /
    sinh 2x at (alpha + 1, beta + 1) (:func:`_abel`; F_o is 0 for an f that
    is even on the nodes), b the largest |x| of f's support cut at
    ``truncation_x``.

    F_e and F_o are built once, on Gauss-Kronrod panels in s sized by F
    alone: they start a quarter wide over [0, b], with f's support ends and
    breakpoints as edges in s and in x, and the panels past the last one
    where f times the Abel weight at s = 0 reaches 1e-18 of its peak are left
    out.  An s panel is then bisected, in the Abel transform's own rounds,
    while the integral of |P15 - P7| over it, P15 and P7 F's interpolants on
    its 15 Kronrod and 7 Gauss nodes, exceeds _S_RTOL = 1e-9 of F's mass,
    F_o weighted by 4 |c_lambda| at the largest |lambda|.

    The cosine step is Filon's rule (Filon, 1928): on each s panel it
    integrates cos(lambda s) exactly, to rounding, against P15, on a
    Gauss-Legendre rule of 16 to 64 points sized by lambda times the panel's
    half-width (copies of the largest on sub-panels beyond it), so the panels
    need to resolve F and not the cosine, and a value at lambda does not
    depend on the other lambda of the batch.  c_lambda multiplies the odd
    half's sum.

    f A must vanish at 0, as it does for a bounded f, where it falls as
    x^(2 alpha + 1): where it does not, F_e grows as log(1/s) or faster, and
    ParameterError is raised.  The test is f A at the first two nodes, which
    must fall at least as fast as sqrt(x).  (The image H f of adjoint Hardy,
    whose A H f tends to a constant, is transformed by
    ``hausdorff.commutation_residual`` as one integral in x.)

    ``f`` is a :class:`FunctionSpec` or a vectorized callable on the real
    line that returns values, or (values, inner) with inner the absolute
    error of each value, as :func:`quad.integrate` takes it: the Abel rule
    does not split a panel below those errors, and charges them.

    err adds, per lambda, Filon's estimate of each half, the sum over s
    panels of |int cos(lambda s) (P15 - P7) ds| (the odd one times 4
    |c_lambda|; at lambda = 0 it is the panel's |Kronrod - Gauss|), and,
    bounding |cos| by 1, the Kronrod-weighted errors of F_e and F_o (the
    Abel rule's own |Kronrod - Gauss|, the kernel's bound and f's node
    errors), and _ROUND per unit of sum w |F|.  Intended for smooth,
    bounded functions (the transform and spectral-identity sweeps); a
    support wholly past the cut raises ParameterError.

    With ``reflected``, returns (values, err, r_values, r_err), the last two
    the transform of f(-x), which only swaps f(x) and f(-x): it adds the
    odd part's term where f's own subtracts it, from the same Abel transforms.
    """
    lams = np.asarray(lams, dtype=float)
    F = _abel_transform(f, p, cfg, float(np.max(np.abs(lams), initial=0.0)))
    return _cosine_transform(F, p, lams, reflected)


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


def _spectral_band(F: _AbelTransform | None, f: FunctionSpec, p: JacobiParams, lam_edges,
                   cfg: QuadConfig):
    """The spectral side of the energy identity over the Gauss-Kronrod
    panels on ``lam_edges``: (share, err, k_panels, first), with share its
    part of rhs, twice the real Kronrod sum of the integrand u v density,
    k_panels that sum per panel, and first |integrand| at the lowest node.

    u and v are the cosine transforms of ``F``, f's Abel transforms, for f
    and for its reflection (one and the same for an even f); for real f the
    +-lambda halves pair conjugately, conj(v(-lambda)) = v(lambda).  err sums
    the panels' |Kronrod - Gauss| and the transforms' estimates of u and v
    weighted by the Kronrod rule."""
    lam, wk, wg = panel_rule(lam_edges)
    if f.is_even:
        u, u_err = _cosine_transform(F, p, lam)
        v, v_err = u, u_err
    else:
        u, u_err, v, v_err = _cosine_transform(F, p, lam, reflected=True)
    dens = plancherel_density(p, lam, lambda_min=cfg.lambda_min / 2.0)
    integrand = u * v * dens
    share = 2.0 * float(np.sum(wk * integrand).real)
    k_panels = np.sum(wk * integrand, axis=1)
    quad_err = float(np.sum(np.abs(k_panels - np.sum(wg * integrand, axis=1))))
    inner_err = float(
        np.sum(wk * np.abs(dens) * (u_err * np.abs(v) + v_err * np.abs(u)))
    )
    return share, quad_err + inner_err, k_panels, float(np.abs(integrand[0, 0]))


def _plancherel(f: FunctionSpec, p: JacobiParams, cfg: QuadConfig, doubled: bool):
    """:func:`plancherel_residual_doubled`'s outputs, the last only with
    ``doubled``; f's Abel transforms are built once, for both bands."""
    def sq(x):
        v = np.asarray(f(x))
        return v * v * weight_a(p, x)

    lhs_res = integrate(sq, *_support(f, cfg), cfg, cutoff=cfg.truncation_x)
    lhs = float(lhs_res.value)
    if lhs == 0.0:
        return 0.0, 0.0 + 0.0j, 0.0, 0.0, 0.0
    lam = cfg.truncation_lambda
    F = _abel_transform(f, p, cfg, lam)
    share, band_err, k_panels, first = _spectral_band(
        F, f, p, _lambda_edges(cfg.lambda_min, lam), cfg)
    rhs = share + 0.0j
    # the lambda > Lambda truncation is charged as a geometric-decay
    # extrapolation of the last two panel masses
    panel_mass = np.abs(k_panels)
    tail = 0.0
    if panel_mass.size >= 2:
        last, prev = float(panel_mass[-1]), float(panel_mass[-2])
        # floor the ratio: stretched-exponential decay slows down, so the
        # observed panel-to-panel ratio can understate the remaining mass
        ratio = min(max(last / prev, 0.5), 0.9) if prev > 0 else 0.9
        tail = last * ratio / (1.0 - ratio)
    excised = 2.0 * cfg.lambda_min * first
    spectral_err = 2.0 * (band_err + tail) + excised
    rel_gap = abs(lhs - rhs) / lhs
    gap2 = 0.0
    if doubled:
        band = _spectral_band(F, f, p, _lambda_edges(lam, 2.0 * lam), cfg)[0]
        gap2 = abs(lhs - (rhs + band)) / lhs
    return lhs, rhs, rel_gap, lhs_res.err_estimate + spectral_err, gap2


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
    return _plancherel(f, p, cfg, doubled=False)[:4]


def plancherel_residual_doubled(
    f: FunctionSpec, p: JacobiParams, cfg: QuadConfig
) -> tuple[float, complex, float, float, float]:
    """:func:`plancherel_residual_detailed`'s (lhs, rhs, rel_gap,
    err_estimate) and the rel_gap at a doubled cut 2 truncation_lambda,
    whose rhs adds to rhs the band (Lambda, 2 Lambda] alone, on the panels
    :func:`_lambda_edges` lays there, from the same Abel transforms of f,
    instead of transforming every node below Lambda again."""
    return _plancherel(f, p, cfg, doubled=True)
