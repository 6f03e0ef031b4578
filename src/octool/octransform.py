"""Integral transform against the Jacobi-Cherednik eigenfunctions.

Forward and inverse transforms, numerical application of the
differential-difference operator, the Plancherel-identity residual, and the
catalog of evaluable test functions (:class:`FunctionSpec`).  The batched
forward transform, :func:`transform_grid`, follows Koornwinder's
factorisation of the Jacobi transform (1984): an Abel transform of f, free of
lambda, then one cosine transform for every lambda, so no Jacobi series in
lambda is summed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


# the (7, 15) pair on (-1, 1): nodes, Kronrod and Gauss weights
_UNIT, _UNIT_WK, _UNIT_WG = (w[0] for w in panel_rule([-1.0, 1.0]))
# an Abel panel is bisected while its |Kronrod - Gauss| exceeds this share of
# its component's mean |F| under the s rule, for at most _ABEL_ROUNDS rounds
_ABEL_RTOL = 1e-11
_ABEL_ROUNDS = 24
# f against the Abel weight below this share of its peak on an s panel and
# every panel after it: the integrals end before that panel
_NEGLIGIBLE = 1e-18
# the graded s rule of the first panel (0, e1), where F is unbounded: panels
# on these edges in t = log(e1 / s), and (0, e1 e^-16) charged as a tail
_GRADED_T = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0])


def _abel(sides, p: JacobiParams, s, ws, edges, odd: bool, lattice=None, gain=1.0):
    """The Abel transforms of f at the s nodes: (F, err), each (2, n) with
    rows even and odd (the odd row 0 unless ``odd``), and err a bound per
    node.  With h_e = f(x) + f(-x) and h_o = (f(x) - f(-x)) / sinh 2x,

        F_e(s) = int_s^b h_e(x) 2^(-2 alpha) sinh x (cosh x)^(beta - alpha + 1)
                 c_alpha K(x, s) dx,

    and F_o the same at ``p.shifted()`` on h_o, where the sinh 2x cancels:
    h_o's weight is (f(x) - f(-x)) 2^(-2 alpha - 3) (cosh x)^(beta - alpha)
    c_(alpha+1) K(x, s).  ``sides(x)`` returns f(x), f(-x) and the sum of
    their node errors; ``edges`` are the sorted x where f starts, bends or
    ends, its support (edges[0], edges[-1]) on x >= 0.

    Each integral runs in r = sqrt(x - s), which takes up K's (x - s)^(alpha
    - 1/2) end, up to b, or with ``lattice`` (sorted x edges) only up to the
    second lattice edge above s: the rest is summed on the lattice's
    panels, whose nodes, and so whose f values, every s shares, each panel
    for the s at least one panel below it.  The first per-s panels end at
    every edge and at sqrt(s) 2^m, the geometric grading of K's branch points
    at r = +-i sqrt(2s + r^2); then rounds bisect every panel whose
    |Kronrod - Gauss| exceeds both _ABEL_RTOL times its component's mean |F|
    (weighted by ``ws``, the s rule's weights) and the Kronrod-weighted node
    errors of f and K there, with one ``sides`` call on all new nodes per
    round; with a lattice, also the graded rule's tail (:func:`_graded_tail`)
    in the transform's value, where F_o enters times at most ``gain``.  err
    sums |Kronrod - Gauss| and those node errors."""
    s = np.asarray(s, dtype=float)
    lo_x, hi_x = edges[0], edges[-1]
    shared = lattice is not None
    if not shared:
        upper, lattice = np.full(s.shape, hi_x), np.array([hi_x])
    else:
        upper = lattice[np.minimum(np.searchsorted(lattice, s, side="right") + 1, lattice.size - 1)]
    reach = np.sqrt(np.maximum(upper - s, 0.0))
    start = np.sqrt(np.maximum(lo_x - s, 0.0))
    levels = math.ceil(math.log2(max(reach.max(), 1.0) / math.sqrt(max(s.min(), 1e-300))))
    cand = np.concatenate([
        np.sqrt(np.maximum(np.asarray(edges)[None, :] - s[:, None], 0.0)),
        np.sqrt(s)[:, None] * 2.0 ** np.arange(min(levels, 60) + 1),
    ], axis=1)
    cand = np.sort(np.clip(cand, start[:, None], reach[:, None]), axis=1)
    live = cand[:, 1:] > cand[:, :-1]
    near = [np.nonzero(live)[0], cand[:, :-1][live], cand[:, 1:][live]]
    far = [lattice[:-1].copy(), lattice[1:].copy()]
    # (pair, constant, power of cosh x, sign of f(-x)): the even half's
    # weight also carries sinh x, the odd half's has lost it to sinh 2x
    components = [(p, 2.0 ** (-2.0 * p.alpha), p.beta - p.alpha + 1.0, 1.0)]
    if odd:
        components.append((p.shifted(), 2.0 ** (-2.0 * p.alpha - 3.0), p.beta - p.alpha, -1.0))

    def sums(sj, d, x, jac, f_plus, f_minus, node_err, half, served=None):
        """Kronrod sums, |Kronrod - Gauss| and node errors of the panels whose
        nodes are x = sj + d, per component (leading axis)."""
        out = []
        ch = np.cosh(x)
        for q, scale, power, sign in components:
            k, k_err = _mehler_kernel(q, sj, d)
            weight = scale * jac if power == 0.0 else scale * ch ** power * jac
            if sign > 0.0:
                weight = weight * np.sinh(x)
            h = f_plus + sign * f_minus
            y = h * weight * k
            e = (np.abs(h) * k_err + node_err * k) * weight
            if served is not None:
                y, e = y * served, e * served
            kron = half * (y @ _UNIT_WK)
            out.append((kron, np.abs(kron - half * (y @ _UNIT_WG)), half * (e @ _UNIT_WK)))
        return [np.stack(v) for v in zip(*out)]

    def evaluate(near_new, far_new):
        """The sums of new near panels (owner, lo, hi) in r and new lattice
        panels (lo, hi) in x, each lattice panel for every s (0 where it
        does not serve that s), from one ``sides`` call."""
        owner, lo, hi = near_new
        half = 0.5 * (hi - lo)
        r = 0.5 * (lo + hi)[:, None] + half[:, None] * _UNIT
        sj = s[owner][:, None]
        x_near = sj + r * r
        flo, fhi = far_new
        fhalf = 0.5 * (fhi - flo)
        x_far = 0.5 * (flo + fhi)[:, None] + fhalf[:, None] * _UNIT
        values = sides(np.concatenate([x_near, x_far]))
        at_near, at_far = ([v[:len(owner)] for v in values], [v[len(owner):] for v in values])
        near_sums = sums(sj, r * r, x_near, 2.0 * r, *at_near, half)
        served = (flo[None, :] >= upper[:, None])[:, :, None]
        d = np.where(served, x_far[None] - s[:, None, None], 1.0)
        far_sums = sums(s[:, None, None], d, x_far[None], 1.0, *at_far, fhalf[None, :], served)
        return near_sums, far_sums

    # each set of panels: their geometry ([owner,] lo, hi), then their sums
    # (Kronrod, |Kronrod - Gauss|, node errors)
    sets = [near, far]
    for part, sums_ in zip(sets, evaluate(near, far)):
        part += sums_
    for _ in range(_ABEL_ROUNDS):
        (_, _, _, kron, diff, inner), (_, _, fk, fd, fi) = sets
        totals = _per_node(sets[0][0], kron, s.size) + fk.sum(axis=-1)
        floor = _ABEL_RTOL * (np.abs(totals) @ ws) / ws.sum()
        if shared:
            # nothing below the graded rule's own tail, in the transform's
            # value, where F_o enters times at most ``gain``, is worth resolving
            gains = np.array([1.0, gain])[:len(totals)]
            floor = np.maximum(floor, (_graded_tail(totals, ws) @ gains) / ws.sum() / gains)
        over = [(diff > np.maximum(floor[:, None], inner)).any(axis=0),
                (fd > np.maximum(floor[:, None, None], fi)).any(axis=(0, 1))]
        cuts, kids = [], []
        for part, flagged in zip(sets, over):
            *owners, lo, hi = part[:-3]
            mid = 0.5 * (lo + hi)
            cut = np.flatnonzero(flagged & (mid > lo) & (mid < hi))
            cuts.append(cut)
            kids.append([np.concatenate([g[cut]] * 2) for g in owners]
                        + [np.concatenate([lo[cut], mid[cut]]),
                           np.concatenate([mid[cut], hi[cut]])])
        if not (cuts[0].size or cuts[1].size):
            break
        for part, cut, kid, kid_sums in zip(sets, cuts, kids, evaluate(*kids)):
            part[:] = _bisected(part, cut, kid + kid_sums)
    (owner, _, _, kron, diff, inner), (_, _, fk, fd, fi) = sets
    out, err = np.zeros((2, s.size), dtype=kron.dtype), np.zeros((2, s.size))
    rows = kron.shape[0]
    out[:rows] = _per_node(owner, kron, s.size) + fk.sum(axis=-1)
    err[:rows] = _per_node(owner, diff + inner, s.size) + (fd + fi).sum(axis=-1)
    return out, err


def _per_node(owner, rows, n: int):
    """The sums of ``rows`` (components x panels) over the panels of each of
    n nodes, ``owner`` the node of each panel; complex rows sum their real
    and imaginary parts apart, as np.bincount takes real weights only."""
    if np.iscomplexobj(rows):
        return _per_node(owner, rows.real, n) + 1j * _per_node(owner, rows.imag, n)
    return np.stack([np.bincount(owner, r, n) for r in rows])


def _graded_tail(F, ws):
    """The charge for (0, e1 e^-16) below a graded s rule, whose panels come
    first among the s nodes of ``F`` (rows per component) and of ``ws``, its
    weights: the last graded panel's mass times r / (1 - r), r the ratio of
    the last two panels' masses capped at 0.9."""
    m = (len(_GRADED_T) - 1) * _UNIT.size
    mass = (np.abs(F[:, :m]) * ws[:m]).reshape(F.shape[0], -1, _UNIT.size).sum(axis=-1)
    last, prev = mass[:, -1], mass[:, -2]
    ratio = np.minimum(np.divide(last, prev, out=np.full(last.shape, 0.9), where=prev > 0.0), 0.9)
    return last * ratio / (1.0 - ratio)


def _bisected(arrays, cut, kids):
    """``arrays``, panels along their last axis, with each panel in ``cut``
    replaced by its lower child and its upper child appended; ``kids`` hold
    the lower children of ``cut`` and then the upper ones."""
    c = cut.size
    out = []
    for a, k in zip(arrays, kids):
        a = a.copy()
        a[..., cut] = k[..., :c]
        out.append(np.concatenate([a, k[..., c:]], axis=-1))
    return out


def _sorted_edges(*parts):
    """The values of ``parts``, sorted, each once (np.union1d would do, but
    imports numpy.ma, a megabyte of memory, on its first call)."""
    e = np.sort(np.concatenate(parts))
    return e[np.concatenate([[True], e[1:] > e[:-1]])]


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
    ``truncation_x``.  F_e and F_o are built once, on composite
    Gauss-Kronrod panels in s over [0, b] of width min(0.25, 4 / max
    |lambda|), with f's support ends and breakpoints as edges in s and in x;
    the panels past the last one where f times the Abel weight at s = 0
    reaches 1e-18 of its peak are left out.  Each lambda is then one row of
    a real cos(lambda s) matrix, and c_lambda multiplies its row's odd sum.

    Where f A does not vanish at 0 (the image of adjoint Hardy: A H f tends
    to a constant), F_e grows as log(1/s), and the first s panel (0, e1) is
    graded: its rule runs in t = log(e1 / s) on ``_GRADED_T``, and the rest
    (0, e1 e^-16) is charged as a geometric tail of the graded panels' masses.
    Each s node's Abel integral is then graded towards s as well, so there
    the s nodes share f's values on a lattice of x panels, dyadic below e1
    and a quarter of an s panel wide above it, and each keeps only its first
    two lattice panels to itself.  The test is
    f A at the first two nodes: it falls at least as fast as sqrt(x) for a
    bounded f, where f A vanishes as x^(2 alpha + 1), and no grading is
    needed.

    ``f`` is a :class:`FunctionSpec` or a vectorized callable on the real
    line that returns values, or (values, inner) with inner the absolute
    error of each value, as :func:`quad.integrate` takes it: the Abel rule
    does not split a panel below those errors, and charges them.

    err adds, per lambda, the s rule's |Kronrod - Gauss| of each half (the
    odd one times 4 |c_lambda|), and, bounding |cos| by 1, the
    Kronrod-weighted errors of F_e and F_o (the Abel rule's own |Kronrod -
    Gauss|, the kernel's bound and f's node errors), _ROUND per unit of
    sum w |F|, and the graded tail.  Intended for smooth, bounded functions
    and for the image H f (the transform and spectral-identity sweeps); a
    support wholly past the cut raises ParameterError.

    With ``reflected``, returns (values, err, r_values, r_err), the last two
    the transform of f(-x), which only swaps f(x) and f(-x): it adds the
    odd part's term where f's own subtracts it, from the same Abel transforms.
    """
    lams = np.asarray(lams, dtype=float)
    lo, hi = _support(f, cfg)
    lo = max(lo, -cfg.truncation_x)
    hi = min(hi, cfg.truncation_x)
    zero = (np.zeros(lams.shape, dtype=complex), np.zeros(lams.shape))
    if not lo < hi:
        return zero + zero if reflected else zero
    a = 0.0 if lo < 0.0 < hi else min(abs(lo), abs(hi))
    b = max(abs(lo), abs(hi))
    bends = np.abs(f.breakpoints()) if isinstance(f, FunctionSpec) else np.empty(0)
    mirrored = isinstance(f, FunctionSpec) and f.is_even
    width = min(0.25, 4.0 / max(1.0, float(np.max(np.abs(lams), initial=0.0))))
    n_panels = max(int(math.ceil(b / width)), 1)
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
    # part, and whether F_e is unbounded at 0
    x, _, _ = panel_rule(s_edges)
    f_plus, f_minus, _ = sides(x)
    size = (np.maximum(np.abs(f_plus), np.abs(f_minus))
            * np.sinh(x) ** (2.0 * p.alpha) * np.cosh(x) ** (p.beta - p.alpha + 1.0))
    live = np.flatnonzero(np.max(size, axis=1) > _NEGLIGIBLE * np.max(size))
    if not live.size:
        return zero + zero if reflected else zero
    s_edges = s_edges[:live[-1] + 2]
    edges = _sorted_edges([a, s_edges[-1]], bends[(bends > a) & (bends < s_edges[-1])])
    odd = not np.array_equal(f_plus, f_minus)
    e_size = np.abs(f_plus[0, :2] + f_minus[0, :2]) * weight_a(p, x[0, :2])
    graded = e_size[0] > 0.0 and e_size[0] > math.sqrt(x[0, 0] / x[0, 1]) * e_size[1]

    s, wk, wg = panel_rule(s_edges)
    lattice = None
    if graded:
        t, tk, tg = panel_rule(_GRADED_T)
        fine = s_edges[1] * np.exp(-t)
        s, wk, wg = (np.concatenate([u, v[1:]]) for u, v in
                     ((fine, s), (tk * fine, wk), (tg * fine, wg)))
        # every s shares f's values on a lattice, dyadic below e1
        levels = math.ceil(math.log2(s_edges[1] / fine.min())) + 2
        quarters = np.linspace(s_edges[1], s_edges[-1], 4 * (len(s_edges) - 2) + 1)
        lattice = _sorted_edges(s_edges[1] * 2.0 ** -np.arange(1.0, levels + 1.0),
                                quarters, s_edges, edges)
    flat = lams.ravel()
    gain = float(np.max(np.abs(p.rho + 1j * flat), initial=p.rho)) / (p.alpha + 1.0)
    F, F_err = _abel(sides, p, s.ravel(), wk.ravel(), edges, odd, lattice, gain)
    inner = F_err @ wk.ravel() + _ROUND * (np.abs(F) @ wk.ravel())
    if graded:
        inner += _graded_tail(F, wk.ravel())
    F = F.reshape(2, *s.shape)
    # per s panel and lambda, the Kronrod and Gauss sums of cos(lambda s) F_e
    # and, for an f with an odd part, F_o: one real (lambda x s) matrix
    halves = F[:2 if odd else 1]
    rules = np.stack([w * h for h in halves for w in (wk, wg)], axis=1)
    panel = np.matmul(rules, np.cos(np.multiply.outer(s, flat)))
    even = panel[:, 0].sum(axis=0)
    err = np.abs(panel[:, 0] - panel[:, 1]).sum(axis=0) + inner[0]
    odd_sum = 0j
    if odd:
        four_c = (p.rho + 1j * flat) / (p.alpha + 1.0)
        odd_sum = four_c * panel[:, 2].sum(axis=0)
        err += np.abs(four_c) * (np.abs(panel[:, 2] - panel[:, 3]).sum(axis=0) + inner[1])
    out = [(even - odd_sum).reshape(lams.shape), err.reshape(lams.shape)]
    if reflected:
        out += [(even + odd_sum).reshape(lams.shape), err.reshape(lams.shape)]
    return tuple(out)


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
    panels on ``lam_edges``: (share, err, k_panels, first), with share its
    part of rhs, twice the real Kronrod sum of the integrand u v density,
    k_panels that sum per panel, and first |integrand| at the lowest node.

    u and v are the transforms of f and of its reflection, from one fold
    (one and the same for an even f); for real f the +-lambda halves pair
    conjugately, conj(v(-lambda)) = v(lambda).  err sums the panels'
    |Kronrod - Gauss| and the transforms' estimates of u and v weighted by
    the Kronrod rule."""
    lam, wk, wg = panel_rule(lam_edges)
    if f.is_even:
        u, u_err = transform_grid(f, p, lam, cfg)
        v, v_err = u, u_err
    else:
        u, u_err, v, v_err = transform_grid(f, p, lam, cfg, reflected=True)
    dens = plancherel_density(p, lam, lambda_min=cfg.lambda_min / 2.0)
    integrand = u * v * dens
    share = 2.0 * float(np.sum(wk * integrand).real)
    k_panels = np.sum(wk * integrand, axis=1)
    quad_err = float(np.sum(np.abs(k_panels - np.sum(wg * integrand, axis=1))))
    inner_err = float(
        np.sum(wk * np.abs(dens) * (u_err * np.abs(v) + v_err * np.abs(u)))
    )
    return share, quad_err + inner_err, k_panels, float(np.abs(integrand[0, 0]))


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

    share, band_err, k_panels, first = _spectral_band(
        f, p, _lambda_edges(cfg.lambda_min, cfg.truncation_lambda), cfg)
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
