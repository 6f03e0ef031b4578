"""Hausdorff-type averaging operator for the hyperbolic weight.

``H f(x) = integral over t > 0 of (phi(t)/t) f(x/t) A(x/t)/A(x) dt`` for a
non-negative kernel ``phi`` supported in (0, infinity), together with the
catalog of named kernels (Hardy, adjoint Hardy, Hardy-Littlewood-Polya,
Cesaro, Riemann-Liouville) and a diagnostic comparing the spectral transform
of ``H f`` with the kernel-averaged transform of ``f``.

:func:`hausdorff_log_grid`, the engine behind every H f norm, integrates in
sigma = log|x/t| on a fixed panel lattice.  A kernel states its pieces
(:meth:`KernelSpec.pieces`): its support cut where phi bends, each with the
power m where phi(t) = t^m on it.  Each x cuts its window at the piece edges
and evaluates afresh only the cut panels there and at its window ends.  On a
power piece the integrand is one row-free function, e^(log f A - m sigma),
scaled per x by |x|^m, so a table sums it once per panel, the first time a
row takes the panel whole, and refines a table panel once when a row needs
it; each x takes its whole panels from the table with one multiply, and only
those that can add more than exactly 0.  Pieces without a power (Cesaro,
Riemann-Liouville, a tabulated kernel's grid segments) read log f A from the
table and add log phi at each node.  A :class:`HausdorffImage` keeps its
tables for all of its calls.  Every panel reports the |Kronrod - Gauss| its
refinement reads.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentIntegralError,
    KernelNotIntegrableError,
    ParameterError,
    SingularityError,
)
from .octransform import FunctionSpec, _abel_transform, _cosine_transform
from .quad import IntegralResult, QuadConfig, integrate, panel_rule
from .specfun import JacobiParams, _g_batch, _require_finite, log_sinh_cosh, log_weight_a

__all__ = ["KernelSpec", "make_kernel", "hausdorff_apply", "hausdorff_apply_result",
           "hausdorff_log_grid", "HausdorffImage", "commutation_residual"]

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
            if "exponent" not in q:
                raise ParameterError("power_cutoff needs an exponent")
        if self.variant == "tabulated":
            grid = np.asarray(q["grid"], dtype=float)
            vals = np.asarray(q["values"], dtype=float)
            if grid.ndim != 1 or grid.shape != vals.shape or grid.size < 2:
                raise ParameterError("tabulated kernel needs matching 1-d arrays")
            if not np.all(np.diff(grid) > 0) or grid[0] <= 0:
                raise ParameterError("tabulated grid must be positive increasing")
            # the linear interpolant of non-negative values is non-negative;
            # every other variant is non-negative by its formula
            if not np.all(vals >= 0.0):
                raise ParameterError("tabulated kernel values must be non-negative")

    def pieces(self) -> tuple:
        """((lo, hi, m), ...) in increasing t: phi's support cut where phi
        bends, each piece with the power m where phi(t) = t^m on it, or None.
        Hardy, adjoint Hardy and a power cutoff are one power piece, ``hlp``
        two, split at its kink t = 1; Cesaro and Riemann-Liouville are one
        piece without a power, and a ``tabulated`` kernel one per grid
        segment.  The support, the breakpoints and the H f engine's segments
        are read from it."""
        v, q = self.variant, self.params
        if v == "hlp":
            return (0.0, 1.0, 0.0), (1.0, math.inf, -1.0)
        if v == "power_cutoff":
            return ((q.get("lo", 0.0), q.get("hi", math.inf), float(q["exponent"])),)
        if v == "tabulated":
            grid = np.asarray(q["grid"], dtype=float).tolist()
            return tuple((a, b, None) for a, b in zip(grid, grid[1:]))
        lo, hi = (1.0, math.inf) if v in ("hardy", "riemann_liouville") else (0.0, 1.0)
        return ((lo, hi, {"hardy": -1.0, "adjoint_hardy": 0.0}.get(v)),)

    def power_end(self):
        """tau -> phi(hi - tau) for a kernel that is a non-integer power of
        hi - t at the end hi of its support, Cesaro unless gamma_c is an
        integer, or None.  It takes phi from tau itself: hi - tau rounds to hi
        below tau ~ 1e-16, where phi(hi) = 0 would drop a mass of tau^gamma_c."""
        g = self.params.get("gamma_c")
        if self.variant != "cesaro" or g == round(g):
            return None
        return lambda tau: g * np.asarray(tau, dtype=float) ** (g - 1.0)

    def support(self) -> tuple[float, float]:
        pieces = self.pieces()
        return pieces[0][0], pieces[-1][1]

    def breakpoints(self) -> tuple:
        """The edges between pieces, inside the support, where phi bends:
        t = 1 for ``hlp``, the inner grid points of a ``tabulated`` kernel."""
        return tuple(lo for lo, _, _ in self.pieces()[1:])

    def has_mass_on(self, lo: float, hi: float) -> bool:
        """Whether phi has mass on (lo, hi).  Every variant but ``tabulated``
        is positive on its open support by its formula; a ``tabulated``
        kernel has mass where a grid segment overlapping (lo, hi) has a
        positive value at either end."""
        if self.variant != "tabulated":
            klo, khi = self.support()
            return max(lo, klo) < min(hi, khi)
        grid = np.asarray(self.params["grid"], dtype=float)
        vals = np.asarray(self.params["values"], dtype=float)
        overlap = np.maximum(grid[:-1], lo) < np.minimum(grid[1:], hi)
        return bool(np.any(overlap & ((vals[:-1] > 0.0) | (vals[1:] > 0.0))))

    def __call__(self, t):
        """phi(t) = e^(log_phi(log t)) for t > 0, and 0 elsewhere."""
        # log t is -inf at t = 0 and NaN for t < 0, both off every support
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(self.log_phi(np.log(np.asarray(t, dtype=float))))

    def log_phi(self, s):
        """log phi(e^s), -inf off the support: the one kernel formula, which
        ``__call__``, both H f evaluators and the kernel moments use.  The
        catalog kernels are closed forms in s, so t^exponent cannot overflow
        or underflow and only Cesaro and Riemann-Liouville take a log per
        node; each formula is evaluated only inside the support."""
        s = np.asarray(s, dtype=float)
        lo, hi = self.support()
        with np.errstate(divide="ignore"):
            lo, hi = math.log(lo) if lo > 0.0 else -math.inf, math.log(hi)
        inside = None
        if not (s.size and s.min() > lo and s.max() < hi):
            inside = (s > lo) & (s < hi)
            s = s[inside]
        v, q = self.variant, self.params
        if v == "hardy":
            val = -s
        elif v == "adjoint_hardy":
            val = np.zeros(s.shape)
        elif v == "hlp":
            val = -np.maximum(s, 0.0)
        elif v == "power_cutoff":
            val = q["exponent"] * s
        elif v == "cesaro":
            g = q["gamma_c"]
            val = math.log(g) + (g - 1.0) * np.log(-np.expm1(s))
        elif v == "riemann_liouville":
            mu = q["mu"]
            val = (mu - 1.0) * np.log(-np.expm1(-s)) - s - math.lgamma(mu)
        else:
            grid = np.asarray(q["grid"], dtype=float)
            with np.errstate(divide="ignore"):
                val = np.log(np.interp(np.exp(s), grid, np.asarray(q["values"], dtype=float)))
        if inside is None:
            return val
        out = np.full(inside.shape, -math.inf)
        out[inside] = val
        return out

    def l1_status(self, cfg: QuadConfig) -> tuple[str, float | None]:
        """("finite", value) or ("infinite", None) for the integral of phi."""
        try:
            r = integrate(self, *self.support(), cfg)
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


def _can_be_negative(f) -> bool:
    """Whether f may take a negative value: a plain callable, or a
    ``sampled`` FunctionSpec with a negative value; every other f with a
    ``log_abs_decomp`` is non-negative by its formula."""
    if not hasattr(f, "log_abs_decomp"):
        return True
    return getattr(f, "family", None) == "sampled" and np.min(f.params["ys"]) < 0.0


def hausdorff_apply_result(
    k: KernelSpec, f, p: JacobiParams, x: float, cfg: QuadConfig
) -> IntegralResult:
    """H f(x) with its quadrature error estimate.

    The integrand is formed in log space, as in :func:`hausdorff_log_grid`,
    so that f(x/t) and A(x/t)/A(x) cannot overflow or meet as inf * 0.  An f
    that may be negative, a plain callable or a ``sampled`` f with a negative
    value, also gives the integrand its sign from f(x/t); every other f is
    read once per node, through its ``log_abs_decomp``.  Where the
    t-integral diverges and f took no negative value on the nodes, value and
    estimate are +inf; a divergence where f changed sign has no value and
    raises DivergentIntegralError.

    A plain callable ``f`` must not underflow to 0 where A(x/t)/A(x) grows:
    without a ``log_abs_decomp`` (as a ``FunctionSpec`` has) the product
    f A is formed from f's value, so a divergent H f can read finite.  With
    adjoint Hardy at (1/2, -1/2), f(u) = u^2 / A(u) as a plain callable gives
    a finite value at x = 0.9, where H f = +inf.  A NaN or infinite x
    raises ParameterError.
    """
    _require_finite("x", x)
    if x == 0.0:
        raise SingularityError("hausdorff_apply is undefined at x = 0")
    log_ax = log_weight_a(p, x)
    log_parts = getattr(f, "log_abs_decomp", None)
    signed = _can_be_negative(f)
    negative = False

    def integrand(t):
        nonlocal negative
        t = np.asarray(t, dtype=float)
        u = x / t
        fv = np.asarray(f(u), dtype=float) if signed else None
        # log f = -inf where f vanishes; an overflow to +inf is divergence
        with np.errstate(divide="ignore", over="ignore"):
            if log_parts is None:
                plain, root = np.log(np.abs(fv)), math.inf
            else:
                plain, root = log_parts(u)
            s = np.log(t)
            out = np.exp(k.log_phi(s) - s + plain
                         + (1.0 - 1.0 / root) * log_weight_a(p, u) - log_ax)
        if not signed:
            return out
        negative = negative or bool((fv < 0.0).any())
        return np.copysign(out, fv)

    try:
        return integrate(integrand, *k.support(), cfg, points=k.breakpoints())
    except DivergentIntegralError:
        if negative:
            raise
        # H f(x) = +inf, as in hausdorff_log_grid
        return IntegralResult(math.inf, math.inf)


# The (7, 15) pair on (-1, 1): its nodes, and as the columns of one table
# its Kronrod weights, the Kronrod-minus-Gauss weights and ones
_UNIT_NODES, _WK, _WG = (w[0] for w in panel_rule([-1.0, 1.0]))
_KD_WEIGHTS = np.stack([_WK, _WK - _WG, np.ones(_WK.size)], axis=-1)
# u = e^sigma is a finite non-zero double on this range; a window reaching
# past it is cut there, as by an artificial clip
_SIGMA_MIN, _SIGMA_MAX = -744.0, 709.0


def _lattice_edges() -> np.ndarray:
    """Panel edges in sigma = log|u|: 0.1 wide on |sigma| <= 8, where f A
    varies on the unit scale of u, then each panel 1.1 times as wide as the
    one inside it, at most 2 wide, with a whole panel to spare beyond the
    range of u at either end."""
    pos = [j / 10.0 for j in range(81)]
    width = 0.1
    while pos[-2] <= -_SIGMA_MIN:
        width = min(1.1 * width, 2.0)
        pos.append(pos[-1] + width)
    pos = np.array(pos)
    return np.concatenate([-pos[:0:-1], pos])


# the lattice depends on nothing but these constants, so a row's panels do
# not depend on the other x values of a call
_EDGES = _lattice_edges()
_LATTICE_SIGMA = panel_rule(_EDGES)[0]
with np.errstate(over="ignore"):
    _LATTICE_U = np.exp(_LATTICE_SIGMA)
# log sinh u and log cosh u at the lattice nodes, which log A combines: the
# weight is evaluated once per node for every call
_LATTICE_LOG_SINH, _LATTICE_LOG_COSH = log_sinh_cosh(_LATTICE_U)
# panels of all the rows of one array pass: 8192 panels keep each temporary
# near 1 MB where a row reads its panels node by node, and table entries,
# one number a panel, ran slower in larger passes
_CHUNK_PANELS = 8192
# the HausdorffImage whose log_abs_decomp is running: hausdorff_log_grid
# uses its tables when called with its k, f, params and cfg
_IMAGE = ContextVar("_IMAGE", default=None)
# e^v is exactly 0 below v = -745.2: a table panel whose peak lies this far
# below its row's shift adds 0 whatever the rounding of its scale
_UNDERFLOW = 747.0
# refinement of a table panel or a row whose estimate exceeds rel_tol: at
# most this many rounds, and this many panel splits in all
_REFINE_ROUNDS = 12
_REFINE_SPLITS = 64
# the nodes a panel keeps for choosing its split point: the two at each
# end; a fall of e^40 at the log slope between two of them takes this
# share of the panel's width
_PROBE = [0, 1, -2, -1]
_E40_REACH = -20.0 * (_UNIT_NODES[1] - _UNIT_NODES[0])
# |K - G| of a panel whose node values carry a relative rounding of eps |L|,
# L their log, is at most about twice that of its Kronrod sum; a panel within
# 16 times that is at its rounding floor, and splitting it gains nothing
_NOISE = 32.0 * np.finfo(float).eps


def _side_edges(ends) -> np.ndarray:
    """The panel edges in sigma = log|u| on one side of u = 0: the
    lattice's, and those of ``ends`` (log|u| at f's support ends and
    breakpoints on that side) that lie inside it, so that no panel
    straddles a point where f starts, stops, jumps or bends."""
    ends = ends[(ends > _EDGES[0]) & (ends < _EDGES[-1])]
    if not ends.size:
        return _EDGES
    e = np.sort(np.concatenate([_EDGES, ends]))
    return e[np.concatenate([[True], e[1:] > e[:-1]])]


def _window_panels(e, s_lo, s_hi, clip_lo, clip_hi):
    """(ja, jb, lo_cut, hi_cut): the whole panels ja .. jb-1 of the edges
    ``e`` inside each window (s_lo, s_hi), and the inner edges of its two
    cut panels (s_lo, lo_cut) and (hi_cut, s_hi).  A window end on an edge
    leaves its cut panel empty, unless it is an artificial clip
    (``clip_lo``, ``clip_hi``), whose cut panel the divergence test and the
    tail charge read.  A cut panel narrower than half of its neighbour takes
    the neighbour in; a window with no whole panel left is halved."""
    ja = np.searchsorted(e, s_lo, side="left")
    jb = np.searchsorted(e, s_hi, side="right") - 1
    on_lo = (e[ja] == s_lo) & ~clip_lo
    on_hi = (e[jb] == s_hi) & ~clip_hi
    ja = ja + ((ja < jb) & ~on_lo & (e[ja] - s_lo < 0.5 * (e[ja + 1] - e[ja])))
    jb = jb - ((ja < jb) & ~on_hi & (s_hi - e[jb] < 0.5 * (e[jb] - e[jb - 1])))
    has = ja < jb
    mid = 0.5 * (s_lo + s_hi)
    return ja, np.where(has, jb, ja), np.where(has, e[ja], mid), np.where(has, e[jb], mid)


def _fa_log(f, p, u, log_a=None):
    """log |f(u)| A(u) at u, of any shape; ``log_a`` is log A(u) if known."""
    plain, root = f.log_abs_decomp(u.ravel())
    if log_a is None:
        log_a = log_weight_a(p, u.ravel())
    return (plain + (1.0 - 1.0 / root) * log_a.ravel()).reshape(u.shape)


def _nodes(lo, hi):
    """(half, sigma): the half-width of each panel (lo, hi) and its 15
    Kronrod nodes, built in one array (a large temporary is allocated, and
    page-faulted, afresh each time)."""
    half = 0.5 * (hi - lo)
    sigma = half[:, None] * _UNIT_NODES
    sigma += 0.5 * (lo + hi)[:, None]
    return half, sigma


def _panel_sums(summand, shift, half):
    """(panels, 3): the Kronrod sum, |Kronrod - Gauss| and the plain sum of
    the node values of each panel of e^(summand - shift); ``summand`` is
    overwritten.  Each row is a dot product of its own against the weight
    table, so its bits do not depend on the other rows; a lone row is
    doubled, since a one-row product takes another summation order."""
    np.subtract(summand, shift[:, None], out=summand)
    vals = np.exp(summand, out=summand)
    out = (np.repeat(vals, 2, axis=0) @ _KD_WEIGHTS)[:1] if half.size == 1 else vals @ _KD_WEIGHTS
    out[:, :2] *= half[:, None]
    np.abs(out[:, 1], out=out[:, 1])
    return out


def _split_points(probe, lo, hi):
    """Where to split each panel, from the two nodes ``probe`` keeps at each
    end.  Where the integrand falls by more than e^40 across the panel, as
    in a boundary layer, the split is where the log slope at the high end
    says it has fallen by e^40, so that the far child, which its own nodes
    cannot resolve, holds less than a rounding error of the panel (a
    sixteenth where the slope is too steep to measure).  Where its log
    changes eight times as steeply at one end as at the other, as at a power
    singularity or an essential zero of phi or f there, the split is a
    sixteenth from that end.  Any other panel is bisected."""
    rise_lo = probe[:, 1] - probe[:, 0]
    rise_hi = probe[:, 2] - probe[:, 3]
    drop = probe[:, 0] - probe[:, 3]
    # the share of the width between the low end and the split
    reach = _E40_REACH / np.where(drop > 0.0, rise_lo, rise_hi)
    reach = np.where(reach > 0.0, np.minimum(reach, 0.5), 1.0 / 16.0)
    steep_lo, steep_hi = np.abs(rise_lo), np.abs(rise_hi)
    share = np.where(steep_lo > np.maximum(0.25, 8.0 * steep_hi), 1.0 / 16.0,
                     np.where(steep_hi > np.maximum(0.25, 8.0 * steep_lo), 15.0 / 16.0, 0.5))
    share = np.where(drop > 40.0, reach, np.where(drop < -40.0, 1.0 - reach, share))
    return lo + share * (hi - lo)


def _refine(owner, lo, hi, sums, probe, shift, live, evaluate, rel_tol, base=None):
    """Refine the panels of each owner, a table panel or a row: while a live
    owner's summed |Kronrod - Gauss| exceeds ``rel_tol`` of its summed
    Kronrod sum, split its panels that carry more than their share of that
    tolerance at :func:`_split_points`, in up to 12 rounds of at most 64
    splits per owner in all.  ``base`` (owners, 3) holds each owner's
    Kronrod sum, |K - G| and count of the panels it does not refine (a
    row's table panels).  ``sums`` are the :func:`_panel_sums` columns
    relative to the owner's ``shift``, and ``probe`` each panel's log values
    at its two nodes nearest each end.  ``evaluate(owner, sigma)``
    gives the log integrand at the children's nodes; a child that peaks
    above its owner's shift raises it, and the owner's sums are rescaled to
    it.  The lower child takes its parent's slot and the upper one goes at
    the end, and no owner's panels depend on another's.
    An owner that splits no panel in a round never splits one again, since
    nothing of its own changed, so each round reads only the panels of the
    owners that split in the last one, in place order: each owner's sums
    are summed over its own panels in the same order as over all of them.
    The panels are kept in arrays that grow by doubling.  Returns (owner,
    origin, lo, hi, sums, probe, shift), origin being the index of the panel
    each one was refined from, or None where no panel split."""
    n, count = shift.size, owner.size
    base = np.zeros((n, 3)) if base is None else base.copy()
    origin = None
    splits = np.zeros(n, dtype=np.intp)
    whole = np.zeros(count, dtype=bool)
    # the panels of the owners that may still split, in place order
    act = np.arange(count)
    for _ in range(_REFINE_ROUNDS):
        o, kron, diff = owner[act], sums[act, 0], sums[act, 1]
        size = base[:, 0] + np.bincount(o, kron, minlength=n)
        need = live & (base[:, 1] + np.bincount(o, diff, minlength=n) > rel_tol * size)
        need &= splits < _REFINE_SPLITS
        if not need.any():
            break
        # a panel is split when it carries more than its share of the tolerance
        fair = rel_tol * size / (base[:, 2] + np.bincount(o, minlength=n))
        pick = np.flatnonzero(need[o] & (diff > fair[o]) & ~whole[act])
        if not pick.size:
            break
        cand = act[pick]
        cut = _split_points(probe[cand], lo[cand], hi[cand])
        # a panel at floating-point resolution stays whole, and so does one
        # whose |K - G| is within the rounding of its largest node values (a
        # log value L is known to eps |L|, and so is e^L); neither is tried
        # again
        ok = (cut > lo[cand]) & (cut < hi[cand]) & (
            diff[pick] > _NOISE * np.abs(probe[cand].max(axis=1)) * kron[pick])
        whole[cand[~ok]] = True
        cand, cut, cdiff = cand[ok], cut[ok], diff[pick[ok]]
        co = owner[cand]
        budget = _REFINE_SPLITS - splits
        if (np.bincount(co, minlength=n) > budget).any():
            # within an owner's remaining budget, its worst panels; the
            # candidates keep their order, so no owner's depends on another's
            order = np.lexsort((-cdiff, co))
            rank = np.empty(cand.size, dtype=np.intp)
            rank[order] = np.arange(cand.size) - np.searchsorted(co[order], co[order])
            keep = rank < budget[co]
            cand, cut, co = cand[keep], cut[keep], co[keep]
        if not cand.size:
            break
        if origin is None:
            origin = np.arange(count)
        split = np.bincount(co, minlength=n)
        splits += split
        klo = np.concatenate([lo[cand], cut])
        khi = np.concatenate([cut, hi[cand]])
        ko = np.concatenate([co, co])
        khalf, ksigma = _nodes(klo, khi)
        ksum = evaluate(ko, ksigma)
        # a peak the first nodes missed (a boundary layer at a window end)
        # raises its owner's shift, and the owner's sums are rescaled to it;
        # only an owner that split can be raised
        raised = shift.copy()
        np.maximum.at(raised, ko, ksum.max(axis=1))
        if (raised > shift).any():
            scale = np.exp(shift - raised)
            sums[act] *= scale[o, None]
            base[:, :2] *= scale[:, None]
            shift = raised
        kprobe = ksum[:, _PROBE]
        ksums = _panel_sums(ksum, shift[ko], khalf)
        m = cand.size
        hi[cand], sums[cand], probe[cand] = cut, ksums[:m], kprobe[:m]
        if count + m > owner.size:
            owner, origin, lo, hi, sums, probe, whole = (
                _grown(a, count, count + m) for a in (owner, origin, lo, hi, sums, probe, whole))
        new = slice(count, count + m)
        owner[new], origin[new], lo[new], hi[new] = co, origin[cand], cut, khi[m:]
        sums[new], probe[new], whole[new] = ksums[m:], kprobe[m:], False
        # an owner that split no panel never splits one again
        act = np.concatenate([act[split[o] > 0], np.arange(count, count + m)])
        count += m
    if origin is not None:
        origin = origin[:count]
    return owner[:count], origin, lo[:count], hi[:count], sums[:count], probe[:count], shift


def _grown(a, count, need):
    """A copy of ``a`` with room for at least ``need`` rows, twice as many
    as it had where that is more, its first ``count`` rows kept."""
    out = np.empty((max(need, 2 * a.shape[0]), *a.shape[1:]), dtype=a.dtype)
    out[:count] = a[:count]
    return out


class _Table:
    """The whole panels that rows take on one side of u = 0, indexed by slot
    and panel of the side's ``edges``: entry slot * width + j for panel j,
    ``width`` one more than the panels, so that a slot's entry ranges may
    end on its spare last entry.  A panel is evaluated the first time a row
    takes it whole (``filled``).

    For a kernel with power pieces, one slot per piece in sigma order, with
    its power t^m in ``ms``: a panel holds the sums of the row-free
    e^(log f A - m sigma), relative to e^peak, its largest node value:
    ``peak``, ``sums`` and ``probe`` from its 15 nodes, and once a row
    needs it refined, ``fine_peak`` and ``fine_sums`` refined to its own
    rel_tol (``done``), the :func:`_panel_sums` columns summed over its
    sub-panels in sigma order.  Both hold those columns as rows, one entry
    a column, so that rows read them as three contiguous gathers.
    For a kernel without power pieces, one slot and ``ms`` None: ``nodes``
    holds log f A at the 15 nodes, to which a row adds its log phi; its
    pieces share the panels.
    A panel depends on nothing but itself, so one table serves every call
    of a :class:`HausdorffImage`."""

    def __init__(self, f, p, side, edges, ms):
        self.f, self.p, self.side, self.edges, self.ms = f, p, side, edges, ms
        self.width = edges.size
        size = self.width * (1 if ms is None else ms.size)
        self.filled = np.zeros(size, dtype=bool)
        if ms is None:
            self.nodes = np.empty((size, _UNIT_NODES.size))
            return
        self.peak = np.full(size, -math.inf)
        self.sums, self.probe = np.zeros((3, size)), np.zeros((size, len(_PROBE)))
        self.fine_peak, self.fine_sums = self.peak.copy(), self.sums.copy()
        self.done = np.zeros(size, dtype=bool)
        self._hulls = None

    def fill(self, ja, jb):
        """Evaluate the panels of the entries ja .. jb - 1 of each range
        that are not filled yet."""
        size = self.filled.size
        used = np.cumsum(np.bincount(ja, minlength=size) - np.bincount(jb, minlength=size)) > 0
        new = np.flatnonzero(used & ~self.filled)
        if not new.size:
            return
        self.filled[new] = True
        slot, j = np.divmod(new, self.width)
        lo, hi = self.edges[j], self.edges[j + 1]
        half, sigma = _nodes(lo, hi)
        u = self.side * np.exp(sigma)
        # log A from the lattice's own nodes where a panel is a lattice panel
        lat = np.minimum(np.searchsorted(_EDGES, lo), _EDGES.size - 2)
        on = (_EDGES[lat] == lo) & (_EDGES[lat + 1] == hi)
        es, ec = self.p.weight_exponents
        log_a = np.empty(sigma.shape)
        log_a[on] = es * _LATTICE_LOG_SINH[lat[on]] + ec * _LATTICE_LOG_COSH[lat[on]]
        log_a[~on] = log_weight_a(self.p, u[~on])
        summand = _fa_log(self.f, self.p, u, log_a)
        if self.ms is None:
            self.nodes[new] = summand
            return
        summand -= self.ms[slot][:, None] * sigma
        peak = summand.max(axis=1)
        live = np.isfinite(peak)
        self.peak[new] = self.fine_peak[new] = peak
        self.probe[new] = summand[:, _PROBE]
        sums = _panel_sums(summand, np.where(live, peak, 0.0), half)
        sums[~live] = 0.0
        self.sums[:, new] = self.fine_sums[:, new] = sums.T
        self._hulls = None

    def hull(self, entry, floor):
        """(first, end) for each query: the entries first .. end - 1 of the
        slot of ``entry`` span every panel there whose peak exceeds
        ``floor``, and first >= end where none does."""
        if self._hulls is None:
            # per slot, the running max of its peaks from its first entry
            # and, negated, from its last: both rise, so a query is a search
            peak = self.peak.reshape(-1, self.width)
            self._hulls = (np.fmax.accumulate(peak, axis=1),
                           -np.fmax.accumulate(peak[:, ::-1], axis=1)[:, ::-1])
        ahead, behind = self._hulls
        base = entry - entry % self.width
        first, end = np.empty(entry.size, dtype=np.intp), np.empty(entry.size, dtype=np.intp)
        for s in range(ahead.shape[0]):
            mine = base == s * self.width
            first[mine] = np.searchsorted(ahead[s], floor[mine], side="right")
            end[mine] = np.searchsorted(behind[s], -floor[mine])
        return base + first, base + end

    def settle(self, which, owner, lo, sums, shift):
        """Store the refinement of the entries ``which``: their sub-panels
        (owner, lo, sums) as :func:`_refine` left them, owner i standing
        for which[i], and each one's ``shift``."""
        order = np.lexsort((lo, owner))
        owner, sums = owner[order], sums[order]
        self.fine_sums[:, which] = np.stack(
            [np.bincount(owner, c, minlength=which.size) for c in sums.T])
        peak = self.peak[which]
        self.fine_peak[which] = np.where(np.isfinite(peak), shift, peak)
        self.done[which] = True


def hausdorff_log_grid(k: KernelSpec, f, p: JacobiParams, xs, cfg: QuadConfig):
    """log A(x) H f(x) at each x in xs for non-negative f, entirely in log
    space so that weight-cancelling tails (f ~ A^(-1/p)) neither overflow nor
    underflow, and callers that multiply H f by a power of A can combine the
    exponents analytically instead of cancelling two huge floats.

    With u = x/t and sigma = log|u|, A(x) H f(x) is the integral over sigma
    of phi(|x| e^(-sigma)) f(u) A(u): a convolution in sigma.  It is taken on
    one fixed Gauss-Kronrod (7, 15) panel lattice in sigma, anchored at
    sigma = 0, 0.1 wide for |u| in (e^-8, e^8) and graded outward, with f's
    support ends and breakpoints added as edges.

    Each row's window is cut into one segment per piece of phi
    (:meth:`KernelSpec.pieces`), at sigma = log|x| - log t of each piece
    edge, so no panel straddles a kink of phi.  On a power piece t^m, phi at
    t = |x| e^(-sigma) is |x|^m e^(-m sigma), so the integrand is one
    row-free function scaled per x.  For each sign of u and each power
    piece, one table holds every panel the rows take whole: its sums of
    e^(log f A - m sigma) from its 15 nodes, relative to its peak, evaluated
    the first time a row takes the panel.  A :class:`HausdorffImage` keeps
    its tables across its calls; any other call builds its own.  A row
    takes its whole panels from the table, each scaled by e^(m log|x| +
    peak - shift), one multiply per panel, and evaluates afresh only its cut
    panels: at its window ends and at the piece edges.  A whole panel whose
    scale is exactly 0 adds exactly 0, so a row reads only the range of its
    table panels that can add more, and counts the rest in its fair share.
    A row whose summed |Kronrod - Gauss| exceeds ``cfg.rel_tol`` takes the
    table panels that carry more than their share of it refined.  A table
    panel is refined once, to its own rel_tol, in the same rounds as the
    rows' cut panels, which a row splits where they carry more than their
    share of its tolerance: up to 12 rounds of at most 64 splits per panel
    or row.  Pieces without a power (Cesaro, Riemann-Liouville, tabulated)
    share one slot of the table, log f A at its nodes, to which a row adds
    log phi at t = |x| e^(-sigma) per node, and a row refines any of its
    panels but those that sum to exactly 0.  A row's panels are summed in
    sigma order, and a table panel depends on nothing but itself, so a
    row's result does not depend on the other x values, on the chunking or
    on the calls before.  The rows go in blocks of at most 8192 segments and
    chunks of about 8192 panels, so memory does not grow with the number of
    x values or pieces.

    Returns (log_vals, rel_err) with log_vals = -inf where H f vanishes and
    +inf where the t-integral diverges: where the integrand peaks at a
    window end cut by ``truncation_t`` (or by the clip at t = 1e-8
    min(|x|, 1)) rather than by a support.  rel_err is the relative error of
    e^log_vals: each panel's |Kronrod - Gauss|, the one error the
    refinement reads, summed over the row (a table panel's over its
    sub-panels); the mass beyond such a cut, extrapolated geometrically from
    the cut panel's mass and log slope; a rounding floor of eps times the
    row's summed node values; and the rounding of the log value returned,
    4 eps |log_vals|.
    ``f`` must provide ``log_abs_decomp`` (see FunctionSpec), and must not
    take a negative value: the engine integrates log|f|, so a signed f would
    give H|f|.  A ``sampled`` f with a negative value, the one catalog family
    that can have one, raises ParameterError, as does an f without
    ``log_abs_decomp``.  A NaN or infinite x raises ParameterError.
    """
    if _can_be_negative(f):
        raise ParameterError(
            "hausdorff_log_grid needs an f with log_abs_decomp that takes no "
            "negative value")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    _require_finite("x", xs)
    if np.any(xs == 0.0):
        raise SingularityError("hausdorff operator is undefined at x = 0")
    # the tables of the image this call evaluates, or new ones
    image = _IMAGE.get()
    same = image is not None and all(
        a is b for a, b in zip((image.k, image.f, image.params, image.cfg), (k, f, p, cfg)))
    tables = image._tables if same else {}
    klo, khi = k.support()
    try:
        flo, fhi = f.support()
    except AttributeError:
        flo, fhi = -math.inf, math.inf
    points = np.asarray(getattr(f, "breakpoints", tuple)(), dtype=float)
    # one errstate for the whole pass: -inf logs, underflowing exponentials
    # and the inf - inf of empty rows are all expected and handled
    with np.errstate(all="ignore"):
        # the window in sigma = log|u|, u = x/t.  Its genuine ends are those
        # of f's support on the side of 0 that u takes and those of phi's at
        # t = |x| e^(-sigma); its artificial clips scale with |x| so that the
        # u range they admit is x-independent (a fixed floor would cut off the
        # peak near t ~ x when f lives at unit scale): t <= truncation_t
        # max(|x|, 1), t >= 1e-8 min(|x|, 1), and u a finite non-zero double.
        # The divergence test and the tail charge look only at a clipped end
        log_x = np.log(np.abs(xs))
        pos = xs > 0.0
        # log|u| at f's support ends and breakpoints on either side of 0,
        # and log t at phi's support ends
        logs = np.log(np.maximum(np.concatenate(
            [[flo, fhi, -fhi, -flo, klo, khi], points, -points]), 0.0))
        f_lo, f_hi, f_lo_neg, f_hi_neg, k_lo, k_hi = logs[:6]
        lo_g = np.maximum(np.where(pos, f_lo, f_lo_neg), log_x - k_hi)
        hi_g = np.minimum(np.where(pos, f_hi, f_hi_neg), log_x - k_lo)
        lo_c = np.maximum(np.minimum(log_x, 0.0) - math.log(cfg.truncation_t), _SIGMA_MIN)
        hi_c = np.minimum(np.maximum(log_x, 0.0) - math.log(1e-8), _SIGMA_MAX)
        cut_lo, cut_hi = lo_c > lo_g, hi_c < hi_g
        s_lo, s_hi = np.maximum(lo_g, lo_c), np.minimum(hi_g, hi_c)
        log_vals = np.full(xs.shape, -math.inf)
        rel_err = np.zeros(xs.shape)
        pts, neg = logs[6:6 + points.size], logs[6 + points.size:]
        # the power t^m of each piece of phi in sigma order, or None
        ms = [m for _, _, m in k.pieces()[::-1]]
        ms = None if ms[0] is None else np.array(ms)
        for side, mine, ends in ((1.0, pos, [f_lo, f_hi, *pts]),
                                 (-1.0, ~pos, [f_lo_neg, f_hi_neg, *neg])):
            r = np.flatnonzero(mine & (s_lo < s_hi))
            if r.size:
                if side not in tables:
                    tables[side] = _Table(f, p, side, _side_edges(np.array(ends)), ms)
                log_vals[r], rel_err[r] = _log_grid_side(
                    k, cfg, tables[side], xs[r], log_x[r], s_lo[r], s_hi[r], cut_lo[r],
                    cut_hi[r])
    return log_vals, rel_err


def _log_grid_side(k, cfg, table, x, log_x, s_lo, s_hi, cut_lo, cut_hi):
    """(log A(x) H f(x), rel_err) for the rows of :func:`hausdorff_log_grid`
    on one side of x = 0, whose windows are not empty, in blocks of rows of
    at most _CHUNK_PANELS segments: a block's segments, one per piece of
    phi, its whole panels filled in the ``table``, and its rows in chunks."""
    n = log_x.size
    # the pieces of phi in sigma order, that is by decreasing t
    order = k.pieces()[::-1]
    kinks = np.array([math.log(a) for a, _, _ in order[:-1]])
    log_vals, rel_err = np.empty(n), np.empty(n)
    step = max(1, _CHUNK_PANELS // len(order))
    b0 = 0
    while b0 < n:
        b = slice(b0, b0 + step)
        lx, lo, hi = log_x[b], s_lo[b], s_hi[b]
        # a segment per piece, split at sigma = log|x| - log t of each kink
        bounds = np.empty((lx.size, len(order) + 1))
        bounds[:, 0], bounds[:, -1] = lo, hi
        bounds[:, 1:-1] = np.clip(lx[:, None] - kinks, lo[:, None], hi[:, None])
        seg_lo, seg_hi = bounds[:, :-1].ravel(), bounds[:, 1:].ravel()
        keep = np.flatnonzero(seg_lo < seg_hi)
        seg_row, seg_piece = keep // len(order), keep % len(order)
        seg_lo, seg_hi = seg_lo[keep], seg_hi[keep]
        ja, jb, lo_cut, hi_cut = _window_panels(
            table.edges, seg_lo, seg_hi, cut_lo[b][seg_row] & (seg_lo == lo[seg_row]),
            cut_hi[b][seg_row] & (seg_hi == hi[seg_row]))
        # a segment takes the table entries ja .. jb - 1 whole, in its
        # piece's slot for a power piece; all other pieces share one slot
        if table.ms is not None:
            ja, jb = ja + seg_piece * table.width, jb + seg_piece * table.width
        whole = ja < jb
        table.fill(ja[whole], jb[whole])
        seg = (seg_row, seg_lo, lo_cut, hi_cut, seg_hi, ja, jb)
        # the rows in chunks of about _CHUNK_PANELS panels read; a power
        # row trims about half of its whole panels as dead (324,558 of
        # 634,704 stay read in a default pass), so those count half
        w = jb - ja if table.ms is None else (jb - ja) // 2
        count = np.cumsum((lo_cut > seg_lo) + w + (seg_hi > hi_cut))
        rows = lx.size
        starts = [0]
        if count[-1] >= _CHUNK_PANELS:
            chunk = count[np.searchsorted(seg_row, np.arange(rows), side="right") - 1]
            chunk //= _CHUNK_PANELS
            starts += list(np.flatnonzero(np.diff(chunk)) + 1)
        # the rows of a block's last chunk go with the next block's
        ends = [*starts[1:], rows]
        if len(starts) > 1 and b0 + rows < n:
            starts, ends = starts[:-1], ends[:-1]
        for r0, r1 in zip(starts, ends):
            c = slice(*np.searchsorted(seg_row, [r0, r1]))
            r = slice(b0 + r0, b0 + r1)
            log_vals[r], rel_err[r] = _log_grid_rows(
                k, cfg, table, x[r], log_x[r], cut_lo[r], cut_hi[r],
                (seg[0][c] - r0, *(a[c] for a in seg[1:])))
        b0 += ends[-1]
    return log_vals, rel_err


def _log_grid_rows(k, cfg, table, x, log_x, cut_lo, cut_hi, seg):
    """(log A(x) H f(x), rel_err) for the rows of one array pass of
    :func:`hausdorff_log_grid`, from their segments ``seg`` and the
    ``table`` of whole panels, filled for them."""
    f, p, side = table.f, table.p, table.side
    n = log_x.size
    srow, s_lo, lo_cut, hi_cut, s_hi, ja, jb = seg
    power = table.ms is not None
    has_lo, has_hi = lo_cut > s_lo, s_hi > hi_cut
    # the panels a row reads node by node: its cut panels, evaluated
    # afresh, and for a kernel without power pieces the table's panels too
    lower, upper = np.flatnonzero(has_lo), np.flatnonzero(has_hi)
    cuts = np.concatenate([lower, upper])
    nlo = np.concatenate([s_lo[lower], hi_cut[upper]])
    nhi = np.concatenate([lo_cut[lower], s_hi[upper]])
    nrow = srow[cuts]
    # the node values next to an artificial cut: the lower cut panel of a
    # row's first segment or the upper one of its last
    first = np.searchsorted(srow, np.arange(n))
    last = np.append(first[1:], srow.size) - 1
    hit_lo, hit_hi = np.flatnonzero(cut_lo), np.flatnonzero(cut_hi)
    if power:
        # every table panel of a row counts in its fair share
        wcount = np.bincount(srow, jb - ja, minlength=n).astype(np.intp)
        half, sigma = _nodes(nlo, nhi)
        summand = _fa_log(f, p, side * np.exp(sigma))
        # log t = log|x| - sigma
        summand += k.log_phi(np.subtract(log_x[nrow, None], sigma, out=sigma))
        end_lo = np.searchsorted(lower, first[hit_lo])
        end_hi = lower.size + np.searchsorted(upper, last[hit_hi])
        # the shift is each row's largest node value, where a table panel's
        # is its peak scaled by |x|^m; rounding is monotone, so a segment's
        # largest is its scale times the range max of the table's peaks
        shift = np.full(n, -math.inf)
        np.maximum.at(shift, nrow, summand.max(axis=1))
        lx = table.ms[ja // table.width] * log_x[srow]
        full = np.flatnonzero(ja < jb)
        if full.size:
            ranges = np.empty(2 * full.size, dtype=np.intp)
            ranges[::2], ranges[1::2] = ja[full], jb[full]
            most = np.maximum.reduceat(table.peak, ranges)[::2]
            np.maximum.at(shift, srow[full], lx[full] + most)
        live = np.isfinite(shift)
        shift = np.where(live, shift, 0.0)
        if full.size:
            # a whole panel whose e^(top - shift) is exactly 0 adds exactly
            # 0 to its row and is never picked: each segment reads only the
            # range of panels that its table says can add more
            a, b = table.hull(ja[full], shift[srow[full]] - lx[full] - _UNDERFLOW)
            ja, jb = ja.copy(), jb.copy()
            ja[full] = np.maximum(ja[full], a)
            jb[full] = np.maximum(np.minimum(jb[full], b), ja[full])
    # each row's panels in sigma order, segment by segment: its lower cut
    # panel unless that is empty, its whole panels from the table, its
    # upper cut panel unless that is empty; ``start`` is a segment's first
    # place in that order
    w = jb - ja
    count = has_lo + w + has_hi
    start = np.cumsum(count) - count
    total = int(start[-1] + count[-1])
    skip = np.cumsum(w) - w
    at = np.arange(int(skip[-1] + w[-1]))
    wtab = at + np.repeat(ja - skip, w)
    wlay = at + np.repeat(start + has_lo - skip, w)
    wrow = np.repeat(srow, w)
    nlay = np.concatenate([start[lower], (start + count - 1)[upper]])
    if not power:
        # every panel in sigma order, the table's read from its nodes
        order = np.empty(total, dtype=np.intp)
        order[np.concatenate([nlay, wlay])] = np.arange(total)
        nlay, nrow = np.arange(total), np.concatenate([nrow, wrow])[order]
        nlo = np.concatenate([nlo, table.edges[wtab]])[order]
        nhi = np.concatenate([nhi, table.edges[wtab + 1]])[order]
        wtab = np.concatenate([np.full(cuts.size, -1), wtab])[order]
        half, sigma = _nodes(nlo, nhi)
        summand = table.nodes[np.maximum(wtab, 0)]
        own = np.flatnonzero(wtab < 0)
        summand[own] = _fa_log(f, p, side * np.exp(sigma[own]))
        summand += k.log_phi(np.subtract(log_x[nrow, None], sigma, out=sigma))
        end_lo, end_hi = start[first[hit_lo]], (start + count - 1)[last[hit_hi]]
        shift = np.maximum.reduceat(summand.ravel(), start[first] * _UNIT_NODES.size)
        live = np.isfinite(shift)
        shift = np.where(live, shift, 0.0)
    probe = summand[:, _PROBE]
    ends = [(hit_lo, 0, end_lo, summand[end_lo]), (hit_hi, -1, end_hi, summand[end_hi])]
    sums = _panel_sums(summand, shift[nrow], half)
    fresh = np.empty(0, dtype=np.intp)
    if power:
        # a row whose estimate exceeds rel_tol takes its table panels that
        # carry more than their share of it refined, each once for the
        # table and to its own rel_tol; the rest it takes as their 15 nodes
        # give them.  A table panel's entry is scaled by one multiply
        scaled = table.sums[:, wtab]
        lxw = np.repeat(lx, w)
        top = lxw + table.peak[wtab]
        scale = np.exp(top - shift[wrow])
        kron = np.bincount(wrow, scaled[0] * scale, minlength=n)
        diff = np.bincount(wrow, scaled[1] * scale, minlength=n)
        size = kron + np.bincount(nrow, sums[:, 0], minlength=n)
        fair = cfg.rel_tol * size / (wcount + np.bincount(nrow, minlength=n))
        need = live & (diff + np.bincount(nrow, sums[:, 1], minlength=n) > cfg.rel_tol * size)
        pick = np.flatnonzero(need[wrow])
        pick = pick[scaled[1, pick] * scale[pick] > fair[wrow[pick]]]
        if pick.size:
            # while the cut panels refine, a picked panel counts as converged
            diff -= np.bincount(wrow[pick], scaled[1, pick] * scale[pick], minlength=n)
            fresh = np.flatnonzero(np.bincount(wtab[pick], minlength=table.done.size))
            fresh = fresh[~table.done[fresh]]
        base = np.stack([kron, diff, wcount], axis=1).astype(float)
    # an integrand peaking at the outermost node next to an artificial cut,
    # with non-negligible magnitude, grows toward the cut: the t-integral
    # diverges there.  The mass beyond the cut: the next panel of the cut
    # panel's width is taken as r times its mass, r = e^(-slope * width)
    # from its two outermost nodes, at most 0.9 as in quad's dyadic tail
    divergent = np.zeros(n, dtype=bool)
    tail = np.zeros(n)
    span = 0.5 * (_UNIT_NODES[-1] - _UNIT_NODES[0])
    for hit, out, panel, end in ends:
        divergent[hit] |= live[hit] & (end[:, out] == shift[hit])
        ratio = np.exp(np.fmin((end[:, out] - end[:, -1 - out]) / span, math.log(0.9)))
        tail[hit] += sums[panel, 0] * ratio / (1.0 - ratio)
    if divergent.any():
        divergent[divergent] = shift[divergent] - log_weight_a(p, x[divergent]) > -650.0
        live &= ~divergent
    if not power:
        # a panel whose node values are all 0 adds exactly 0 and is never
        # split: it is dropped and counted in its row's fair share
        zero = sums[:, 2] == 0.0
        base = np.zeros((n, 3))
        if zero.any():
            base[:, 2] = np.bincount(nrow[zero], minlength=n)
            keep = np.flatnonzero(~zero)
            nrow, nlo, nhi, sums, probe = nrow[keep], nlo[keep], nhi[keep], sums[keep], probe[keep]
            nlay = np.arange(keep.size)
            total = keep.size

    # the picked table panels not refined yet join the same rounds, as
    # owners 0 .. t-1
    t = fresh.size
    if t:
        fj = fresh % table.width
        nrow = np.concatenate([np.arange(t), nrow + t])
        nlo = np.concatenate([table.edges[fj], nlo])
        nhi = np.concatenate([table.edges[fj + 1], nhi])
        sums = np.concatenate([table.sums[:, fresh].T, sums])
        probe = np.concatenate([table.probe[fresh], probe])
        peak = table.peak[fresh]
        shift = np.concatenate([np.where(np.isfinite(peak), peak, 0.0), shift])
        live = np.concatenate([np.isfinite(peak), live])
        base = np.concatenate([np.zeros((t, 3)), base])

    def evaluate(owner, s):
        # log t = log|x| - sigma for a row, and sigma m for a table panel
        v = _fa_log(f, p, side * np.exp(s))
        if not t:
            return v + k.log_phi(log_x[owner, None] - s)
        mine = np.flatnonzero(owner >= t)
        other = np.flatnonzero(owner < t)
        v[other] -= table.ms[fresh[owner[other]] // table.width][:, None] * s[other]
        v[mine] += k.log_phi(log_x[owner[mine] - t, None] - s[mine])
        return v

    origin, raised = None, shift
    if not power or t or need.any():
        # (a power row that needed no refinement before its divergence test
        # needs none after it)
        nrow, origin, nlo, _, sums, _, raised = _refine(
            nrow, nlo, nhi, sums, probe, shift, live, evaluate, cfg.rel_tol, base)
    if t:
        mine = nrow >= t
        table.settle(fresh, nrow[~mine], nlo[~mine], sums[~mine], raised[:t])
        nrow, nlo, sums = nrow[mine] - t, nlo[mine], sums[mine]
        origin = None if origin is None else origin[mine] - t
        shift, raised, live = shift[t:], raised[t:], live[t:]
    if power:
        if pick.size:
            # a picked panel enters refined, and its peak can raise its
            # row's shift
            scaled[:, pick] = table.fine_sums[:, wtab[pick]]
            top[pick] = lxw[pick] + table.fine_peak[wtab[pick]]
            most = raised.copy()
            np.maximum.at(most, wrow[pick], top[pick])
            most = np.where(live, most, raised)
            sums *= np.exp(raised - most)[nrow, None]
            raised = most
        scale = np.exp(top - raised[wrow]) if pick.size or (raised != shift).any() else scale
        scaled *= scale
    tail *= np.exp(shift - raised)

    # each row's panels in sigma order, a split panel replaced by its
    # pieces in sigma order, summed one after the other; each reports the
    # |K - G| its refinement read, a table panel summed over its sub-panels
    npos, wpos = nlay, wlay
    if origin is not None:
        order = np.lexsort((nlo, origin))
        nrow, origin, sums = nrow[order], origin[order], sums[order]
        pieces = np.ones(total, dtype=np.intp)
        pieces[nlay] = np.bincount(origin, minlength=nlay.size)
        place = np.cumsum(pieces) - pieces
        npos = place[nlay[origin]] + np.arange(origin.size) - np.searchsorted(origin, origin)
        # (a pass without powers has no wlay left once it drops panels)
        wpos = place[wlay] if power else None
        total = int(place[-1] + pieces[-1])
    owners, cols = np.empty(total, dtype=np.intp), np.empty((3, total))
    owners[npos], cols[:, npos] = nrow, sums.T
    if power:
        owners[wpos], cols[:, wpos] = wrow, scaled
    size, err, mag = (np.bincount(owners, c, minlength=n) for c in cols)
    log_vals = np.where(divergent, math.inf, -math.inf)
    good = live & (size > 0.0)
    log_vals[good] = raised[good] + np.log(size[good])
    rel_err = np.zeros(n)
    # |K - G| of a smooth converged row can read far below its rounding
    # error: eps per node value, summed without the weights, bounds that;
    # and the log value returned, L, is itself known to a few eps |L|
    eps = np.finfo(float).eps
    floor = eps * mag[good] + 4.0 * eps * np.abs(log_vals[good]) * size[good]
    rel_err[good] = (err[good] + tail[good] + floor) / size[good]
    return log_vals, rel_err


class HausdorffImage:
    """H f for a non-negative f, as a function the norms of ``bounds`` take
    in log space: log|H f| = log(A H f) - log A, the form of
    ``FunctionSpec.log_abs_decomp`` with root 1, so a norm integrand forms
    p log(A H f) + (1 - p) log A without cancelling two huge floats.
    Each call evaluates :func:`hausdorff_log_grid` at the given nodes, on
    tables the image keeps for all of its calls: a whole panel is evaluated
    and refined once for the image, so a later call evaluates f only at the
    nodes of its own cut panels and of panels no call took before.
    :meth:`breakpoints` states where H f bends, for the norms' panel edges."""

    def __init__(self, k: KernelSpec, f, params: JacobiParams, cfg: QuadConfig):
        self.k, self.f, self.params, self.cfg = k, f, params, cfg
        self._tables = {}

    def support(self) -> tuple[float, float]:
        # whatever the supports of phi and f, H f is left to vanish where the
        # engine finds it 0: the norm's domain and mesh stay the caller's
        return -math.inf, math.inf

    @property
    def is_even(self) -> bool:
        # A is even, so H commutes with x -> -x: H f is even when f is
        return getattr(self.f, "is_even", False)

    def breakpoints(self) -> np.ndarray:
        """The x where H f may bend, sorted and unique: the products u t of
        f's finite non-zero support ends and breakpoints u with the kernel's
        finite positive piece edges t where u or t is an end of its support.
        H f(x) integrates f(x/t) against phi(t), so an end, where f or phi
        may jump, meets every kink of the other at x = u t; two inner kinks
        only make the third derivative of H f jump there, and their products
        are left out, as their number is the product of the two counts (a
        200-point tabulated kernel against a 41-node sampled f would cut a
        norm's first round into 8,200 panels).  Empty for an f that states
        neither support nor breakpoints (a plain callable)."""
        t_end = {e for e in self.k.support() if 0.0 < e < math.inf}
        t_all = t_end | set(self.k.breakpoints())
        u_end = {e for e in getattr(self.f, "support", tuple)() if e != 0.0 and math.isfinite(e)}
        u_all = u_end | {e for e in getattr(self.f, "breakpoints", tuple)() if e != 0.0}
        return np.array(sorted({u * t for u in u_end for t in t_all}
                               | {u * t for u in u_all for t in t_end}))

    def log_abs_decomp(self, x):
        """(log A(x) H f(x), 1.0, rel_err) at an array ``x``: -inf and 0 at
        x = 0, and rel_err the engine's relative error estimate per node."""
        x = np.asarray(x, dtype=float)
        core, rel = np.full(x.shape, -math.inf), np.zeros(x.shape)
        live = x != 0.0
        if live.any():
            # the engine takes the image's tables from _IMAGE while it runs
            token = _IMAGE.set(self)
            try:
                core[live], rel[live] = hausdorff_log_grid(
                    self.k, self.f, self.params, x[live], self.cfg)
            finally:
                _IMAGE.reset(token)
        return core, 1.0, rel


def commutation_residual(
    k: KernelSpec, f: FunctionSpec, p: JacobiParams, lam: float, cfg: QuadConfig
) -> tuple[complex, complex, float, float]:
    """(lhs, rhs, gap, err) for a non-negative f: the spectral transform of
    H f at lam, the kernel average of the transform of f at lam*t, their
    distance |lhs - rhs| and an estimate of its error.

    lhs is one :func:`quad.integrate` run in x of A H f G_lambda(-x) over
    the extreme products of f's and phi's support ends, outside which H f
    vanishes, cut at |x| = truncation_x.  Each refinement round takes A H f
    = exp(log A H f), which neither overflows nor meets inf * 0 as x -> 0,
    and the engine's relative error at its new nodes from one
    :func:`hausdorff_log_grid` call, and G with its bound from one
    ``_g_batch`` call; the inner error of a node is |A H f| times |G| times
    that relative error plus G's bound.  A 0 end, where A H f tends to a
    constant for adjoint Hardy, is reached in log coordinates.  (No
    ``cutoff``: its tail charge extrapolates from the last full dyadic block
    and reads far above an integrand that is negligible at the cut.)  rhs is
    one :func:`quad.integrate` run in t over (lo, b), phi's support (lo, hi)
    cut at b = min(hi, truncation_t, truncation_lambda/|lam|), so that |lam t|
    stays within the spectral range; phi's breakpoints are panel edges, and
    a 0 end is reached in log coordinates.  So is phi's power end, when b
    reaches it (:meth:`KernelSpec.power_end`), in tau = hi - t, with phi
    taken from tau.  A batch holds that round's new
    nodes, 30 per split panel.
    It integrates phi(t) u(lam t), u the transform of f, with |phi(t)|
    times u's own estimate as its inner error; f's Abel transforms are built
    once, for |lam t| up to |lam| b, and each refinement round takes u at
    that round's new nodes from one cosine transform of them, and a panel
    whose |Kronrod - Gauss| is within its nodes' inner error is not split.
    err adds
    - lhs's integrate estimate: its final panels' |Kronrod - Gauss|, the
      Kronrod-weighted inner errors and the tail charge of a 0 end;
    - rhs's integrate estimate: the final panels' |Kronrod - Gauss| in t,
      the Kronrod-weighted |phi| times each transform's own estimate, and
      the tail charge of a 0 end;
    - for b < hi, phi's mass beyond b, its integral over (b, hi) plus that
      integral's estimate, times |u| (plus its estimate) at b, as
      oc_inverse_result charges its excised window.

    Like transform_grid, lhs leaves out H f beyond |x| = truncation_x.
    Requires phi integrable; raises KernelNotIntegrableError otherwise,
    ParameterError for an f that takes a negative value or a lam so large
    that the t range is empty, and BudgetExhaustedError when the lhs's run
    in x or the rhs's in t spends ``max_subdivisions`` splits before it
    converges or reaches its noise floor.
    """
    lo, hi = k.support()
    try:
        l1 = integrate(k, lo, hi, cfg)
    except DivergentIntegralError:
        raise KernelNotIntegrableError(
            f"kernel {k.variant!r} is not integrable; the identity assumes it is"
        ) from None
    b = min(hi, cfg.truncation_t, cfg.truncation_lambda / abs(lam) if lam else math.inf)
    if not lo < b:
        raise ParameterError(
            f"|lam| = {abs(lam)} puts lam t beyond truncation_lambda on all of "
            "phi's support")

    image = HausdorffImage(k, f, p, cfg)
    # H f(x) takes f at x / t for t in phi's support: it vanishes outside the
    # products of the two supports' ends (0 inf, undefined, is left open)
    with np.errstate(invalid="ignore"):
        ends = np.multiply.outer(f.support(), (lo, hi)).ravel()
    hf_lo, hf_hi = ((-math.inf, math.inf) if np.isnan(ends).any()
                    else (float(ends.min()), float(ends.max())))

    def transformed(x):
        # A H f G_lambda(-x), A H f from one engine call per round, with the
        # engine's relative error and G's bound
        core, _, rel = image.log_abs_decomp(x)
        ahf = np.exp(core)
        g, g_err = _g_batch(p, [lam], -x)
        return ahf * g[0], ahf * (rel * np.abs(g[0]) + g_err[0])

    lhs = integrate(transformed, max(hf_lo, -cfg.truncation_x), min(hf_hi, cfg.truncation_x), cfg)
    abel = _abel_transform(f, p, cfg, abs(lam) * b if lam else 0.0)

    def averaged(t):
        # phi(t) u(lam t), u from one cosine transform per round
        u, u_err = _cosine_transform(abel, p, lam * t)
        phi = k(t)
        return phi * u, np.abs(phi) * u_err

    phi_hi = k.power_end()
    if phi_hi is not None and b == hi:
        # t = hi - tau, so that phi's power end is a 0 end in tau, reached in
        # log coordinates: bisection in t halves its way toward it, 46 splits
        # for Cesaro gamma_c = 1/2 at rel_tol 1e-8

        def from_end(tau):
            u, u_err = _cosine_transform(abel, p, lam * (hi - tau))
            phi = phi_hi(tau)
            return phi * u, phi * u_err

        r = integrate(from_end, 0.0, hi - lo, cfg)
    else:
        r = integrate(averaged, lo, b, cfg, points=k.breakpoints())
    err = lhs.err_estimate + r.err_estimate
    if b < hi:
        mass = integrate(k, b, hi, cfg, points=k.breakpoints())
        u_cut, u_cut_err = _cosine_transform(abel, p, [lam * b])
        err += (abs(mass.value) + mass.err_estimate) * (abs(u_cut[0]) + u_cut_err[0])
    return complex(lhs.value), complex(r.value), float(abs(lhs.value - r.value)), float(err)
