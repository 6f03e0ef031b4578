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
from .octransform import FunctionSpec, transform_grid
from .quad import IntegralResult, QuadConfig, integrate, panel_rule
from .specfun import JacobiParams, log_sinh_cosh, log_weight_a

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
    a finite value at x = 0.9, where H f = +inf.
    """
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
        return integrate(integrand, *k.support(), cfg)
    except DivergentIntegralError:
        if negative:
            raise
        # H f(x) = +inf, as in hausdorff_log_grid
        return IntegralResult(math.inf, math.inf)


# The (7, 15) pair on (-1, 1): its nodes, and as the two columns of one
# table its Kronrod weights and the Kronrod-minus-Gauss weights
_UNIT_NODES, _WK, _WG = (w[0] for w in panel_rule([-1.0, 1.0]))
_KD_WEIGHTS = np.stack([_WK, _WK - _WG], axis=-1)
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
# panels of all the rows of one array pass: 8192 panels of 15 nodes keep
# each temporary near 1 MB
_CHUNK_PANELS = 8192
# refinement of a row whose estimate exceeds rel_tol: at most this many
# rounds, and this many panel splits in all
_REFINE_ROUNDS = 12
_REFINE_SPLITS = 64
# the nodes a panel keeps for choosing its split point: the two at each
# end; a fall of e^40 at the log slope between two of them takes this
# share of the panel's width
_PROBE = [0, 1, -2, -1]
_E40_REACH = -20.0 * (_UNIT_NODES[1] - _UNIT_NODES[0])


def _window_panels(s_lo, s_hi):
    """(ja, jb, lo_cut, hi_cut): the whole lattice panels ja .. jb-1 inside
    each window (s_lo, s_hi), and the inner edges of its two cut panels
    (s_lo, lo_cut) and (hi_cut, s_hi).  A cut panel narrower than half of
    its lattice neighbour takes the neighbour in; a window with no whole
    panel left is halved."""
    e = _EDGES
    ja = np.searchsorted(e, s_lo, side="left")
    jb = np.searchsorted(e, s_hi, side="right") - 1
    ja = ja + ((ja < jb) & (e[ja] - s_lo < 0.5 * (e[ja + 1] - e[ja])))
    jb = jb - ((ja < jb) & (s_hi - e[jb] < 0.5 * (e[jb] - e[jb - 1])))
    has = ja < jb
    mid = 0.5 * (s_lo + s_hi)
    return ja, np.where(has, jb, ja), np.where(has, e[ja], mid), np.where(has, e[jb], mid)


def _fa_log(f, p, u, log_a=None):
    """log |f(u)| A(u) at u, of any shape; ``log_a`` is log A(u) if known."""
    plain, root = f.log_abs_decomp(u.ravel())
    if log_a is None:
        log_a = log_weight_a(p, u.ravel())
    return (plain + (1.0 - 1.0 / root) * log_a.ravel()).reshape(u.shape)


def _panel_sums(summand, shift, half):
    """Kronrod sum, |Kronrod - Gauss| and the plain sum of the node values of
    each panel of e^(summand - shift), overwriting ``summand``.  Each row is a
    dot product of its own against the weight table, so its bits do not
    depend on the other rows."""
    np.subtract(summand, shift[:, None], out=summand)
    kd = np.exp(summand, out=summand) @ _KD_WEIGHTS
    return kd[:, 0] * half, np.abs(kd[:, 1]) * half, summand.sum(axis=1)


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


def hausdorff_log_grid(k: KernelSpec, f, p: JacobiParams, xs, cfg: QuadConfig):
    """log A(x) H f(x) at each x in xs for non-negative f, entirely in log
    space so that weight-cancelling tails (f ~ A^(-1/p)) neither overflow nor
    underflow, and callers that multiply H f by a power of A can combine the
    exponents analytically instead of cancelling two huge floats.

    With u = x/t and sigma = log|u|, A(x) H f(x) is the integral over sigma
    of phi(|x| e^(-sigma)) f(u) A(u): a convolution in sigma.  It is taken on
    one fixed Gauss-Kronrod (7, 15) panel lattice in sigma, anchored at
    sigma = 0, 0.1 wide for |u| in (e^-8, e^8) and graded outward.  Each
    array pass evaluates log f A once per node of the lattice panels its
    rows need; a row adds log phi at log t = log|x| - sigma, and evaluates
    afresh only two cut panels at its own window ends.  A row whose summed
    |Kronrod - Gauss| exceeds ``cfg.rel_tol`` splits the panels that carry
    more than their share of it, in up to 12 rounds of at most 64 splits in
    all.  A row's panels are summed in sigma order, so its result does not
    depend on the other x values or on the chunking.

    Returns (log_vals, rel_err) with log_vals = -inf where H f vanishes and
    +inf where the t-integral diverges: where the integrand peaks at a
    window end cut by ``truncation_t`` (or by the clip at t = 1e-8
    min(|x|, 1)) rather than by a support.  rel_err sums each panel's
    QUADPACK error estimate, the mass beyond such a cut, extrapolated
    geometrically from the cut panel's mass and log slope, and a rounding
    floor of eps times the row's summed node values.
    ``f`` must provide ``log_abs_decomp`` (see FunctionSpec), and must not
    take a negative value: the engine integrates log|f|, so a signed f would
    give H|f|.  A ``sampled`` f with a negative value, the one catalog family
    that can have one, raises ParameterError, as does an f without
    ``log_abs_decomp``.
    """
    if _can_be_negative(f):
        raise ParameterError(
            "hausdorff_log_grid needs an f with log_abs_decomp that takes no "
            "negative value")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs == 0.0):
        raise SingularityError("hausdorff operator is undefined at x = 0")
    klo, khi = k.support()
    try:
        flo, fhi = f.support()
    except AttributeError:
        flo, fhi = -math.inf, math.inf
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
        # log|u| at f's support ends on either side of 0, and log t at phi's
        f_lo, f_hi, f_lo_neg, f_hi_neg, k_lo, k_hi = np.log(np.maximum(
            [flo, fhi, -fhi, -flo, klo, khi], 0.0))
        lo_g = np.maximum(np.where(pos, f_lo, f_lo_neg), log_x - k_hi)
        hi_g = np.minimum(np.where(pos, f_hi, f_hi_neg), log_x - k_lo)
        lo_c = np.maximum(np.minimum(log_x, 0.0) - math.log(cfg.truncation_t), _SIGMA_MIN)
        hi_c = np.minimum(np.maximum(log_x, 0.0) - math.log(1e-8), _SIGMA_MAX)
        cut_lo, cut_hi = lo_c > lo_g, hi_c < hi_g
        s_lo, s_hi = np.maximum(lo_g, lo_c), np.minimum(hi_g, hi_c)
        log_vals = np.full(xs.shape, -math.inf)
        rel_err = np.zeros(xs.shape)
        rows = np.flatnonzero(s_lo < s_hi)
        ja, jb, lo_cut, hi_cut = _window_panels(s_lo[rows], s_hi[rows])
        # the rows in chunks of about _CHUNK_PANELS panels, counting each
        # row's whole panels and its two cut panels
        chunk = np.cumsum(jb - ja + 2) // _CHUNK_PANELS
        starts = np.flatnonzero(np.diff(chunk, prepend=-1))
        for c0, c1 in zip(starts, [*starts[1:], rows.size]):
            r = rows[c0:c1]
            log_vals[r], rel_err[r] = _log_grid_rows(
                k, f, p, cfg, xs[r], log_x[r], s_lo[r], s_hi[r],
                ja[c0:c1], jb[c0:c1], lo_cut[c0:c1], hi_cut[c0:c1],
                cut_lo[r], cut_hi[r])
    return log_vals, rel_err


def _log_grid_rows(k, f, p, cfg, x, log_x, s_lo, s_hi, ja, jb,
                   lo_cut, hi_cut, cut_lo, cut_hi):
    """(log A(x) H f(x), rel_err) for the rows of one array pass of
    :func:`hausdorff_log_grid`."""
    n = x.size
    sign = np.where(x < 0.0, -1.0, 1.0)
    # each row's panels in sigma order: the lower cut panel, its whole
    # lattice panels ja .. jb-1, the upper cut panel
    counts = jb - ja + 2
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    row = np.repeat(np.arange(n), counts)
    gidx = np.arange(row.size) + np.repeat(ja - first - 1, counts)
    lo, hi = _EDGES[gidx], _EDGES[gidx + 1]
    lo[first], hi[first], lo[last], hi[last] = s_lo, lo_cut, hi_cut, s_hi
    half = 0.5 * (hi - lo)
    # log f A once per node of the lattice panels the rows need, in one
    # table per sign of u, side by side; ``offset`` takes a row's lattice
    # index to its table row
    es, ec = p.weight_exponents
    tables, offset, filled = [], np.zeros(n, dtype=np.intp), 0
    for side in (sign[0],) if (sign == sign[0]).all() else (1.0, -1.0):
        mine = (sign == side) & (jb > ja)
        if mine.any():
            j = slice(ja[mine].min(), jb[mine].max())
            log_a = es * _LATTICE_LOG_SINH[j] + ec * _LATTICE_LOG_COSH[j]
            tables.append(_fa_log(f, p, side * _LATTICE_U[j], log_a))
            offset[mine] = filled - j.start
            filled += j.stop - j.start
    # the cut panels' rows of the gather are overwritten afresh
    ends = np.concatenate([first, last])
    if tables:
        table = np.concatenate(tables) if len(tables) > 1 else tables[0]
        summand = table[np.clip(gidx + offset[row], 0, filled - 1)]
    else:
        summand = np.empty((row.size, _UNIT_NODES.size))
    sigma = _LATTICE_SIGMA[gidx]
    sigma[ends] = 0.5 * (lo[ends] + hi[ends])[:, None] + half[ends, None] * _UNIT_NODES
    summand[ends] = _fa_log(f, p, sign[row[ends], None] * np.exp(sigma[ends]))
    # log t = log|x| - sigma
    summand += k.log_phi(np.subtract(log_x[row, None], sigma, out=sigma))

    # the shift is each row's largest node value; an integrand peaking at
    # the outermost node next to an artificial cut, with non-negligible
    # magnitude, grows toward the cut: the t-integral diverges there
    shift = np.maximum.reduceat(summand.ravel(), first * _UNIT_NODES.size)
    live = np.isfinite(shift)
    divergent = np.zeros(n, dtype=bool)
    # the mass beyond an artificial cut: the next panel of the cut panel's
    # width is taken as r times its mass, r = e^(-slope * width) from its
    # two outermost nodes, at most 0.9 as in quad's dyadic tail
    span = 0.5 * (_UNIT_NODES[-1] - _UNIT_NODES[0])
    cut_ends = []
    for cut, panel, out, inner in ((cut_lo, first, 0, -1), (cut_hi, last, -1, 0)):
        if cut.any():
            hit, end = np.flatnonzero(cut), summand[panel[cut]]
            divergent[hit] |= end[:, out] == shift[hit]
            ratio = np.exp(np.fmin((end[:, out] - end[:, inner]) / span, math.log(0.9)))
            cut_ends.append((hit, panel[cut], ratio))
    divergent &= live
    if divergent.any():
        divergent[divergent] = shift[divergent] - log_weight_a(p, x[divergent]) > -650.0
        live &= ~divergent
    # rows that are not live are dropped below; shifting them by 0 keeps
    # their inf - inf out of the exponent
    shift = np.where(live, shift, 0.0)
    probe = summand[:, _PROBE]
    kron, diff, mag = _panel_sums(summand, shift[row], half)
    tail = np.zeros(n)
    for hit, panel, ratio in cut_ends:
        tail[hit] += kron[panel] * ratio / (1.0 - ratio)

    splits = np.zeros(n, dtype=np.intp)
    refined = False
    for _ in range(_REFINE_ROUNDS):
        size = np.bincount(row, kron, minlength=n)
        need = live & (np.bincount(row, diff, minlength=n) > cfg.rel_tol * size)
        need &= splits < _REFINE_SPLITS
        if not need.any():
            break
        # a panel is split when it carries more than its share of the tolerance
        fair = cfg.rel_tol * size / np.bincount(row, minlength=n)
        cand = np.flatnonzero(need[row] & (diff > fair[row]))
        cut = _split_points(probe[cand], lo[cand], hi[cand])
        # a panel at floating-point resolution stays whole
        ok = (cut > lo[cand]) & (cut < hi[cand])
        cand, cut = cand[ok], cut[ok]
        cr = row[cand]
        budget = _REFINE_SPLITS - splits
        if (np.bincount(cr, minlength=n) > budget).any():
            # within a row's remaining budget, its worst panels; the
            # candidates keep their order, so no row's depends on another's
            order = np.lexsort((-diff[cand], cr))
            rank = np.empty(cand.size, dtype=np.intp)
            rank[order] = np.arange(cand.size) - np.searchsorted(cr[order], cr[order])
            keep = rank < budget[cr]
            cand, cut, cr = cand[keep], cut[keep], cr[keep]
        if not cand.size:
            break
        refined = True
        splits += np.bincount(cr, minlength=n)
        # the two children: the lower one takes the parent's slot, the upper
        # one goes at the end
        klo = np.concatenate([lo[cand], cut])
        khi = np.concatenate([cut, hi[cand]])
        kr = np.concatenate([cr, cr])
        khalf = 0.5 * (khi - klo)
        ksig = 0.5 * (klo + khi)[:, None] + khalf[:, None] * _UNIT_NODES
        ksum = (_fa_log(f, p, sign[kr, None] * np.exp(ksig))
                + k.log_phi(log_x[kr, None] - ksig))
        # a peak the first nodes missed (a boundary layer at a window end)
        # raises its row's shift, and the row's sums are rescaled to it
        raised = shift.copy()
        np.maximum.at(raised, kr, ksum.max(axis=1))
        if (raised > shift).any():
            scale = np.exp(shift - raised)
            kron, diff, mag = kron * scale[row], diff * scale[row], mag * scale[row]
            tail, shift = tail * scale, raised
        kprobe = ksum[:, _PROBE]
        kk, kd, km = _panel_sums(ksum, shift[kr], khalf)
        m = cand.size
        hi[cand], kron[cand], diff[cand], probe[cand] = cut, kk[:m], kd[:m], kprobe[:m]
        mag[cand] = km[:m]
        row = np.concatenate([row, cr])
        lo = np.concatenate([lo, cut])
        hi = np.concatenate([hi, khi[m:]])
        kron = np.concatenate([kron, kk[m:]])
        diff = np.concatenate([diff, kd[m:]])
        mag = np.concatenate([mag, km[m:]])
        probe = np.concatenate([probe, kprobe[m:]])

    # each row's panels summed in sigma order, one after the other; the
    # zeros that pad the shorter rows add nothing.  |K - G| is the error of
    # the Gauss sum: refinement is driven by it, but a panel reports
    # QUADPACK's estimate of the Kronrod error, |K - G| min(1, (200 |K - G|
    # / K)^1.5), as scipy's quad does
    if refined:
        order = np.lexsort((lo, row))
        row, kron, diff, mag = row[order], kron[order], diff[order], mag[order]
    diff = np.where(diff > 0.0, diff * np.minimum(1.0, (200.0 * diff / kron) ** 1.5), 0.0)
    counts = np.bincount(row, minlength=n)
    rank = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
    pad = np.zeros((2, n, int(counts.max())))
    pad[0, row, rank], pad[1, row, rank] = kron, diff
    size, err = np.cumsum(pad, axis=-1)[..., -1]
    log_vals = np.where(divergent, math.inf, -math.inf)
    good = live & (size > 0.0)
    log_vals[good] = shift[good] + np.log(size[good])
    rel_err = np.zeros(n)
    # the QUADPACK estimate of a converged row can read far below its
    # rounding error (1e-33 for an error of 4e-16 on a smooth row): eps per
    # node value, summed without the weights, bounds it
    floor = np.finfo(float).eps * np.bincount(row, mag, minlength=n)
    rel_err[good] = (err[good] + tail[good] + floor[good]) / size[good]
    return log_vals, rel_err


class HausdorffImage:
    """H f for a non-negative f, as a function the norms of ``bounds`` take
    in log space: log|H f| = log(A H f) - log A, the form of
    ``FunctionSpec.log_abs_decomp`` with root 1, so a norm integrand forms
    p log(A H f) + (1 - p) log A without cancelling two huge floats.
    Each call evaluates :func:`hausdorff_log_grid` at the given nodes."""

    def __init__(self, k: KernelSpec, f, params: JacobiParams, cfg: QuadConfig):
        self.k, self.f, self.params, self.cfg = k, f, params, cfg

    def support(self) -> tuple[float, float]:
        # whatever the supports of phi and f, H f is left to vanish where the
        # engine finds it 0: the norm's domain and mesh stay the caller's
        return -math.inf, math.inf

    def log_abs_decomp(self, x):
        """(log A(x) H f(x), 1.0, rel_err) at an array ``x``: -inf and 0 at
        x = 0, and rel_err the engine's relative error estimate per node."""
        x = np.asarray(x, dtype=float)
        core, rel = np.full(x.shape, -math.inf), np.zeros(x.shape)
        live = x != 0.0
        if live.any():
            core[live], rel[live] = hausdorff_log_grid(
                self.k, self.f, self.params, x[live], self.cfg)
        return core, 1.0, rel


def commutation_residual(
    k: KernelSpec, f: FunctionSpec, p: JacobiParams, lam: float, cfg: QuadConfig
) -> tuple[complex, complex, float, float]:
    """(lhs, rhs, gap, err) for a non-negative f: the spectral transform of
    H f at lam, the kernel average of the transform of f at lam*t, their
    distance |lhs - rhs| and an estimate of its error.

    lhs is one :func:`transform_grid` call over [lam, 0] of H f, which takes
    H f at all its nodes from one :func:`hausdorff_log_grid` call.  rhs sums
    the transform of f at lam*t, one transform_grid batch, on 256 log-spaced
    Gauss-Kronrod panels in t over [max(lo, 1e-8), min(hi, truncation_t,
    truncation_lambda/|lam|)] within phi's support (lo, hi): |lam t| stays
    within the spectral range, which also bounds the batch, whose panels
    narrow as 4/|lam t|.  err adds
    - lhs's own transform_grid estimate;
    - rhs's summed panel |Kronrod - Gauss| in t;
    - the sum of |w phi(t)| times each transform's own estimate;
    - phi's mass outside the t range, times the largest |u| (plus its
      estimate) at a cut end, as oc_inverse_result charges its excised window;
    - the engine's largest relative error times the transform of H f at 0
      (plus its estimate): H f >= 0 and |G_lam(x)| <= G_0(x) for real lam
      (Schapira, GAFA 2008), so this bounds what the node errors of H f
      carry into lhs.

    Like transform_grid, lhs leaves out H f beyond |x| = truncation_x.
    Requires phi integrable; raises KernelNotIntegrableError otherwise, and
    ParameterError for an f that takes a negative value or a lam so large
    that the t range is empty.
    """
    lo, hi = k.support()
    try:
        l1 = integrate(k, lo, hi, cfg)
    except DivergentIntegralError:
        raise KernelNotIntegrableError(
            f"kernel {k.variant!r} is not integrable; the identity assumes it is"
        ) from None
    a = max(lo, 1e-8)
    b = min(hi, cfg.truncation_t, cfg.truncation_lambda / abs(lam) if lam else math.inf)
    if not a < b:
        raise ParameterError(
            f"|lam| = {abs(lam)} puts lam t beyond truncation_lambda on all of "
            "phi's support")

    image = HausdorffImage(k, f, p, cfg)
    rel = []

    def hf_nodes(x):
        # H f at every node of the transform, from one engine call
        core, _, node_rel = image.log_abs_decomp(x)
        rel.append(node_rel.max())
        return np.exp(core - log_weight_a(p, x))

    (lhs, hf0), (lhs_err, hf0_err) = transform_grid(hf_nodes, p, [lam, 0.0], cfg)

    # rhs: fixed log-spaced panels in t, transform evaluated as one batch
    t, wk, wg = panel_rule(np.geomspace(a, b, 257))
    u, u_err = transform_grid(f, p, lam * t, cfg)
    phi = k(t)
    w = wk * phi
    rhs = np.sum(w * u)
    panel_err = np.sum(np.abs(np.sum((wk - wg) * phi * u, axis=-1)))
    # phi's mass outside (a, b): its L1 norm less the panel sum of phi, with
    # the errors of both
    mass = (max(l1.value - np.sum(w), 0.0) + l1.err_estimate
            + np.sum(np.abs(np.sum((wk - wg) * phi, axis=-1))))
    cuts = [c for c, end in ((a, lo), (b, hi)) if c != end]
    cut_err = 0.0
    if cuts:
        u_cut, u_cut_err = transform_grid(f, p, lam * np.array(cuts), cfg)
        cut_err = mass * np.max(np.abs(u_cut) + u_cut_err)
    err = (lhs_err + panel_err + np.sum(w * u_err) + cut_err
           + max(rel) * (abs(hf0) + hf0_err))
    return complex(lhs), complex(rhs), float(abs(lhs - rhs)), float(err)
