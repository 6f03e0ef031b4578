"""Adaptive quadrature over the real line.

All integrals in the package route through this module.  The core rule is a
Gauss-Kronrod (7, 15) pair whose nodes are interior points, so integrands with
integrable endpoint singularities are never evaluated at the endpoints.
Integrands must accept a numpy array of abscissae and return an array of
values (real or complex): shape (n,) for n abscissae, or (m, n) for m
integrands that share one adaptive mesh, each held to its own tolerance.

:func:`integrate` is the one integral over an interval of the whole line, and
the one refinement algorithm.  It splits the interval at 0, folds the piece
below 0 onto |x|, and reaches a 0 end or an infinite end in log coordinates,
x = b e^(-s) or x = a e^s over s in (0, 600], where power laws become
exponentials.  Those ends, and an end cut at |x| = cutoff, are covered by
dyadic blocks whose totals give a geometric tail estimate and a divergence
test; a caller's breakpoints of the integrand are fixed panel edges.  The
panels of every block are refined together in rounds, with one call of the
integrand per round on all their nodes, so an integrand that is
cheaper called once on many nodes than many times on few (the weighted norms
of a Hausdorff image, the inverse transform's spectral integral) pays its
fixed cost once per round.  The rounds stop at every component's tolerance
or at one of three noise floors: the splits stall, no panel left to split
can be halved, or every such panel reads within the inner error of its own
nodes, which an integrand computed by another approximation (a transform,
a series) reports with its values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetExhaustedError, DivergentIntegralError, ParameterError

__all__ = [
    "QuadConfig",
    "IntegralResult",
    "integrate_finite",
    "integrate",
    "panel_rule",
]


_FLOAT_FIELDS = (
    "rel_tol", "abs_tol", "truncation_x", "truncation_lambda", "truncation_t", "lambda_min",
)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances, truncation radii, and grid densities for all quadrature."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    truncation_x: float = 12.0
    truncation_lambda: float = 40.0
    truncation_t: float = 1e4
    lambda_min: float = 1e-6

    def __post_init__(self):
        # NaN passes every comparison below, and an infinite cutoff yields
        # NaN nodes downstream
        bad = [name for name in _FLOAT_FIELDS if not math.isfinite(getattr(self, name))]
        if bad:
            raise ParameterError(f"{', '.join(bad)} must be finite")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("tolerances must be positive")
        if min(self.truncation_x, self.truncation_lambda, self.truncation_t) <= 0:
            raise ParameterError("truncation cutoffs must be positive")
        if self.lambda_min <= 0:
            raise ParameterError("lambda_min must be positive")


@dataclass
class IntegralResult:
    """Value and error estimate; both have shape (m,) for an integrand of m
    components."""

    value: complex
    err_estimate: float
    subdivisions_used: int = 0

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        return IntegralResult(
            self.value + other.value,
            self.err_estimate + other.err_estimate,
            self.subdivisions_used + other.subdivisions_used,
        )


# Gauss-Kronrod (7, 15) pair on (-1, 1).  All abscissae are interior.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full symmetric node/weight tables (15 Kronrod nodes; Gauss weights are zero
# at the Kronrod-only nodes).
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_wg_full = np.zeros(15)
_wg_full[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])
_WG15 = _wg_full


def _gk15(f, lo, hi):
    """The (7, 15) pair on the panels (lo[i], hi[i]): their Kronrod sums,
    |Kronrod - Gauss| and Kronrod-weighted inner errors, each (m, panels)
    for m components.

    ``f(lo, hi)`` returns (values, inner) at the panels' (panels, 15)
    Kronrod nodes, which it builds only where it has none of its own:
    values of shape (..., panels, 15), and inner the absolute error of each
    value from a computation inside the integrand, of the same shape, or
    None.  A NaN raises ParameterError, and an infinite value
    DivergentIntegralError, with a mask of the components it hits for a
    vector integrand."""
    half = 0.5 * (hi - lo)
    y, inner = f(lo, hi)
    finite = np.isfinite(y)
    if not finite.all():
        if np.isnan(y).any():
            raise ParameterError("integrand returned NaN")
        # an actually-infinite integrand value means the integral is not a
        # finite number: report divergence rather than a usage error
        mask = ~finite.all(axis=(-2, -1))
        raise DivergentIntegralError("integrand returned an infinite value",
                                     mask=mask if mask.ndim else None)
    y = y.reshape(-1, *y.shape[-2:])
    kron = half * (y @ _WK)
    diff = np.abs(kron - half * (y @ _WG15))
    if half.min(initial=math.inf) < _TINY:
        # a panel narrower than the smallest normal double takes its nodes
        # and sums in subnormal steps of 2^-1074, each rounded: sixteen of
        # them per node value bound what |K - G| cannot see
        diff = diff + np.where(half < _TINY, 16.0 * np.finfo(float).smallest_subnormal
                               * np.abs(y).max(axis=-1), 0.0)
    if inner is None:
        # real, as an estimate is, whatever the values are
        return kron, diff, np.zeros(kron.shape)
    return kron, diff, half * (np.abs(inner).reshape(y.shape) @ _WK)


def _panel_nodes(lo, hi):
    """The half-widths of the panels (lo[i], hi[i]) and their (panels, 15)
    Kronrod nodes."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES


def panel_rule(edges):
    """The (7, 15) pair on every panel (edges[i], edges[i + 1]): abscissae,
    Kronrod weights and embedded Gauss weights, each shaped (panels, 15)."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    return x, half[:, None] * _WK[None, :], half[:, None] * _WG15[None, :]


_TINY = np.finfo(float).tiny  # the smallest normal double
# a 0 end reached in log coordinates stops at _TINY and charges the rest,
# (0, _TINY), to its tail; below e^36 _TINY its few dyadic blocks cannot
# see that rest, so (0, b) there is one plain block
_LOG_ZERO_MIN = math.exp(36.0) * _TINY
_SHRINK_FACTOR = 1.05  # dyadic blocks must shrink at least this fast
_DIVERGENCE_WINDOW = 4
# log-coordinate span of a 0 or infinite end: e^(-0.05 s) reaches 1e-13 by
# s = 600, and e^600 stays below the double range
_LOG_SPAN = 600.0


def _dyadic_edges(a: float, span: float) -> tuple:
    """Block edges a + 2^j - 1, j = 0, 1, ..., the last one cut at a + span."""
    edges = [a]
    j = 0
    while edges[-1] < a + span:
        edges.append(min(a + 2.0 ** (j + 1) - 1.0, a + span))
        j += 1
    return tuple(edges)


def _full_blocks(edges) -> int:
    """How many of the dyadic blocks over ``edges`` are full.  A final block
    clipped short of the doubling pattern (a truncation cutoff) would distort
    the shrink ratios, so the tail charge leaves it out of its window, and
    out of the divergence floor too, or a growing integrand's clipped block
    would lift the floor over every full block and skip the divergence
    test."""
    widths = np.diff(edges)
    if len(widths) >= 3:
        growth = widths[-2] / widths[-3]
        if abs(widths[-1] / widths[-2] - growth) > 0.2 * max(growth, 1e-12):
            return len(widths) - 1
    return len(widths)


class _Piece(NamedTuple):
    """One piece of a line integral: x = sign X(s) over the blocks (edges[i],
    edges[i + 1]) in s, with X(s) = s (kind 0), scale e^s (kind 1) or
    scale e^(-s) (kind -1).  The blocks of a dyadic piece run toward a cut
    end, whose tail :func:`_charge_tails` charges; any other piece is one
    finite block."""

    sign: float
    kind: int
    scale: float
    edges: tuple
    dyadic: bool


def _to_zero(sign: float, b: float) -> _Piece:
    # x must stay a normal float: an underflow to 0 would turn a singular
    # f(x) * x into inf * 0
    span = min(_LOG_SPAN, math.log(b) - math.log(np.finfo(float).tiny))
    return _Piece(sign, -1, b, _dyadic_edges(0.0, span), True)


def _half_line_pieces(sign: float, a: float, b: float, cutoff) -> list:
    """The pieces of (a, b), 0 <= a < b <= inf, folded by ``sign`` (see
    :func:`integrate`)."""
    if cutoff is not None and b > cutoff:
        if a >= cutoff:
            return []
        return [_Piece(sign, 0, 1.0, _dyadic_edges(a, cutoff - a), True)]
    if b == math.inf:
        start = max(a, 1.0)
        # x must stay finite: an overflow to inf would turn a decaying
        # f(x) * x into 0 * inf
        span = min(_LOG_SPAN, math.log(np.finfo(float).max) - math.log(start))
        piece = _Piece(sign, 1, start, _dyadic_edges(0.0, span), True)
        return [piece, *_half_line_pieces(sign, a, start, None)] if start > a else [piece]
    if a == 0.0 and b > _LOG_ZERO_MIN:
        return [_to_zero(sign, b)]
    return [_Piece(sign, 0, 1.0, (a, b), False)]


def _line_pieces(lo: float, hi: float, cutoff) -> list:
    """The pieces of (lo, hi), those of the side x < 0 first, folded onto
    |x|."""
    if not lo < hi:
        return []
    pieces = []
    if lo < 0.0:
        pieces += _half_line_pieces(-1.0, max(-hi, 0.0), -lo, cutoff)
    if hi > 0.0:
        pieces += _half_line_pieces(1.0, max(lo, 0.0), hi, cutoff)
    return pieces


def _initial_panels(pieces, points):
    """(lo, hi, block) of the first round's panels, stacked as rows: one
    panel per block of each piece, cut at every breakpoint x in ``points``
    that falls inside the piece, at its s on the piece's side of 0.  The
    blocks of all pieces are numbered in order."""
    counts = [len(p.edges) - 1 for p in pieces]
    points = np.asarray(points, dtype=float)
    rows = []
    for p, first in zip(pieces, np.cumsum(counts) - counts):
        x = p.sign * points
        x = x[x > 0.0]
        with np.errstate(divide="ignore", over="ignore"):
            # a point past the double range of x / scale lies outside the piece
            cuts = x if p.kind == 0 else p.kind * np.log(x / p.scale)
        ends = np.sort(np.concatenate([p.edges, cuts[(cuts > p.edges[0]) & (cuts < p.edges[-1])]]))
        # a cut at an edge or given twice adds no panel (np.unique would do,
        # but imports numpy.ma, a megabyte of memory, on its first call)
        ends = ends[np.concatenate([[True], ends[1:] > ends[:-1]])]
        rows.append(np.stack([ends[:-1], ends[1:],
                              first + np.searchsorted(p.edges, ends[:-1], side="right") - 1]))
    return np.concatenate(rows, axis=1)


class _Layout(NamedTuple):
    """What a line integral over (lo, hi) with a cutoff needs before its
    integrand is called, built once per (lo, hi, cutoff) and shared
    read-only by every call on that interval: the pieces; per block the map
    of its piece as rows (kind, scale, sign); the first round's panels when
    no breakpoints are given, as :func:`_initial_panels` stacks them, with
    their nodes' signed abscissae, flat, and the Jacobian X'(s) there, as
    :func:`_signed_nodes` gives them; and per dyadic piece what its tail
    charge reads: the window of the ``_DIVERGENCE_WINDOW`` + 1 full blocks
    up to its last full one, whether that is its only full block, whether
    it has enough of them for the divergence test, and a block-by-piece 0/1
    matrix of them."""

    pieces: tuple
    maps: np.ndarray
    panels: np.ndarray
    nodes: np.ndarray
    jac: np.ndarray
    window: np.ndarray
    single: np.ndarray
    testable: np.ndarray
    full: np.ndarray


def _signed_nodes(maps, block, s):
    """The abscissae x = sign X(s) of the nodes s, (panels, 15), of panels of
    the blocks ``block``, flat, and X'(s), (panels, 15)."""
    k, scale, sign = maps[:, block.astype(np.intp), None]
    x = np.where(k == 0, s, scale * np.exp(k * s))
    return (sign * x).ravel(), np.where(k == 0, 1.0, x)


# a layout takes 40 to 220 us to build (a finite interval to the whole line,
# on a 2-core Xeon), as long as a small integral on it takes to compute, so
# 1024 of them, of a few KB each, are kept.  The default scenario suite
# integrates over 114 distinct intervals: a cache that held fewer would
# evict each one, in least-recently-used order, before its next use
@functools.lru_cache(maxsize=1024)
def _layout(lo: float, hi: float, cutoff) -> _Layout | None:
    """The :class:`_Layout` of (lo, hi) with ``cutoff``, or None when the
    interval is empty."""
    pieces = _line_pieces(lo, hi, cutoff)
    if not pieces:
        return None
    counts = [len(p.edges) - 1 for p in pieces]
    first = np.cumsum(counts) - counts
    dyadic = [(b0, _full_blocks(p.edges)) for p, b0 in zip(pieces, first) if p.dyadic]
    n_full = np.array([n for _, n in dyadic], dtype=np.intp)
    last = np.array([b0 + n - 1 for b0, n in dyadic], dtype=np.intp)
    full = np.zeros((sum(counts), len(dyadic)))
    for j, (b0, n) in enumerate(dyadic):
        full[b0:b0 + n, j] = 1.0
    maps = np.repeat([[p.kind, p.scale, p.sign] for p in pieces], counts, axis=0).T
    panels = _initial_panels(pieces, ())
    lay = _Layout(
        tuple(pieces), maps, panels,
        *_signed_nodes(maps, panels[2], _panel_nodes(panels[0], panels[1])[1]),
        np.maximum(last[:, None] + np.arange(-_DIVERGENCE_WINDOW, 1), 0),
        n_full == 1, n_full > _DIVERGENCE_WINDOW, full,
    )
    for a in lay[1:]:
        a.setflags(write=False)
    return lay


def _charge_tails(total: IntegralResult, sums, lay: _Layout, cfg: QuadConfig) -> None:
    """Add to ``total`` the estimate of the tail cut off beyond the dyadic
    blocks of every dyadic piece of ``lay``, from ``sums``, the blocks'
    |totals| along the last axis, or raise :class:`DivergentIntegralError`
    where a piece's blocks fail to shrink; component by component for a
    vector integrand, with the mask of the components that diverge on any
    piece.

    A piece's tail is its last full block; the cut-off rest is charged as a
    geometric series at the last ratio of full blocks, capped at 0.9, or as
    large as the one block when it has no other."""
    if not lay.single.size:
        return
    win = sums[..., lay.window]
    tail = win[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a block after an empty one reads an infinite ratio: x / 0 is inf,
        # and 0 / 0 NaN, which passes no comparison and which fmin drops
        ratios = win[..., 1:] / win[..., :-1]
    growing = lay.testable & ~(ratios <= 1.0 / _SHRINK_FACTOR).any(axis=-1)
    if growing.any():
        # the floor gates only the divergence test; each component's tail is
        # charged whatever its size
        divergent = growing & (tail > np.maximum(cfg.abs_tol, cfg.rel_tol * (sums @ lay.full)))
        if divergent.any():
            raise DivergentIntegralError(
                "dyadic tail blocks fail to shrink: integral looks divergent",
                partial=total, mask=divergent.any(axis=-1) if divergent.ndim > 1 else None,
            )
    r_last = np.fmin(ratios[..., -1], 0.9)
    charge = np.where(lay.single, tail, tail * r_last / (1.0 - r_last))
    # piece by piece, so that the estimate sums in the pieces' order
    err = total.err_estimate
    for j in range(charge.shape[-1]):
        err = err + charge[..., j]
    total.err_estimate = err


# the noise floor of the refinement: this many splits in a row that take no
# unconverged component's estimate 1% below its value at their start
_STALL_SPLITS = 50


def integrate(f, lo: float, hi: float, cfg: QuadConfig,
              cutoff: float | None = None, points=()) -> IntegralResult:
    """Integral of ``f`` over (lo, hi) for -inf <= lo < hi <= inf; 0 when the
    interval is empty, ParameterError when lo, hi or ``cutoff`` is NaN.

    The interval is split at 0, and a piece below 0 is folded onto |x| as
    f(-x).  A piece (a, b) of the half-line reaches a 0 end as x = b e^(-s)
    and an infinite end as x = max(a, 1) e^s, each on the dyadic blocks in s
    of :func:`_dyadic_edges`; (0, b) with b below e^36 times the smallest
    normal double is one plain block instead.  With ``cutoff``, an end past |x| = cutoff is
    cut there, on dyadic blocks in x from a, and a piece wholly past it adds
    nothing.  This layout of pieces and blocks, with the abscissae and
    Jacobian of the first round's panels, is built once per (lo, hi, cutoff)
    and reused by later calls on the same interval (:func:`_layout`): a call
    without breakpoints pays no set-up for its first round, and one whose
    every component converges there returns without the refinement's state.

    ``points`` are breakpoints of f, where it jumps or bends.  Each one
    inside (lo, hi), other than 0, is a fixed panel edge from the first
    round on, so that no panel straddles it: a breakpoint below 0 is folded
    onto |x| as the interval is, and one inside a log-coordinate end or a
    dyadic block cuts that block's first panel at its s.  The blocks, and so
    the tail charge and the divergence test, stay as they are; points
    outside (lo, hi) are ignored.

    ``f(x)`` returns values of shape (n,) for the n abscissae, or (m, n) for
    m components; or (values, inner), with inner the absolute error of each
    value from a computation inside ``f``, of the same shape, or None.  It is
    called once per refinement round, on the nodes of every panel of every
    block, both signs of x in one array, with overflow ignored: an
    overflowing value is an infinite one.  The first round takes one (7, 15)
    panel per block, or per stretch of a block between breakpoints.  Each
    later round bisects the panels whose |Kronrod - Gauss| exceeds their
    fair share, 1 / panels, of some unconverged component's max(abs_tol,
    rel_tol |value|).  The rounds stop when every component is within its
    tolerance, or at the noise floor: when the splits since the last check,
    at least ``_STALL_SPLITS`` of them, took no unconverged component's
    estimate 1% below its value at that check, or when no panel to split can
    be halved in floating point, or is above the noise of its own nodes.  A
    panel is split only for an unconverged component whose |Kronrod - Gauss|
    there is above its Kronrod-weighted inner error, sum w |inner|: below
    it, children could not read lower than that charge, which the estimate
    already carries.  Without inner errors that noise is 0, and every panel
    with a non-zero |Kronrod - Gauss| may split.
    When ``max_subdivisions`` splits are spent first,
    :class:`BudgetExhaustedError` carries the partial result.

    The estimate sums over the final panels their |Kronrod - Gauss|, or for
    a split panel its children's share of the change from its Kronrod sum
    where that is larger; the tail charge of :func:`_charge_tails` on each
    dyadic piece's block totals, whose divergence test also applies; and the
    inner errors weighted by the Kronrod rule, sum w |inner|.  An infinite
    value raises :class:`DivergentIntegralError`, with a mask of the
    components it hits for a vector integrand.
    """
    if math.isnan(lo) or math.isnan(hi) or (cutoff is not None and math.isnan(cutoff)):
        raise ParameterError(f"interval ends and cutoff must not be NaN, got "
                             f"({lo}, {hi}) with cutoff {cutoff}")
    lay = _layout(float(lo), float(hi), None if cutoff is None else float(cutoff))
    if lay is None:
        return IntegralResult(0.0, 0.0, 0)
    own_round = not np.size(points)
    panels = lay.panels if own_round else _initial_panels(lay.pieces, points)
    shape, noisy = (), False

    def in_s(block):
        """The integrand in s on the panels (lo, hi) of ``block``, or on the
        layout's first round where None: f(sign X(s)) X'(s), and its inner
        error times X'(s)."""

        def g(lo, hi):
            nonlocal shape, noisy
            if block is None:
                x, jac = lay.nodes, lay.jac
            else:
                x, jac = _signed_nodes(lay.maps, block, _panel_nodes(lo, hi)[1])
            with np.errstate(over="ignore"):
                out = f(x)
                values, inner = out if isinstance(out, tuple) else (out, None)
                values = np.asarray(values)
                shape = values.shape[:-1]
                # finiteness is tested on this product: a value that
                # overflows on the Jacobian is an infinite one
                y = values.reshape(shape + jac.shape) * jac
            if inner is None:
                return y, None
            noisy = True
            return y, np.abs(inner).reshape(y.shape) * jac

        return g

    # the panels' lo, hi and block in s, and their Kronrod sums, |K - G| and
    # inner errors, one column per panel; an integral converged in its first
    # round ends there, and one that is refined holds them as the rows of
    # one ``state`` array.  Without breakpoints the first round's abscissae
    # and Jacobian are the layout's own
    lo_s, hi_s, block = panels
    kron, diff, inner = _gk15(in_s(None if own_round else block), lo_s, hi_s)
    m = kron.shape[0]
    state = None
    splits, checkpoint_err, checkpoint_splits = 0, math.inf, 0
    exhausted = False
    while True:
        err = diff.sum(axis=-1)
        value = kron.sum(axis=-1)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        unconverged = err > tol
        if not unconverged.any():
            break
        # a split across a kink can raise an estimate for some rounds before
        # its children resolve the kink, so the floor is read over many splits
        if splits - checkpoint_splits >= _STALL_SPLITS:
            if not (unconverged & (err <= 0.99 * checkpoint_err)).any():
                break
            checkpoint_err, checkpoint_splits = err, splits
        if splits >= cfg.max_subdivisions:
            exhausted = True
            break
        if state is None:
            state = np.concatenate([panels, kron, diff, inner])
        # each panel's worst unconverged component, in units of its fair
        # share, counting only a component whose |K - G| is above the noise
        # of the panel's own nodes, sum w |inner|: below it, children could
        # not read lower than the inner error the estimate already charges
        over = np.where(diff > inner, diff, 0.0)
        share = (over[unconverged] / tol[unconverged, None]).max(axis=0) * lo_s.size
        mid = 0.5 * (lo_s + hi_s)
        # a panel at floating-point resolution stays whole
        cand = np.flatnonzero((share > 1.0) & (mid > lo_s) & (mid < hi_s))
        budget = cfg.max_subdivisions - splits
        if cand.size > budget:
            cand = np.sort(cand[np.argsort(-share[cand], kind="stable")[:budget]])
        if not cand.size:
            break
        splits += cand.size
        # the lower child takes its parent's slot, the upper one goes last
        c = cand.size
        kids = np.stack([np.concatenate([lo_s[cand], mid[cand]]),
                         np.concatenate([mid[cand], hi_s[cand]]),
                         np.concatenate([block[cand], block[cand]])])
        kk, kd, ki = _gk15(in_s(kids[2]), kids[0], kids[1])
        # |K - G| can read low on a panel across a kink: the children's
        # estimate is at least the change from their parent's Kronrod sum,
        # shared between them as their |K - G| are
        change = np.abs(kron[:, cand] - kk[:, :c] - kk[:, c:])
        both = kd[:, :c] + kd[:, c:]
        lower = np.divide(kd[:, :c], both, out=np.full(both.shape, 0.5), where=both > 0.0)
        kd = np.maximum(kd, np.concatenate([lower * change, (1.0 - lower) * change], axis=1))
        kids = np.concatenate([kids, kk, kd, ki])
        state = np.concatenate([state, kids[:, c:]], axis=1)
        state[:, cand] = kids[:, :c]
        lo_s, hi_s, block = state[:3].real
        kron, diff, inner = state[3:3 + m], state[3 + m:3 + 2 * m].real, state[3 + 2 * m:].real

    def own(a):
        """``a`` of shape (m, ...) in the shape of one node's values."""
        return a.reshape(shape + a.shape[1:])[()]

    total = IntegralResult(own(value), own(err), lo_s.size)
    # each dyadic block's |total|, for its piece's tail charge and divergence
    # test: on the layout's own first round panel i is block i
    if own_round and state is None:
        sums = np.abs(kron)
    else:
        sums = np.abs(kron @ (block[:, None] == np.arange(lay.maps.shape[1])).astype(float))
    _charge_tails(total, own(sums), lay, cfg)
    if noisy:
        total.err_estimate = total.err_estimate + own(inner.sum(axis=-1))
    if exhausted:
        worst = np.ravel(err - tol).argmax()
        raise BudgetExhaustedError(
            f"subdivision budget {cfg.max_subdivisions} exhausted on ({lo}, {hi}); "
            f"err={np.ravel(err)[worst]:.3e} > tol={np.ravel(tol)[worst]:.3e}",
            partial=total,
        )
    return total


def integrate_finite(f, a: float, b: float, cfg: QuadConfig) -> IntegralResult:
    """:func:`integrate` over a finite interval a < b."""
    if not -math.inf < a < b < math.inf:
        raise ParameterError(f"need finite a < b, got ({a}, {b})")
    return integrate(f, a, b, cfg)
