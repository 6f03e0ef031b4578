"""Adaptive quadrature over finite and semi-infinite domains.

All integrals in the package route through this module.  The core rule is a
Gauss-Kronrod (7, 15) pair whose nodes are interior points, so integrands with
integrable endpoint singularities are never evaluated at the endpoints.
Integrands must accept a numpy array of abscissae and return an array of
values (real or complex): shape (n,) for n abscissae, or (m, n) for m
integrands that share one adaptive mesh, each held to its own tolerance.

:func:`integrate` is the one integral over an interval of the whole line: it
splits the interval at 0, folds the piece below 0 onto |x|, and reaches a 0
end or an infinite end in log coordinates, x = b e^(-s) or x = a e^s over s
in (0, 600], where power laws become exponentials that the dyadic blocks of
:func:`integrate_to_infinity` resolve, with its geometric tail estimate and
divergence test.  With a cutoff it cuts an end past |x| = cutoff by those
blocks instead, charging the tail beyond the cut.

:func:`integrate_batched` takes the same pieces and blocks for an integrand
that is cheaper called once on many nodes than many times on few, as the
weighted norms of a Hausdorff image and the inverse transform's spectral
integral are: it refines the panels of all blocks together in rounds, with
one call of the integrand per round, and charges an error the integrand
reports per node.  Both adaptive integrators stop at the same noise floor.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import BudgetExhaustedError, DivergentIntegralError, ParameterError

__all__ = [
    "QuadConfig",
    "IntegralResult",
    "integrate_finite",
    "integrate_to_infinity",
    "integrate_to_zero",
    "integrate",
    "integrate_batched",
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


def _gk15(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x))
    finite = np.isfinite(y)
    if not finite.all():
        if np.isnan(y).any():
            raise ParameterError(
                f"integrand returned NaN inside ({a}, {b})"
            )
        # an actually-infinite integrand value means the integral is not a
        # finite number: report divergence rather than a usage error
        raise DivergentIntegralError(
            f"integrand returned an infinite value inside ({a}, {b})",
            mask=~finite.all(axis=-1) if y.ndim > 1 else None,
        )
    # the reduction np.sum makes, without its Python wrapper
    k = half * np.add.reduce(_WK * y, axis=-1)
    g = half * np.add.reduce(_WG15 * y, axis=-1)
    return k, abs(k - g)


def panel_rule(edges):
    """The (7, 15) pair on every panel (edges[i], edges[i + 1]): abscissae,
    Kronrod weights and embedded Gauss weights, each shaped (panels, 15)."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    return x, half[:, None] * _WK[None, :], half[:, None] * _WG15[None, :]


# the noise floor of both adaptive integrators: this many splits in a row that
# take no unconverged component's estimate 1% below its value at their start
_STALL_SPLITS = 50


def integrate_finite(f, a: float, b: float, cfg: QuadConfig) -> IntegralResult:
    """Adaptive integral of ``f`` over (a, b) with an embedded error estimate.

    Endpoint singularities of integrable power type are handled because the
    quadrature nodes avoid the endpoints; subdivision concentrates there.

    An integrand returning shape (m, n) for n abscissae is m integrands on one
    shared mesh: value and estimate have shape (m,), and the run stops only
    when every component meets its own max(abs_tol, rel_tol |value|).
    """
    if not a < b:
        raise ParameterError(f"need a < b, got ({a}, {b})")
    val, err = _gk15(f, a, b)
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * abs(val))
    if (err <= tol).all():
        return IntegralResult(val, err, 1)
    # an interval's priority is its worst component error in units of that
    # component's first tolerance, times the smallest such tolerance, so a
    # lone component keeps the plain error order: its weight is exactly 1
    weight = tol.min() / tol
    counter = itertools.count()
    heap = [(-(err * weight).max(), next(counter), a, b, val, err)]
    total_val, total_err = val, err
    used = 1
    checkpoint_err, checkpoint_used = math.inf, 1
    while True:
        if used - checkpoint_used >= _STALL_SPLITS:
            if not ((total_err > tol) & (total_err <= 0.99 * checkpoint_err)).any():
                # no unconverged estimate has improved: the integrand's own
                # noise floor is reached; report the honest estimate
                return IntegralResult(total_val, total_err, used)
            checkpoint_err, checkpoint_used = total_err, used
        if used >= cfg.max_subdivisions:
            worst = np.ravel(total_err - tol).argmax()
            raise BudgetExhaustedError(
                f"subdivision budget {cfg.max_subdivisions} exhausted on "
                f"({a}, {b}); err={np.ravel(total_err)[worst]:.3e} > "
                f"tol={np.ravel(tol)[worst]:.3e}",
                partial=IntegralResult(total_val, total_err, used),
            )
        _, _, lo, hi, v, e = heapq.heappop(heap)
        midpt = 0.5 * (lo + hi)
        if midpt <= lo or midpt >= hi:
            # interval at floating-point resolution: keep its estimate
            heapq.heappush(heap, (0.0, next(counter), lo, hi, v, 0.0 * e))
            total_err = total_err - e
        else:
            v1, e1 = _gk15(f, lo, midpt)
            v2, e2 = _gk15(f, midpt, hi)
            # not in place: the totals may alias a heap entry's arrays
            total_val = total_val + (v1 + v2 - v)
            total_err = total_err + (e1 + e2 - e)
            used += 1
            heapq.heappush(heap, (-(e1 * weight).max(), next(counter), lo, midpt, v1, e1))
            heapq.heappush(heap, (-(e2 * weight).max(), next(counter), midpt, hi, v2, e2))
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        if (total_err <= tol).all():
            return IntegralResult(total_val, total_err, used)


_SHRINK_FACTOR = 1.05  # dyadic blocks must shrink at least this fast
_DIVERGENCE_WINDOW = 4
# log-coordinate span of a 0 or infinite end: e^(-0.05 s) reaches 1e-13 by
# s = 600, and e^600 stays below the double range
_LOG_SPAN = 600.0


def _dyadic_edges(a: float, span: float) -> list:
    """Block edges a + 2^j - 1, j = 0, 1, ..., the last one cut at a + span."""
    edges = [a]
    j = 0
    while edges[-1] < a + span:
        edges.append(min(a + 2.0 ** (j + 1) - 1.0, a + span))
        j += 1
    return edges


def _charge_tail(total: IntegralResult, edges, mags, cfg: QuadConfig) -> None:
    """Add to ``total`` the estimate of the tail cut off beyond dyadic blocks
    of magnitudes ``mags`` over increasing ``edges``, which run toward the
    truncated end, or raise :class:`DivergentIntegralError` where the blocks
    fail to shrink; component by component for a vector integrand."""
    widths = np.diff(edges)
    # a final block clipped short of the dyadic doubling pattern (truncation
    # cutoff) would distort the shrink ratios: drop it from the window, and
    # from the floor too, or a growing integrand's clipped block would lift
    # the floor over every full block and skip the divergence test
    full = mags
    if len(widths) >= 3:
        growth = widths[-2] / widths[-3]
        if abs(widths[-1] / widths[-2] - growth) > 0.2 * max(growth, 1e-12):
            full = mags[:-1]
    tail = full[-1]
    if len(full) == 1:
        # no ratio to extrapolate from: the cut-off tail may be as large as
        # the one block
        total.err_estimate = total.err_estimate + tail
        return
    blocks = np.array(full)
    ratios = np.divide(blocks[1:], blocks[:-1], where=blocks[:-1] > 0,
                       out=np.full(blocks[1:].shape, math.inf))
    # the floor gates only the divergence test; each component's tail is
    # charged whatever its size
    floor = np.maximum(cfg.abs_tol, cfg.rel_tol * sum(full))
    if len(full) > _DIVERGENCE_WINDOW:
        divergent = (tail > floor) & (
            ratios[-_DIVERGENCE_WINDOW:] > 1.0 / _SHRINK_FACTOR).all(axis=0)
        if divergent.any():
            raise DivergentIntegralError(
                "dyadic tail blocks fail to shrink: integral looks divergent",
                partial=total, mask=divergent if divergent.ndim else None,
            )
    r_last = np.minimum(ratios[-1], 0.9)
    total.err_estimate = total.err_estimate + tail * r_last / (1.0 - r_last)


def _dyadic_sum(f, edges, cfg: QuadConfig) -> IntegralResult:
    """Sum block integrals over increasing ``edges``, each block held to a
    quarter of rel_tol and its share of abs_tol, then charge the tail."""
    block_cfg = replace(
        cfg,
        abs_tol=cfg.abs_tol / max(len(edges) - 1, 1),
        rel_tol=cfg.rel_tol / 4,
    )
    total = IntegralResult(0.0, 0.0, 0)
    mags = []
    for lo, hi in zip(edges, edges[1:]):
        try:
            r = integrate_finite(f, lo, hi, block_cfg)
        except BudgetExhaustedError as exc:
            # keep the block's best-effort value; its (larger) error estimate
            # stays in the total, so accuracy loss is visible to the caller
            r = exc.partial
        total = total + r
        mags.append(abs(r.value))
    _charge_tail(total, edges, mags, cfg)
    return total


def integrate_to_infinity(
    f, a: float, cfg: QuadConfig, cutoff: float | None = None
) -> IntegralResult:
    """Integral of ``f`` over (a, inf), truncated at ``a + cutoff``.

    The half-line is covered by dyadic blocks (a + 2^j - 1, a + 2^{j+1} - 1);
    a geometric extrapolation of the last block bounds the truncation tail and
    is added to the error estimate.  Blocks that stop shrinking raise
    :class:`DivergentIntegralError`.
    """
    span = cutoff if cutoff is not None else cfg.truncation_t
    return _dyadic_sum(f, _dyadic_edges(a, span), cfg)


def integrate_to_zero(f, b: float, cfg: QuadConfig) -> IntegralResult:
    """Integral of ``f`` over (0, b) for integrands possibly singular at 0.

    With x = b e^(-s) this is the integral of f(x) x over s in (0, 600]: a
    power singularity x^(c-1) becomes e^(-c s), so the tail beyond the cut is
    estimated and a non-integrable singularity (c <= 0) shows up as blocks
    that fail to shrink.
    """
    if not b > 0.0:
        raise ParameterError(f"need b > 0, got {b}")
    piece = _to_zero(1.0, b)
    return _dyadic_sum(_in_s(f, piece), piece.edges, cfg)


class _Piece(NamedTuple):
    """One piece of a line integral: x = sign X(s) over the blocks (edges[i],
    edges[i + 1]) in s, with X(s) = s (kind 0), scale e^s (kind 1) or
    scale e^(-s) (kind -1).  The blocks of a dyadic piece run toward a cut
    end, whose tail :func:`_charge_tail` charges; any other piece is one
    finite block."""

    sign: float
    kind: int
    scale: float
    edges: list
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
    if a == 0.0:
        return [_to_zero(sign, b)]
    return [_Piece(sign, 0, 1.0, [a, b], False)]


def _line_pieces(lo: float, hi: float, cutoff) -> list:
    """The pieces of (lo, hi), one list for each side of 0 it reaches, the
    side x < 0 first and folded onto |x|."""
    if not lo < hi:
        return []
    sides = []
    if lo < 0.0:
        sides.append(_half_line_pieces(-1.0, max(-hi, 0.0), -lo, cutoff))
    if hi > 0.0:
        sides.append(_half_line_pieces(1.0, max(lo, 0.0), hi, cutoff))
    return sides


def _in_s(f, piece: _Piece):
    """The integrand of ``piece`` in s: f(sign X(s)) X'(s)."""
    sign, kind, scale = piece.sign, piece.kind, piece.scale
    if kind == 0:
        return f if sign > 0.0 else (lambda x: f(-x))

    def in_log(s):
        x = scale * np.exp(kind * np.asarray(s, dtype=float))
        with np.errstate(over="ignore"):
            return f(sign * x) * x

    return in_log


def integrate(f, lo: float, hi: float, cfg: QuadConfig,
              cutoff: float | None = None) -> IntegralResult:
    """Integral of ``f`` over (lo, hi) for -inf <= lo < hi <= inf; 0 when the
    interval is empty.

    The interval is split at 0, and a piece below 0 is folded onto |x| as
    f(-x).  A piece (a, b) of the half-line is reached at a 0 end by
    :func:`integrate_to_zero` and at an infinite end in log coordinates above
    max(a, 1).  With ``cutoff``, an end past |x| = cutoff is cut there by the
    dyadic blocks of :func:`integrate_to_infinity`, which charge the tail
    beyond the cut, and a piece wholly past it adds nothing.
    """
    total = IntegralResult(0.0, 0.0, 0)
    for side in _line_pieces(lo, hi, cutoff):
        parts = [_dyadic_sum(_in_s(f, p), p.edges, cfg) if p.dyadic
                 else integrate_finite(_in_s(f, p), *p.edges, cfg) for p in side]
        if parts:
            total = total + sum(parts[1:], parts[0])
    return total


def integrate_batched(f, lo: float, hi: float, cfg: QuadConfig) -> IntegralResult:
    """The integral of :func:`integrate` over (lo, hi), on the same pieces and
    dyadic blocks, with ``f`` called once per refinement round for the nodes
    of every panel of every block, both signs of x in one array.

    ``f(x)`` returns (values, inner): values of shape (n,) for the n
    abscissae, or (m, n) for m components, and inner the absolute error of
    each value from a computation inside ``f``, of the same shape, or None.
    The first round takes one (7, 15) panel per block.  Each later round
    bisects the panels whose |Kronrod - Gauss| exceeds their fair share,
    1 / panels, of some unconverged component's max(abs_tol, rel_tol
    |value|).  The rounds stop when every component is within its
    tolerance, when the splits since the last check, at least
    ``_STALL_SPLITS`` of them, took no unconverged component's estimate 1%
    below its value at that check (the noise floor of
    :func:`integrate_finite`), or after ``max_subdivisions`` splits; the
    estimate is reported in every case.  It sums over the final panels their |Kronrod - Gauss|, or for a split panel
    its children's share of the change from its Kronrod sum where that is
    larger, the tail charge of :func:`_charge_tail` on each dyadic piece's
    block totals, whose divergence test also applies, and the inner errors
    weighted by the Kronrod rule, sum w |inner|.  An infinite value raises
    :class:`DivergentIntegralError`, with a mask of the components it hits
    for a vector integrand.
    """
    pieces = [p for side in _line_pieces(lo, hi, None) for p in side]
    if not pieces:
        return IntegralResult(0.0, 0.0, 0)
    sign = np.array([p.sign for p in pieces])
    kind = np.array([p.kind for p in pieces])
    scale = np.array([p.scale for p in pieces])
    # one panel per block to start; ``block`` numbers the blocks of all pieces
    counts = [len(p.edges) - 1 for p in pieces]
    piece = np.repeat(np.arange(len(pieces)), counts)
    lo_s = np.concatenate([p.edges[:-1] for p in pieces])
    hi_s = np.concatenate([p.edges[1:] for p in pieces])
    block = np.arange(lo_s.size)
    shape = ()

    def panels(lo_s, hi_s, piece):
        """Kronrod sums, |Kronrod - Gauss| and Kronrod-weighted inner errors
        of the panels, each (m, panels)."""
        nonlocal shape
        half = 0.5 * (hi_s - lo_s)
        s = (0.5 * (lo_s + hi_s))[:, None] + half[:, None] * _NODES
        k = kind[piece, None]
        x = np.where(k == 0, s, scale[piece, None] * np.exp(k * s))
        jac = np.where(k == 0, 1.0, x)
        values, inner = f((sign[piece, None] * x).ravel())
        values = np.asarray(values)
        shape = values.shape[:-1]
        y = values.reshape(-1, *x.shape)
        finite = np.isfinite(y)
        if not finite.all():
            if np.isnan(y).any():
                raise ParameterError(f"integrand returned NaN inside ({lo}, {hi})")
            # an actually-infinite integrand value means the integral is not
            # a finite number
            raise DivergentIntegralError(
                f"integrand returned an infinite value inside ({lo}, {hi})",
                mask=~finite.all(axis=(1, 2)).reshape(shape) if shape else None,
            )
        y = y * jac
        kron = half * (y @ _WK)
        diff = np.abs(kron - half * (y @ _WG15))
        if inner is None:
            return kron, diff, np.zeros_like(kron)
        return kron, diff, half * ((np.abs(inner).reshape(y.shape) * jac) @ _WK)

    kron, diff, inner = panels(lo_s, hi_s, piece)
    splits, checkpoint_err, checkpoint_splits = 0, math.inf, 0
    while splits < cfg.max_subdivisions:
        err = diff.sum(axis=-1)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(kron.sum(axis=-1)))
        unconverged = err > tol
        if not unconverged.any():
            break
        # the noise floor of integrate_finite: a split across a kink can raise
        # an estimate for some rounds before its children resolve the kink
        if splits - checkpoint_splits >= _STALL_SPLITS:
            if not (unconverged & (err <= 0.99 * checkpoint_err)).any():
                break
            checkpoint_err, checkpoint_splits = err, splits
        # each panel's worst unconverged component, in units of its fair share
        share = (diff[unconverged] / tol[unconverged, None]).max(axis=0) * lo_s.size
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
        m, upper = cand.size, hi_s[cand]
        kk, kd, ki = panels(np.concatenate([lo_s[cand], mid[cand]]),
                            np.concatenate([mid[cand], upper]), np.tile(piece[cand], 2))
        # |K - G| can read low on a panel across a kink: the children's
        # estimate is at least the change from their parent's Kronrod sum,
        # shared between them as their |K - G| are
        change = np.abs(kron[:, cand] - kk[:, :m] - kk[:, m:])
        both = kd[:, :m] + kd[:, m:]
        lower = np.divide(kd[:, :m], both, out=np.full(both.shape, 0.5), where=both > 0.0)
        kd = np.maximum(kd, np.concatenate([lower, 1.0 - lower], axis=1) * np.tile(change, 2))
        hi_s[cand] = mid[cand]
        kron[:, cand], diff[:, cand], inner[:, cand] = kk[:, :m], kd[:, :m], ki[:, :m]
        lo_s, hi_s = np.concatenate([lo_s, mid[cand]]), np.concatenate([hi_s, upper])
        piece, block = np.concatenate([piece, piece[cand]]), np.concatenate([block, block[cand]])
        kron = np.concatenate([kron, kk[:, m:]], axis=1)
        diff = np.concatenate([diff, kd[:, m:]], axis=1)
        inner = np.concatenate([inner, ki[:, m:]], axis=1)

    def own(a):
        """``a`` of shape (m, ...) in the shape of one node's values."""
        return a.reshape(shape + a.shape[1:])[()]

    total = IntegralResult(own(kron.sum(axis=-1)), own(diff.sum(axis=-1)), lo_s.size)
    # each dyadic piece's block totals, for its tail charge and divergence test
    sums = np.abs(kron @ (block[:, None] == np.arange(sum(counts))).astype(float))
    sums = np.moveaxis(own(sums), -1, 0)
    first = np.cumsum(counts) - counts
    for p, b0, n in zip(pieces, first, counts):
        if p.dyadic:
            _charge_tail(total, p.edges, list(sums[b0:b0 + n]), cfg)
    total.err_estimate = total.err_estimate + own(inner.sum(axis=-1))
    return total
