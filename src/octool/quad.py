"""Adaptive quadrature over finite, semi-infinite, and whole-line domains.

All integrals in the package route through this module.  The core rule is a
Gauss-Kronrod (7, 15) pair whose nodes are interior points, so integrands with
integrable endpoint singularities are never evaluated at the endpoints.
Integrands must accept a numpy array of abscissae and return an array of
values (real or complex).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetExhaustedError, DivergentIntegralError, ParameterError

__all__ = [
    "QuadConfig",
    "IntegralResult",
    "integrate_finite",
    "integrate_to_infinity",
    "integrate_to_zero",
    "integrate_real_line",
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
    extremum_grid: int = 2048

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
        if self.extremum_grid < 16:
            raise ParameterError("extremum_grid must be at least 16")

    def with_(self, **kw) -> "QuadConfig":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_subdivisions": self.max_subdivisions,
            "truncation_x": self.truncation_x,
            "truncation_lambda": self.truncation_lambda,
            "truncation_t": self.truncation_t,
            "lambda_min": self.lambda_min,
            "extremum_grid": self.extremum_grid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuadConfig":
        known = {k: d[k] for k in cls.__dataclass_fields__ if k in d}
        for k in ("max_subdivisions", "extremum_grid"):
            if k in known:
                known[k] = int(known[k])
        return cls(**known)


@dataclass
class IntegralResult:
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
    if not np.all(np.isfinite(y)):
        if np.any(np.isnan(y)):
            raise ParameterError(
                f"integrand returned NaN inside ({a}, {b})"
            )
        # an actually-infinite integrand value means the integral is not a
        # finite number: report divergence rather than a usage error
        raise DivergentIntegralError(
            f"integrand returned an infinite value inside ({a}, {b})"
        )
    k = half * np.sum(_WK * y)
    g = half * np.sum(_WG15 * y)
    return k, abs(k - g)


def integrate_finite(f, a: float, b: float, cfg: QuadConfig) -> IntegralResult:
    """Adaptive integral of ``f`` over (a, b) with an embedded error estimate.

    Endpoint singularities of integrable power type are handled because the
    quadrature nodes avoid the endpoints; subdivision concentrates there.
    """
    if not a < b:
        raise ParameterError(f"need a < b, got ({a}, {b})")
    val, err = _gk15(f, a, b)
    counter = itertools.count()
    heap = [(-err, next(counter), a, b, val, err)]
    total_val, total_err = val, err
    used = 1
    checkpoint_err, checkpoint_used = math.inf, 1
    while True:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        if total_err <= tol:
            return IntegralResult(total_val, total_err, used)
        if used - checkpoint_used >= 50:
            if total_err > 0.99 * checkpoint_err:
                # error estimate has stopped improving: the integrand's own
                # noise floor is reached; report the honest estimate
                return IntegralResult(total_val, total_err, used)
            checkpoint_err, checkpoint_used = total_err, used
        if used >= cfg.max_subdivisions:
            raise BudgetExhaustedError(
                f"subdivision budget {cfg.max_subdivisions} exhausted on "
                f"({a}, {b}); err={total_err:.3e} > tol={tol:.3e}",
                partial=IntegralResult(total_val, total_err, used),
            )
        _, _, lo, hi, v, e = heapq.heappop(heap)
        midpt = 0.5 * (lo + hi)
        if midpt <= lo or midpt >= hi:
            # interval at floating-point resolution: keep its estimate
            heapq.heappush(heap, (0.0, next(counter), lo, hi, v, 0.0))
            total_err -= e
            continue
        v1, e1 = _gk15(f, lo, midpt)
        v2, e2 = _gk15(f, midpt, hi)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        used += 1
        heapq.heappush(heap, (-e1, next(counter), lo, midpt, v1, e1))
        heapq.heappush(heap, (-e2, next(counter), midpt, hi, v2, e2))


_SHRINK_FACTOR = 1.05  # dyadic blocks must shrink at least this fast
_DIVERGENCE_WINDOW = 4


def _dyadic_sum(f, edges, cfg: QuadConfig, outward: bool) -> IntegralResult:
    """Sum block integrals over consecutive ``edges``; flag non-decaying tails.

    ``outward`` marks whether the block sequence runs toward the truncated end
    (toward infinity, or toward a singular endpoint at zero): only then do the
    divergence check and the geometric tail estimate apply.
    """
    block_cfg = cfg.with_(
        abs_tol=cfg.abs_tol / max(len(edges) - 1, 1),
        rel_tol=cfg.rel_tol / 4,
    )
    total = IntegralResult(0.0, 0.0, 0)
    widths = [abs(e1 - e0) for e0, e1 in zip(edges, edges[1:])]
    mags = []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        lo, hi = min(e0, e1), max(e0, e1)
        try:
            r = integrate_finite(f, lo, hi, block_cfg)
        except BudgetExhaustedError as exc:
            # keep the block's best-effort value; its (larger) error estimate
            # stays in the total, so accuracy loss is visible to the caller
            r = exc.partial
        total = total + r
        mags.append(abs(r.value))
    if not outward:
        return total
    floor = max(cfg.abs_tol, cfg.rel_tol * abs(total.value))
    # a final block clipped short of the dyadic doubling pattern (truncation
    # cutoff) would distort the shrink ratios: drop it from the window
    full = mags
    if len(widths) >= 3:
        growth = widths[-2] / widths[-3]
        if abs(widths[-1] / widths[-2] - growth) > 0.2 * max(growth, 1e-12):
            full = mags[:-1]
    tail = full[-1] if full else 0.0
    if tail > floor and len(full) > _DIVERGENCE_WINDOW:
        window = full[-_DIVERGENCE_WINDOW - 1:]
        ratios = [
            window[i + 1] / window[i] if window[i] > 0 else math.inf
            for i in range(len(window) - 1)
        ]
        if all(r > 1.0 / _SHRINK_FACTOR for r in ratios):
            raise DivergentIntegralError(
                "dyadic tail blocks fail to shrink: integral looks divergent",
                partial=total,
            )
        r_last = min(ratios[-1], 0.9)
        total.err_estimate += tail * r_last / (1.0 - r_last)
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
    edges = [a]
    j = 0
    while edges[-1] < a + span:
        edges.append(min(a + 2.0 ** (j + 1) - 1.0, a + span))
        j += 1
    return _dyadic_sum(f, edges, cfg, outward=True)


def integrate_to_zero(f, b: float, cfg: QuadConfig) -> IntegralResult:
    """Integral of ``f`` over (0, b) for integrands possibly singular at 0.

    Dyadic blocks (b/2^{j+1}, b/2^j) descend toward the origin down to a
    floating-point floor; non-shrinking blocks signal a non-integrable
    singularity.
    """
    n_levels = 60  # b / 2^60 ~ 1e-18 b: remaining mass below double precision
    # walk blocks from the outermost inward so the tail check sees the
    # innermost (singular-end) blocks last
    edges = [b / 2.0 ** j for j in range(n_levels + 1)]
    return _dyadic_sum(f, edges, cfg, outward=True)


def integrate_real_line(
    f,
    cfg: QuadConfig,
    cutoff: float | None = None,
    exclude_origin: float = 0.0,
) -> IntegralResult:
    """Integral of ``f`` over the real line, split at the origin.

    ``exclude_origin`` excises (-r, r) (used for spectral integrals whose
    density has a pole structure at 0); the excised mass is bounded by
    ``2 r max|f|`` over the excision and added to the error estimate.
    """
    span = cutoff if cutoff is not None else cfg.truncation_x
    r = exclude_origin
    pos = integrate_to_infinity(f, r, cfg, cutoff=span) if r > 0 else \
        integrate_to_infinity(f, 0.0, cfg, cutoff=span)
    neg = integrate_to_infinity(lambda x: f(-x), r if r > 0 else 0.0, cfg,
                                cutoff=span)
    total = pos + neg
    if r > 0:
        probe = np.array([-r, -0.5 * r, 0.5 * r, r])
        bound = 2.0 * r * float(np.max(np.abs(np.asarray(f(probe)))))
        total.err_estimate += bound
    return total
