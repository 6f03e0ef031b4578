"""Special functions of the trigonometric Dunkl (Jacobi-Cherednik) setting.

Provides the complex log-gamma, the Gauss hypergeometric function on the
negative real axis, the Jacobi function phi_lambda, the Cherednik
eigenfunction G_lambda, the hyperbolic weight A, the harmonic-analysis
c-function, and the spectral (Plancherel) density.  Everything is pure and
safe to evaluate concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ParameterError, PoleError
from .quad import QuadConfig, panel_rule

__all__ = [
    "JacobiParams",
    "ComplexEval",
    "log_gamma_complex",
    "gauss_2f1",
    "jacobi_phi",
    "eigenfunction_g",
    "weight_a",
    "log_weight_a",
    "weight_ratio_extrema",
    "c_function",
    "plancherel_density",
]


@dataclass(frozen=True)
class JacobiParams:
    """Parameter pair (alpha, beta) with alpha >= beta >= -1/2, alpha > -1/2.

    Governs the weight A, the kernel eigenfunctions, and the spectral density.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= self.beta >= -0.5):
            raise ParameterError(
                f"need alpha >= beta >= -1/2, got ({self.alpha}, {self.beta})"
            )
        if not self.alpha > -0.5:
            raise ParameterError(f"need alpha > -1/2, got alpha={self.alpha}")
        assert self.rho > 0

    @property
    def rho(self) -> float:
        return self.alpha + self.beta + 1.0

    @property
    def weight_exponents(self) -> tuple[float, float]:
        """(2 alpha + 1, 2 beta + 1): A(x) = sinh|x|^(2 alpha + 1) cosh x^(2 beta + 1)."""
        return 2.0 * self.alpha + 1.0, 2.0 * self.beta + 1.0

    def shifted(self) -> "JacobiParams":
        """Both indices raised by one (enters the eigenfunction formula)."""
        return JacobiParams(self.alpha + 1.0, self.beta + 1.0)


@dataclass(frozen=True)
class ComplexEval:
    """A complex value with a claimed truncation-error bound."""

    value: complex
    abs_err_estimate: float
    terms_used: int

    def __post_init__(self):
        if self.abs_err_estimate < 0 or self.terms_used < 0:
            raise ParameterError("error estimate and term count must be >= 0")


# ---------------------------------------------------------------------------
# log-gamma

# B_{2n} / (2n (2n-1)) for the Stirling series, n = 1..12, highest first for
# Horner's rule
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
    77683.0 / 5796.0,
    -236364091.0 / 1506960.0,
)[::-1]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_POLE_TOL = 1e-12
_SHIFT_CHUNK = 64
_ROUND = 2.2e-16  # rounding charged per unit of magnitude summed


def _log_gamma(z):
    """log Gamma over an array: (values, rounding-error bounds, mask of the
    elements at a pole, a non-positive integer, whose values are meaningless).

    Stirling's series after shifting the argument to Re(z) >= 10 through the
    recurrence log Gamma(z) = log Gamma(z+1) - log(z).  The values are
    differences of terms far larger than themselves (log Gamma(1) = 0 comes
    out of terms near 20), so the bound is _ROUND times the summed magnitudes.

    Below Re z = -10, where the recurrence would take -Re z steps, the
    reflection log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
    takes Stirling's series at 1 - z, Re(1 - z) > 11, directly.  For Im z
    >= 0 (the conjugate below), sin(pi z) = (i/2) e^(-i pi z) (1 - e^(2 pi i
    z)) with |e^(2 pi i z)| <= 1, and the log taken term by term, log(1/2) +
    pi Im z + i pi (1/2 - Re z) + log(1 - e^(2 pi i z)), is continuous in
    the upper half plane and equals the principal log sin(pi z) at Re z =
    1/2, where the reflection holds on the principal branch: so it holds
    with this log everywhere above the cut, with no multiple of 2 pi i to
    add.  e^(2 pi i z) is taken at Re z less its nearest integer, which is
    exact, so it keeps its digits at any |Re z|.
    """
    z = np.asarray(z, dtype=complex)
    nearest = np.round(z.real)
    pole = (np.abs(z.imag) < _POLE_TOL) & (nearest <= 0) & (np.abs(z.real - nearest) < _POLE_TOL)
    z = np.where(pole, 1.0, z)
    reflect = (z.real < -10.0) & np.isfinite(z)
    zs = np.where(reflect, 1.0 - z, z)
    # shifts per element; none for a non-finite z, which gives a non-finite value
    k = np.where((zs.real < 10.0) & np.isfinite(zs), np.ceil(10.0 - zs.real), 0.0)
    shift = np.zeros(z.shape, dtype=complex)
    size = np.zeros(z.shape)
    n_shift = int(k.max(initial=0.0))
    for j0 in range(0, n_shift, _SHIFT_CHUNK):  # chunks bound the memory
        j = np.arange(j0, min(j0 + _SHIFT_CHUNK, n_shift))
        logs = np.log(np.where(j < k[..., None], zs[..., None] + j, 1.0))
        shift += logs.sum(axis=-1)
        size += np.abs(logs).sum(axis=-1)
    w = zs + k
    s, main = _stirling(w)
    size += np.abs(main) + np.abs(w)
    s -= shift
    if reflect.any():
        x, y = z.real, np.abs(z.imag)
        with np.errstate(invalid="ignore", over="ignore"):
            # 1 - e^(a + i b) = 2 sin^2(b/2) - expm1(a) cos b - i e^a sin b at
            # a = -2 pi y and b = 2 pi (Re z - round(Re z)), exact in [-pi,
            # pi]: no digit cancels, also next to a pole, where b -> 0
            a, b = -2.0 * math.pi * y, 2.0 * math.pi * (x - np.round(x))
            log_rest = np.log((2.0 * np.sin(0.5 * b) ** 2 - np.expm1(a) * np.cos(b))
                              - 1j * (np.exp(a) * np.sin(b)))
            im = math.pi * (0.5 - x)
            log_sin = (math.log(0.5) + math.pi * y + log_rest.real) + 1j * (im + log_rest.imag)
            log_sin = np.where(np.signbit(z.imag), np.conj(log_sin), log_sin)
            s = np.where(reflect, math.log(math.pi) - log_sin - s, s)
            # the terms' sizes, and a few units more for log(1 - e^(a + i b))
            size = np.where(reflect, size + (math.log(math.pi) + 4.0) + math.pi * y
                            + 2.0 * np.abs(im) + np.abs(log_rest), size)
    return s, _ROUND * size, pole


def _stirling(w):
    """(log Gamma(w), (w - 1/2) log w) by Stirling's series, for Re w >= 10:
    the second is the term whose size bounds the rounding."""
    inv = 1.0 / w
    main = (w - 0.5) * np.log(w)
    # sum_n B_2n / (2n (2n-1)) w^(1-2n) by Horner's rule in 1/w^2
    inv2 = inv * inv
    series = _STIRLING[0] * inv2
    for coef in _STIRLING[1:-1]:
        series += coef
        series *= inv2
    series += _STIRLING[-1]
    series *= inv
    series += main - w + _HALF_LOG_2PI
    return series, main


def log_gamma_complex(z):
    """Principal-branch log Gamma(z) for z (scalar or array) off the
    non-positive integers; PoleError if any element sits at a pole."""
    vals, _, pole = _log_gamma(z)
    if pole.any():
        raise PoleError(f"log Gamma pole at z={np.asarray(z)[pole].ravel()[0]}")
    return complex(vals) if vals.ndim == 0 else vals


# ---------------------------------------------------------------------------
# Gauss hypergeometric function on z <= 0

_SERIES_BUDGET = 100_000
_SERIES_RTOL = 1e-15
_DIRECT_RADIUS = 0.5


def _forbidden_c(c: complex) -> bool:
    if abs(c.imag) > _POLE_TOL:
        return False
    nearest = round(c.real)
    return nearest <= 0 and abs(c.real - nearest) < _POLE_TOL


# series terms per step of _hyp_series: _BLOCK on a batch of many cells,
# _LONG_BLOCK on one of at most _FEW_CELLS, where numpy's fixed cost per call
# outweighs the arithmetic of the terms past a column's last useful one.  A
# long step may raise a row's Pochhammer product by at most 2^_LONG_GROWTH
_BLOCK = 8
_LONG_BLOCK = 48
_FEW_CELLS = 16
_LONG_GROWTH = 512
_REBALANCE = 64  # half the exponent gap at which _hyp_series rebalances p and q


def _step_length(a, b, c, cells: int) -> int:
    """Terms per step of :func:`_hyp_series` on ``cells`` cells with the
    rows' parameters ``a``, ``b``, ``c`` (flat complex arrays).

    ``_LONG_BLOCK`` when there are at most ``_FEW_CELLS`` cells and the long
    step keeps p in range, else ``_BLOCK``.  With Re c > 0 every term ratio
    |(a + n)(b + n) / ((c + n)(n + 1))| is at most F = max(1, |a|) max(1,
    |b| / Re c), for each of its two factors (x + n) / (y + n) lies between
    x / y and 1.  So a step of L terms raises |p| by at most F^L, and the long
    step is taken where F^L <= 2^``_LONG_GROWTH``.  A step starts with |p| at
    most 2^65 sqrt(max |term|) (see the rebalancing in :func:`_hyp_series`),
    so p stays below 2^1023 while the terms at step ends stay below 2^890.
    """
    if cells > _FEW_CELLS:
        return _BLOCK
    growth = 1.0
    for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()):
        if not z.real > 0.0:
            return _BLOCK
        growth = max(growth, max(1.0, abs(x)) * max(1.0, abs(y) / z.real))
    return _LONG_BLOCK if _LONG_BLOCK * math.log2(growth) <= _LONG_GROWTH else _BLOCK


def _hyp_series(a, b, c, w):
    """Power series sum_n (a)_n (b)_n / ((c)_n n!) w^n for |w| < 1.

    ``w`` may be a scalar or an array that varies along its last axis only
    (ParameterError otherwise); ``a``, ``b``, ``c`` may be scalars or arrays
    broadcasting against ``w`` that vary over its leading axes only, never
    along its last axis.  The leading axes are the rows, the last axis the
    columns.  Returns (sum, err_bound, terms), with ``terms`` that of the
    slowest column.

    Term n of element (row, column) is p_n q_n: the row's Pochhammer product
    p_n = (a)_n (b)_n / ((c)_n n!) times the column's power q_n = w^n.  So
    a step of L terms is one complex matrix product, added to the sums: the
    live columns' powers q w^(j+1) (columns x L) times the rows' products p
    times the running products of the step's ratios (L x rows).  L is
    ``_BLOCK`` (8), or ``_LONG_BLOCK`` (48) on a batch of at most
    ``_FEW_CELLS`` cells whose rows' ratios keep p in range over a long step
    (:func:`_step_length`), which then sums a typical series in one or two
    steps instead of five or more, each a few dozen numpy calls.  Once the
    largest |p| and |q| drift more than 2^(2 ``_REBALANCE``) apart, a step's
    end scales them by reciprocal powers of two that balance them: every
    product keeps its bits, and neither factor leaves the float range while
    the terms stay in it.

    Once per step come the budget check, the batch scale and the stopping
    test: each column retires at the first step end where its largest
    |term|, |q| max |p|, plus the geometric tail bound falls below
    ``_SERIES_RTOL`` times the largest |partial sum| in the batch (the live
    columns' current sums and the retired columns' final sums).  Its sum and
    truncation bound |q| |p| r/(1-r) are recorded there, and it leaves the
    working arrays, so a batch no longer iterates every element until its
    slowest one converges.  Stopping at a step end costs at most L - 1
    terms, each below the column's truncation bound.

    The round-off bound is 5e-16 sqrt(terms) times the larger of the
    element's largest |term| and its |sum|, with the slowest column's term
    count, so no bound is tighter than a whole-batch run would give.  The
    rounding of p and q carries over to every later term, so a sum larger
    than each of its terms is charged at its own size.  A long step takes
    its largest |term| per element as one broadcast maximum over a
    temporary of at most 48 x 16 elements.  An 8-term step, whose batch may
    hold many cells, screens first: it can raise an element's largest |term|
    only where max_j |q w^(j+1)| times max_j |p ratios_j| exceeds it, and
    the rows the screen flags take the step's exact maximum term by term,
    in scratch no larger than the batch.  A term or tail
    bound that overflows raises NonConvergenceError at the end of its step.
    """
    w = np.asarray(w, dtype=complex)
    if math.prod(w.shape[:-1]) > 1:
        raise ParameterError(f"w must vary along its last axis only, got shape {w.shape}")
    if any(np.shape(v)[-1:] not in ((), (1,)) for v in (a, b, c)):
        raise ParameterError("a, b and c must not vary along the last axis, got shapes "
                             f"{np.shape(a)}, {np.shape(b)}, {np.shape(c)}")
    scalar = w.ndim == 0 and np.ndim(a) == 0 and np.ndim(b) == 0
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c), w.shape) or (1,)
    # the parameters vary over the leading axes only: one entry per row
    a, b, c = (np.broadcast_to(np.asarray(v, dtype=complex), shape[:-1] + (1,)).reshape(-1)
               for v in (a, b, c))
    w = np.broadcast_to(w.reshape(-1), shape[-1:])
    step = _step_length(a, b, c, a.size * w.size)
    # the arrays hold one row per column, so a column moves as one contiguous
    # row.  Rows [:k] hold the live columns, rows [k:] the retired ones in
    # their final state: a retiring column swaps rows with a live one, and
    # the swaps are undone at the end.  trunc is scratch for the live rows
    powers = np.cumprod(np.repeat(w[:, None], step, axis=1), axis=1)  # w^(j+1)
    # max_j |w^(j+1)|, widened to cover the rounding of |q w^(j+1)|
    wpeak = np.abs(powers).max(axis=1) * (1.0 + 2.0 ** -48)
    q = np.ones(w.shape, dtype=complex)  # w^n and p_n, scaled by 2^e and 2^-e
    p = np.ones(a.shape, dtype=complex)
    qabs = np.ones(w.shape)
    total = np.ones(w.shape + a.shape, dtype=complex)
    terms = np.empty_like(total)  # a step's matrix product
    peak = np.ones(total.shape)  # largest |term| per element: cancellation loss
    trunc = np.empty(total.shape)
    wabs = np.abs(w)
    by_row = [powers, wpeak, q, wabs, total, peak]
    swaps = []  # (to, from) rows of each retirement
    k = w.size
    scale_retired = 0.0
    n = 0
    offsets = np.arange(step, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        while k:
            s, pk, tabs, wk, qk = total[:k], peak[:k], trunc[:k], wabs[:k], q[:k]
            while True:
                if n >= _SERIES_BUDGET:
                    raise NonConvergenceError(
                        f"hypergeometric series did not converge within {_SERIES_BUDGET} "
                        f"terms (|w| up to {float(wk.max())})"
                    )
                nk = offsets + n
                ratio = (a + nk) * (b + nk) / ((c + nk) * (nk + 1.0))
                rlast = float(np.abs(ratio[-1]).max(initial=0.0))
                ratio[0] *= p
                row_f = np.cumprod(ratio, axis=0, out=ratio)
                col_f = qk[:, None] * powers[:k]
                s += np.matmul(col_f, row_f, out=terms[:k])
                # every peak is at least 1, the first term's size
                row_abs = np.abs(row_f)
                # a long step's batch is small enough to broadcast; the
                # screen spares a large batch L times its size in temporaries
                if step == _LONG_BLOCK:
                    np.maximum(pk, (np.abs(col_f)[:, :, None] * row_abs).max(axis=1), out=pk)
                else:
                    col_max, row_max = qabs[:k] * wpeak[:k], row_abs.max(axis=0, initial=0.0)
                    if float(col_max.max()) * float(row_max.max(initial=0.0)) > 1.0:
                        np.multiply(col_max[:, None], row_max, out=tabs)
                        tabs -= pk
                        rise = np.flatnonzero(tabs.max(axis=0) > 0.0)
                        if rise.size:
                            # most rows are updated in place, a few through a
                            # copy no larger than half of tabs, their scratch
                            flagged = slice(None) if 2 * rise.size > a.size else rise
                            sub = pk[:, flagged]
                            scratch = tabs.reshape(-1)[:sub.size].reshape(sub.shape)
                            for cj, rj in zip(np.abs(col_f).T, row_abs[:, flagged]):
                                np.multiply(cj[:, None], rj, out=scratch)
                                np.maximum(sub, scratch, out=sub)
                            pk[:, flagged] = sub
                n += step
                qk[:] = col_f[:, -1]
                p = row_f[-1]
                pabs, qabs = np.abs(p), np.abs(qk)
                pmax, qmax = float(pabs.max(initial=0.0)), float(qabs.max())
                e = (math.frexp(pmax)[1] - math.frexp(qmax)[1]) // 2 if pmax and qmax else 0
                if abs(e) > _REBALANCE:
                    np.ldexp(p.view(float), -e, out=p.view(float))
                    np.ldexp(qk.view(float), e, out=qk.view(float))
                    pabs, qabs = np.abs(p), np.abs(qk)
                    pmax = float(pabs.max())
                # asymptotic term ratio tends to |w|; bound the tail geometrically
                r = np.minimum(wk * max(rlast, 1.0), 0.999999)
                tmax = qabs * pmax
                lead = tmax * r / (1.0 - r)
                lead += tmax
                scale = max(scale_retired, float(np.abs(s, out=tabs).max(initial=0.0)))
                if not (math.isfinite(lead.max()) and math.isfinite(scale)):
                    raise NonConvergenceError(
                        f"hypergeometric series terms overflow after {n} terms "
                        f"(|w| up to {float(wk.max())})"
                    )
                done = lead < _SERIES_RTOL * (scale + 1e-300)
                if done.any():
                    break
            j = np.flatnonzero(done)
            scale_retired = max(scale_retired, float(tabs[j].max(initial=0.0)))
            # swap the retired rows behind the live ones, then charge their
            # |sum| to their peaks and record their truncation bounds there
            k_live, k = k, k - j.size
            gone = j[j < k]
            if gone.size:
                stay = k + np.flatnonzero(~done[k:])
                to, frm = np.concatenate([gone, stay]), np.concatenate([stay, gone])
                for v in (r, qabs, *by_row):
                    v[to] = v[frm]
                swaps.append((to, frm))
            bound, rj = trunc[k:k_live], r[k:, None]
            np.abs(total[k:k_live], out=bound)
            np.maximum(peak[k:k_live], bound, out=peak[k:k_live])
            np.multiply(qabs[k:, None], pabs, out=bound)
            bound *= rj
            bound /= 1.0 - rj
    err = peak
    err *= 5e-16
    err *= (n + 1) ** 0.5
    err += trunc
    if scalar:
        return complex(total[0, 0]), float(err[0, 0]), n + 1
    for to, frm in reversed(swaps):
        for v in (total, err):
            v[to] = v[frm]
    return total.T.reshape(shape), err.T.reshape(shape), n + 1


# the Pfaff series at w = z/(z-1) needs O(exp|Im(a-b)|) terms near w = 1, and
# beyond w = 0.7 (|z| = 0.7/(1-0.7)) it is no more accurate against
# mpmath.hyp2f1 than the connection formula
_PFAFF_RADIUS = 7.0 / 3.0
# near an integer b - a the two connection terms cancel, losing digits in
# proportion to 1/distance: where the connection formula's own bound exceeds
# this share of max(|value|, 1), the series at w is summed too, up to
# |z| = 200 (w = 0.995, under ten thousand terms), and the tighter bound wins
_CONNECTION_TOL = 1e-10
_RETRY_RADIUS = 200.0


def _gamma_quotient(numerators, denominators):
    """exp(sum log Gamma(num) - sum log Gamma(den)) over arrays broadcasting
    together, from one log-gamma call, a bound on its relative rounding
    error, and a bound on the quotient where it was dropped.

    An element is zero where one of its denominators lies within _POLE_TOL
    of a pole -n, NonConvergenceError if a numerator does.  Off the pole by
    d, the dropped quotient is the other factors' times 1/Gamma(-n + d),
    at most (n! + 1) |d| in size; that bound is the third array, 0 where
    nothing was dropped, or None when no element was."""
    args = np.broadcast_arrays(*numerators, *denominators)
    lg, lg_err, pole = _log_gamma(np.stack(args))
    k = len(numerators)
    if pole[:k].any():
        z = np.stack(args[:k])[pole[:k]][0]
        raise NonConvergenceError(f"degenerate parameter combination (Gamma pole at {z})")
    # log Gamma reads 0 at a pole, so s leaves those denominators out
    s = lg[:k].sum(axis=0) - lg[k:].sum(axis=0)
    q = np.exp(s)
    dropped = None
    at_pole = pole[k:].any(axis=0)
    if at_pole.any():
        den = np.stack(args[k:]).astype(complex)
        n = -np.round(den.real)
        with np.errstate(over="ignore"):
            fact = np.exp([math.lgamma(v + 1.0) for v in np.where(pole[k:], n, 0.0).ravel()])
        factor = np.where(pole[k:], (fact.reshape(n.shape) + 1.0) * np.abs(den + n), 1.0)
        dropped = np.where(at_pole, np.abs(q) * factor.prod(axis=0), 0.0)
        q[at_pole] = 0.0
    return q, lg_err.sum(axis=0) + _ROUND * np.abs(s), dropped


def _hyp_near_one(a, b, c, u):
    """2F1(a, b; c; 1-u) for small u > 0 via the connection formula at 1.

    ``a``, ``b`` may be arrays broadcasting against ``u``; ``c`` is scalar.
    Requires c - a - b non-integer; the degenerate (integer) case raises
    NonConvergenceError.
    """
    u = np.asarray(u, dtype=float)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s = c - a - b
    (coef1, coef2), (r1, r2), dropped = _gamma_quotient(
        [c, np.stack([s, -s])], [np.stack([c - a, a]), np.stack([c - b, b])]
    )
    s1, e1, n1 = _hyp_series(a, b, 1.0 - s, u)
    s2, e2, n2 = _hyp_series(c - a, c - b, 1.0 + s, u)
    log_u = np.log(u)
    pref2 = np.exp(s * log_u)  # u^(c-a-b), u > 0 real
    if dropped is not None:
        # a term dropped at a pole of its denominator: at most its bound
        # times its series
        dropped = dropped[0] * (np.abs(s1) + e1) + dropped[1] * np.abs(pref2) * (np.abs(s2) + e2)
    s2 *= pref2
    s2 *= coef2
    s1 *= coef1
    # the series' bounds, then the coefficients' rounding, amplified by any
    # cancellation between the two connection terms (now s1 and s2)
    err = np.abs(coef1) * e1
    e2 *= np.abs(pref2)
    e2 *= np.abs(coef2)
    err += e2
    err += np.abs(s1) * r1
    err += np.abs(s2) * (r2 + _ROUND * np.abs(s) * np.abs(log_u))
    if dropped is not None:
        err += dropped
    s1 += s2
    return s1, err, n1 + n2


def gauss_2f1(a: complex, b: complex, c: complex, z: float) -> ComplexEval:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0.

    2F1(a, b; c; 0) = 1 exactly, with no series summed; the direct series
    inside |z| <= 0.5; beyond, the argument transformation w = z/(z-1) maps
    (-inf, 0] into [0, 1) and the series is summed there with the prefactor
    (1-z)^(-a), up to w = 0.7.  Past that the series at w is replaced by the
    connection formula in 1-w, with 1-w = 1/(1-z) computed directly to avoid
    cancellation, unless the connection exponent b - a is an integer: the
    formula degenerates there, so the series at w stays.  Near such a b - a
    the formula cancels: up to |z| = _RETRY_RADIUS, where its bound exceeds
    _CONNECTION_TOL, the series at w is summed too and the tighter of the
    two kept.  ``_phi_batch`` sums no 2F1 at -sinh^2 x, whose series cancel
    at large |lambda|: its cells are Mehler integrals, near the origin in
    any batch and up to a phase max(|lambda|, 1/2) |x| of 32 in a batch of
    at most 4 lambda and 4 x, and the Harish-Chandra expansion elsewhere."""
    c, z = complex(c), float(z)
    if _forbidden_c(c):
        raise ParameterError(f"c={c} is a non-positive integer")
    if z > 0.0:
        raise ParameterError("argument must satisfy z <= 0")
    if z == 0.0:
        return ComplexEval(1.0 + 0.0j, 0.0, 0)
    # (1, 1) arrays: one row and one column of _hyp_series
    a, b, zz = np.full((1, 1), a, dtype=complex), np.full((1, 1), b, dtype=complex), np.full((1, 1), z)
    if -z <= _DIRECT_RADIUS:
        s, e, n = _hyp_series(a, b, c, zz)
    else:
        w = zz / (zz - 1.0)
        pref = np.exp(-a * np.log1p(-zz))  # (1-z)^(-a), 1-z >= 1 real
        d = complex(b[0, 0] - a[0, 0])
        if -z <= _PFAFF_RADIUS or (abs(d.imag) < _POLE_TOL and abs(d.real - round(d.real)) < _POLE_TOL):
            s, e, n = _hyp_series(a, c - b, c, w)
        else:
            s, e, n = _hyp_near_one(a, c - b, c, 1.0 / (1.0 - zz))
            apref = abs(pref[0, 0])
            if e[0, 0] * apref > _CONNECTION_TOL * max(abs(s[0, 0]) * apref, 1.0) and z >= -_RETRY_RADIUS:
                s2, e2, n2 = _hyp_series(a, c - b, c, w)
                n = max(n, n2)
                if e2[0, 0] < e[0, 0]:
                    s, e = s2, e2
        s = pref * s
        e = e * np.abs(pref)
    return ComplexEval(complex(s[0, 0]), float(e[0, 0]), n)


# ---------------------------------------------------------------------------
# Jacobi function and eigenfunction

_LAMBDA_NUDGE = 1e-5
# past this |lambda|, lambda^2 is within a factor 1e8 of overflow: the Mehler
# integral stops
_LAMBDA_SQUARE_MAX = 1e150
# past this |lambda|, the density takes log|c| from Stirling's leading terms:
# their error falls as 1/lambda^2 (5e-15 at (1, 1/2) and 1.2e-13 at (3, 1)
# here), while the cancellation of the exact logs grows as eps lambda (7e-9
# and 4e-9 here, 7e-4 at 1e12, and no digit left at 1e16)
_LAMBDA_STIRLING = 1e7
# e^v overflows past this v
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _require_finite(name: str, value) -> None:
    """ParameterError unless every entry of ``value``, a number or an
    array, is finite: a NaN or infinite lambda or x has no phi, G, c or
    density, and would surface later as a raw RuntimeWarning or as a
    convergence failure that names another cause."""
    if not np.isfinite(value).all():
        raise ParameterError(f"{name} must be finite, got {value}")


def _phi_far(p: JacobiParams, lams, ax, fold_sinh2x: bool):
    """phi_lambda(x) for lams (n,) against ax (m,) >= 0 from the
    Harish-Chandra expansion phi_lambda = c(lambda) Phi_lambda +
    c(-lambda) Phi_-lambda (Koornwinder 1984), with

        Phi_lambda(x) = (2 cosh x)^(i lambda - rho)
            2F1((rho - i lambda)/2, (alpha - beta + 1 - i lambda)/2;
                1 - i lambda; cosh^-2 x).

    For real lambda the two halves are complex conjugates, so phi is
    2 Re(c(lambda) Phi_lambda): one series per cell, a real result.  The
    phase c(lambda) (2 cosh x)^(i lambda - rho) is one exp of a log, with
    log(2 cosh x) = x + log1p(e^-2x), so it neither overflows nor loses the
    range of e^(-rho x); with ``fold_sinh2x`` the values are those of
    sinh(2x) phi, through sinh 2x (2 cosh x)^-2 = tanh(x)/2 in the same
    exponent.  The bound adds the series' bound and the rounding of the
    exponent, log c(lambda) included, on each half."""
    il = 1j * lams[:, None]
    log_c, c_err = _log_c(p, lams[:, None])
    e = np.exp(-2.0 * ax)
    log_2cosh = ax + np.log1p(e)
    s, err, _ = _hyp_series(
        0.5 * (p.rho - il), 0.5 * (p.alpha - p.beta + 1.0 - il), 1.0 - il, 4.0 * e / (1.0 + e) ** 2
    )
    phase = (il - p.rho + (2.0 if fold_sinh2x else 0.0)) * log_2cosh
    rounding = np.abs(phase)
    rounding *= _ROUND
    rounding += c_err
    phase += log_c
    np.exp(phase, out=phase)  # c(lambda) (2 cosh x)^(i lambda - rho)
    err *= np.abs(phase)
    s *= phase
    rounding *= np.abs(s)
    err += rounding
    weight = np.tanh(ax) if fold_sinh2x else 2.0
    err *= weight
    return weight * s.real, err


def _blocks(p: JacobiParams, lams, ax):
    """The non-empty (rows, cols, cells, near) blocks that cover a batch of
    lams (n,) against ax (m,) >= 0 at ``p`` and its shift, each cell once:
    the block's row and column indices, its index ``cells`` into an (n, m)
    array, and for a near block the rest of its ``_phi_near`` arguments
    (sinh^2 x on its columns, and the panels they need where the default
    does not hold), None for a far one.

    The near blocks are the Mehler integral (``_phi_near``): every row at
    sinh^2 x <= ``_PFAFF_RADIUS``; the rows |lambda| < 1, where c(lambda)
    has its pole, up to ``_RETRY_RADIUS``; and, in a batch of at most
    ``_SMALL_SIDE`` lambda and x values, every other cell with max(|lambda|,
    1/2) x <= ``_NEAR_PHASE`` and (2 alpha + 3) x <= ``_MEHLER_RANGE``, on
    panels that turn max(|lambda|, 1) s by ``_REROUTE_PHASE``.  There one
    integral costs less than a series and its complex log-Gamma c-function,
    or little more, while a larger batch shares the series' fixed cost over
    its cells and keeps it.  The rule is per cell, so that a cell takes in a
    small batch the path it takes alone: the rows that reach the same
    number of columns, sorted by x, share a near block and a far block.  The
    far cells, the rest of |lambda| >= 1 with sinh^2 x > ``_PFAFF_RADIUS``
    and of every lambda with sinh^2 x > ``_RETRY_RADIUS``, take the
    Harish-Chandra expansion (``_phi_far``), within 1e-10 of phi relative to
    max(|phi|, 1) there up to lambda = 200.  sinh^2 x is inf past |x| =
    355, where only far cells lie, which do not use it."""
    with np.errstate(over="ignore"):
        sz = np.sinh(ax) ** 2
    small = np.abs(lams) < 1.0
    near = sz <= _PFAFF_RADIUS
    masks = [(None, near, True)]
    if not small.all():
        masks.append((~small, ~near, False))
    if small.any():
        retry = sz <= _RETRY_RADIUS
        masks += [(small, ~near & retry, True), (small, ~retry, False)]
    reroute = max(lams.size, ax.size) <= _SMALL_SIDE
    blocks = []
    for rows, cols, is_near in masks:
        if not cols.any():
            continue
        cols = np.flatnonzero(cols)
        rows = np.arange(lams.size) if rows is None else np.flatnonzero(rows)
        if is_near or not reroute:
            blocks.append((rows, cols, (rows[:, None], cols), (sz[cols],) if is_near else None))
            continue
        # the columns sorted by x, and per row how many of them it takes
        # near: NaN and inf take none
        cols = cols[np.argsort(ax[cols], kind="stable")]
        x = ax[cols]
        with np.errstate(invalid="ignore"):
            ok = ((np.maximum(np.abs(lams[rows]), 0.5)[:, None] * x <= _NEAR_PHASE)
                  & ((2.0 * p.alpha + 3.0) * x <= _MEHLER_RANGE))
        reach = ok.sum(axis=1)
        for k in sorted(set(reach.tolist())):
            group = rows[reach == k]
            c = cols[:k]
            if k:
                turns = max(float(np.abs(lams[group]).max()), 1.0) * ax[c] / _REROUTE_PHASE
                blocks.append((group, c, (group[:, None], c), (sz[c], turns)))
            if k < cols.size:
                c = cols[k:]
                blocks.append((group, c, (group[:, None], c), None))
    return blocks


def _phi_batch(p: JacobiParams, lams, x, fold_sinh2x: bool = False, blocks=None, near=None):
    """phi_lambda(x) for lams (n,) against x (m,): values and element-wise
    error bounds, both shaped (n, m).

    The near blocks of ``_blocks`` are Koornwinder's Mehler-type integral
    (``_phi_near``): every cell near the origin, and in a small batch every
    cell with max(|lambda|, 1/2) |x| <= 32.  Its far cells, in a large batch
    or past that phase, are summed by ``_phi_far``: one series per block,
    exactly real; with ``fold_sinh2x`` they hold sinh(2|x|) phi_lambda(x)
    instead, with sinh 2x folded into their exponent.  A lambda or x that is
    NaN or infinite raises ParameterError.  A caller that has
    the ``_blocks`` of lams and |x| passes them as ``blocks``, and one that
    has their near blocks' (values, bounds) already, in the order of
    ``blocks``, passes those as ``near``.

    phi is even in lambda.  On the far cells |lambda| below 1e-5 is nudged
    to 1e-5, where the c(lambda) poles of the far formula cancel.
    Koornwinder's Laplace representation phi_lambda(x) = int cos(lambda s)
    e^(-rho s) dm_x(s), m_x a positive measure on [-|x|, |x|] for alpha >=
    beta >= -1/2, gives 0 <= phi_0 - phi_nudged <= h phi_0 with h = (1e-5
    x)^2 / 2, so a nudged cell adds h/(1 - h) (|value| + bound) to its bound.
    """
    lams = np.asarray(lams, dtype=float)
    x = np.asarray(x, dtype=float)
    if blocks is None:
        # a caller with blocks has checked its lams and x
        _require_finite("lambda", lams)
        _require_finite("x", x)
    ax = np.abs(x)
    vals = np.empty((lams.size, ax.size), dtype=complex)
    err = np.empty(vals.shape)
    done = iter(near or ())
    for rows, cols, cells, args in _blocks(p, lams, ax) if blocks is None else blocks:
        lr = lams[rows]
        if args is not None:
            vals[cells], err[cells] = _phi_near(p, lr, ax[cols], *args) if near is None else next(done)
            continue
        nudged = np.abs(lr) < _LAMBDA_NUDGE
        v, e = _phi_far(p, np.where(nudged, _LAMBDA_NUDGE, lr), ax[cols], fold_sinh2x)
        if nudged.any():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # h reaches 1 only past |x| = 1.4e5, and overflows past 1e159
                h = 0.5 * (_LAMBDA_NUDGE * ax[cols]) ** 2
                e[nudged] += np.where(h < 1.0, h / (1.0 - h) * (np.abs(v[nudged]) + e[nudged]),
                                      np.inf)
        vals[cells], err[cells] = v, e
    return vals, err


# the phase lambda s of a Mehler integral turns by at most _MEHLER_PHASE over
# one of its s panels, of which it takes from _MEHLER_PANELS to
# _MEHLER_BUDGET, and a block's cos(lambda s) table holds at most
# _MEHLER_CELLS entries at a time
_MEHLER_PHASE = 1.0
_MEHLER_PANELS = 4
_MEHLER_BUDGET = 1 << 12
_MEHLER_CELLS = 1 << 16
# _blocks takes a far cell of a batch of at most _SMALL_SIDE lambda and x
# values near where max(|lambda|, 1/2) x <= _NEAR_PHASE (so x <= 64), on
# panels that turn max(|lambda|, 1) s by at most _REROUTE_PHASE each.  At 1
# radian a panel's |K - G| read up to 1e5 times the series' bound at (3/2,
# 3/2); past a phase of 32 the integral, which cancels, read up to 6e-13 of
# |G| off where the series read 1e-14.  Median ms of 40 G batches, series /
# integral, at (1, 1/2) and (3/2, 3/2) past sinh^2 x = 7/3 (one core of a
# shared 2-core Linux container), by lambda x x values:
#   1 x 1  0.66-0.73 / 0.30-0.38     4 x 1  0.74-0.78 / 0.41-0.46
#   1 x 4  0.68-0.72 / 0.60-0.82     4 x 2  0.77-0.80 / 0.60-0.70
#   2 x 4  0.77-0.81 / 0.84-0.95     4 x 4  0.79-0.86 / 0.93-1.39
#   1 x 8  0.69-0.73 / 0.65-1.18     1 x 16 0.70-0.74 / 0.74-2.71
# (4 x 4 at (0.7, 0.2), whose first panel is graded: 0.78 / 1.68-1.97).  Each
# x takes its own kernel, so past about 4 x the integral costs more; 4 x 4 is
# kept, at up to 2.5 times the series, so that a cell of a batch of 4 lambda
# and 4 x takes the path it takes alone and its error stays within 10 times
# its error alone (a series cell was 7.4e-13 off where the integral alone
# read 1e-19)
_NEAR_PHASE = 32.0
_REROUTE_PHASE = 0.5
_SMALL_SIDE = 4
# and keeps (2 alpha + 3) x within this, where the near integrand of the
# shifted pair, about e^(-(2 alpha + 3) x), is a normal double and
# cosh x^(alpha - beta) finite
_MEHLER_RANGE = 600.0
# past this sinh^2 x times the largest 2F1 term ratio, phi is 1 to rounding
_FLAT = 2.0 ** -60
# the (7, 15) pair on (-1, 1), and its Kronrod and Kronrod-minus-Gauss
# weights as the columns of one table
_UNIT, _UNIT_WK, _UNIT_WG = (w[0] for w in panel_rule([-1.0, 1.0]))
_KD = np.stack([_UNIT_WK, _UNIT_WK - _UNIT_WG], axis=-1)


@functools.lru_cache(maxsize=64)
def _mehler_rule(panels: int, alpha: float):
    """The rule of a Mehler integral of order ``alpha`` on ``panels`` s
    panels of equal width, s = x (1 - u^2), so u = sqrt(k / ``panels``) at
    the edges: its P (7, 15) panels' nodes as u^2, their weights as 2 u times
    the half-widths, each flat (15 P,), the unit Kronrod weights tiled to
    match, and the factor by which each node multiplies the kernel's unit.

    Near u = 0 the integrand is u^(2 alpha) times a series in u^2.  Where 2
    alpha is not an integer, the first panel is cut at e 2^j, j = 0 .. grade
    - 1, e = u_1 2^-grade, and its innermost part (0, e) runs in t = u^q, q
    = 2 alpha + 1, with the unit times u: the integrand is then the series
    in t^(2 / q), whose first non-constant term is about e^2 times the
    first, so grade = ceil(53 / (q + 2)) leaves it (and the rule's error
    there) below rounding.  Its weights 2 / q times the half-width in t
    hold no power of u, and its u, at least 2^-400, keep u^2 x a normal
    double."""
    edges = np.sqrt(np.linspace(0.0, 1.0, panels + 1))
    graded = not (2.0 * alpha).is_integer()
    if graded:
        q = 2.0 * alpha + 1.0
        cuts = edges[1] * 2.0 ** -np.arange(math.ceil(53.0 / (q + 2.0)), 0.0, -1.0)
        edges = np.concatenate([[0.0], cuts, edges[1:]])
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half) + half * _UNIT
    w = 2.0 * half * u
    root = np.ones(u.shape if graded else 1)
    if graded:
        half_t = 0.5 * edges[1] ** q
        u[0] = np.maximum((half_t * (1.0 + _UNIT)) ** (1.0 / q), 2.0 ** -400)
        w[0] = 2.0 * half_t / q
        root[0] = u[0]
    rule = (u * u).ravel(), w.ravel(), np.tile(_UNIT_WK, half.size), root.ravel()
    for a in rule:
        a.setflags(write=False)
    return rule


def _phi_near(p, lams, ax, sz, turns=None):
    """phi_lambda(x) for lams (n,) against ax (m,) >= 0, sz = sinh^2 ax,
    from Koornwinder's Mehler-type integral (1984), in s = x (1 - u^2):

        phi_lambda(x) = (cosh x)^(alpha - beta) int_0^1 cos(lambda s)
                        c_alpha K(x, s) (sinh 2x)^(-2 alpha) 2 x u du,

    c_alpha K / (sinh 2x)^(2 alpha - 1) from :func:`_mehler_kernel` with unit
    = sinh 2x.  The substitution takes up K's (x - s)^(alpha - 1/2) end: the
    integrand is a polynomial in u there when 2 alpha is an integer, and
    otherwise :func:`_mehler_rule` grades the first panel and runs its
    innermost part in t = u^(2 alpha + 1).  The panels are equal in s, 2^k
    of them, at least _MEHLER_PANELS (which keeps K's branch point at s =
    -x, u = sqrt 2, well away from each) and the fewest that keep the
    largest |lambda| s of the block within _MEHLER_PHASE per panel, or,
    where ``turns`` is given, the fewest of at least ``turns`` per column
    (NonConvergenceError past _MEHLER_BUDGET, |lambda| x > 4096, or at a
    lambda that is not finite);
    every lambda row is one cos(lambda s) table against the nodes' Kronrod
    and Kronrod-minus-Gauss weights.  K is positive and free of lambda, so
    |phi_lambda| <= phi_0 holds by construction.  The bound adds per cell
    the panels' |Kronrod - Gauss|, the Kronrod-weighted kernel bound with
    |cos| <= 1, and a rounding charge of _ROUND (2 |lambda| x + P + 16 + 4
    |2 alpha - 1|) times sum w K, P the number of panels.
    Where sinh^2 x times the largest term ratio of phi's 2F1 series at z =
    -sinh^2 x is at most _FLAT, at the cell's own lambda, phi is 1 and the
    bound is the series' rest, its first term over one minus that ratio.

    ``p`` is one pair, whose (values, bounds) are returned, or a tuple of a
    pair and its shift, which share :func:`_mehler_rule` where 2 alpha is an
    integer: then one pass returns both pairs' (values, bounds), bit for bit
    the two single-pair calls, and computes d, s, unit, the Jacobian, the
    cos(lambda s) table and the kernel's sinh products once for both.  A
    column flat in one pair only groups the pairs' columns apart, and each
    pair takes its own pass."""
    pairs = (p,) if isinstance(p, JacobiParams) else p
    lam_max = float(np.max(np.abs(lams), initial=0.0))
    if lam_max > _LAMBDA_SQUARE_MAX:
        # lambda^2 would overflow: phi is 1 at x = 0, and past its range
        # anywhere else
        if ax.any():
            raise NonConvergenceError(
                f"the Mehler integral at |lambda| = {lam_max} is past its range")
        lams = np.zeros(lams.shape)
    lam2 = lams[:, None] ** 2
    # per pair: its values, bounds and rounding charge, the largest term
    # ratio of its series and the cells flat by it
    out = []
    for q in pairs:
        c = q.alpha + 1.0
        ratio = (max(c, 1.0) + lam2 / (4.0 * c)) * sz
        # a cell is flat at its own lambda, so alone and in a batch alike
        out.append((np.ones((lams.size, ax.size)), np.zeros((lams.size, ax.size)),
                    _ROUND * (2.0 * np.abs(lams)[:, None] * ax + 16.0 + 4.0 * abs(2.0 * q.alpha - 1.0)),
                    ratio, ratio <= _FLAT))
    live = np.flatnonzero(~out[0][4].all(axis=0))
    if len(pairs) > 1 and not np.array_equal(live, np.flatnonzero(~out[1][4].all(axis=0))):
        return tuple(_phi_near(q, lams, ax, sz, turns) for q in pairs)
    reach = (lam_max * ax / _MEHLER_PHASE if turns is None else turns)[live]
    if not np.all(reach <= _MEHLER_BUDGET):
        raise NonConvergenceError(
            f"the Mehler integral at |lambda| = {lam_max} needs more than {_MEHLER_BUDGET} panels")
    levels = np.ceil(np.log2(np.maximum(reach, _MEHLER_PANELS)))
    for level in sorted(set(levels.tolist())):
        panels = 2 ** int(level)
        uu, wu, wk, root = _mehler_rule(panels, pairs[0].alpha)
        group = live[levels == level]
        step = max(1, _MEHLER_CELLS // uu.size)
        for j in range(0, group.size, step):
            cols = group[j:j + step]
            x = ax[cols, None]
            d = x * uu
            s = x - d
            unit = np.sinh(2.0 * x)
            jac = wu * (x / unit)
            cosh = np.cosh(ax[cols])
            # the kernel's unit, times u on a graded first panel's inner part
            unit = unit * root
            geometry = _mehler_geometry(s, d, unit) if len(pairs) > 1 else None
            parts = []
            for q in pairs:
                k, k_err = _mehler_kernel(q, s, d, unit, geometry)
                y = k * jac
                pref = cosh ** (q.alpha - q.beta)
                parts.append((y, pref, ((k_err * jac) @ wk) * pref, (y @ wk) * pref))
            rows = max(1, _MEHLER_CELLS // s.size)
            for i in range(0, lams.size, rows):
                r = slice(i, i + rows)
                cos = np.cos(lams[r, None, None] * s)
                for (vals, err, charge, *_), (y, pref, inner, size) in zip(out, parts):
                    table = cos * y
                    sums = table.reshape(*table.shape[:2], -1, _UNIT.size) @ _KD
                    vals[r, cols] = sums[..., 0].sum(axis=-1) * pref
                    err[r, cols] = np.abs(sums[..., 1]).sum(axis=-1) * pref + inner \
                        + (charge[r, cols] + _ROUND * panels) * size
    for (vals, err, _, ratio, flat), q in zip(out, pairs):
        if flat.any():
            vals[flat] = 1.0
            err[flat] = ((q.rho ** 2 + lam2) / (4.0 * (q.alpha + 1.0)) * sz / (1.0 - ratio))[flat]
    return out[0][:2] if len(pairs) == 1 else tuple(o[:2] for o in out)


def jacobi_phi(p: JacobiParams, lam: float, x: float) -> complex:
    """2F1((rho+i lam)/2, (rho-i lam)/2; alpha+1; -sinh^2 x); even in x,
    real for real lam."""
    return complex(_phi_batch(p, [lam], [x])[0][0, 0])


def _g_odd(p: JacobiParams, lams, ax, blocks=None, near=None):
    """The odd part of G_lambda at ax (m,) >= 0 for lams (n,),
    c sinh(2x) phi^(alpha+1, beta+1)(x) with c = (rho + i lambda)/(4(alpha+1)):
    values and element-wise error bounds, both shaped (n, m).  On the far
    cells of ``_phi_batch`` the series is summed as
    sinh(2x) phi^(alpha+1, beta+1), so the odd part keeps the range of
    e^(-rho x) where sinh 2x overflows.  ``blocks`` are the ``_blocks`` of
    lams and ax, and ``near`` the near blocks' phi^(alpha+1, beta+1), when
    the caller has them."""
    if blocks is None:
        blocks = _blocks(p, lams, ax)
    phi_up, e2 = _phi_batch(p.shifted(), lams, ax, fold_sinh2x=True, blocks=blocks, near=near)
    coef = ((p.rho + 1j * lams) / (4.0 * (p.alpha + 1.0)))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = coef * np.sinh(2.0 * ax)[None, :]
    # the far cells of phi_up hold sinh(2x) phi^(alpha+1, beta+1) already
    # (and sinh 2x overflows only on far cells)
    for rows, _, cells, near in blocks:
        if near is None:
            scale[cells] = coef[rows]
    err = np.abs(scale)
    err *= e2
    return scale * phi_up, err


def _g_batch(p: JacobiParams, lams, x):
    """G_lambda(x) for lams (n,) against x (m,): values and element-wise
    error bounds, both shaped (n, m).

    G_lambda(+-x) = phi(x) +- ``_g_odd``(x) with both parts even in x, so
    each is computed once per distinct |x| and gathered back to the signed
    columns: G_lambda(x) and G_lambda(-x) share one sum, and negating the
    odd part is exact.  Both share one ``_blocks`` layout, and where 2
    alpha is an integer, as at every catalog pair, one Mehler pass: each near
    block is one pair-form ``_phi_near`` call of p and its shift, whose
    rules then agree; at a fractional 2 alpha each pair takes its own.
    G_lambda(0) = 1 exactly, as phi is 1 and the odd part 0 at x = 0.  A
    lambda or x that is NaN or infinite raises ParameterError.
    Repeated |x| leave the far series' batch-wide stopping scale as it is,
    so every column has the bits of a batch that holds each |x| once."""
    lams = np.asarray(lams, dtype=float)
    x = np.asarray(x, dtype=float)
    _require_finite("lambda", lams)
    _require_finite("x", x)
    ax, back = np.unique(np.abs(x), return_inverse=True)
    if not ax.any():
        # x = 0 only, as in an inverse transform at the origin: G_lambda(0)
        # = 1 without the set-up of two phi calls
        return np.ones((lams.size, x.size), dtype=complex), np.zeros((lams.size, x.size))
    blocks = _blocks(p, lams, ax)
    near = up_near = None
    if (2.0 * p.alpha).is_integer():
        both = [_phi_near((p, p.shifted()), lams[rows], ax[cols], *args)
                for rows, cols, _, args in blocks if args is not None]
        near, up_near = [b[0] for b in both], [b[1] for b in both]
    phi, e1 = _phi_batch(p, lams, ax, blocks=blocks, near=near)
    odd, e2 = _g_odd(p, lams, ax, blocks, near=up_near)
    err = e2[:, back]
    err += e1[:, back]
    vals = odd[:, back]
    np.negative(vals, out=vals, where=x < 0.0)
    vals += phi[:, back]
    return vals, err


def eigenfunction_g(p: JacobiParams, lam: float, x: float) -> complex:
    """G_lambda(x) via the derivative-free two-term representation."""
    return complex(_g_batch(p, [lam], [x])[0][0, 0])


# terms of the kernel's 2F1 before NonConvergenceError: its argument is below
# 1/2, so the terms fall at least geometrically once n passes about 2 alpha
_KERNEL_BUDGET = 2000


def _kernel_series(a: float, b: float, c: float, z_max: float, budget: int = _KERNEL_BUDGET):
    """The coefficients c_n = (a)_n (b)_n / ((c)_n n!) of 2F1(a, b; c; z) up
    to the term N where the geometric bound on the rest at z_max, |c_N|
    z_max^N R / (1 - R) with R = z_max max(1, |a + N| / (c + N)) max(1, |b +
    N| / (N + 1)) (every later term ratio is below it, as each factor moves
    monotonically towards 1 once it passes it), falls below _ROUND, and that
    rest; the series ends, with no rest, at the n where a + n or b + n is 0.
    None if that takes more than ``budget`` terms after the first."""
    coefs, term = [1.0], 1.0
    for n in range(budget):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0))
        if term == 0.0:
            return coefs, 0.0
        coefs.append(term)
        bound = (z_max * max(1.0, abs(a + n + 1.0) / (c + n + 1.0))
                 * max(1.0, abs(b + n + 1.0) / (n + 2.0)))
        rest = abs(term) * z_max ** (n + 1) * bound / (1.0 - bound) if bound < 1.0 else math.inf
        if rest <= _ROUND:
            return coefs, rest
    return None


def _mehler_geometry(s, d, unit):
    """What K takes from x = s + d and ``unit`` alone, free of the pair: with
    m = s + d/2 and h = d/2, (sinh m sinh h, cosh m cosh h, 8 (sinh m /
    unit) (sinh h / unit)).  cosh x - cosh s = 2 sinh m sinh h, cosh 2x -
    cosh 2s = 8 sinh m cosh m sinh h cosh h and cosh x = cosh m cosh h +
    sinh m sinh h."""
    sm, sh = np.sinh(s + 0.5 * d), np.sinh(0.5 * d)
    return sm * sh, np.sqrt((1.0 + sm * sm) * (1.0 + sh * sh)), 8.0 * (sm / unit) * (sh / unit)


def _mehler_kernel(p: JacobiParams, s, d, unit=1.0, geometry=None):
    """c_alpha K(x, s) / unit^(2 alpha - 1) at x = s + d for s >= 0, d > 0
    and unit > 0 broadcasting together, and an element-wise error bound (the
    division's rounding aside): Koornwinder's Mehler-type
    integral (1984) phi_lambda(x) = c_alpha (sinh 2x)^(-2 alpha)
    (cosh x)^(alpha - beta) int_0^x cos(lambda s) K(x, s) ds, with

        K(x, s) = (cosh 2x - cosh 2s)^(alpha - 1/2)
                  2F1(alpha + beta, alpha - beta; alpha + 1/2; z),
        z = (cosh x - cosh s) / (2 cosh x),
        c_alpha = 2^(alpha + 3/2) Gamma(alpha + 1) / (sqrt(pi) Gamma(alpha + 1/2)).

    K is positive and free of lambda, and z lies in [0, 1/2).  The
    differences are products of sinh at s + d/2 and d/2, so they keep their
    digits as d -> 0.

    The 2F1 is a real power series in z with no lambda in it, so its
    coefficients are scalars (:func:`_kernel_series`), and it is summed by
    Horner's rule.  Euler's transformation gives it a second form,
    (1 - z)^(1/2 - alpha) 2F1(1/2 - beta, 1/2 + beta; alpha + 1/2; z), and
    the shorter series is summed: the first is 1 where alpha + beta or
    alpha - beta is 0, as at (1/2, -1/2) and (3/2, 3/2), and the second is
    1 where beta = +-1/2 and ends at n = 1 where beta = 3/2, as at (1, 1/2),
    (3/2, 1/2) and (2, 3/2), where the first takes about 50 terms at z near
    1/2.  In the
    second, (1 - z)^(1/2 - alpha) joins K's power: (cosh 2x - cosh 2s)
    (1 - z)^-1 = 8 sinh m sinh h cosh x.  Every term of the rest grows with
    z, so the bound is that rest plus _ROUND (N + 1) times the summed
    |terms|, times the power where it enters.  A plain recurrence over the
    whole array, or ``_hyp_series`` with its complex steps, costs several
    times more.  ``unit`` divides each sinh factor of K's power, so that
    with unit = sinh 2x the power of K / (sinh 2x)^(2 alpha - 1) stays near
    1 as x -> 0, where K alone would underflow.  ``geometry``, the
    :func:`_mehler_geometry` of s, d and unit, is passed by a caller that
    evaluates the kernels of two pairs on the same nodes."""
    a, b, c = p.alpha + p.beta, p.alpha - p.beta, p.alpha + 0.5
    s, d = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(d, dtype=float))
    total = size = np.ones(s.shape)
    coefs, rest = [1.0], 0.0
    if geometry is None and (a * b != 0.0 or p.alpha != 0.5):
        geometry = _mehler_geometry(s, d, unit)
    if geometry is not None:
        prod, cosh_both, base = geometry
    # a + n and b + n vanish only at n = 0 (a > -1, b >= 0): then the series
    # is 1, with no z to compute
    # Euler's form is 1, with no z to compute, where beta = +-1/2 (a + b
    # is then 2 alpha or 0 and the plain series is no shorter)
    euler = a * b != 0.0 and abs(p.beta) == 0.5
    if a * b != 0.0 and not euler:
        z = prod / (cosh_both + prod)
        z_max = float(z.max(initial=0.0))
        # Euler's form first: where it ends early, the plain series is
        # summed only if it is no longer
        other = _kernel_series(0.5 - p.beta, 0.5 + p.beta, c, z_max)
        plain = _kernel_series(a, b, c, z_max,
                               _KERNEL_BUDGET if other is None else len(other[0]) - 1)
        if plain is None and other is None:
            raise NonConvergenceError(
                f"Mehler kernel series did not converge within {_KERNEL_BUDGET} terms")
        (coefs, rest), euler = (plain, False) if plain is not None else (other, True)
        total = np.full(z.shape, coefs[-1])
        for coef in coefs[-2::-1]:
            total *= z
            total += coef
        size = total
        if any(coef < 0.0 for coef in coefs):
            size = np.full(z.shape, abs(coefs[-1]))
            for coef in coefs[-2::-1]:
                size *= z
                size += abs(coef)
    log_c = ((p.alpha + 1.5) * math.log(2.0) + math.lgamma(p.alpha + 1.0)
             - 0.5 * math.log(math.pi) - math.lgamma(p.alpha + 0.5))
    scale = math.exp(log_c)
    # the rest at z_max bounds the rest at every smaller z; two more units
    # for the constant and the product
    err = size * (_ROUND * (len(coefs) + 2)) + rest
    if p.alpha != 0.5:
        scale = scale * (base * (cosh_both + prod if euler else cosh_both)) ** (p.alpha - 0.5)
        # the power's base carries the rounding of sinh and cosh at m and h,
        # about 1 + m and 1 + h units each, which the power multiplies
        grow = _ROUND * abs(p.alpha - 0.5)
        err += total * ((s + d) * (2.0 * grow) + (8.0 * grow + _ROUND))
    return scale * total, scale * err


# ---------------------------------------------------------------------------
# Weight and its scaling-ratio extrema

def weight_a(p: JacobiParams, x):
    """Hyperbolic weight (sinh|x|)^(2a+1) (cosh|x|)^(2b+1); array-friendly."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.sinh(ax) ** (2.0 * p.alpha + 1.0) * np.cosh(ax) ** (2.0 * p.beta + 1.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def log_sinh_cosh(x):
    """(log sinh|x|, log cosh|x|), the two logs that log A combines; -inf
    and 0 at x = 0, and |x| + log-half for large |x|, so that neither
    overflows."""
    ax = np.abs(np.asarray(x, dtype=float))
    big = ax > 30.0
    with np.errstate(divide="ignore"):
        ls = np.where(big, ax - math.log(2.0), np.log(np.sinh(np.minimum(ax, 30.0))))
        lc = np.where(big, ax - math.log(2.0), np.log(np.cosh(np.minimum(ax, 30.0))))
    return ls, lc


def log_weight_a(p: JacobiParams, x):
    """log A(x); -inf at x = 0.  Safe for |x| far beyond the overflow range
    of ``weight_a``."""
    ls, lc = log_sinh_cosh(x)
    es, ec = p.weight_exponents
    out = es * ls + ec * lc
    if np.ndim(x) == 0:
        return float(out)
    return out


def weight_ratio_extrema(
    p: JacobiParams, t: float, cfg: QuadConfig | None = None
) -> tuple[float, float]:
    """(sup, inf) over u > 0 of A(u) / A(t u), in closed form.

    h(u) = u (log A)'(u) = (2 alpha + 1) u coth u + (2 beta + 1) u tanh u is
    increasing and d/du log(A(u)/A(tu)) = (h(u) - h(tu))/u, so the ratio is
    monotone in u: it runs from t^-(2 alpha + 1) at u -> 0 to 0 (t > 1) or
    +inf (t < 1).  ``cfg`` is accepted and unused.
    """
    if not t > 0:
        raise ParameterError("need t > 0")
    if t == 1.0:
        return 1.0, 1.0
    try:
        limit_zero = t ** -(2.0 * p.alpha + 1.0)
    except OverflowError:
        limit_zero = math.inf
    return (limit_zero, 0.0) if t > 1.0 else (math.inf, limit_zero)


# ---------------------------------------------------------------------------
# c-function and spectral density

_DEFAULT_LAMBDA_MIN = 1e-6


def _log_c(p: JacobiParams, lam):
    """log c(lambda) over real lambda, and a bound on its rounding error."""
    il = 1j * np.asarray(lam, dtype=float)
    args = np.stack(np.broadcast_arrays(
        p.alpha + 1.0, il, 0.5 * (p.rho + il), 0.5 * (p.alpha - p.beta + 1.0 + il)))
    lg, lg_err, pole = _log_gamma(args)
    if pole.any():
        raise PoleError(f"log Gamma pole at z={args[pole].ravel()[0]}")
    out = (p.rho - il) * math.log(2.0) + lg[0] + lg[1] - lg[2] - lg[3]
    return out, lg_err.sum(axis=0) + _ROUND * np.abs(out)


def c_function(
    p: JacobiParams, lam: float, lambda_min: float = _DEFAULT_LAMBDA_MIN
) -> complex:
    """Harish-Chandra-type c-function, via log-gamma arithmetic;
    ParameterError at a lambda that is NaN or infinite."""
    _require_finite("lambda", lam)
    if abs(lam) < lambda_min:
        raise PoleError(f"c-function pole at lambda=0 (|lambda| < {lambda_min})")
    return complex(np.exp(_log_c(p, lam)[0]))


def _log_abs_gamma(x: float, y):
    """log|Gamma(x + i y)| for a scalar x > 0 and an array y: the shift
    recurrence to Re >= 10 in real logs, log|z + j| = log((x + j)^2 + y^2) / 2,
    then one complex Stirling sum."""
    k = max(math.ceil(10.0 - x), 0)
    # one row per y, so that each sum runs in the same order whatever the
    # number of rows
    shifts = (y * y)[:, None] + (x + np.arange(k)) ** 2
    s, _ = _stirling((x + k) + 1j * y)
    return s.real - 0.5 * np.log(shifts).sum(axis=-1)


def plancherel_density(p: JacobiParams, lam, lambda_min: float = _DEFAULT_LAMBDA_MIN):
    """Complex density of the spectral measure w.r.t. d lambda:
    (1 - rho/(i lambda)) / (8 pi |c(lambda)|^2), with |c|^2 normalized
    (the 2^rho prefactor of :func:`c_function` removed) so that the
    inversion and Plancherel identities hold exactly for the forward
    transform computed by this package; verified independently against
    the closed-form sine-kernel reduction at (alpha, beta) = (1/2, -1/2).

    Only Re log c(lambda) enters, so it is taken in real logs of |Gamma|:
    log Gamma(alpha + 1) is a scalar, log|Gamma(i lambda)| = log(pi / (lambda
    sinh pi lambda)) / 2 with log sinh u = u - log 2 + log(1 - e^(-2u)), and
    the two others are :func:`_log_abs_gamma` at y = lambda / 2.  Past
    |lambda| = 1e7, where those logs cancel, log|c| is Stirling's leading
    terms, and a density past the float range is inf.  A scalar lambda takes
    the path of a batch, and has its bits.

    ``lam`` may be a scalar (complex result) or an array (complex array);
    PoleError if any |lambda| is below ``lambda_min``, and ParameterError if
    any is NaN or infinite."""
    lam = np.asarray(lam, dtype=float)
    _require_finite("lambda", lam)
    if np.any(np.abs(lam) < lambda_min):
        raise PoleError(f"density pole at lambda=0 (|lambda| < {lambda_min})")
    flat = lam.ravel()
    y = np.abs(flat)
    huge = y > _LAMBDA_STIRLING
    if huge.any():
        # where the exact logs cancel, Stirling's leading terms give log|c| =
        # log Gamma(alpha + 1) - log(2 pi) / 2 - log(y) / 2 - alpha log(y / 2)
        far = y[huge]
        y = np.where(huge, 1.0, y)
    u = math.pi * y
    log_sinh = u - math.log(2.0) + np.log(-np.expm1(-2.0 * u))
    log_c = (math.lgamma(p.alpha + 1.0) + 0.5 * (math.log(math.pi) - np.log(y) - log_sinh)
             - _log_abs_gamma(0.5 * p.rho, 0.5 * y)
             - _log_abs_gamma(0.5 * (p.alpha - p.beta + 1.0), 0.5 * y))
    if huge.any():
        log_c[huge] = (math.lgamma(p.alpha + 1.0) - 0.5 * math.log(2.0 * math.pi)
                       - 0.5 * np.log(far) - p.alpha * np.log(0.5 * far))
    e2 = -2.0 * log_c
    over = e2 > _LOG_FLOAT_MAX if e2.max(initial=0.0) > _LOG_FLOAT_MAX else None
    if over is not None:
        e_over, e2[over] = e2[over], 0.0
    out = (1.0 - p.rho / (1j * flat)) * np.exp(e2) / (8.0 * math.pi)
    if over is not None:
        # where e^e2 overflows, the density is e^(e2 - log 8 pi) (1 + i rho
        # / lambda), inf past the float range
        with np.errstate(over="ignore"):
            size = np.exp(e_over - math.log(8.0 * math.pi))
        out.real[over], out.imag[over] = size, size * (p.rho / flat[over])
    return complex(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)
