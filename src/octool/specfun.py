"""Special functions of the trigonometric Dunkl (Jacobi-Cherednik) setting.

Provides the complex log-gamma, the Gauss hypergeometric function on the
negative real axis, the Jacobi function phi_lambda, the Cherednik
eigenfunction G_lambda, the hyperbolic weight A, the harmonic-analysis
c-function, and the spectral (Plancherel) density.  Everything is pure and
safe to evaluate concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ParameterError, PoleError
from .quad import QuadConfig

__all__ = [
    "JacobiParams",
    "ComplexEval",
    "log_gamma_complex",
    "gauss_2f1",
    "jacobi_phi",
    "eigenfunction_g",
    "weight_a",
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

# B_{2n} / (2n (2n-1)) for the Stirling series, n = 1..12
_STIRLING = [
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
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_POLE_TOL = 1e-12


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma(z) for z not a non-positive integer.

    Stirling's series after shifting the argument to Re(z) >= 10 through the
    recurrence log Gamma(z) = log Gamma(z+1) - log(z).
    """
    z = complex(z)
    if abs(z.imag) < _POLE_TOL and z.real <= 0.5:
        nearest = round(z.real)
        if nearest <= 0 and abs(z.real - nearest) < _POLE_TOL:
            raise PoleError(f"log Gamma pole at z={z}")
    shift = 0.0 + 0.0j
    w = z
    while w.real < 10.0:
        shift += cmath.log(w)
        w += 1.0
    s = (w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI
    w2 = w * w
    pw = w
    for coef in _STIRLING:
        s += coef / pw
        pw *= w2
    return s - shift


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


def _column_major(v, shape: tuple) -> np.ndarray:
    """``v`` broadcast against ``shape`` as a 2-D (columns, rows) array: one
    row per column of the last axis of ``shape``, holding that column's
    entries over all leading axes.  Either axis stays of length 1 where ``v``
    does not vary along it.  Always a new array."""
    v = np.asarray(v)
    lead = shape[:-1] if v.ndim > 1 and math.prod(v.shape[:-1]) > 1 else (1,) * (len(shape) - 1)
    width = shape[-1] if v.ndim > 0 and v.shape[-1] > 1 else 1
    return np.broadcast_to(v, lead + (width,)).reshape(-1, width).T.copy()


def _hyp_series(a, b, c, w):
    """Power series sum_n (a)_n (b)_n / ((c)_n n!) w^n for |w| < 1.

    ``w`` may be a scalar or array; ``a``, ``b``, ``c`` may be scalars or
    arrays broadcasting against ``w``.  Returns (sum, err_bound, terms), with
    ``terms`` that of the slowest column.

    Each column of the last axis (the ``w`` axis) retires on its own, at the
    first term where its largest |term| plus the geometric tail bound falls
    below ``_SERIES_RTOL`` times the largest |partial sum| in the batch (the
    live columns' current sums and the retired columns' final sums).  Its
    sum and truncation bound |term| r/(1-r) are recorded at that term, and
    it leaves the working arrays, so a batch no longer iterates every
    element until its slowest one converges.  The round-off bound
    5e-16 peak sqrt(terms) uses the slowest column's term count, so no bound
    is tighter than a whole-batch run would give, and a one-column input
    computes exactly what a whole-batch stopping test does.
    """
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0 and np.ndim(a) == 0 and np.ndim(b) == 0
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c), w.shape) or (1,)
    # one row per column, so a column moves as one contiguous row.  Rows
    # [:k] hold the live columns, rows [k:] the retired ones in their final
    # state: a retiring column swaps rows with a live one, and the swaps are
    # undone at the end.  trunc is scratch for the live rows
    total = np.ones((shape[-1], math.prod(shape[:-1])), dtype=complex)
    term = np.ones_like(total)
    peak = np.ones(total.shape)  # largest |term| per element: cancellation loss
    trunc = np.empty(total.shape)
    # scalar parameters stay 0-d: numpy rounds complex products of scalars
    # differently from its array loops, and a one-column input must keep the
    # arithmetic of a whole-batch run
    a, b, c = (np.asarray(v) if np.ndim(v) == 0 else _column_major(v, shape) for v in (a, b, c))
    w = _column_major(w, shape)
    wmax = np.broadcast_to(np.abs(w).max(axis=1), total.shape[:1]).copy()
    by_row = [v for v in (a, b, c, w) if v.ndim and v.shape[0] > 1] + [total, term, peak, wmax]
    swaps = []  # (to, from) rows of each retirement
    k = total.shape[0]
    scale_retired = 0.0
    n = 0
    while k:
        s, tm, pk, tabs = total[:k], term[:k], peak[:k], trunc[:k]
        aa, bb, cc, ww = (v[:k] if v.ndim and v.shape[0] > 1 else v for v in (a, b, c, w))
        wk = wmax[:k]
        while True:
            if n == _SERIES_BUDGET:
                raise NonConvergenceError(
                    f"hypergeometric series did not converge within {_SERIES_BUDGET} "
                    f"terms (|w| up to {float(wk.max())})"
                )
            ratio = (aa + n) * (bb + n) / ((cc + n) * (n + 1))
            if tm.size == 1:  # numpy rounds this product in place differently
                tm[...] = tm * ratio * ww
            else:
                np.multiply(tm, ratio, out=tm)
                np.multiply(tm, ww, out=tm)
            s += tm
            n += 1
            # asymptotic term ratio tends to |w|; bound the tail geometrically
            rabs = np.abs(ratio).max(axis=1) if np.ndim(ratio) else np.abs(ratio)
            r = np.minimum(np.maximum(wk, rabs * wk), 0.999999)
            np.abs(tm, out=tabs)
            np.maximum(pk, tabs, out=pk)
            tmax = tabs.max(axis=1)
            tail = tmax * r / (1.0 - r)
            scale = max(scale_retired, float(np.abs(s, out=tabs).max()))
            done = tail + tmax < _SERIES_RTOL * (scale + 1e-300)
            if done.any():
                break
        j = np.flatnonzero(done)
        scale_retired = max(scale_retired, float(tabs[j].max()))
        # swap the retired rows behind the live ones, then record their
        # truncation bounds there
        k_live, k = k, k - j.size
        gone = j[j < k]
        if gone.size:
            stay = k + np.flatnonzero(~done[k:])
            to, frm = np.concatenate([gone, stay]), np.concatenate([stay, gone])
            for v in (r, *by_row):
                v[to] = v[frm]
            swaps.append((to, frm))
        bound, rj = trunc[k:k_live], r[k:, None]
        np.abs(term[k:k_live], out=bound)
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


_NEAR_ONE = 0.99  # transformed arguments beyond this use the 1-w expansion


def _gamma_quotient(numerators, denominators) -> complex:
    """exp(sum log Gamma(num) - sum log Gamma(den)); zero if a denominator
    sits at a pole, NonConvergenceError if a numerator does."""
    s = 0.0 + 0.0j
    for z in numerators:
        try:
            s += log_gamma_complex(z)
        except PoleError as exc:
            raise NonConvergenceError(
                f"degenerate parameter combination (Gamma pole at {z})"
            ) from exc
    for z in denominators:
        try:
            s -= log_gamma_complex(z)
        except PoleError:
            return 0.0 + 0.0j
    return cmath.exp(s)


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
    if a.ndim == 0:
        coef1 = _gamma_quotient([c, complex(s)], [complex(c - a), complex(c - b)])
        coef2 = _gamma_quotient([c, complex(-s)], [complex(a), complex(b)])
    else:
        coef1 = np.empty(a.shape, dtype=complex)
        coef2 = np.empty(a.shape, dtype=complex)
        for idx in np.ndindex(a.shape):
            coef1[idx] = _gamma_quotient(
                [c, complex(s[idx])], [complex(c - a[idx]), complex(c - b[idx])]
            )
            coef2[idx] = _gamma_quotient(
                [c, complex(-s[idx])], [complex(a[idx]), complex(b[idx])]
            )
    s1, e1, n1 = _hyp_series(a, b, 1.0 - s, u)
    s2, e2, n2 = _hyp_series(c - a, c - b, 1.0 + s, u)
    pref2 = np.exp(s * np.log(u))  # u^(c-a-b), u > 0 real
    vals = coef1 * s1 + pref2 * coef2 * s2
    # cancellation between the two connection terms
    big = np.maximum(np.abs(coef1 * s1), np.abs(pref2 * coef2 * s2))
    err = np.abs(coef1) * e1 + np.abs(pref2 * coef2) * e2 + 2e-16 * big
    return vals, err, n1 + n2


def _hyp2f1_nonpos(a: complex, b: complex, c: complex, z):
    """2F1(a, b; c; z) for real z <= 0 (scalar or array), with error bound.

    Direct series inside |z| <= 0.5; otherwise the argument transformation
    w = z/(z-1) maps (-inf, 0] into [0, 1) and the series is summed there
    with the prefactor (1-z)^(-a).  When w lands too close to 1 (very large
    |z|) the series at w is replaced by the connection formula in 1-w, with
    1-w = 1/(1-z) computed directly to avoid cancellation.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(z > 0):
        raise ParameterError("argument must satisfy z <= 0")
    out = np.empty(z.shape, dtype=complex)
    err = np.zeros(z.shape)
    terms = 0
    # the Pfaff series at w = z/(z-1) needs O(exp|Im(a-b)|) terms near w = 1:
    # for strongly oscillatory parameters hand w > 0.7 to the connection
    # formula, whose coefficients are well-conditioned precisely then
    near = _NEAR_ONE if abs((a - b).imag) < 4.0 else 0.7
    direct = np.abs(z) <= _DIRECT_RADIUS
    transformed = ~direct & (np.abs(z) <= near / (1.0 - near))
    far = ~direct & ~transformed
    if np.any(direct):
        s, e, n = _hyp_series(a, b, c, z[direct])
        out[direct] = s
        err[direct] = e
        terms = max(terms, n)
    for mask, near_one in ((transformed, False), (far, True)):
        if not np.any(mask):
            continue
        zz = z[mask]
        pref = np.exp(-a * np.log1p(-zz))  # (1-z)^(-a), 1-z >= 1 real
        if near_one:
            s, e, n = _hyp_near_one(a, c - b, c, 1.0 / (1.0 - zz))
        else:
            s, e, n = _hyp_series(a, c - b, c, zz / (zz - 1.0))
        out[mask] = pref * s
        err[mask] = e * np.abs(pref)
        terms = max(terms, n)
    if scalar:
        return complex(out[0]), float(err[0]), terms
    return out, float(np.max(err)), terms


def _hyp2f1_batch(a, b, c, z):
    """2F1(a, b; c; z) for a batch: ``a``, ``b`` of shape (n,), real z <= 0 of
    shape (m,); returns (values (n, m), err_bound).

    Same region dispatch as :func:`_hyp2f1_nonpos` with the connection-formula
    threshold fixed at 0.7, suitable for parameter sweeps that include large
    |Im(a - b)|.
    """
    a = np.asarray(a, dtype=complex)[:, None]
    b = np.asarray(b, dtype=complex)[:, None]
    z = np.asarray(z, dtype=float)
    if np.any(z > 0):
        raise ParameterError("argument must satisfy z <= 0")
    n, m = a.shape[0], z.shape[0]
    out = np.empty((n, m), dtype=complex)
    err = np.zeros((n, m))
    near = 0.7
    direct = np.abs(z) <= _DIRECT_RADIUS
    transformed = ~direct & (np.abs(z) <= near / (1.0 - near))
    far = ~direct & ~transformed
    if np.any(direct):
        s, e, _ = _hyp_series(a, b, c, z[direct][None, :])
        out[:, direct] = s
        err[:, direct] = e
    for mask, near_one in ((transformed, False), (far, True)):
        if not np.any(mask):
            continue
        zz = z[mask][None, :]
        pref = np.exp(-a * np.log1p(-zz))
        if near_one:
            s, e, _ = _hyp_near_one(a, c - b, c, 1.0 / (1.0 - zz))
        else:
            s, e, _ = _hyp_series(a, c - b, c, zz / (zz - 1.0))
        out[:, mask] = pref * s
        err[:, mask] = e * np.abs(pref)
    return out, err


def gauss_2f1(a: complex, b: complex, c: complex, z: float) -> ComplexEval:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0."""
    c = complex(c)
    if _forbidden_c(c):
        raise ParameterError(f"c={c} is a non-positive integer")
    val, err, n = _hyp2f1_nonpos(complex(a), complex(b), c, float(z))
    return ComplexEval(val, err, n)


# ---------------------------------------------------------------------------
# Jacobi function and eigenfunction

_LAMBDA_NUDGE = 1e-5


def _phi_array(p: JacobiParams, lam: float, x) -> np.ndarray:
    """Jacobi function phi_lambda(x) over an array of real x.

    phi is even in lambda; |lambda| below 1e-5 is nudged to 1e-5 because the
    large-|x| connection formula degenerates at lambda = 0 (the error picked
    up is O(lambda_nudge^2)).
    """
    x = np.asarray(x, dtype=float)
    z = -np.sinh(x) ** 2
    nudged = abs(lam) < _LAMBDA_NUDGE
    lam_eff = _LAMBDA_NUDGE if nudged else lam
    a = 0.5 * (p.rho + 1j * lam_eff)
    b = 0.5 * (p.rho - 1j * lam_eff)
    vals, _, _ = _hyp2f1_nonpos(a, b, p.alpha + 1.0, z)
    vals = np.atleast_1d(vals)
    if nudged:
        vals = vals.real.astype(complex)
    return vals


def jacobi_phi(p: JacobiParams, lam: float, x: float) -> complex:
    """2F1((rho+i lam)/2, (rho-i lam)/2; alpha+1; -sinh^2 x); even in x,
    real for real lam."""
    return complex(_phi_array(p, lam, x)[0])


def _g_array(p: JacobiParams, lam: float, x) -> np.ndarray:
    """Eigenfunction G_lambda(x) of the Jacobi-Cherednik operator, G(0)=1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = _phi_array(p, lam, x)
    phi_up = _phi_array(p.shifted(), lam, x)
    coef = (p.rho + 1j * lam) / (4.0 * (p.alpha + 1.0))
    return phi + coef * np.sinh(2.0 * x) * phi_up


def _phi_batch(p: JacobiParams, lams, x):
    """phi_lambda(x) for lams (n,) against x (m,): values and element-wise
    error bounds, both shaped (n, m)."""
    lams = np.asarray(lams, dtype=float).copy()
    nudged = np.abs(lams) < _LAMBDA_NUDGE
    lams[nudged] = _LAMBDA_NUDGE
    x = np.asarray(x, dtype=float)
    z = -np.sinh(x) ** 2
    a = 0.5 * (p.rho + 1j * lams)
    b = 0.5 * (p.rho - 1j * lams)
    vals, err = _hyp2f1_batch(a, b, p.alpha + 1.0, z)
    if np.any(nudged):
        vals[nudged, :] = vals[nudged, :].real
    return vals, err


def _g_batch(p: JacobiParams, lams, x):
    """G_lambda(x) for lams (n,) against x (m,): values and element-wise
    error bounds, both shaped (n, m)."""
    lams = np.asarray(lams, dtype=float)
    x = np.asarray(x, dtype=float)
    phi, e1 = _phi_batch(p, lams, x)
    phi_up, e2 = _phi_batch(p.shifted(), lams, x)
    coef = ((p.rho + 1j * lams) / (4.0 * (p.alpha + 1.0)))[:, None]
    sinh2 = np.sinh(2.0 * x)[None, :]
    vals = phi + coef * sinh2 * phi_up
    vals[:, x == 0.0] = 1.0
    err = e1 + np.abs(coef * sinh2) * e2
    return vals, err


def eigenfunction_g(p: JacobiParams, lam: float, x: float) -> complex:
    """G_lambda(x) via the derivative-free two-term representation."""
    if x == 0.0:
        return 1.0 + 0.0j
    return complex(_g_array(p, lam, x)[0])


# ---------------------------------------------------------------------------
# Weight and its scaling-ratio extrema

def weight_a(p: JacobiParams, x):
    """Hyperbolic weight (sinh|x|)^(2a+1) (cosh|x|)^(2b+1); array-friendly."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.sinh(ax) ** (2.0 * p.alpha + 1.0) * np.cosh(ax) ** (2.0 * p.beta + 1.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def log_weight_a(p: JacobiParams, x):
    """log A(x); -inf at x = 0.  Safe for |x| far beyond the overflow range
    of ``weight_a`` (sinh/cosh handled via |x| + log-half for large |x|)."""
    ax = np.abs(np.asarray(x, dtype=float))
    big = ax > 30.0
    with np.errstate(divide="ignore"):
        ls = np.where(big, ax - math.log(2.0), np.log(np.sinh(np.minimum(ax, 30.0))))
        lc = np.where(big, ax - math.log(2.0), np.log(np.cosh(np.minimum(ax, 30.0))))
    out = (2.0 * p.alpha + 1.0) * ls + (2.0 * p.beta + 1.0) * lc
    if np.ndim(x) == 0:
        return float(out)
    return out


def _log_sinh(x: np.ndarray) -> np.ndarray:
    big = x > 30.0
    xs = np.minimum(x, 30.0)
    return np.where(big, x - math.log(2.0), np.log(np.sinh(xs)))


def _log_cosh(x: np.ndarray) -> np.ndarray:
    big = x > 30.0
    xs = np.minimum(x, 30.0)
    return np.where(big, x - math.log(2.0), np.log(np.cosh(xs)))


def _ratio(p: JacobiParams, t: float, u: np.ndarray) -> np.ndarray:
    # evaluated in log space to dodge overflow at large u
    lu = (2.0 * p.alpha + 1.0) * (_log_sinh(u) - _log_sinh(t * u))
    lv = (2.0 * p.beta + 1.0) * (_log_cosh(u) - _log_cosh(t * u))
    return np.exp(lu + lv)


def weight_ratio_extrema(
    p: JacobiParams, t: float, cfg: QuadConfig | None = None
) -> tuple[float, float]:
    """(sup, inf) over u > 0 of A(u) / A(t u).

    Log-spaced grid search refined once around the grid extremum, combined
    with the analytic endpoint limits: u -> 0+ gives t^-(2 alpha + 1); u -> inf
    gives 0 for t > 1 and +inf for t < 1.
    """
    if not t > 0:
        raise ParameterError("need t > 0")
    if t == 1.0:
        return 1.0, 1.0
    n = cfg.extremum_grid if cfg is not None else 2048
    u = np.geomspace(1e-6, 50.0, n)
    r = _ratio(p, t, u)
    i_hi = int(np.argmax(r))
    i_lo = int(np.argmin(r))
    for i in (i_hi, i_lo):
        lo = u[max(i - 1, 0)]
        hi = u[min(i + 1, n - 1)]
        fine = np.geomspace(lo, hi, 64)
        rf = _ratio(p, t, fine)
        r = np.concatenate([r, rf])
    limit_zero = t ** -(2.0 * p.alpha + 1.0)
    limit_inf = 0.0 if t > 1.0 else math.inf
    sup = max(float(np.max(r)), limit_zero, limit_inf)
    inf = min(float(np.min(r)), limit_zero, limit_inf)
    return sup, inf


# ---------------------------------------------------------------------------
# c-function and spectral density

_DEFAULT_LAMBDA_MIN = 1e-6


def _log_c(p: JacobiParams, lam: float) -> complex:
    il = 1j * lam
    return (
        (p.rho - il) * math.log(2.0)
        + log_gamma_complex(p.alpha + 1.0)
        + log_gamma_complex(il)
        - log_gamma_complex(0.5 * (p.rho + il))
        - log_gamma_complex(0.5 * (p.alpha - p.beta + 1.0 + il))
    )


def c_function(
    p: JacobiParams, lam: float, lambda_min: float = _DEFAULT_LAMBDA_MIN
) -> complex:
    """Harish-Chandra-type c-function, via log-gamma arithmetic."""
    if abs(lam) < lambda_min:
        raise PoleError(f"c-function pole at lambda=0 (|lambda| < {lambda_min})")
    return cmath.exp(_log_c(p, lam))


def plancherel_density(
    p: JacobiParams, lam: float, lambda_min: float = _DEFAULT_LAMBDA_MIN
) -> complex:
    """Complex density of the spectral measure w.r.t. d lambda:
    (1 - rho/(i lambda)) / (8 pi |c(lambda)|^2), with |c|^2 normalized
    (the 2^rho prefactor of :func:`c_function` removed) so that the
    inversion and Plancherel identities hold exactly for the forward
    transform computed by this package; verified independently against
    the closed-form sine-kernel reduction at (alpha, beta) = (1/2, -1/2)."""
    if abs(lam) < lambda_min:
        raise PoleError(f"density pole at lambda=0 (|lambda| < {lambda_min})")
    inv_c2 = math.exp(-2.0 * (_log_c(p, lam).real - p.rho * math.log(2.0)))
    return (1.0 - p.rho / (1j * lam)) * inv_c2 / (8.0 * math.pi)
