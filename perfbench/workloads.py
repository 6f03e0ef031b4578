"""The three benchmark workloads: seeded inputs, one pass of operations, and
the checks run on their outputs outside the timed region.

A workload object holds ``ops``, a list of ``(label, callable)`` pairs that
make up one pass.  Every callable looks octool functions up through the
package at call time, so a traced run sees them through its wrappers.
``check(outs)`` returns one message per operation whose output is wrong
(``None`` where it is right), plus a list of run-level problems.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial

import numpy as np

import octool
from octool.harness_cli import CATALOG_PARAMS

CFG = octool.QuadConfig()


def stratified(rng, strata, n_strata: int, lo: float, hi: float) -> np.ndarray:
    """One value in each given stratum of (lo, hi), cut into n_strata equal
    parts, at a seeded place inside it.  Which stratum each input falls in does
    not depend on the seed, so a seed changes the values but hardly the work
    they cause."""
    strata = np.asarray(strata)
    return lo + (hi - lo) * (strata + rng.random(strata.size)) / n_strata


def log_stratified(rng, strata, n_strata, lo, hi) -> np.ndarray:
    return np.exp(stratified(rng, strata, n_strata, math.log(lo), math.log(hi)))


def fixed_order(n: int, salt: int) -> np.ndarray:
    """A permutation of range(n) that is the same for every seed."""
    return np.random.default_rng(salt).permutation(n)


def same(a, b) -> bool:
    """Exact equality of two operation outputs (NaN equals NaN)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, octool.VerifyReport):
        return _report_json(a) == _report_json(b)
    if isinstance(a, (float, complex)) and a != a:
        return b != b
    return a == b


def _report_json(r) -> str:
    return json.dumps(r.to_dict(), sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# mpmath references (checks only)

def _mp():
    import mpmath
    mpmath.mp.dps = 30
    return mpmath


def mp_phi(mp, alpha, beta, lam, x):
    rho = alpha + beta + 1
    return mp.hyp2f1((rho + 1j * lam) / 2, (rho - 1j * lam) / 2, alpha + 1,
                     -mp.sinh(x) ** 2)


def mp_g(mp, p, lam, x):
    """G_lambda(x) = phi^(a,b)(x) + (rho + i lam)/(4(a+1)) sinh(2x) phi^(a+1,b+1)(x)."""
    a, b = mp.mpf(p.alpha), mp.mpf(p.beta)
    coef = (a + b + 1 + 1j * lam) / (4 * (a + 1))
    return mp_phi(mp, a, b, lam, x) + coef * mp.sinh(2 * x) * mp_phi(mp, a + 1, b + 1, lam, x)


def mp_weight(mp, p, x):
    x = abs(x)
    return mp.sinh(x) ** (2 * mp.mpf(p.alpha) + 1) * mp.cosh(x) ** (2 * mp.mpf(p.beta) + 1)


def mp_function(mp, f: octool.FunctionSpec):
    """The gaussian and bump catalog families at mpmath precision."""
    q = f.params
    if f.family == "gaussian":
        s = mp.mpf(q.get("scale", 1.0))
        return lambda x: mp.exp(-(x / s) ** 2)
    if f.family == "bump":
        c, w = mp.mpf(q.get("center", 0.0)), mp.mpf(q.get("width", 1.0))

        def bump(x):
            s = (x - c) / w
            return mp.exp(1 - 1 / (1 - s * s)) if abs(s) < 1 else mp.mpf(0)
        return bump
    raise ValueError(f"no mpmath reference for family {f.family!r}")


def _pieces(lo: float, hi: float, width: float):
    n = max(int(math.ceil((hi - lo) / width)), 1)
    return [lo + (hi - lo) * k / n for k in range(n + 1)]


def _support(f, cfg):
    lo, hi = f.support()
    return max(lo, -cfg.truncation_x), min(hi, cfg.truncation_x)


class Workload:
    """Hooks a workload may override: ``finish`` ends a pass inside the timed
    region, ``cleanup`` removes the files a run wrote.  ``probe_mix`` names the
    calibration probes whose slowdowns track this workload's.
    ``known_failures`` holds the indices of operations that fail because of a
    known fault of octool: they count as failed but do not fail the run."""

    probe_mix = ("interpreter", "numpy")
    known_failures = frozenset()

    def finish(self, outs):
        pass

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# verify: the default suite through run_scenario and emit_report

UPPER = {"T_L1", "T_LP_ASUP", "C_LP_SANDWICH", "T_LPLQ", "T_INTERVAL_E",
         "T_GRAND_UB", "T_QB_UB"}
LOWER = {"T_LP_AINF", "T_GRAND_LB", "T_QB_LB"}
# scenarios cheap enough to replay for the byte-identical check
CHEAP = {"T_L1", "T_LP_ASUP", "T_INTERVAL_E", "T_QB_LB", "P_EIGEN",
         "D_SCALING_DIAG", "C_LP_SANDWICH", "T_QB_UB", "T_LPLQ"}


def gate_holds(r) -> bool:
    """Recompute a report's pass from its own lhs, rhs and tolerance."""
    tid, lhs, rhs, tol = r.scenario["theorem_id"], r.lhs, r.rhs, r.tolerance
    if tid in UPPER:
        return lhs <= rhs * (1.0 + tol)
    if tid in LOWER:
        return (math.isinf(lhs) and rhs > 0.0) or lhs >= rhs * (1.0 - tol)
    if tid == "P_PLANCHEREL":
        eb = r.err_breakdown
        gap = eb["rel_gap"]
        floor = 10.0 * abs(eb["quadrature"]) / abs(lhs) + 1e-6
        return gap <= tol and (eb["rel_gap_doubled"] < gap or gap <= floor)
    if tid in ("P_EIGEN", "L_POWER"):
        return lhs <= tol
    return False


class Verify(Workload):
    """Every scenario of build_default_suite(), in a seeded order; one
    operation is one run_scenario call, and each pass ends with emit_report."""

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        suite = octool.build_default_suite()
        self.scenarios = [suite[i] for i in rng.permutation(len(suite))]
        self.ops = [(s.key(), partial(self._run, s)) for s in self.scenarios]
        cheap = [i for i, s in enumerate(self.scenarios) if s.theorem_id in CHEAP]
        self.replay = [i for i, s in enumerate(self.scenarios) if s.theorem_id == "L_POWER"]
        self.replay += sorted(int(i) for i in rng.choice(cheap, 2, replace=False))
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, f"verify-{os.getpid()}.json")
        self._files = [self.path]
        self._warm = next(s for s in suite if s.theorem_id == "T_INTERVAL_E")

    @staticmethod
    def _run(s):
        return octool.run_scenario(s)

    def warm_up(self):
        octool.run_scenario(self._warm)

    def finish(self, outs):
        octool.emit_report(outs, "json", self.path)

    def _emitted_lines(self, path):
        with open(path) as fh:
            return {line.rstrip().rstrip(",") for line in fh if line.startswith("  {")}

    def check(self, outs):
        mp = _mp()
        bad = [None] * len(outs)
        problems = []
        for i, r in enumerate(outs):
            if r.status == "fail":
                bad[i] = f"status fail: {r.err_breakdown}"
            elif r.status == "pass" and not gate_holds(r):
                bad[i] = f"pass not reproduced from lhs={r.lhs} rhs={r.rhs} tol={r.tolerance}"
        for i, (s, r) in enumerate(zip(self.scenarios, outs)):
            if s.theorem_id != "P_PLANCHEREL" or bad[i]:
                continue
            f, p = s.functions[0], s.params
            fm = mp_function(mp, f)
            lo, hi = _support(f, s.cfg)
            nodes = sorted({lo, hi, *([0.0] if lo < 0.0 < hi else [])})
            truth = float(mp.quad(lambda x: fm(x) ** 2 * mp_weight(mp, p, x), nodes))
            if abs(r.lhs - truth) > 1e-9 * truth:
                bad[i] = f"P_PLANCHEREL lhs {r.lhs!r} vs mpmath {truth!r}"
        # the emitted report: every scenario once, statuses as returned
        with open(self.path) as fh:
            emitted = json.load(fh)
        if sorted(e["status"] for e in emitted) != sorted(r.status for r in outs):
            problems.append("emitted report does not list the returned statuses")
        # replay: a second run of the same scenario emits the same bytes
        lines = self._emitted_lines(self.path)
        for i in self.replay:
            path = f"{self.path[:-5]}-replay-{i}.json"
            self._files.append(path)
            octool.emit_report([octool.run_scenario(self.scenarios[i])], "json", path)
            if not self._emitted_lines(path) <= lines:
                bad[i] = bad[i] or "replayed report is not byte-identical"
        return bad, problems

    def cleanup(self):
        for path in self._files:
            if os.path.exists(path):
                os.remove(path)


# ---------------------------------------------------------------------------
# spectral: batched transform grids, Plancherel residuals, inverse round-trips

GAUSS = octool.FunctionSpec("gaussian", params={"scale": 1.0})
BUMP0 = octool.FunctionSpec("bump", params={"center": 0.0, "width": 1.0})
BUMP_OFF = octool.FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
GRID_POINTS = 32          # lambda values per transform grid
ROUNDTRIP_LAMBDA = 12.0   # gaussian transform is below 1e-15 of its peak beyond
ROUNDTRIP_STEP = 0.05
ROUNDTRIP_CFG = octool.QuadConfig(rel_tol=1e-6, abs_tol=1e-6,
                                  truncation_lambda=ROUNDTRIP_LAMBDA)


class Spectral(Workload):
    """Per catalog parameter pair: four gaussian and two bump transform grids
    on seeded lambda grids ending at truncation_lambda, the Plancherel residual
    of a gaussian and of a bump, and a gaussian round-trip (a transform grid,
    then oc_inverse at x = 0).  One operation is one such call."""

    probe_mix = ("interpreter", "memory")   # large-array work

    def __init__(self, seed: int, out_dir: str):
        self.rng = np.random.default_rng(seed)
        self.ops = []
        self.meta = []   # per op: (kind, f, p, lams)
        self._rt = {}
        lam_max = CFG.truncation_lambda
        for k, p in enumerate(CATALOG_PARAMS):
            for f in (GAUSS, GAUSS, GAUSS, GAUSS, BUMP0, BUMP_OFF):
                lams = np.append(stratified(self.rng, np.arange(GRID_POINTS - 1),
                                            GRID_POINTS - 1, 0.0, lam_max), lam_max)
                self._add("grid", f, p, lams, partial(self._grid, f, p, lams))
            for f in (GAUSS, BUMP0):
                self._add("plancherel", f, p, None, partial(self._plancherel, f, p))
            offset = self.rng.random() * ROUNDTRIP_STEP
            lams = CFG.lambda_min + offset + ROUNDTRIP_STEP * np.arange(
                int(ROUNDTRIP_LAMBDA / ROUNDTRIP_STEP))
            self._add("roundtrip_grid", GAUSS, p, lams, partial(self._rt_grid, k, p, lams))
            self._add("inverse", GAUSS, p, lams, partial(self._inverse, k, p, lams))
        self.sampled = [int(self.rng.choice([i for i, m in enumerate(self.meta)
                                             if m[0] == "grid" and m[1] is f]))
                        for f in (BUMP_OFF, BUMP0)]

    def _add(self, kind, f, p, lams, fn):
        self.meta.append((kind, f, p, lams))
        self.ops.append((f"{kind}/{f.family}/a={p.alpha:g}/b={p.beta:g}", fn))

    @staticmethod
    def _grid(f, p, lams):
        return octool.transform_grid(f, p, lams, CFG)

    @staticmethod
    def _plancherel(f, p):
        return octool.plancherel_residual_detailed(f, p, CFG)

    def _rt_grid(self, k, p, lams):
        self._rt[k] = octool.transform_grid(GAUSS, p, lams, CFG)
        return self._rt[k]

    def _inverse(self, k, p, lams):
        vals, errs = self._rt[k]
        # transform values inside their own error bound are noise: cut them
        u = np.where(np.abs(vals) <= 10.0 * errs, 0.0, vals.real)
        return octool.oc_inverse(lambda lam: np.interp(np.abs(lam), lams, u),
                                 p, 0.0, ROUNDTRIP_CFG)

    def warm_up(self):
        octool.transform_grid(GAUSS, CATALOG_PARAMS[0], np.array([1.0, 2.0]), CFG)

    def _mp_transform(self, mp, f, p, lam):
        """Integral of f(x) G_lambda(-x) A(x) dx with mpmath, on pieces short
        against the oscillation of G."""
        fm = mp_function(mp, f)
        lo, hi = _support(f, CFG)

        def integrand(x):
            return fm(x) * mp_g(mp, p, lam, -x) * mp_weight(mp, p, x)
        return complex(mp.quad(integrand, _pieces(lo, hi, 0.1)))

    def check(self, outs):
        bad = [None] * len(outs)
        for i, ((kind, f, p, lams), out) in enumerate(zip(self.meta, outs)):
            if kind in ("grid", "roundtrip_grid"):
                vals, errs = out
                if not (np.all(np.isfinite(vals)) and np.all(errs >= 0.0)):
                    bad[i] = "non-finite transform value or negative error"
                elif f.is_even and np.any(np.abs(vals.imag) > errs + 1e-12 * np.max(np.abs(vals))):
                    bad[i] = "transform of a real even function is not real"
            elif kind == "plancherel":
                lhs, rhs, gap, err = out
                limit = 1e-10 if f is GAUSS else 0.05
                if not (gap <= limit and abs(lhs - rhs) <= err and rhs.real > 0.0):
                    bad[i] = f"Plancherel gap {gap!r} (limit {limit}) |lhs-rhs| vs err {err!r}"
            elif kind == "inverse":
                peak = float(f(0.0))
                if abs(out.real - peak) > 0.02 * peak or abs(out.imag) > 1e-6:
                    bad[i] = f"round-trip gives {out!r} for f(0) = {peak}"
        mp = _mp()
        mp.mp.dps = 20
        for i in self.sampled:
            if bad[i]:
                continue
            _, f, p, lams = self.meta[i]
            j = int(self.rng.integers(lams.size))
            vals, errs = outs[i]
            truth = self._mp_transform(mp, f, p, float(lams[j]))
            if abs(vals[j] - truth) > errs[j] + 1e-12 * max(abs(truth), 1.0):
                bad[i] = f"lambda={lams[j]!r}: {vals[j]!r} vs mpmath {truth!r} (err {errs[j]!r})"
        return bad, []


# ---------------------------------------------------------------------------
# pointwise: closed loop of rounds of scalar calls

ROUNDS = 60               # seeded rounds per pass: two cycles of (kind, params, kernel)
PFAFF_LAMBDA = 4.0        # below it scalar G/phi sum a Pfaff series up to x ~ 2.99,
PFAFF_X = 1.4             # 5-50 ms a call beyond x = 1.4 against about 1 ms elsewhere
DOWN_POWER = 6.0          # witness u^-6 / A(u) for kernels on (0, 1); kernels on
                          # (1, inf) get u^m / A(u) with m = 2 alpha + 1
CESARO_GAMMA = 2.5

# Faults of octool that pointwise inputs can hit, each a FOUND line in
# CHANGES.md.  Whether a seeded input hits one would depend on the seed, so
# while a fault is listed here the seeded rounds keep clear of it, and the
# fixed DEFECT_ROUND hits every listed fault in each pass and counts as one
# failed operation per pass.  Drop a mended fault from here and its filter
# goes; with none left, DEFECT_ROUND must pass like any other round.
KNOWN_DEFECTS = {
    # scalar G and phi lose digits from lambda ~ 14 near x ~ 1.1: seeded
    # lambda stay below 12
    "scalar_g_large_lambda": 12.0,
    # lp_norm of extremal_eps is +inf unless p * (-1/p) + 1 == 0 in double
    # precision: seeded p move up to the next double where it is
    "lp_weight_cancellation": True,
}
LAMBDA_MAX = KNOWN_DEFECTS.get("scalar_g_large_lambda", CFG.truncation_lambda)


def _log_sinh(u):
    return u - math.log(2.0) + np.log(-np.expm1(-2.0 * u))


def _log_cosh(u):
    return u - math.log(2.0) + np.log1p(np.exp(-2.0 * u))


def _log_weight(p, u):
    return (2.0 * p.alpha + 1.0) * _log_sinh(u) + (2.0 * p.beta + 1.0) * _log_cosh(u)


def witness(p, power: float):
    """u -> u^power / A(u) on u > 0, so that H f(x) A(x) / x^power is the
    kernel moment below; for (1/2, -1/2) and power 2 this is (u / sinh u)^2."""
    def f(u):
        u = np.asarray(u, dtype=float)
        return np.exp(power * np.log(u) - _log_weight(p, u))
    return f


def kernel_moment(variant: str, m: float) -> float:
    """Integral of phi(t) t^(-1-m) dt over the kernel's support."""
    if variant == "hardy":
        return 1.0 / (m + 1.0)
    if variant == "power_cutoff":         # t^-2 on (1, inf)
        return 1.0 / (m + 2.0)
    if variant == "riemann_liouville":    # mu = 2
        return 1.0 / ((m + 1.0) * (m + 2.0))
    if variant == "adjoint_hardy":
        return 1.0 / -m
    if variant == "cesaro":
        g = CESARO_GAMMA
        return g * math.gamma(-m) * math.gamma(g) / math.gamma(-m + g)
    raise ValueError(variant)


KERNELS = (
    octool.make_kernel("hardy"),
    octool.make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf),
    octool.make_kernel("riemann_liouville", mu=2.0),
    octool.make_kernel("adjoint_hardy"),
    octool.make_kernel("cesaro", gamma_c=CESARO_GAMMA),
)


def make_round(p, scalar, lam, x, kernel, hx, t, extremal, p_exp, frac):
    """The inputs of one round and the closed forms its checks need."""
    m = (2.0 * p.alpha + 1.0) if kernel.support()[0] >= 1.0 else -DOWN_POWER
    if extremal == "eps":
        f = octool.extremal_function("eps", p, p=p_exp, eps=0.5 * frac)
        norm = (f.params["eps"] * p_exp) ** (-1.0 / p_exp)
    else:
        f = octool.extremal_function("delta", p, p=p_exp, delta=frac / p_exp)
        norm = (f.params["delta"] * p_exp) ** (-1.0 / p_exp)
    return {
        "p": p, "scalar": scalar, "lam": lam, "x": x,
        "kernel": kernel, "m": m, "witness": witness(p, m), "hx": hx,
        "t": t, "f": f, "p_exp": p_exp, "norm": float(norm),
    }


# Fixed rounds, the same for every seed.  PFAFF_ROUND puts one call in the
# slow Pfaff-series region (a FOUND line in CHANGES.md), so that region is a
# fixed share of a pass; its Hardy witness (u / sinh u)^2 at x = 1 gives
# 1 / (3 sinh^2 1).  DEFECT_ROUND hits the faults of KNOWN_DEFECTS: scalar G
# at lambda = 40, x = 1.2, and an extremal_eps with p = 3.146943216337464,
# where p * (-1/p) + 1 = 1.1e-16.
PFAFF_ROUND = make_round(CATALOG_PARAMS[0], "phi", 2.0, 2.62, KERNELS[0], 1.0, 2.0,
                         "delta", 2.0, 0.5)
DEFECT_ROUND = make_round(CATALOG_PARAMS[1], "g", 40.0, 1.2, KERNELS[4], 1.5, 0.5,
                          "eps", 3.146943216337464, 0.4)


class Pointwise(Workload):
    """Seeded rounds, then PFAFF_ROUND and DEFECT_ROUND; round i makes one
    call of each scalar kind: eigenfunction_g (even i) or jacobi_phi (odd i)
    at one (lambda, x); hausdorff_apply with kernel i mod 5 on its closed-form
    witness at one x; weight_ratio_extrema at one t; lp_norm of an extremal
    witness.  Parameters cycle over the catalog with i mod 3."""

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        n = ROUNDS
        # (lambda, x): one round in each cell of a 6 x 10 grid.  The first two
        # lambda rows lie below PFAFF_LAMBDA, with x below PFAFF_X; the other
        # four between PFAFF_LAMBDA and LAMBDA_MAX, with x in (0.05, 4).
        row, col = np.divmod(fixed_order(n, 1), 10)
        low = row < 2
        lam, x = np.empty(n), np.empty(n)
        lam[low] = stratified(rng, row[low], 2, 0.0, PFAFF_LAMBDA)
        lam[~low] = stratified(rng, row[~low] - 2, 4, PFAFF_LAMBDA, LAMBDA_MAX)
        x[low] = stratified(rng, col[low], 10, 0.05, PFAFF_X)
        x[~low] = stratified(rng, col[~low], 10, 0.05, 4.0)
        hx = stratified(rng, fixed_order(n, 2), n, 0.1, 3.0)
        t = log_stratified(rng, fixed_order(n, 3), n, 0.05, 20.0)
        p_exp = stratified(rng, fixed_order(n, 4), n, 1.2, 4.0)
        if "lp_weight_cancellation" in KNOWN_DEFECTS:
            for i in range(n):
                while p_exp[i] * (-1.0 / p_exp[i]) + 1.0 != 0.0:
                    p_exp[i] = np.nextafter(p_exp[i], math.inf)
        frac = stratified(rng, fixed_order(n, 5), n, 0.1, 0.9)
        self.u_samples = log_stratified(rng, np.arange(8), 8, 1e-4, 30.0)
        self.rounds = [
            make_round(CATALOG_PARAMS[i % 3], "g" if i % 2 == 0 else "phi",
                       float(lam[i]), float(x[i]), KERNELS[i % 5], float(hx[i]),
                       float(t[i]), "eps" if i % 4 < 2 else "delta",
                       float(p_exp[i]), float(frac[i]))
            for i in range(n)
        ] + [PFAFF_ROUND, DEFECT_ROUND]
        if KNOWN_DEFECTS:
            self.known_failures = frozenset({len(self.rounds) - 1})
        self.ops = [(f"round/{r['scalar']}/{r['kernel'].variant}", partial(self._round, r))
                    for r in self.rounds]

    @staticmethod
    def _round(r):
        p = r["p"]
        scalar = octool.eigenfunction_g if r["scalar"] == "g" else octool.jacobi_phi
        v = scalar(p, r["lam"], r["x"])
        h = octool.hausdorff_apply(r["kernel"], r["witness"], p, r["hx"], CFG)
        ext = octool.weight_ratio_extrema(p, r["t"], CFG)
        n = octool.lp_norm(r["f"], r["p_exp"], p, (0.0, math.inf), CFG)
        return v, h, ext, (n.value, n.err_estimate)

    def warm_up(self):
        self._round(self.rounds[0])

    def check(self, outs):
        mp = _mp()
        bad = [None] * len(outs)
        for i, (r, (v, h, (sup, inf), (norm, _))) in enumerate(zip(self.rounds, outs)):
            p, msgs = r["p"], []
            if r["scalar"] == "g":
                truth = complex(mp_g(mp, p, r["lam"], r["x"]))
            else:
                truth = complex(mp_phi(mp, mp.mpf(p.alpha), mp.mpf(p.beta), r["lam"], r["x"]))
            if not abs(v - truth) <= 1e-9 * abs(truth) + 1e-12:
                msgs.append(f"{r['scalar']}({r['lam']!r}, {r['x']!r}) = {v!r}, mpmath {truth!r}")
            x, m = r["hx"], r["m"]
            closed = kernel_moment(r["kernel"].variant, m) * math.exp(
                m * math.log(x) - float(_log_weight(p, x)))
            if not abs(h - closed) <= 10.0 * max(CFG.abs_tol, CFG.rel_tol * closed):
                msgs.append(f"H f({x!r}) = {h!r}, closed form {closed!r}")
            for u in self.u_samples:
                ratio = mp_weight(mp, p, u) / mp_weight(mp, p, r["t"] * u)
                if not inf * (1 - 1e-12) <= ratio <= sup * (1 + 1e-12):
                    msgs.append(f"A(u)/A(tu) at t={r['t']!r}, u={u!r} outside [{inf!r}, {sup!r}]")
                    break
            if not abs(norm - r["norm"]) <= 1e-9 * r["norm"]:
                msgs.append(f"lp_norm {norm!r}, closed form {r['norm']!r}")
            bad[i] = "; ".join(msgs) or None
        h = outs[ROUNDS][1]   # PFAFF_ROUND's Hardy witness at x = 1
        if not abs(h - 1.0 / (3.0 * math.sinh(1.0) ** 2)) <= 1e-12:
            bad[ROUNDS] = bad[ROUNDS] or f"Hardy witness at x = 1: {h!r}"
        return bad, []


WORKLOADS = {"verify": Verify, "spectral": Spectral, "pointwise": Pointwise}
