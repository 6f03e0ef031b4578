"""Verification harness and command-line interface.

A scenario names a theorem-shaped check (an inequality, a diagnostic, or a
property sweep), the parameters, kernel, and functions it runs over, and a
quadrature configuration; running it yields a deterministic report with a
pass / fail / diagnostic_recorded / vacuous / divergent status.  Reports
serialize to JSON and CSV with 17-significant-digit floats; the exit code is
0 exactly when no report failed.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import click
import numpy as np

from .errors import (
    DivergentIntegralError,
    OctoolError,
)
from .bounds import (
    a_constants,
    b_constants,
    e_constant,
    extremal_function,
    grand_bound_constant,
    grand_norm,
    kernel_moment,
    lp_lq_constant,
    lp_norm,
    mphi_check,
    power_lemma_check,
)
from .hausdorff import (
    HausdorffImage,
    KernelSpec,
    commutation_residual,
    hausdorff_apply,
    make_kernel,
)
from .octransform import (
    FunctionSpec,
    apply_jacobi_cherednik,
    plancherel_residual_doubled,
    transform_grid,
)
from .quad import QuadConfig
from .specfun import (
    JacobiParams,
    _g_batch,
    eigenfunction_g,
    jacobi_phi,
    plancherel_density,
    weight_a,
)

THEOREM_IDS = (
    "T_L1", "T_COMM_DIAG", "T_LP_ASUP", "T_LP_AINF", "C_LP_SANDWICH",
    "T_LPLQ", "T_INTERVAL_E", "T_GRAND_UB", "T_GRAND_LB", "T_QB_UB",
    "T_QB_LB", "L_POWER", "P_PLANCHEREL", "P_EIGEN", "D_SCALING_DIAG",
)

CATALOG_PARAMS = (
    JacobiParams(0.5, -0.5),
    JacobiParams(1.0, 0.5),
    JacobiParams(1.5, 1.5),
)

_TOL_FLOOR = 1e-6


def _tolerance(err: float, rhs: float) -> float:
    """Inequality slack: ten times the relative quadrature error plus a
    fixed floor."""
    if rhs == 0.0 or not math.isfinite(rhs) or not math.isfinite(err):
        return _TOL_FLOOR
    return 10.0 * abs(err) / abs(rhs) + _TOL_FLOOR


@dataclass(frozen=True)
class VerifyScenario:
    """One replayable verification unit."""

    theorem_id: str
    params: JacobiParams
    kernel: KernelSpec | None = None
    functions: tuple = ()
    exponents: dict = field(default_factory=dict)
    cfg: QuadConfig = field(default_factory=QuadConfig)
    seed: int = 0

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise OctoolError(f"unknown theorem_id {self.theorem_id!r}")

    def key(self) -> str:
        parts = [self.theorem_id, f"a={self.params.alpha:g}", f"b={self.params.beta:g}"]
        if self.kernel is not None:
            parts.append(self.kernel.variant)
        for f in self.functions:
            parts.append(f.family)
        return "/".join(parts)

    def to_dict(self) -> dict:
        d = {
            "theorem_id": self.theorem_id,
            "params": {"alpha": self.params.alpha, "beta": self.params.beta},
            "functions": [f.to_dict() for f in self.functions],
            "exponents": dict(self.exponents),
            "cfg": asdict(self.cfg),
            "seed": self.seed,
        }
        if self.kernel is not None:
            kp = {
                k: (list(np.asarray(v, dtype=float)) if k in ("grid", "values") else v)
                for k, v in self.kernel.params.items()
            }
            d["kernel"] = {"variant": self.kernel.variant, "params": kp}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VerifyScenario":
        kern = None
        if d.get("kernel"):
            kern = KernelSpec(d["kernel"]["variant"], dict(d["kernel"].get("params", {})))
        cfg_d = d.get("cfg", {})
        cfg_fields = {f.name for f in fields(QuadConfig)}
        return cls(
            d["theorem_id"],
            JacobiParams(d["params"]["alpha"], d["params"]["beta"]),
            kern,
            tuple(FunctionSpec.from_dict(x) for x in d.get("functions", [])),
            dict(d.get("exponents", {})),
            QuadConfig(**{k: v for k, v in cfg_d.items() if k in cfg_fields}),
            int(d.get("seed", 0)),
        )


@dataclass
class VerifyReport:
    """Outcome of one scenario."""

    scenario: dict
    lhs: float
    rhs: float
    ratio: float
    tolerance: float
    status: str
    err_breakdown: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.scenario.get("theorem_id"),
            "params": self.scenario.get("params"),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
            "status": self.status,
            "err_breakdown": self.err_breakdown,
            "scenario": self.scenario,
        }


def _ratio_ext(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return math.inf if lhs > 0.0 else 0.0
    if math.isinf(lhs) and math.isinf(rhs):
        return 1.0
    return lhs / rhs


def _gated_report(s, triples, upper: bool) -> "VerifyReport":
    """Gate the (lhs, rhs, err) triple with the largest lhs/rhs: lhs <= rhs *
    (1 + tol) for an upper bound, lhs >= rhs * (1 - tol) for a lower bound,
    with tol = 10 err / rhs + 1e-6 from that triple's own err.  err is the
    quadrature error of the norms; a constant's own error stays inside the
    1e-6 model floor."""
    lhs, rhs, err = max(triples, key=lambda tr: _ratio_ext(tr[0], tr[1]))
    tol = _tolerance(err, rhs)
    if upper:
        if math.isinf(rhs):
            status = "divergent"
        else:
            status = "pass" if lhs <= rhs * (1.0 + tol) else "fail"
    elif math.isinf(lhs):
        status = "pass" if rhs > 0.0 else "vacuous"
    elif math.isinf(rhs):
        status = "fail"
    else:
        status = "pass" if lhs >= rhs * (1.0 - tol) else "fail"
    brk = {"quadrature": err, "model": _TOL_FLOOR}
    return VerifyReport(s.to_dict(), lhs, rhs, _ratio_ext(lhs, rhs), tol, status, brk)


def _norm_pairs(s, norm, const, p_lhs, p_rhs, domain, fns) -> VerifyReport:
    """Gate the upper bound ||H f||_{p_lhs} <= const ||f||_{p_rhs} over
    ``domain`` for each f in ``fns``, with ``norm`` lp_norm or grand_norm;
    a pair's err is the sum of its two norms' errors."""
    p, cfg = s.params, s.cfg
    triples = []
    for f in fns:
        lhs = norm(HausdorffImage(s.kernel, f, p, cfg), p_lhs, p, domain, cfg)
        fn = norm(f, p_rhs, p, domain, cfg)
        fn_err = 0.0 if math.isinf(const) else const * fn.err_estimate
        triples.append((lhs.value, const * fn.value, lhs.err_estimate + fn_err))
    return _gated_report(s, triples, upper=True)


def _rel_err(r) -> float:
    """err / value of a norm: 0 for a zero norm, inf for a divergent one."""
    if math.isinf(r.value):
        return math.inf
    return r.err_estimate / r.value if r.value > 0.0 else 0.0


def _witness_pairs(s, norm, p_exp, domain, witnesses) -> VerifyReport:
    """Gate the lower bound ||H f||_{p_exp} / ||f||_{p_exp} >= bound over
    ``domain`` for each (f, bound) in ``witnesses``, with ``norm`` lp_norm or
    grand_norm; a ratio's err is the ratio times the sum of the two norms'
    relative errors."""
    p, cfg = s.params, s.cfg
    triples = []
    for f, bound in witnesses:
        hf = norm(HausdorffImage(s.kernel, f, p, cfg), p_exp, p, domain, cfg)
        fn = norm(f, p_exp, p, domain, cfg)
        ratio = _ratio_ext(hf.value, fn.value)
        # a ratio of 0 or inf comes from a norm that is exactly 0 or divergent
        err = ratio * (_rel_err(hf) + _rel_err(fn)) if 0.0 < ratio < math.inf else 0.0
        triples.append((ratio, bound, err))
    return _gated_report(s, triples, upper=False)


# ---------------------------------------------------------------------------
# scenario runners

def _run_t_l1(s: VerifyScenario) -> VerifyReport:
    status, phi_l1 = s.kernel.l1_status(s.cfg)
    if status != "finite":
        raise DivergentIntegralError("T_L1 requires an integrable kernel")
    return _norm_pairs(s, lp_norm, phi_l1, 1.0, 1.0, (-math.inf, math.inf), s.functions)


def _run_t_comm_diag(s: VerifyScenario) -> VerifyReport:
    lam = float(s.exponents.get("lam", 1.0))
    lhs, rhs, gap, err = commutation_residual(s.kernel, s.functions[0], s.params, lam, s.cfg)
    return VerifyReport(
        s.to_dict(), abs(lhs), abs(rhs), _ratio_ext(abs(lhs), abs(rhs)),
        _TOL_FLOOR, "diagnostic_recorded", {"gap": gap, "quadrature_component": err},
    )


def _run_t_lp_asup(s: VerifyScenario) -> VerifyReport:
    p_exp = float(s.exponents.get("p", 2.0))
    a_sup, _ = a_constants(s.kernel, p_exp, s.params, s.cfg)
    return _norm_pairs(s, lp_norm, a_sup, p_exp, p_exp, (-math.inf, math.inf), s.functions)


def _run_t_lp_ainf(s: VerifyScenario) -> VerifyReport:
    p, cfg = s.params, s.cfg
    p_exp = float(s.exponents.get("p", 2.0))
    witnesses = []
    for eps in s.exponents.get("eps_list", (0.2, 0.1, 0.05)):
        # the proof's displayed lower bound for this witness: the inf ratio
        # t^-(2 alpha + 1) lives on t < 1 and vanishes on t > 1
        moment_s = 1.0 / p_exp + eps - (2.0 * p.alpha + 1.0) * (1.0 - 1.0 / p_exp)
        bound = eps ** eps * kernel_moment(s.kernel, moment_s, 0.0, 1.0, cfg).value
        witnesses.append((extremal_function("eps", p, p=p_exp, eps=eps), bound))
    return _witness_pairs(s, lp_norm, p_exp, (0.0, math.inf), witnesses)


def _run_c_lp_sandwich(s: VerifyScenario) -> VerifyReport:
    if s.kernel.has_mass_on(0.0, math.inf):
        return VerifyReport(
            s.to_dict(), math.nan, math.nan, math.nan, _TOL_FLOOR, "vacuous",
            {"note": "A(u)/A(tu) is monotone in u, so for every t != 1 its sup "
                     "is +inf or its inf is 0: no finite C gives sup-ratio <= "
                     "C * inf-ratio where the kernel has mass; the hypothesis "
                     "never holds here"},
        )
    # hypothesis holds: the measured ratio proxy must lie under a_sup
    return _run_t_lp_asup(s)


def _run_t_lplq(s: VerifyScenario) -> VerifyReport:
    p_exp = float(s.exponents.get("p", 3.0))
    q_exp = float(s.exponents.get("q", 2.0))
    c = lp_lq_constant(s.kernel, p_exp, q_exp, s.params, s.cfg)
    return _norm_pairs(s, lp_norm, c, q_exp, p_exp, (-math.inf, math.inf), s.functions)


def _run_t_interval_e(s: VerifyScenario) -> VerifyReport:
    p_exp = float(s.exponents.get("p", 2.0))
    e_val = e_constant(s.kernel, p_exp, s.cfg)
    const = weight_a(s.params, 1.0) ** (1.0 - 1.0 / p_exp) * e_val
    return _norm_pairs(s, lp_norm, const, p_exp, p_exp, (0.0, 1.0), s.functions)


def _run_t_grand_ub(s: VerifyScenario) -> VerifyReport:
    p_exp = float(s.exponents.get("p", 2.0))
    c = grand_bound_constant(s.kernel, p_exp, s.params, s.cfg)
    return _norm_pairs(s, grand_norm, c, p_exp, p_exp, (0.0, 1.0), s.functions)


def _run_t_grand_lb(s: VerifyScenario) -> VerifyReport:
    p, cfg = s.params, s.cfg
    p_exp = float(s.exponents.get("p", 2.0))
    a1 = weight_a(p, 1.0)
    witnesses = [
        (extremal_function("delta", p, p=p_exp, delta=delta),
         a1 ** -(1.0 - 1.0 / p_exp)
         * e_constant(s.kernel, p_exp / (1.0 - delta * p_exp), cfg))
        for delta in s.exponents.get("delta_list", (0.2, 0.1))
    ]
    return _witness_pairs(s, grand_norm, p_exp, (0.0, 1.0), witnesses)


def _run_t_qb_ub(s: VerifyScenario) -> VerifyReport:
    p, cfg = s.params, s.cfg
    p_exp = float(s.exponents.get("p", 0.5))
    x_grid = s.exponents.get("x_grid", (0.3, 0.5, 1.0))
    eligible = [
        f for f in s.functions
        if all(mphi_check(s.kernel, f, p, x) for x in x_grid)
        and lp_norm(f, p_exp, p, (0.0, math.inf), cfg).value < math.inf
    ]
    if not eligible:
        return VerifyReport(
            s.to_dict(), math.nan, math.nan, math.nan, _TOL_FLOOR, "vacuous",
            {"note": "no catalog function passes the monotone-integrand "
                     "membership gate while lying in L^p"},
        )
    b_sup, _ = b_constants(s.kernel, p_exp, p, cfg)
    const = p_exp ** (1.0 / p_exp) * b_sup
    return _norm_pairs(s, lp_norm, const, p_exp, p_exp, (0.0, math.inf), eligible)


def _run_t_qb_lb(s: VerifyScenario) -> VerifyReport:
    p = s.params
    p_exp = float(s.exponents.get("p", 0.5))
    _, b_inf = b_constants(s.kernel, p_exp, p, s.cfg)
    if not 0.0 < b_inf < math.inf:
        return VerifyReport(
            s.to_dict(), math.nan, b_inf, math.nan, _TOL_FLOOR, "vacuous",
            {"note": "b_inf is not positive-finite for this kernel"},
        )
    f0 = extremal_function("zero", p, p=p_exp)
    rhs = p_exp ** (1.0 / p_exp) * b_inf
    return _witness_pairs(s, lp_norm, p_exp, (0.0, math.inf), [(f0, rhs)])


def random_step_function(rng: np.random.Generator) -> FunctionSpec:
    """A random non-negative, non-increasing step function on a random
    bounded interval (left-continuous steps)."""
    n = int(rng.integers(3, 13))
    a = float(rng.uniform(0.0, 2.0))
    width = float(rng.uniform(0.5, 5.0))
    xs = np.sort(rng.uniform(a, a + width, n))
    xs[0], xs[-1] = a, a + width
    while np.any(np.diff(xs) <= 0):
        xs = np.sort(rng.uniform(a, a + width, n))
        xs[0], xs[-1] = a, a + width
    drops = rng.exponential(1.0, n)
    ys = np.cumsum(drops[::-1])[::-1]  # strictly decreasing, positive
    return FunctionSpec("sampled", params={"xs": xs, "ys": ys, "interp": "previous"})


def _run_l_power(s: VerifyScenario) -> VerifyReport:
    cfg = s.cfg
    rng = np.random.default_rng(s.seed)
    s_list = s.exponents.get("s_list", (0.2, 0.5, 0.8))
    n_cases = int(s.exponents.get("n_cases", 100))
    worst = -math.inf
    violations = 0
    for i in range(n_cases):
        h = random_step_function(rng)
        s_exp = s_list[i % len(s_list)]
        lhs, rhs = power_lemma_check(h, s_exp, cfg)
        margin = (lhs - rhs) / rhs if rhs > 0.0 else 0.0
        worst = max(worst, margin)
        if margin > _TOL_FLOOR:
            violations += 1
    status = "pass" if violations == 0 else "fail"
    return VerifyReport(
        s.to_dict(), worst, 0.0, math.nan, _TOL_FLOOR, status,
        {"violations": violations, "cases": n_cases},
    )


def _run_p_plancherel(s: VerifyScenario) -> VerifyReport:
    p, cfg = s.params, s.cfg
    f = s.functions[0]
    lhs, rhs, gap, err, gap2 = plancherel_residual_doubled(f, p, cfg)
    tol = 0.05
    floor = _tolerance(err, lhs)
    decreasing = gap2 < gap or gap <= floor
    status = "pass" if (gap <= tol and decreasing) else "fail"
    return VerifyReport(
        s.to_dict(), lhs, rhs.real, _ratio_ext(lhs, rhs.real), tol, status,
        {"rel_gap": gap, "rel_gap_doubled": gap2, "quadrature": err},
    )


def _run_p_eigen(s: VerifyScenario) -> VerifyReport:
    p, cfg = s.params, s.cfg
    xs = s.exponents.get("x_grid", (0.2, 0.7, 1.5, 2.0))
    lams = s.exponents.get("lam_grid", (0.5, 1.0, 2.0, 5.0))
    h = 1e-4
    worst = 0.0
    for lam in lams:
        # every point the operator reads, x + h, x - h, x and -x, from one batch
        ys = [y for x in map(float, xs) for y in (x + h, x - h, x, -x)]
        g = dict(zip(ys, _g_batch(p, [lam], ys)[0][0].tolist())).__getitem__
        for x in map(float, xs):
            t_val = apply_jacobi_cherednik(g, p, x, h=h)
            target = 1j * lam * g(x)
            denom = max(abs(target), 1e-12)
            worst = max(worst, abs(t_val - target) / denom)
    status = "pass" if worst <= 1e-5 else "fail"
    return VerifyReport(
        s.to_dict(), worst, 1e-5, worst / 1e-5, 1e-5, status,
        {"finite_difference_step": h},
    )


def _run_d_scaling_diag(s: VerifyScenario) -> VerifyReport:
    p = s.params
    lams = s.exponents.get("lam_grid", (0.0, 0.5, 1.0, 2.0))
    ts = s.exponents.get("t_grid", (0.5, 2.0))
    xs = s.exponents.get("x_grid", (0.3, 0.5, 1.0))
    # every G_lambda(x) the residuals read, from one batch over the grid of
    # the lambda and x values they take
    lam_all = sorted({lam * t for lam in lams for t in ts} | set(lams))
    x_all = sorted({t * x for x in xs for t in ts} | set(xs))
    g = _g_batch(p, lam_all, x_all)[0].tolist()
    row = {lam: i for i, lam in enumerate(lam_all)}
    col = {x: j for j, x in enumerate(x_all)}
    worst = 0.0
    at_zero = 0.0
    for lam in lams:
        for t in ts:
            for x in xs:
                r = abs(g[row[lam]][col[t * x]] - g[row[lam * t]][col[x]])
                worst = max(worst, r)
                if lam == 0.0 and t == 2.0 and x == 0.5:
                    at_zero = r
    return VerifyReport(
        s.to_dict(), worst, 0.0, math.nan, _TOL_FLOOR, "diagnostic_recorded",
        {"max_residual": worst, "residual_lam0_t2_x05": at_zero},
    )


_RUNNERS = {
    "T_L1": _run_t_l1,
    "T_COMM_DIAG": _run_t_comm_diag,
    "T_LP_ASUP": _run_t_lp_asup,
    "T_LP_AINF": _run_t_lp_ainf,
    "C_LP_SANDWICH": _run_c_lp_sandwich,
    "T_LPLQ": _run_t_lplq,
    "T_INTERVAL_E": _run_t_interval_e,
    "T_GRAND_UB": _run_t_grand_ub,
    "T_GRAND_LB": _run_t_grand_lb,
    "T_QB_UB": _run_t_qb_ub,
    "T_QB_LB": _run_t_qb_lb,
    "L_POWER": _run_l_power,
    "P_PLANCHEREL": _run_p_plancherel,
    "P_EIGEN": _run_p_eigen,
    "D_SCALING_DIAG": _run_d_scaling_diag,
}


def run_scenario(s: VerifyScenario) -> VerifyReport:
    """Dispatch to the theorem runner; configuration problems become a
    structured failing report rather than an exception."""
    try:
        return _RUNNERS[s.theorem_id](s)
    except OctoolError as exc:
        return VerifyReport(
            s.to_dict(), math.nan, math.nan, math.nan, _TOL_FLOOR, "fail",
            {"error": f"{type(exc).__name__}: {exc}"},
        )


# ---------------------------------------------------------------------------
# default suite

def build_default_suite(seed: int = 20260826,
                        cfg: QuadConfig | None = None) -> list[VerifyScenario]:
    """At least one scenario per theorem id over the parameter catalog."""
    cfg = cfg or QuadConfig()
    p1, p2, p3 = CATALOG_PARAMS
    bump = FunctionSpec("bump", params={"center": 0.8, "width": 0.2})
    bump0 = FunctionSpec("bump", params={"center": 0.0, "width": 1.0})
    gauss = FunctionSpec("gaussian", params={"scale": 1.0})
    powercut = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf)
    narrow = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=1.13)
    adjoint = make_kernel("adjoint_hardy")
    cesaro = make_kernel("cesaro", gamma_c=2.5)

    def fd(p, delta):
        return extremal_function("delta", p, p=2.0, delta=delta)

    def fe(p, eps):
        return extremal_function("eps", p, p=2.0, eps=eps)

    unit_one = FunctionSpec("constant_one", domain="unit_interval")

    out = []
    for kern in (adjoint, cesaro, powercut):
        out.append(VerifyScenario("T_L1", p1, kern, (gauss, bump, bump0),
                                  cfg=cfg, seed=seed))
    out.append(VerifyScenario("T_L1", p2, adjoint, (gauss, bump, bump0),
                              cfg=cfg, seed=seed))
    out.append(VerifyScenario("T_COMM_DIAG", p2, adjoint, (bump,),
                              {"lam": 1.0}, cfg, seed))
    for p in (p1, p2, p3):
        out.append(VerifyScenario("T_LP_ASUP", p, powercut,
                                  (fe(p, 0.1), gauss, bump), {"p": 2.0}, cfg, seed))
    out.append(VerifyScenario("T_LP_AINF", p1, adjoint,
                              (), {"p": 2.0, "eps_list": (0.2, 0.1, 0.05)}, cfg, seed))
    out.append(VerifyScenario("C_LP_SANDWICH", p1, powercut, (gauss,),
                              {"p": 2.0}, cfg, seed))
    lplq_kern = make_kernel("power_cutoff", exponent=-2.0, lo=1.5, hi=2.0)
    for p in (p1, p2):
        out.append(VerifyScenario("T_LPLQ", p, lplq_kern,
                                  (extremal_function("eps", p, p=3.0, eps=0.05),
                                   gauss, bump),
                                  {"p": 3.0, "q": 2.0}, cfg, seed))
    for p in (p1, p2, p3):
        out.append(VerifyScenario("T_INTERVAL_E", p, powercut,
                                  (fd(p, 0.2), unit_one), {"p": 2.0}, cfg, seed))
    for p in (p1, p2):
        out.append(VerifyScenario("T_GRAND_UB", p, powercut,
                                  (fd(p, 0.2), unit_one), {"p": 2.0}, cfg, seed))
        out.append(VerifyScenario("T_GRAND_LB", p, narrow, (),
                                  {"p": 2.0, "delta_list": (0.2, 0.1)}, cfg, seed))
    out.append(VerifyScenario("T_QB_UB", p1, adjoint,
                              (gauss, bump,
                               FunctionSpec("constant_one", domain="positive_halfline"),
                               extremal_function("zero", p1, p=0.5)),
                              {"p": 0.5}, cfg, seed))
    out.append(VerifyScenario("T_QB_LB", p1, adjoint, (), {"p": 0.5}, cfg, seed))
    out.append(VerifyScenario("L_POWER", p1, None, (),
                              {"s_list": (0.2, 0.5, 0.8), "n_cases": 100},
                              cfg, seed))
    for p, f in ((p1, bump0), (p2, gauss), (p3, bump0)):
        out.append(VerifyScenario("P_PLANCHEREL", p, None, (f,), {}, cfg, seed))
    for p in (p1, p2, p3):
        out.append(VerifyScenario("P_EIGEN", p, None, (), {}, cfg, seed))
    out.append(VerifyScenario("D_SCALING_DIAG", p1, None, (), {}, cfg, seed))
    return out


# ---------------------------------------------------------------------------
# serialization

def _fmt_float(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return f"{x:.17g}"
    return None


def _json_value(obj) -> str:
    f = _fmt_float(obj) if isinstance(obj, float) else None
    if f is not None:
        return f
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (np.floating,)):
        return _json_value(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(
            f"{_json_value(str(k))}: {_json_value(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"not serializable: {type(obj)}")


_CSV_COLUMNS = ("theorem_id", "params", "lhs", "rhs", "ratio", "tolerance",
                "status", "err_breakdown")


def emit_report(reports: list[VerifyReport], fmt: str, path: str) -> int:
    """Write the report file; returns 0 iff no report failed."""
    reports = sorted(reports, key=lambda r: (
        r.scenario.get("theorem_id", ""), _json_value(r.scenario)))
    try:
        if fmt == "json":
            body = "[\n" + ",\n".join(
                "  " + _json_value(r.to_dict()) for r in reports
            ) + ("\n]" if reports else "]")
            with open(path, "w") as fh:
                fh.write(body + "\n")
        elif fmt == "csv":
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(_CSV_COLUMNS)
                for r in reports:
                    d = r.to_dict()
                    w.writerow([
                        d["theorem_id"],
                        _json_value(d["params"]),
                        _fmt_float(float(d["lhs"])),
                        _fmt_float(float(d["rhs"])),
                        _fmt_float(float(d["ratio"])),
                        _fmt_float(float(d["tolerance"])),
                        d["status"],
                        _json_value(d["err_breakdown"]),
                    ])
        else:
            raise OctoolError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise OctoolError(f"cannot write report to {path}: {exc}") from exc
    return 0 if all(r.status != "fail" for r in reports) else 1


# ---------------------------------------------------------------------------
# command-line interface

def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        return np.linspace(float(a), float(b), int(n))
    except ValueError:
        raise OctoolError(f"grid spec {spec!r} is not start:stop:n") from None


def _split_spec(spec: str) -> tuple[str, list[float]]:
    """``name:arg:arg...`` into the name and its numeric arguments."""
    name, *args = spec.split(":")
    try:
        return name, [float(x) for x in args]
    except ValueError:
        raise OctoolError(f"spec {spec!r} has a non-numeric argument") from None


def _parse_function(spec: str) -> FunctionSpec:
    name, args = _split_spec(spec)
    if name == "gaussian":
        return FunctionSpec("gaussian", params={"scale": args[0] if args else 1.0})
    if name == "bump":
        c = args[0] if args else 0.0
        w = args[1] if len(args) > 1 else 1.0
        return FunctionSpec("bump", params={"center": c, "width": w})
    if name == "powercut":
        return FunctionSpec("power_cutoff", params={"exponent": args[0] if args else 0.0})
    if name == "one":
        return FunctionSpec("constant_one")
    if name == "zero":
        return FunctionSpec("zero")
    raise OctoolError(f"unknown function spec {spec!r}")


def _parse_kernel(spec: str) -> KernelSpec:
    name, args = _split_spec(spec)
    if name == "hardy":
        return make_kernel("hardy")
    if name == "adjoint-hardy":
        return make_kernel("adjoint_hardy")
    if name == "hlp":
        return make_kernel("hlp")
    if name == "cesaro":
        return make_kernel("cesaro", gamma_c=args[0] if args else 1.0)
    if name == "rl":
        return make_kernel("riemann_liouville", mu=args[0] if args else 1.0)
    if name == "powercut":
        expo = args[0] if args else 0.0
        lo = args[1] if len(args) > 1 else 0.0
        hi = args[2] if len(args) > 2 else math.inf
        return make_kernel("power_cutoff", exponent=expo, lo=lo, hi=hi)
    raise OctoolError(f"unknown kernel spec {spec!r}")


def load_config(path: str | None) -> QuadConfig:
    """Flat ``key = value`` config file; unknown keys rejected."""
    if path is None:
        return QuadConfig()
    kinds = {f.name: type(f.default) for f in fields(QuadConfig)}
    kw = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise OctoolError(f"config line {line!r} is not 'key = value'")
            if key not in kinds:
                raise OctoolError(f"unknown config key {key!r}")
            kind = kinds[key]
            try:
                kw[key] = kind(value)
            except ValueError:
                raise OctoolError(
                    f"config key {key!r} needs {'an integer' if kind is int else 'a number'}, "
                    f"got {value.strip()!r}"
                ) from None
    return QuadConfig(**kw)


@click.group()
def main():
    """Numerical toolkit for a hyperbolic-weight integral transform and its
    Hausdorff-type averaging operators."""


@main.command("eval")
@click.option("--what", type=click.Choice(["g", "phi", "weight", "density"]), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--lam", "lam", type=float, default=1.0, help="spectral parameter")
@click.option("--x", type=float, default=None)
@click.option("--grid", type=str, default=None, help="start:stop:n")
def eval_cmd(what, alpha, beta, lam, x, grid):
    """Evaluate an eigenfunction, weight, or spectral density pointwise."""
    p = JacobiParams(alpha, beta)
    xs = _parse_grid(grid) if grid else np.array([0.0 if x is None else x])
    for xi in xs:
        if what == "g":
            v = eigenfunction_g(p, lam, float(xi))
            click.echo(f"{xi:.17g} {v.real:.17g} {v.imag:.17g}")
        elif what == "phi":
            v = jacobi_phi(p, lam, float(xi))
            click.echo(f"{xi:.17g} {v.real:.17g} {v.imag:.17g}")
        elif what == "weight":
            click.echo(f"{xi:.17g} {weight_a(p, float(xi)):.17g}")
        else:
            v = plancherel_density(p, float(xi) if grid else lam)
            arg = xi if grid else lam
            click.echo(f"{arg:.17g} {v.real:.17g} {v.imag:.17g}")


@main.command("transform")
@click.option("--function", "func", type=str, required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--lambda-grid", "lambda_grid", type=str, required=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--config-file", type=click.Path(exists=True), default=None)
def transform_cmd(func, alpha, beta, lambda_grid, out, config_file):
    """Tabulate the forward transform on a lambda grid (CSV)."""
    p = JacobiParams(alpha, beta)
    cfg = load_config(config_file)
    f = _parse_function(func)
    lams = _parse_grid(lambda_grid)
    vals, errs = transform_grid(f, p, lams, cfg)
    rows = [("lambda", "real", "imag", "err_estimate")] + [
        (f"{l:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}", f"{e:.17g}")
        for l, v, e in zip(lams, vals, errs)
    ]
    if out:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        for row in rows:
            click.echo(",".join(row))


@main.command("hausdorff")
@click.option("--kernel", type=str, required=True)
@click.option("--function", "func", type=str, required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--x-grid", "x_grid", type=str, required=True)
@click.option("--config-file", type=click.Path(exists=True), default=None)
def hausdorff_cmd(kernel, func, alpha, beta, x_grid, config_file):
    """Apply the averaging operator on an x grid."""
    p = JacobiParams(alpha, beta)
    cfg = load_config(config_file)
    k = _parse_kernel(kernel)
    f = _parse_function(func)
    for x in _parse_grid(x_grid):
        if x == 0.0:
            click.echo(f"{x:.17g} nan")
            continue
        click.echo(f"{x:.17g} {hausdorff_apply(k, f, p, float(x), cfg):.17g}")


@main.command("bound")
@click.option("--quantity", type=click.Choice(
    ["l1", "asup", "ainf", "E", "bsup", "binf", "lplq", "grand"]), required=True)
@click.option("--kernel", type=str, required=True)
@click.option("--p", "p_exp", type=float, required=True)
@click.option("--q", "q_exp", type=float, default=None)
@click.option("--alpha", type=float, default=0.5)
@click.option("--beta", type=float, default=-0.5)
@click.option("--config-file", type=click.Path(exists=True), default=None)
def bound_cmd(quantity, kernel, p_exp, q_exp, alpha, beta, config_file):
    """Compute a boundedness constant for a kernel."""
    p = JacobiParams(alpha, beta)
    cfg = load_config(config_file)
    k = _parse_kernel(kernel)
    if quantity == "l1":
        status, v = k.l1_status(cfg)
        click.echo("inf" if status == "infinite" else f"{v:.17g}")
        return
    if quantity in ("asup", "ainf"):
        v = a_constants(k, p_exp, p, cfg)[0 if quantity == "asup" else 1]
    elif quantity == "E":
        v = e_constant(k, p_exp, cfg)
    elif quantity in ("bsup", "binf"):
        v = b_constants(k, p_exp, p, cfg)[0 if quantity == "bsup" else 1]
    elif quantity == "lplq":
        if q_exp is None:
            raise click.UsageError("--q is required for lplq")
        v = lp_lq_constant(k, p_exp, q_exp, p, cfg)
    else:
        v = grand_bound_constant(k, p_exp, p, cfg)
    click.echo("inf" if math.isinf(v) else f"{v:.17g}")


@main.command("verify")
@click.option("--theorem", type=str, default="all")
@click.option("--seed", type=int, default=20260826)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(), default="verify_report.json")
@click.option("--config-file", type=click.Path(exists=True), default=None)
def verify_cmd(theorem, seed, fmt, out, config_file):
    """Run the verification suite and write a machine-readable report."""
    cfg = load_config(config_file)
    suite = build_default_suite(seed=seed, cfg=cfg)
    if theorem != "all":
        if theorem not in THEOREM_IDS:
            raise click.UsageError(f"unknown theorem id {theorem!r}")
        suite = [s for s in suite if s.theorem_id == theorem]
    reports = [run_scenario(s) for s in suite]
    code = emit_report(reports, fmt, out)
    for r in sorted(reports, key=lambda r: r.scenario["theorem_id"]):
        click.echo(f"{r.scenario['theorem_id']}: {r.status}")
    sys.exit(code)


@main.command("config")
@click.option("--show", is_flag=True)
@click.option("--file", "path", type=click.Path(exists=True), default=None)
def config_cmd(show, path):
    """Show effective quadrature configuration."""
    cfg = load_config(path)
    if show or path:
        for f in fields(QuadConfig):
            click.echo(f"{f.name} = {getattr(cfg, f.name)}")


if __name__ == "__main__":
    main()
