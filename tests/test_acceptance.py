"""Acceptance gate: thirteen criteria, one test (and one pass/fail line in
the verbose run) per criterion.  Heavy scenario work is shared through the
session-scoped ``suite_reports`` fixture."""

import math

import mpmath
import numpy as np

from octool.bounds import (
    a_constants,
    e_constant,
    extremal_function,
    grand_norm,
    lp_norm,
)
from octool.harness_cli import (
    VerifyReport,
    VerifyScenario,
    build_default_suite,
    emit_report,
    run_scenario,
)
from octool.hausdorff import make_kernel, hausdorff_apply
from octool.octransform import FunctionSpec
from octool.quad import QuadConfig
from octool.specfun import (
    JacobiParams,
    eigenfunction_g,
    gauss_2f1,
    log_gamma_complex,
    weight_a,
)

P1 = JacobiParams(0.5, -0.5)
CFG = QuadConfig()


def _report(n, ok, detail=""):
    print(f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _pairs(reports):
    return sum(len(r.scenario["functions"]) or 1 for r in reports)


def test_criterion_01_eigen_equation(suite_reports):
    normalized = all(
        eigenfunction_g(JacobiParams(a, b), lam, 0.0) == 1.0
        for a, b in ((0.5, -0.5), (1.0, 0.5), (1.5, 1.5))
        for lam in (0.5, 1.0, 2.0, 5.0)
    )
    rs = suite_reports["P_EIGEN"]
    ok = normalized and len(rs) == 3 and all(r.status == "pass" for r in rs)
    worst = max(r.lhs for r in rs)
    _report(1, ok, f"max relative residual {worst:.3g} (limit 1e-5)")


def test_criterion_02_special_function_oracles():
    ok = True
    for z in (-0.5, -2.0, -10.0):
        v1 = gauss_2f1(1.0, 1.0, 2.0, z).value
        ok &= abs(v1 - (-math.log(1 - z) / z)) <= 1e-10 * abs(v1)
        v2 = gauss_2f1(0.3, 0.7, 0.7, z).value
        ok &= abs(v2 - (1 - z) ** -0.3) <= 1e-10 * abs(v2)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.5, 4, 20) + 1j * rng.uniform(-6, 6, 20)
    for z in pts:
        truth = complex(mpmath.loggamma(complex(z)))
        ok &= abs(log_gamma_complex(complex(z)) - truth) <= \
            1e-12 * max(abs(truth), 1.0)
    _report(2, ok, "2F1 closed forms and 20-point complex log-gamma grid")


def test_criterion_03_l1_theorem(suite_reports):
    rs = suite_reports["T_L1"]
    n = _pairs(rs)
    ok = n >= 9 and all(r.status == "pass" for r in rs)
    _report(3, ok, f"{n} kernel/function pairs, all within tolerance")


def test_criterion_04_named_operator_identities():
    f = FunctionSpec("bump", params={"center": 1.0, "width": 0.3})

    def trapz(vals, xs):
        t1, t2 = np.trapezoid(vals, xs), np.trapezoid(vals[::2], xs[::2])
        return t1 + (t1 - t2) / 3.0

    def lower(x, extra=lambda t: np.ones_like(t)):
        xs = np.linspace(0.0, x, 20001)
        return trapz(np.asarray(f(xs)) * weight_a(P1, xs) * extra(xs), xs) \
            / weight_a(P1, x)

    def upper(x, extra):
        xs = np.linspace(x, 1.3, 20001)
        return trapz(np.asarray(f(xs)) * weight_a(P1, xs) * extra(xs), xs) \
            / weight_a(P1, x)

    gamma_c, mu = 2.5, 1.5

    def cesaro_form(x):
        # s = sqrt(t - x) smooths the (t-x)^(gamma-1) factor for trapezoid
        s = np.linspace(0.0, math.sqrt(1.3 - x), 20001)
        t = x + s * s
        vals = 2.0 * s ** (2 * gamma_c - 1) * np.asarray(f(t)) \
            * weight_a(P1, t) / t**gamma_c
        return gamma_c * trapz(vals, s) / weight_a(P1, x)

    def rl_form(x):
        s = np.linspace(0.0, math.sqrt(x), 20001)
        t = x - s * s
        vals = 2.0 * s ** (2 * mu - 1) * np.asarray(f(t)) * weight_a(P1, t)
        return trapz(vals, s) / (math.gamma(mu) * weight_a(P1, x) * x**mu)

    forms = {
        "hardy": (make_kernel("hardy"), lambda x: lower(x) / x),
        "adjoint_hardy": (make_kernel("adjoint_hardy"),
                          lambda x: upper(x, lambda t: 1.0 / t)),
        "hlp": (make_kernel("hlp"),
                lambda x: lower(x) / x + upper(x, lambda t: 1.0 / t)),
        "cesaro": (make_kernel("cesaro", gamma_c=gamma_c), cesaro_form),
        "riemann_liouville": (make_kernel("riemann_liouville", mu=mu), rl_form),
    }
    ok = True
    for name, (k, form) in forms.items():
        for x in (0.8, 0.9, 1.0, 1.1, 1.25):
            truth = form(x)
            v = hausdorff_apply(k, f, P1, x, CFG)
            ok &= abs(v - truth) <= 1e-6 * max(abs(truth), 1e-9)

    def witness(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        m = u > 0
        out[m] = (u[m] / np.sinh(u[m])) ** 2
        return out

    w = hausdorff_apply(make_kernel("hardy"), witness, P1, 1.0, CFG)
    truth = 1.0 / (3.0 * math.sinh(1.0) ** 2)
    ok &= abs(w - truth) <= 1e-6 * truth
    _report(4, ok, f"five displays at 5 x-points; closed-form witness {w:.5f}")


def test_criterion_05_extremal_norms():
    ok = True
    for p_exp, e in ((2.0, 0.1), (3.0, 0.05)):
        fe = extremal_function("eps", P1, p=p_exp, eps=e)
        fd = extremal_function("delta", P1, p=p_exp, delta=e)
        t = (e * p_exp) ** (-1.0 / p_exp)
        ok &= abs(lp_norm(fe, p_exp, P1, (0, math.inf), CFG).value - t) <= 1e-8 * t
        ok &= abs(lp_norm(fd, p_exp, P1, (0, math.inf), CFG).value - t) <= 1e-8 * t
    f0 = extremal_function("zero", P1, p=0.5)
    ok &= abs(lp_norm(f0, 0.5, P1, (0, math.inf), CFG).value - 4.0) <= 1e-8 * 4.0
    _report(5, ok, "closed-form norms of all three witness families")


def test_criterion_06_a_constants():
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1.0, hi=math.inf)
    a_sup, a_inf = a_constants(k, 2.0, P1, CFG)
    e_val = e_constant(k, 2.0, CFG)
    ok = abs(a_sup - 0.4) <= 1e-6 and a_inf == 0.0 \
        and abs(e_val - 2.0 / 3.0) <= 1e-9
    _report(6, ok, f"a_sup={a_sup:.8f}, a_inf={a_inf}, E={e_val:.10f}")


def test_criterion_07_lp_upper_bounds(suite_reports):
    rs = suite_reports["T_LP_ASUP"] + suite_reports["T_LPLQ"] \
        + suite_reports["T_INTERVAL_E"]
    n = _pairs(rs)
    ok = n >= 12 and all(r.status == "pass" for r in rs)
    _report(7, ok, f"{n} upper-bound scenarios, all within tolerance")


def test_criterion_08_lower_bound_witnesses(suite_reports):
    rs_eps = suite_reports["T_LP_AINF"]
    rs_delta = suite_reports["T_GRAND_LB"]
    ok = all(r.status == "pass" for r in rs_eps + rs_delta) \
        and len(rs_delta) >= 2
    _report(8, ok, "eps-family and delta-family witnesses reach their bounds")


def test_criterion_09_grand_lebesgue(suite_reports):
    one = FunctionSpec("constant_one", domain="unit_interval")
    unit = grand_norm(one, 2.0, P1, (0.0, 1.0), CFG).value
    rs = suite_reports["T_GRAND_UB"]
    n = _pairs(rs)
    ok = abs(unit - 1.0) <= 1e-3 and n >= 4 \
        and all(r.status == "pass" for r in rs)
    _report(9, ok, f"unit grand norm {unit:.6f}; {n} upper-bound scenarios")


def test_criterion_10_quasi_banach(suite_reports):
    lemma = suite_reports["L_POWER"]
    ub = suite_reports["T_QB_UB"]
    lb = suite_reports["T_QB_LB"]
    violations = sum(r.err_breakdown.get("violations", 1) for r in lemma)
    ok = all(r.status == "pass" for r in lemma) and violations == 0
    # upper bound: vacuous scenarios are reported, never silently passed
    ok &= all(r.status in ("pass", "vacuous") for r in ub) and len(ub) >= 1
    ok &= all(r.status == "pass" for r in lb)
    _report(10, ok, f"100 seeded step functions, {violations} violations; "
                    f"lower-bound witness ratio {lb[0].ratio:.4f}")


def test_criterion_11_plancherel(suite_reports):
    rs = suite_reports["P_PLANCHEREL"]
    gaps = [r.err_breakdown["rel_gap"] for r in rs]
    ok = len(rs) == 3 and all(r.status == "pass" for r in rs) \
        and max(gaps) <= 0.05
    _report(11, ok, f"relative gaps {['%.2e' % g for g in gaps]}, "
                    "decreasing under doubled spectral truncation")


def test_criterion_12_diagnostics(suite_reports):
    comm = suite_reports["T_COMM_DIAG"]
    scal = suite_reports["D_SCALING_DIAG"]
    ok = all(r.status == "diagnostic_recorded" for r in comm + scal)
    ok &= all("gap" in r.err_breakdown and "quadrature_component" in
              r.err_breakdown for r in comm)
    ok &= all(r.err_breakdown["residual_lam0_t2_x05"] > 0.0 for r in scal)
    _report(12, ok, "commutation gap with its error estimate; "
                    "scaling residual strictly positive")


def test_criterion_13_determinism(tmp_path):
    fast = [s for s in build_default_suite()
            if s.theorem_id in ("D_SCALING_DIAG", "T_QB_LB", "T_INTERVAL_E")]
    first = [run_scenario(s) for s in fast]
    replay = [run_scenario(VerifyScenario.from_dict(s.to_dict())) for s in fast]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_ok = emit_report(first, "json", str(a))
    emit_report(replay, "json", str(b))
    ok = a.read_bytes() == b.read_bytes() and code_ok == 0
    failing = first + [VerifyReport({"theorem_id": "T_L1", "params": {}},
                                    2.0, 1.0, 2.0, 1e-6, "fail")]
    ok &= emit_report(failing, "json", str(tmp_path / "c.json")) == 1
    _report(13, ok, "byte-identical replay and exit-code contract")
