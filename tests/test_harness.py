import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octool import harness_cli
from octool.bounds import extremal_function, lp_norm
from octool.harness_cli import (
    THEOREM_IDS,
    VerifyReport,
    VerifyScenario,
    _gated_report,
    build_default_suite,
    emit_report,
    run_scenario,
)
from octool.hausdorff import HausdorffImage, make_kernel
from octool.octransform import FunctionSpec
from octool.quad import QuadConfig
from octool.specfun import JacobiParams, _g_batch

P1 = JacobiParams(0.5, -0.5)

FAST_IDS = ("D_SCALING_DIAG", "P_EIGEN", "T_QB_LB", "T_INTERVAL_E",
            "C_LP_SANDWICH")


def _fast_scenarios():
    suite = build_default_suite()
    picked = {}
    for s in suite:
        if s.theorem_id in FAST_IDS and s.theorem_id not in picked:
            picked[s.theorem_id] = s
    return list(picked.values())


def test_suite_covers_every_theorem():
    ids = {s.theorem_id for s in build_default_suite()}
    assert ids == set(THEOREM_IDS)


def test_scenario_serialization_roundtrip():
    for s in build_default_suite():
        s2 = VerifyScenario.from_dict(s.to_dict())
        assert s2.to_dict() == s.to_dict()


def test_scenario_from_older_report_with_dropped_config_key():
    d = build_default_suite()[0].to_dict()
    d["cfg"]["extremum_grid"] = 2048
    assert VerifyScenario.from_dict(d).to_dict() == build_default_suite()[0].to_dict()


def test_unknown_theorem_rejected():
    from octool.errors import OctoolError
    with pytest.raises(OctoolError):
        VerifyScenario("T_NOPE", P1)


def test_replay_determinism(tmp_path):
    scenarios = _fast_scenarios()
    reports1 = [run_scenario(s) for s in scenarios]
    replayed = [run_scenario(VerifyScenario.from_dict(s.to_dict()))
                for s in scenarios]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(reports1, "json", str(f1))
    emit_report(replayed, "json", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(reports1, "csv", str(c1))
    emit_report(replayed, "csv", str(c2))
    assert c1.read_bytes() == c2.read_bytes()


def test_configuration_error_becomes_structured_failure():
    # hardy is not integrable, so the L1-theorem scenario cannot run;
    # the report must carry the failure instead of raising
    s = VerifyScenario("T_L1", P1, make_kernel("hardy"), ())
    r = run_scenario(s)
    assert r.status == "fail"
    assert "error" in r.err_breakdown


def test_signed_f_becomes_a_failure_that_names_the_error():
    # the H f engine takes log|f|: a sign-changing f would be normed as |f|
    xs = np.linspace(0.2, 2.0, 41)
    signed = FunctionSpec("sampled", params={"xs": xs, "ys": np.cos(3.0 * xs)})
    r = run_scenario(VerifyScenario("T_L1", P1, make_kernel("adjoint_hardy"), (signed,)))
    assert r.status == "fail"
    assert r.err_breakdown["error"].startswith("ParameterError")


# CI's four cheap default theorem ids, every scenario of each
CHEAP_IDS = ("T_INTERVAL_E", "T_QB_LB", "P_EIGEN", "D_SCALING_DIAG")
_FINITE_POSITIVE = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
REPORT_STATUSES = {"pass", "fail", "vacuous", "divergent", "diagnostic_recorded"}


@settings(max_examples=8, deadline=None)
@given(rel_tol=st.floats(1e-10, 1.0), abs_tol=_FINITE_POSITIVE,
       max_subdivisions=st.integers(-1, 100_000),
       truncation_x=_FINITE_POSITIVE, truncation_lambda=_FINITE_POSITIVE,
       truncation_t=_FINITE_POSITIVE, lambda_min=_FINITE_POSITIVE)
def test_cheap_scenarios_finish_with_a_report_on_any_config(**fields):
    # any config the constructor accepts gives every row a status: no raw
    # exception and no numpy warning
    cfg = QuadConfig(**fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in build_default_suite(cfg=cfg):
            if s.theorem_id in CHEAP_IDS:
                assert run_scenario(s).status in REPORT_STATUSES, s.theorem_id


def test_exit_codes(tmp_path):
    ok = VerifyReport({"theorem_id": "T_QB_LB", "params": {}}, 1.0, 0.5, 2.0,
                      1e-6, "pass")
    vac = VerifyReport({"theorem_id": "T_QB_UB", "params": {}}, math.nan,
                       math.nan, math.nan, 1e-6, "vacuous")
    bad = VerifyReport({"theorem_id": "T_L1", "params": {}}, 2.0, 1.0, 2.0,
                       1e-6, "fail")
    assert emit_report([ok, vac], "json", str(tmp_path / "ok.json")) == 0
    assert emit_report([ok, vac, bad], "json", str(tmp_path / "bad.json")) == 1


def test_json_special_floats(tmp_path):
    r = VerifyReport({"theorem_id": "T_LP_AINF", "params": {}}, math.inf,
                     math.nan, 1.0, 1e-6, "pass")
    path = tmp_path / "special.json"
    emit_report([r], "json", str(path))
    text = path.read_text()
    assert '"inf"' in text and '"nan"' in text
    import json
    json.loads(text)  # must stay valid JSON


def test_vacuous_statuses(suite_reports):
    assert all(r.status == "vacuous" for r in suite_reports["C_LP_SANDWICH"])
    assert all(r.status == "vacuous" for r in suite_reports["T_QB_UB"])


def test_no_failures_in_default_suite(suite_reports):
    bad = [
        (tid, r.err_breakdown)
        for tid, rs in suite_reports.items()
        for r in rs if r.status == "fail"
    ]
    assert bad == []


# the status of every default scenario, in suite order within each theorem id
DEFAULT_STATUSES = {
    "T_L1": ["pass"] * 4,
    "T_COMM_DIAG": ["diagnostic_recorded"],
    "T_LP_ASUP": ["pass"] * 3,
    "T_LP_AINF": ["pass"],
    "C_LP_SANDWICH": ["vacuous"],
    "T_LPLQ": ["pass"] * 2,
    "T_INTERVAL_E": ["pass"] * 3,
    "T_GRAND_UB": ["pass"] * 2,
    "T_GRAND_LB": ["pass"] * 2,
    "T_QB_UB": ["vacuous"],
    "T_QB_LB": ["pass"],
    "L_POWER": ["pass"],
    "P_PLANCHEREL": ["pass"] * 3,
    "P_EIGEN": ["pass"] * 3,
    "D_SCALING_DIAG": ["diagnostic_recorded"],
}


def test_default_suite_statuses_pinned(suite_reports):
    got = {tid: [r.status for r in rs] for tid, rs in suite_reports.items()}
    assert got == DEFAULT_STATUSES
    assert sum(map(len, got.values())) == 29


def test_lp_ainf_divergent_bound_detected(suite_reports):
    # the adjoint-Hardy bound integrand behaves like t^(-3/2 + eps) at 0
    (r,) = suite_reports["T_LP_AINF"]
    assert r.rhs == math.inf and r.ratio == 1.0 and r.status == "pass"


def test_a_witness_pair_of_two_infinite_norms_fails():
    # extremal_delta at delta = 0.001 and p = 2 on (1/2, -1/2): both norms of
    # the t^-2 (1, inf) pair read inf (ROADMAP item 16), where the ratio is at
    # most a_sup = 0.4.  Their ratio is NaN, so the pair fails even a bound
    # of 0.99 that it passed as inf / inf = 1
    p = JacobiParams(0.5, -0.5)
    s = VerifyScenario("T_LP_AINF", p, make_kernel("power_cutoff", exponent=-2.0, lo=1.0))
    witness = extremal_function("delta", p, p=2.0, delta=0.001)
    r = harness_cli._witness_pairs(s, lp_norm, 2.0, (0.0, math.inf), [(witness, 0.99)])
    assert r.status == "fail" and math.isnan(r.lhs)


# ||H f0||_{1/2} / ||f0||_{1/2} for adjoint Hardy on the p = 1/2 extremal
# f0(u) = u^-3 A(u)^-2 on (1, inf) at (1/2, -1/2), where ||f0||_{1/2} = 4 and
# H f0(x) = sinh^-2 x int_{max(x, 1)}^inf u^-4 sinh^-2 u du.  mpmath at 25
# digits, with the inner integral summed as 4 sum_n n (2n)^3 Gamma(-3, 2n max(x, 1))
# from sinh^-2 u = 4 sum_n n e^(-2nu): tanh-sinh quadrature of the inner
# integral itself loses 1e-7 for x >= 30
T_QB_LB_REFERENCE = 0.12799052153764213


def test_qb_lb_ratio_within_its_tolerance(suite_reports):
    # 128 log-spaced t panels per x read 0.1279011853 here (7e-4 off) with a
    # tolerance of 4.6e-4: they miss the boundary layer of H f0 at u = x
    (r,) = suite_reports["T_QB_LB"]
    assert abs(r.lhs - T_QB_LB_REFERENCE) <= r.tolerance * T_QB_LB_REFERENCE
    assert r.tolerance < 2e-6


def _norms(s, f, p_exp, domain):
    """(||H f||, ||f||) of one scenario's kernel, parameters and config."""
    hf = lp_norm(HausdorffImage(s.kernel, f, s.params, s.cfg), p_exp, s.params, domain, s.cfg)
    return hf, lp_norm(f, p_exp, s.params, domain, s.cfg)


def test_qb_lb_tolerance_is_the_error_of_its_ratio(suite_reports):
    # a lower bound gates ||H f0|| / ||f0||, whose error is the ratio times
    # the sum of the two norms' relative errors, not the sum of their
    # absolute errors (4x larger here)
    (r,) = suite_reports["T_QB_LB"]
    s = next(s for s in build_default_suite() if s.theorem_id == "T_QB_LB")
    hf, fn = _norms(s, extremal_function("zero", s.params, p=0.5), 0.5, (0.0, math.inf))
    rel_h, rel_f = hf.err_estimate / hf.value, fn.err_estimate / fn.value
    assert r.lhs == hf.value / fn.value
    assert r.err_breakdown["quadrature"] == pytest.approx(r.lhs * (rel_h + rel_f), rel=1e-12)
    assert r.tolerance == pytest.approx(1e-6 + 10.0 * r.lhs * (rel_h + rel_f) / r.rhs, rel=1e-12)


def test_l1_tolerance_comes_from_the_gated_pair(suite_reports):
    # the power-cutoff row at (1/2, -1/2): its gated pair (the largest
    # lhs / rhs) is not the pair with the largest error, and the row's
    # tolerance is set by the gated pair alone
    s = build_default_suite()[2]
    r = suite_reports["T_L1"][2]
    assert (s.theorem_id, s.kernel.variant, s.params) == ("T_L1", "power_cutoff", P1)
    _, phi_l1 = s.kernel.l1_status(s.cfg)
    triples = []
    for f in s.functions:
        hf, fn = _norms(s, f, 1.0, (-math.inf, math.inf))
        triples.append((hf.value, phi_l1 * fn.value, hf.err_estimate + phi_l1 * fn.err_estimate))
    lhs, rhs, err = max(triples, key=lambda tr: tr[0] / tr[1])
    assert (r.lhs, r.rhs) == (lhs, rhs)
    assert err < max(tr[2] for tr in triples)
    assert r.err_breakdown["quadrature"] == err
    assert r.tolerance == pytest.approx(1e-6 + 10.0 * err / rhs, rel=1e-12)


def test_l1_rows_fail_when_hf_is_scaled(monkeypatch):
    # T_L1 is an identity for non-negative f, so H f scaled by 1 + 1e-4 must
    # fail every default row, which needs tolerances near 1e-6
    import octool.hausdorff as hausdorff

    exact = hausdorff.hausdorff_log_grid

    def scaled(*args, **kwargs):
        log_vals, rel = exact(*args, **kwargs)
        return log_vals + math.log1p(1e-4), rel

    monkeypatch.setattr(hausdorff, "hausdorff_log_grid", scaled)
    rows = [s for s in build_default_suite() if s.theorem_id == "T_L1"]
    assert len(rows) == 4
    for s in rows:
        r = run_scenario(s)
        assert r.status == "fail" and r.tolerance < 2e-6, s.to_dict()


def test_plancherel_rows_transform_only_the_new_band(monkeypatch):
    # each row builds f's Abel transforms once, then takes the cosine
    # transforms of the 17 panels of (lambda_min, Lambda] and of the two of
    # the new band (Lambda, 2 Lambda], 15 nodes each, from them
    from octool import octransform

    cosine, abel = octransform._cosine_transform, octransform._abel
    sizes, abels = [], []

    def spy(F, p, lams, *args, **kwargs):
        sizes.append(np.size(lams))
        return cosine(F, p, lams, *args, **kwargs)

    def abel_spy(*args, **kwargs):
        abels.append(args[0])
        return abel(*args, **kwargs)

    monkeypatch.setattr(octransform, "_cosine_transform", spy)
    monkeypatch.setattr(octransform, "_abel", abel_spy)
    rows = [s for s in build_default_suite() if s.theorem_id == "P_PLANCHEREL"]
    assert len(rows) == 3
    for s in rows:
        sizes.clear()
        abels.clear()
        assert run_scenario(s).status == "pass"
        assert sizes == [255, 30]
        assert len(abels) == 1


def test_plancherel_doubled_gap_falls_on_the_bump_rows(suite_reports):
    # the transforms resolve the band (Lambda, 2 Lambda], so the doubled
    # cut's gap falls below the gap on the two bump rows, and the
    # "decreasing" gate can fail; the Gaussian's band adds nothing (its
    # transform is below 1e-170 there), and its row passes by gap <= floor
    bumps = 0
    for r in suite_reports["P_PLANCHEREL"]:
        b = r.err_breakdown
        if r.scenario["functions"][0]["family"] == "bump":
            assert b["rel_gap_doubled"] < 1e-2 * b["rel_gap"]
            bumps += 1
        else:
            assert b["rel_gap"] <= 10.0 * b["quadrature"] / r.lhs + 1e-6
    assert bumps == 2


def test_commutation_diagnostic_says_its_gap_is_real(suite_reports):
    # the transform of H f is not the kernel average of the transform of f
    # (G_lambda(t x) != G_(lambda t)(x)): the 0.108 gap is far beyond its
    # estimate, which stays at least 10x below 5.2e-5
    [r] = suite_reports["T_COMM_DIAG"]
    b = r.err_breakdown
    assert b["gap_exceeds_estimate"] is True
    assert abs(b["gap"] - 0.10815) <= 5.2e-5
    assert 0.0 < b["quadrature_component"] <= 5.2e-6


def test_scaling_diagnostic_says_its_gap_is_real(suite_reports):
    # G_lambda(t x) is not G_(lambda t)(x): the worst residual of the
    # D_SCALING_DIAG grid, 0.27, is far beyond the series bounds of its two
    # values, which the row recomputes from one _g_batch call
    [r] = suite_reports["D_SCALING_DIAG"]
    b = r.err_breakdown
    assert b["gap_exceeds_estimate"] is True
    lams, ts, xs = (0.0, 0.5, 1.0, 2.0), (0.5, 2.0), (0.3, 0.5, 1.0)
    cells = [((lam, t * x), (lam * t, x)) for lam in lams for t in ts for x in xs]
    g = {}
    for a, c in cells:
        for lam, x in (a, c):
            v, e = _g_batch(JacobiParams(0.5, -0.5), [lam], [x])
            g[lam, x] = (v[0, 0], e[0, 0])
    worst = max(cells, key=lambda ac: abs(g[ac[0]][0] - g[ac[1]][0]))
    assert abs(g[worst[0]][0] - g[worst[1]][0]) == pytest.approx(b["max_residual"], rel=1e-12)
    assert g[worst[0]][1] + g[worst[1]][1] <= 1e-9 * b["max_residual"]


@pytest.mark.parametrize("upper, failing, easier", [
    # an upper bound: lhs 2 over rhs 1 fails at err 0, while lhs 3 over rhs 1,
    # the larger ratio, passes at err 1, whose tolerance is 10
    (True, (2.0, 1.0, 0.0), (3.0, 1.0, 1.0)),
    # a lower bound: a ratio of 0.5 under a bound of 1 fails, while a ratio
    # of 2 passes
    (False, (0.5, 1.0, 0.0), (2.0, 1.0, 0.0)),
], ids=["upper", "lower"])
def test_a_row_fails_when_any_pair_fails(upper, failing, easier):
    # the pair with the largest ratio passing must not hide one that fails
    s = build_default_suite()[0]
    for triples in ([failing, easier], [easier, failing]):
        r = _gated_report(s, triples, upper=upper)
        assert r.status == "fail" and (r.lhs, r.rhs) == failing[:2]
    assert _gated_report(s, [easier], upper=upper).status == "pass"


def test_a_row_reports_the_pair_nearest_to_failing():
    # both pairs pass.  Under an upper bound 0.999999 over 1 at err 0 has
    # the larger ratio, but 0.99 over 1 at err 0.1 is nearer its own gate;
    # under a lower bound 1.5 over 1 has the larger ratio, and 1.01 over 1
    # at err 0.1 is nearer
    s = build_default_suite()[0]
    near, far = (0.99, 1.0, 0.1), (0.999999, 1.0, 0.0)
    for upper in (True, False):
        pairs = [near, far] if upper else [(1.01, 1.0, 0.1), (1.5, 1.0, 0.0)]
        r = _gated_report(s, pairs, upper=upper)
        assert r.status == "pass" and (r.lhs, r.rhs) == pairs[0][:2]
