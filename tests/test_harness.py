import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octool.bounds import extremal_function, lp_norm
from octool.harness_cli import (
    THEOREM_IDS,
    VerifyReport,
    VerifyScenario,
    build_default_suite,
    emit_report,
    run_scenario,
)
from octool.hausdorff import HausdorffImage, make_kernel
from octool.octransform import FunctionSpec
from octool.quad import QuadConfig
from octool.specfun import JacobiParams

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
    # each row transforms the 17 panels of (lambda_min, Lambda] and the two
    # of the new band (Lambda, 2 Lambda], 15 nodes each
    from octool import octransform

    grid = octransform.transform_grid
    sizes = []

    def spy(f, p, lams, cfg, **kwargs):
        sizes.append(np.size(lams))
        return grid(f, p, lams, cfg, **kwargs)

    monkeypatch.setattr(octransform, "transform_grid", spy)
    rows = [s for s in build_default_suite() if s.theorem_id == "P_PLANCHEREL"]
    assert len(rows) == 3
    for s in rows:
        sizes.clear()
        assert run_scenario(s).status == "pass"
        assert sizes == [255, 30]


def test_plancherel_doubled_gap_adds_nothing_past_the_cut(suite_reports):
    # every cell of the band (Lambda, 2 Lambda] is dropped as noise, so the
    # doubled cut's gap is the gap, and each row passes by gap <= floor
    floors = []
    for r in suite_reports["P_PLANCHEREL"]:
        b = r.err_breakdown
        assert b["rel_gap_doubled"] == b["rel_gap"]
        floor = 10.0 * b["quadrature"] / r.lhs + 1e-6
        assert b["rel_gap"] <= floor
        floors.append(floor)
    assert floors == pytest.approx([2.6e-4, 2.0e-6, 1.6e-3], rel=0.02)
