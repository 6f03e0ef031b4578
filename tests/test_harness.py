import math

import pytest

from octool.harness_cli import (
    THEOREM_IDS,
    VerifyReport,
    VerifyScenario,
    build_default_suite,
    emit_report,
    run_scenario,
)
from octool.hausdorff import make_kernel
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
