import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import octool
from octool.errors import OctoolError, ParameterError
from octool.harness_cli import load_config, main


@pytest.fixture
def runner():
    return CliRunner()


def test_eval_g(runner):
    r = runner.invoke(main, ["eval", "--what", "g", "--alpha", "0.5",
                             "--beta", "-0.5", "--lam", "1.0", "--x", "0.5"])
    assert r.exit_code == 0
    x, re, im = (float(t) for t in r.output.split())
    assert x == 0.5 and abs(re - 1.0734342014020641) < 1e-10


def test_eval_weight_grid(runner):
    r = runner.invoke(main, ["eval", "--what", "weight", "--alpha", "0.5",
                             "--beta", "-0.5", "--grid", "0.5:1.5:3"])
    assert r.exit_code == 0
    assert len(r.output.strip().splitlines()) == 3


def test_transform_csv(runner, tmp_path):
    out = tmp_path / "t.csv"
    r = runner.invoke(main, ["transform", "--function", "bump:0:1",
                             "--alpha", "0.5", "--beta", "-0.5",
                             "--lambda-grid", "1:2:2", "--out", str(out)])
    assert r.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,real,imag,err_estimate"
    assert len(lines) == 3


def test_hausdorff_command(runner):
    r = runner.invoke(main, ["hausdorff", "--kernel", "adjoint-hardy",
                             "--function", "bump:1:0.3", "--alpha", "0.5",
                             "--beta", "-0.5", "--x-grid", "0.5:0.5:1"])
    assert r.exit_code == 0
    x, v = (float(t) for t in r.output.split())
    assert abs(v - 1.8705230294654) < 1e-9


def test_bound_command(runner):
    r = runner.invoke(main, ["bound", "--quantity", "asup", "--kernel",
                             "powercut:-2:1", "--p", "2"])
    assert r.exit_code == 0
    assert abs(float(r.output) - 0.4) < 1e-6
    r = runner.invoke(main, ["bound", "--quantity", "l1", "--kernel", "hardy",
                             "--p", "1"])
    assert r.output.strip() == "inf"


def test_config_file(runner, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("rel_tol = 1e-7\ntruncation_lambda = 20\n")
    r = runner.invoke(main, ["config", "--file", str(cfg)])
    assert r.exit_code == 0
    assert "rel_tol = 1e-07" in r.output
    assert "truncation_lambda = 20" in r.output
    bad = tmp_path / "bad.txt"
    for line in ("no_such_key = 1", "rel_tol", "rel_tol = fast", "max_subdivisions = 1.5",
                 "extremum_grid = 2048"):
        bad.write_text(line + "\n")
        r = runner.invoke(main, ["config", "--file", str(bad)])
        assert r.exit_code != 0
        assert isinstance(r.exception, OctoolError), (line, r.exception)


@pytest.mark.parametrize("args", [
    ["transform", "--function", "bump:abc", "--alpha", "0.5", "--beta", "-0.5",
     "--lambda-grid", "1:2:2"],
    ["transform", "--function", "bump:0:1", "--alpha", "0.5", "--beta", "-0.5",
     "--lambda-grid", "0:1"],
    ["hausdorff", "--kernel", "cesaro:x", "--function", "bump", "--alpha", "0.5",
     "--beta", "-0.5", "--x-grid", "0.5:0.5:1"],
    ["eval", "--what", "weight", "--alpha", "0.5", "--beta", "-0.5",
     "--grid", "0:1:x"],
])
def test_malformed_spec_is_octool_error(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code != 0
    assert isinstance(r.exception, OctoolError), r.exception


def test_config_file_rejects_infinite_cutoff(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("truncation_t = inf\n")
    with pytest.raises(ParameterError):
        load_config(str(cfg))


def test_verify_single_theorem(runner, tmp_path):
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["verify", "--theorem", "D_SCALING_DIAG",
                             "--out", str(out)])
    assert r.exit_code == 0
    data = json.loads(out.read_text())
    assert data[0]["theorem_id"] == "D_SCALING_DIAG"
    assert data[0]["status"] == "diagnostic_recorded"


def test_verify_unknown_theorem(runner, tmp_path):
    r = runner.invoke(main, ["verify", "--theorem", "T_NOPE",
                             "--out", str(tmp_path / "x.json")])
    assert r.exit_code != 0


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE).group(1)
    assert octool.__version__ == version
