import os

import pytest
from hypothesis import settings

from octool.harness_cli import build_default_suite, run_scenario

# CI runs the property tests derandomized and prints the blob that replays a
# failure, so a failing push reproduces from its log
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def suite_reports():
    """Run the full default verification suite once; grouped by theorem id."""
    reports = [run_scenario(s) for s in build_default_suite()]
    by_id = {}
    for r in reports:
        by_id.setdefault(r.scenario["theorem_id"], []).append(r)
    return by_id
