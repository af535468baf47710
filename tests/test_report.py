"""Regression guard for the canonical report of `albaxter verify all`.

`golden/verify_all_default.json` holds the check ids, params and pass flags
of `verify all` at the default config.  A refactor keeps them; a change
that moves them on purpose rewrites the file and says why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from albaxter.report import ConfigError, Report, RunConfig
from albaxter.suites import SUITES, run_suites

GOLDEN = Path(__file__).parent / "golden" / "verify_all_default.json"


def _verify_all(cfg):
    report = Report(config=cfg.to_dict())
    report.extend(run_suites(sorted(SUITES), cfg))
    return report


@pytest.fixture(scope="module")
def default_report():
    return _verify_all(RunConfig())


def test_verify_all_matches_golden(default_report):
    rows = [{key: row[key] for key in ("check_id", "params", "pass")}
            for row in default_report.canonical_dict()["checks"]]
    assert rows == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_canonical_json_is_byte_identical_across_runs(default_report):
    again = _verify_all(RunConfig())
    assert again.canonical_json() == default_report.canonical_json()


@pytest.mark.parametrize("raw", [
    {"alpha": True}, {"alpha": False}, {"eta": True}, {"mu": True},
    {"mu": False}, {"tolerances": {"newton": True}}])
def test_bool_in_a_float_field_is_rejected(raw):
    # JSON true is a Python bool, which float() reads as 1.0
    with pytest.raises(ConfigError, match="must be a number"):
        RunConfig.from_dict(raw)


def test_numbers_in_float_fields_are_read():
    cfg = RunConfig.from_dict({"eta": 1, "mu": -2,
                               "tolerances": {"newton": 1e-10}})
    assert (cfg.alpha, cfg.mu, cfg.newton_tol) == (0.5, -2.0, 1e-10)
