"""The committed experiment configs and the report comparison that checks
their results."""

import importlib.util
import pathlib

import pytest

from drsubmax import cli

EXPERIMENTS = pathlib.Path(__file__).resolve().parent.parent / "experiments"
CONFIGS = sorted(EXPERIMENTS.glob("*/*.json"))

_spec = importlib.util.spec_from_file_location("compare_report",
                                               EXPERIMENTS / "compare_report.py")
compare_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_report)


@pytest.mark.parametrize("scale", ["10x5", "100x50"])
def test_the_10x5_protocol_is_committed(scale):
    assert len([c for c in CONFIGS if c.parent.name == scale]) == 15


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_committed_config_loads_and_its_report_matches_it(path):
    """Each config loads as every command loads it, writes next to itself,
    and its committed report names its algorithm, runs and T."""
    cfg = cli.load_config(str(path), [])
    assert cfg.output_dir == f"experiments/{path.parent.name}/{path.stem}"
    head = (path.parent / path.stem / "report.txt").read_text().splitlines()[:3]
    assert head == [f"algorithm: {cfg.trial.algorithm}", f"runs: {cfg.runs}",
                    f"T: {cfg.trial.T}"]


REPORT = """algorithm: scg
opt: 9.8239121800000007
fit min: c2=0.12792128506548278 residual=0.0073430290151093982 n_points=1000
violation theorem3: delta=3162.2776601683795 bound_at_T=-25.335113761900814 rate=0
"""


def test_compare_report_accepts_equal_numbers_and_moves_within_the_tolerance():
    assert compare_report.differences(REPORT, REPORT, 0.0) == []
    moved = REPORT.replace("0.12792128506548278", "0.12792128506548280")
    assert compare_report.differences(REPORT, moved, 1e-6) == []
    assert len(compare_report.differences(REPORT, moved, 0.0)) == 1


@pytest.mark.parametrize("old, new", [("0.12792128506548278", "0.12792228506548278"),
                                      ("rate=0", "rate=0.01"),
                                      ("-25.335113761900814", "25.335113761900814"),
                                      ("n_points=1000", "n_points=999")])
def test_compare_report_rejects_a_number_moved_beyond_the_tolerance(old, new):
    found = compare_report.differences(REPORT, REPORT.replace(old, new), 1e-6)
    assert len(found) == 1 and "relative" in found[0]


@pytest.mark.parametrize("new", [REPORT.replace("theorem3", "theorem4"),
                                 REPORT.replace("c2=", "c1="),
                                 REPORT + "extra: 1\n"])
def test_compare_report_rejects_other_text(new):
    assert compare_report.differences(REPORT, new, 1e-6) != []


def test_compare_report_exit_codes(tmp_path, capsys):
    committed, rerun = tmp_path / "committed.txt", tmp_path / "rerun.txt"
    committed.write_text(REPORT)
    rerun.write_text(REPORT)
    assert compare_report.main([str(committed), str(rerun), "--rtol", "1e-6"]) == 0
    rerun.write_text(REPORT.replace("9.8239121800000007", "9.8239221800000007"))
    assert compare_report.main([str(committed), str(rerun), "--rtol", "1e-6"]) == 1
    assert capsys.readouterr().out.startswith("line 2: 9.82392218")
