"""The committed experiment configs, the scripts that rerun and summarize
them, and the report comparison that checks their results."""

import hashlib
import importlib.util
import json
import os
import pathlib
import re

import pytest

import drsubmax
from drsubmax import cli

REPO = pathlib.Path(__file__).resolve().parent.parent
EXPERIMENTS = REPO / "experiments"
CONFIGS = sorted(EXPERIMENTS.glob("*/*.json"))


def _script(name):
    """The module ``experiments/<name>.py``, which is not a package."""
    spec = importlib.util.spec_from_file_location(name, EXPERIMENTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_report, make_family, run_configs, summarize = map(
    _script, ["compare_report", "make_family", "run_configs", "summarize"])


def test_the_100x50_protocol_is_committed():
    assert len([c for c in CONFIGS if c.parent.name == "100x50"]) == 15


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_committed_config_loads_and_its_report_matches_it(path):
    """Each config loads as every command loads it, writes next to itself,
    and its committed report names its algorithm, runs and T."""
    cfg = cli.load_config(str(path), [])
    assert cfg.output_dir == f"experiments/{path.parent.name}/{path.stem}"
    head = (path.parent / path.stem / "report.txt").read_text().splitlines()[:3]
    assert head == [f"algorithm: {cfg.trial.algorithm}", f"runs: {cfg.runs}",
                    f"T: {cfg.trial.T}"]


def _kinds(report):
    """A report's line kinds: the text before each line's first ``:``."""
    return [line.split(":", 1)[0] for line in report.splitlines()]


@pytest.fixture(scope="module")
def written_kinds(tmp_path_factory):
    """The line kinds that the commands write today for a config, found by
    running them on a small battery of it.  They run once per algorithm,
    momentum rule and bounded theorem: the committed configs differ
    otherwise only in the instance, the noise level and ``opt``, which
    choose no line."""
    found = {}

    def kinds(path):
        config = json.loads(path.read_text())
        key = (config["algorithm"], repr(config.get("momentum_rule")),
               tuple(entry["theorem"] for entry in config["bounds"]))
        if key not in found:
            out = tmp_path_factory.mktemp("battery")
            overrides = ["--set", "runs=2", "--set", "T=3", "--set", "workers=1",
                         "--set", f"output_dir={out}"]
            for command in ("run", "bounds", "report"):
                assert cli.main([command, "--config", str(path), *overrides]) == 0
            found[key] = _kinds((out / "report.txt").read_text())
        return found[key]

    return kinds


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_committed_report_has_every_line_its_config_writes(path, written_kinds):
    """The committed report holds, in order, every kind of line that the
    commands write for its config today."""
    expected = written_kinds(path)
    assert _kinds((path.parent / path.stem / "report.txt").read_text()) == expected


#: the family's instance whose exact ``opt`` tier-1 recomputes (about 2 s);
#: the others' are read from their committed configs
RECOMPUTED = 7


def test_the_10x5_family_is_the_configs_its_spec_writes():
    """``make_family.py`` writes the family's committed configs from its
    spec, one for each entry, each seed and each ratio, each in the
    script's format.  Floats are compared to a relative tolerance of 1e-12,
    since another numpy or BLAS may move their last bits: ``sigma`` is one
    gradient norm and ``opt`` one KKT solve.  Seed 7's ``opt`` is also the
    optimum that branch and bound certified to 1e-9, 9.82391218."""
    spec = json.loads((EXPERIMENTS / "10x5-family.json").read_text())
    texts = {path.stem: path.read_text() for path in (EXPERIMENTS / "10x5-family").glob("*.json")}
    committed = {name: json.loads(text) for name, text in texts.items()}

    def opt(seed, objective):
        if seed == RECOMPUTED:
            value = objective.exact_opt()
            assert value == pytest.approx(9.82391218, rel=1e-9, abs=0.0)
            return value
        return committed[f"scg-s{seed}-r10"]["opt"]

    written = make_family.configs(spec, "experiments/10x5-family", opt)
    assert not any("seeds" in own for own in spec["algorithms"].values())
    count = len(spec["algorithms"]) * len(spec["seeds"]) * len(spec["ratios"])
    assert count == 450 and len(written) == count and written.keys() == committed.keys()
    for name, config in written.items():
        assert texts[name] == make_family.text(committed[name])
        expected = committed[name]
        assert config.pop("opt") == pytest.approx(expected.pop("opt"), rel=1e-12, abs=0.0)
        assert config["noise"].pop("sigma") == pytest.approx(expected["noise"].pop("sigma"),
                                                              rel=1e-12, abs=0.0)
        assert config == expected


def test_a_family_entry_has_no_seeds_of_its_own(tmp_path):
    """Every entry runs on every seed of the spec: a ``seeds`` left in an
    entry reaches its configs as an unknown key, which loading rejects."""
    spec = json.loads((EXPERIMENTS / "10x5-family.json").read_text())
    spec["seeds"] = [7]
    spec["algorithms"] = {"pga": {**spec["algorithms"]["pga"], "seeds": [0]}}
    written = make_family.configs(spec, str(tmp_path), lambda seed, objective: 1.0)
    assert len(written) == len(spec["ratios"])
    path = tmp_path / "pga-s7-r10.json"
    path.write_text(make_family.text(written["pga-s7-r10"]))
    with pytest.raises(ValueError, match=r"unknown config key\(s\): seeds"):
        cli.load_config(str(path), [])


@pytest.mark.parametrize("scale", ["100x50", "10x5-family"])
def test_committed_checksums_are_one_line_per_config_in_config_name_order(scale):
    """``battery.sha256`` holds one ``<sha256>  <output_dir>/battery.csv``
    line for each committed config, in the order of the config file names,
    which ``run_configs.py`` writes, and no digest twice."""
    directory = EXPERIMENTS / scale
    names = sorted(name for name in os.listdir(directory) if name.endswith(".json"))
    lines = (directory / "battery.sha256").read_text().splitlines()
    assert len(lines) == len(names)
    digests = []
    for name, line in zip(names, lines):
        digest, sep, battery = line.partition("  ")
        assert re.fullmatch("[0-9a-f]{64}", digest) and sep, line
        output_dir = json.loads((directory / name).read_text())["output_dir"]
        assert battery == f"{output_dir}/battery.csv"
        digests.append(digest)
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("scale", ["100x50", "10x5-family"])
def test_readme_results_table_is_the_summary_of_the_committed_reports(scale):
    start = f"<!-- python experiments/summarize.py experiments/{scale} -->\n"
    readme = (REPO / "README.md").read_text()
    assert readme.count(start) == 1
    shown = readme.split(start)[1].split("<!-- end of table -->")[0]
    assert shown == summarize.table(str(EXPERIMENTS / scale)) + "\n"


def test_run_configs_writes_checksums_and_prints_each_command(tmp_path, monkeypatch, capsys):
    """A rerun leaves no file but the checksums beside the configs, one line
    for the battery in each config's ``output_dir``, which may lie
    elsewhere, and reports each command's time and exit code on stderr."""
    configs, battery = tmp_path / "configs", tmp_path / "out" / "scg-r1" / "battery.csv"
    configs.mkdir()
    config = {"problem": {"kind": "nqp-generate", "seed": 7, "n": 5, "m": 1,
                          "entry_low": -1, "entry_high": 0},
              "algorithm": "scg", "T": 5, "runs": 2, "workers": 1,
              "noise": {"kind": "clipped_gaussian", "sigma": 0.1}, "opt": 1.0,
              "bounds": [{"theorem": "theorem3", "p": 0.9}],
              "output_dir": str(battery.parent)}
    (configs / "scg-r1.json").write_text(json.dumps(config))
    package_root = os.path.dirname(os.path.dirname(drsubmax.__file__))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    assert run_configs.main(str(configs)) == 0
    assert sorted(p.name for p in configs.iterdir()) == ["battery.sha256", "scg-r1.json"]
    digest = hashlib.sha256(battery.read_bytes()).hexdigest()
    assert (configs / "battery.sha256").read_text() == f"{digest}  {battery}\n"
    err = capsys.readouterr().err.splitlines()
    assert [line.split("\t")[:2] for line in err] == [["scg-r1", command]
                                                      for command in ("run", "bounds", "report")]
    assert all(line.endswith("\texit 0") for line in err)


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
