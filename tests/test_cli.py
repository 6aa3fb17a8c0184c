import inspect
import json
import math
import os

import numpy as np
import pytest

from drsubmax import cli
from drsubmax.analysis import TrialBattery, shared_c1_refit
from drsubmax.geometry import LmoError, Polytope
from drsubmax.objectives import (NqpObjective, generate_nqp, instance_digest, load_nqp,
                                 save_nqp)

from _util import MALFORMED_NQP_FILES


@pytest.fixture()
def one_dim_instance(tmp_path):
    path = tmp_path / "one_dim.json"
    save_nqp(path, NqpObjective([[-1.0]], Polytope.box([1.0])))
    return path


# the config change that gives each theorem the trial it bounds, from the
# theorem's docstring: its algorithm and, for theorem4, the alpha momentum rule
_ALPHA = {"kind": "alpha", "value": 0.5}
PAIRED = {"theorem1": {"algorithm": "pga"}, "theorem2": {"algorithm": "boosted_pga"},
          "theorem3": {}, "theorem4": {"momentum_rule": _ALPHA},
          "theorem5": {"algorithm": "scgpp"}}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "problem": {"kind": "nqp-file", "path": str(tmp_path / "one_dim.json")},
        "algorithm": "scg",
        "T": 4,
        "runs": 2,
        "master_seed": 0,
        "noise": {"kind": "none"},
        "workers": 1,
        "normalized": False,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def main_with(command, cfg, overrides=()) -> int:
    """``cli.main`` on ``command --config cfg`` with one ``--set`` per override."""
    argv = [command, "--config", str(cfg)]
    for override in overrides:
        argv += ["--set", override]
    return cli.main(argv)


def write_run_config(cfg_path):
    """The run_config.json ``run`` writes, for a battery.csv written by hand."""
    cfg = cli.load_config(cfg_path, [])
    cli._write_record(cfg, cli._RUN_CONFIG_FILE, cli._run_config(cfg))


class TestGenerate:
    def test_writes_instance_and_prints_constants(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = cli.main(["generate", "nqp", "--n", "5", "--m", "1", "--low", "-1",
                         "--high", "0", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        d_line = next(ln for ln in captured.splitlines() if ln.startswith("D = "))
        assert float(d_line.split("=")[1]) == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert any(ln.startswith("L = ") for ln in captured.splitlines())

    def test_positive_entries_exit_validation(self, tmp_path, capsys):
        code = cli.main(["generate", "nqp", "--n", "3", "--m", "1", "--low", "-1",
                         "--high", "1", "--seed", "0",
                         "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "entry_high" in capsys.readouterr().err

    def test_overflowing_smoothness_prints_inf_without_warning(self, tmp_path, capsys):
        """Entries near -1e160 overflow ``L``: ``generate`` still writes the
        instance and prints ``L = inf``, with nothing on stderr, as
        ``bounds.constants_for`` computes the same constant."""
        out = tmp_path / "big.json"
        code = cli.main(["generate", "nqp", "--n", "4", "--m", "2", "--low=-1e160",
                         "--high", "0", "--seed", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0 and out.exists()
        assert captured.err == ""
        assert "L = inf" in captured.out.splitlines()

    def test_byte_identical_regeneration(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "nqp", "--n", "4", "--m", "2", "--low", "-2",
                "--high", "0", "--seed", "3"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_small_battery_csv(self, tmp_path, one_dim_instance, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "min=0.5" in out and "max=0.5" in out
        lines = (tmp_path / "out" / "battery.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4

    def test_missing_instance_exits_io(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem={"kind": "nqp-file",
                                              "path": str(tmp_path / "absent.json")})
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, one_dim_instance, capsys):
        cfg = write_config(tmp_path, typo_key=1)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_set_override(self, tmp_path, one_dim_instance):
        """A ``--set`` value is JSON where it parses and a string otherwise."""
        cfg = write_config(tmp_path)
        other = tmp_path / "other"
        assert main_with("run", cfg, ["T=2", f"output_dir={other}"]) == 0
        lines = (other / "battery.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("root", [[1, 2], 3, "text"])
    def test_non_object_root_with_override_exits_validation(self, tmp_path, root, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(root))
        assert cli.main(["run", "--config", str(path), "--set", "T=2"]) == 2
        assert "root must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_aborted_battery_leaves_partial_marker(self, tmp_path, one_dim_instance,
                                                   monkeypatch, capsys, error):
        """A failed trial exits 1 whatever it raised: an aborted battery is
        not a validation failure."""
        import drsubmax.optimizers as opt_module

        real = opt_module.run_trial

        def explode(objective, noise, cfg):
            if cfg.run_id == 1:
                raise error("synthetic trial failure")
            return real(objective, noise, cfg)

        monkeypatch.setattr(opt_module, "run_trial", explode)
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: battery aborted: synthetic trial failure\n"
        marker = tmp_path / "out" / "battery.csv.partial"
        assert marker.read_text() == "battery aborted: synthetic trial failure\n"
        # a later run that finishes removes the stale marker
        monkeypatch.setattr(opt_module, "run_trial", real)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert not marker.exists()

    def test_parallel_abort_keeps_finished_trials(self, tmp_path, one_dim_instance,
                                                  monkeypatch, capsys):
        """Serially and in a pool (whose workers inherit the patched module
        by fork), the trials before the failing run_id are written to the
        partial battery."""
        import drsubmax.optimizers as opt_module

        real = opt_module.run_trial

        def explode(objective, noise, cfg):
            if cfg.run_id == 2:
                raise RuntimeError("synthetic trial failure")
            return real(objective, noise, cfg)

        monkeypatch.setattr(opt_module, "run_trial", explode)
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            cfg = write_config(tmp_path, runs=4, workers=workers, output_dir=str(out))
            assert cli.main(["run", "--config", str(cfg)]) == 1
            assert "synthetic trial failure" in (out / "battery.csv.partial").read_text()
            lines = (out / "battery.csv").read_text().splitlines()
            assert len(lines) == 1 + 2 * 4
            assert {ln.split(",")[0] for ln in lines[1:]} == {"0", "1"}

    def test_run_holds_one_finished_trial_at_a_time(self, tmp_path, one_dim_instance,
                                                    monkeypatch):
        """With one worker, when trial k starts no record older than trial
        k - 1 is alive: each trial's rows are written and the record let go."""
        import gc
        import weakref

        import drsubmax.optimizers as opt_module

        real = opt_module.run_trial
        refs, stale = [], []

        def tracked(objective, noise, cfg):
            gc.collect()
            stale.extend((cfg.run_id, i) for i, ref in enumerate(refs[:-1])
                         if ref() is not None)
            record = real(objective, noise, cfg)
            refs.append(weakref.ref(record))
            return record

        monkeypatch.setattr(opt_module, "run_trial", tracked)
        cfg = write_config(tmp_path, runs=5, noise={"kind": "gaussian_fixed", "sigma": 0.2})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert len(refs) == 5
        assert stale == []

    def test_generated_problem_large_battery(self, tmp_path, capsys):
        """Paper-protocol scale through the CLI: 100 noisy ascent runs of 100
        iterations on a generated instance give 10^4 trajectory rows and an
        ordered returned-value summary."""
        cfg = write_config(
            tmp_path, algorithm="pga", T=100, runs=100,
            problem={"kind": "nqp-generate", "n": 4, "m": 1,
                     "entry_low": -1.0, "entry_high": 0.0, "seed": 3},
            noise={"kind": "gaussian_prop", "scale": 1.0},
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "battery.csv").read_text().splitlines()
        assert len(lines) == 1 + 100 * 100
        summary = next(ln for ln in capsys.readouterr().out.splitlines()
                       if ln.startswith("returned:"))
        lo = float(summary.split("min=")[1].split()[0])
        mid = float(summary.split("median=")[1].split()[0])
        hi = float(summary.split("max=")[1].split()[0])
        assert lo <= mid <= hi

    @pytest.mark.parametrize("theorem", [
        pytest.param(theorem, id=f"{algorithm}-{theorem}") for algorithm, theorem in
        (("scg", "theorem3"), ("scgpp", "theorem5"), ("pga", "theorem1"),
         ("boosted_pga", "theorem2"))])
    def test_budget_synthetic_pipeline(self, tmp_path, theorem):
        """``run``, ``bounds`` and ``report`` on a generated budget instance,
        for each algorithm with the theorem that bounds it; SCG++ takes its
        Hessian-vector products from the budget objective's ``hvp``."""
        cfg = write_config(
            tmp_path, T=20, runs=3, normalized=True, problem=_BUDGET,
            noise={"kind": "clipped_gaussian", "sigma": 0.1},
            opt={"runs": 2, "iterations": 50},
            bounds=[{"theorem": theorem, "p": 0.9}], **PAIRED[theorem])
        for command in ("run", "bounds", "report"):
            assert cli.main([command, "--config", str(cfg)]) == 0, command
        lines = (tmp_path / "out" / "battery.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 20
        assert float(lines[-1].split(",")[3]) > 0.0
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert any(ln.startswith(f"violation {theorem}:") for ln in report)

    def test_parallel_matches_sequential(self, tmp_path, one_dim_instance):
        seq_cfg = write_config(tmp_path, name="seq.json", runs=4,
                               noise={"kind": "gaussian_fixed", "sigma": 0.2},
                               output_dir=str(tmp_path / "seq"))
        par_cfg = write_config(tmp_path, name="par.json", runs=4, workers=2,
                               noise={"kind": "gaussian_fixed", "sigma": 0.2},
                               output_dir=str(tmp_path / "par"))
        assert cli.main(["run", "--config", str(seq_cfg)]) == 0
        assert cli.main(["run", "--config", str(par_cfg)]) == 0
        assert (tmp_path / "seq" / "battery.csv").read_bytes() == \
            (tmp_path / "par" / "battery.csv").read_bytes()


class TestBounds:
    def test_unbounded_noise_rejected_for_theorem1(self, tmp_path, one_dim_instance, capsys):
        cfg = write_config(tmp_path, noise={"kind": "gaussian_fixed", "sigma": 0.1},
                           bounds=[{"theorem": "theorem1", "delta": 0.01}], opt=0.5,
                           **PAIRED["theorem1"])
        assert cli.main(["bounds", "--config", str(cfg)]) == 2
        assert "M" in capsys.readouterr().err

    def test_theorem4_echoes_momentum_constant(self, tmp_path, one_dim_instance):
        cfg = write_config(tmp_path, noise={"kind": "clipped_gaussian", "sigma": 0.1},
                           bounds=[{"theorem": "theorem4", "delta": 0.01, "alpha": 0.5}],
                           opt=0.5, **PAIRED["theorem4"])
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        text = (tmp_path / "out" / "bound_theorem4.csv").read_text()
        assert "# K=2\n" in text
        assert "# alpha=0.5\n" in text

    def test_chebyshev_bounds_carry_probability_column(self, tmp_path, one_dim_instance):
        for theorem in ("theorem3", "theorem5"):
            cfg = write_config(tmp_path, T=100,
                               noise={"kind": "gaussian_fixed", "sigma": 0.1},
                               bounds=[{"theorem": theorem, "delta": 100.0}],
                               opt=0.5, **PAIRED[theorem])
            assert cli.main(["bounds", "--config", str(cfg)]) == 0
        for name in ("bound_theorem3.csv", "bound_theorem5.csv"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            final = lines[-1].split(",")
            assert final[0] == "100"
            assert float(final[2]) == pytest.approx(1.0 - 100 / 100.0**2, abs=1e-15)

    def test_confidence_level_converts_to_delta(self, tmp_path, one_dim_instance):
        cfg = write_config(tmp_path, T=1000,
                           noise={"kind": "gaussian_fixed", "sigma": 0.1},
                           bounds=[{"theorem": "theorem5", "p": 0.99}], opt=0.5,
                           **PAIRED["theorem5"])
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        text = (tmp_path / "out" / "bound_theorem5.csv").read_text()
        delta_line = next(ln for ln in text.splitlines() if ln.startswith("# delta="))
        assert float(delta_line.split("=")[1]) == pytest.approx(
            math.sqrt(1000 / 0.01), abs=1e-9)

    def test_delta_and_p_together_rejected(self, tmp_path, one_dim_instance, capsys):
        cfg = write_config(tmp_path, bounds=[{"theorem": "theorem5", "delta": 1.0, "p": 0.5}],
                           **PAIRED["theorem5"])
        assert cli.main(["bounds", "--config", str(cfg)]) == 2
        assert "delta or p" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"theorem": "theorem5", "delta": "x"},
        {"theorem": "theorem3", "p": "high"},
        {"theorem": "theorem1", "p": None},
        {"theorem": "theorem4", "delta": True},
        {"theorem": "theorem3", "delta": float("inf")},
        {"theorem": "theorem2", "delta": 0.1, "gamma": "one"},
        {"theorem": "theorem4", "delta": 0.1, "alpha": [0.5]},
    ])
    def test_non_numeric_entry_values_exit_validation(self, tmp_path, one_dim_instance,
                                                      entry, capsys):
        cfg = write_config(tmp_path, bounds=[entry], opt=0.5, **PAIRED[entry["theorem"]])
        assert cli.main(["bounds", "--config", str(cfg)]) == 2
        assert entry["theorem"] in capsys.readouterr().err

    @pytest.mark.parametrize("opt", [0, -2, 0.0, float("inf"), True, {"runs": 0},
                                     {"iterations": -5}, {"runs": 2.5}])
    def test_non_positive_opt_rejected(self, tmp_path, one_dim_instance, opt, capsys):
        cfg = write_config(tmp_path, opt=opt, bounds=[{"theorem": "theorem5", "delta": 1.0}],
                           **PAIRED["theorem5"])
        assert cli.main(["bounds", "--config", str(cfg)]) == 2
        assert "opt" in capsys.readouterr().err


class TestReport:
    def test_exact_curves_recovered(self, tmp_path, one_dim_instance):
        out = tmp_path / "out"
        out.mkdir()
        with open(out / "battery.csv", "w") as fh:
            fh.write("run_id,algorithm,t,f_true,f_running_avg\n")
            for rid in range(3):
                for t in range(1, 101):
                    y = 1.0 - 2.0 / math.sqrt(t)
                    fh.write(f"{rid},scg,{t},{y:.17g},{y:.17g}\n")
        cfg = write_config(tmp_path, T=100, runs=3)
        write_run_config(cfg)
        assert cli.main(["report", "--config", str(cfg)]) == 0
        report = (out / "report.txt").read_text()
        c1 = float(next(ln for ln in report.splitlines()
                        if ln.startswith("c1_shared:")).split(":")[1])
        assert c1 == pytest.approx(1.0, abs=1e-8)
        for label in ("min", "median", "q90"):
            line = next(ln for ln in report.splitlines() if ln.startswith(f"fit {label}:"))
            c2 = float(line.split("c2=")[1].split()[0])
            assert c2 == pytest.approx(2.0, abs=1e-8)
            assert (out / f"stats_{label}.csv").exists()

    def test_at_T_follows_the_fits_as_each_statistics_last_row(self, tmp_path):
        """The packaging smoke's scg battery: the line after the last fit holds
        each statistic's value at t = T, as its ``stats_*.csv``'s last row."""
        instance = tmp_path / "nqp5.json"
        assert cli.main(["generate", "nqp", "--n", "5", "--m", "1", "--low", "-1", "--high",
                         "0", "--seed", "7", "--out", str(instance)]) == 0
        cfg = write_config(tmp_path, problem={"kind": "nqp-file", "path": str(instance)}, T=20,
                           momentum_rule=_ALPHA, normalized=True,
                           noise={"kind": "clipped_gaussian", "sigma": 0.1},
                           opt={"runs": 2, "iterations": 50})
        assert main_with("run", cfg) == 0
        assert main_with("report", cfg) == 0
        out = tmp_path / "out"
        report = (out / "report.txt").read_text().splitlines()
        last_rows = {label: (out / f"stats_{label}.csv").read_text().splitlines()[-1]
                     for label in ("min", "median", "q90")}
        at_T = [f"{label}={row.split(',')[1]}" for label, row in last_rows.items()]
        assert report[report.index(f"at_T: {' '.join(at_T)}") - 1].startswith("fit q90:")

    def test_noise_free_battery_has_zero_violation_rate(self, tmp_path, one_dim_instance):
        cfg = write_config(tmp_path, T=20, runs=3, opt=0.5,
                           bounds=[{"theorem": "theorem5", "delta": 1.0}], **PAIRED["theorem5"])
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        assert cli.main(["report", "--config", str(cfg)]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        line = next(ln for ln in report.splitlines() if ln.startswith("violation theorem5"))
        assert line.rstrip().endswith("rate=0")

    def test_boosted_battery_against_its_average_value_bound(self, tmp_path,
                                                             one_dim_instance):
        cfg = write_config(tmp_path, algorithm="boosted_pga", T=50, runs=5,
                           opt=0.5, gamma=1.0,
                           noise={"kind": "clipped_gaussian", "sigma": 0.05},
                           bounds=[{"theorem": "theorem2", "delta": 0.05,
                                    "gamma": 1.0}])
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        assert cli.main(["report", "--config", str(cfg)]) == 0
        bound_text = (tmp_path / "out" / "bound_theorem2.csv").read_text()
        assert "# gamma=1\n" in bound_text
        report = (tmp_path / "out" / "report.txt").read_text()
        line = next(ln for ln in report.splitlines()
                    if ln.startswith("violation theorem2"))
        assert "statistic=average_iterate" in line
        assert line.rstrip().endswith("rate=0")

    def test_boosted_battery_is_summarized_on_its_running_average(self, tmp_path,
                                                                  one_dim_instance):
        """Theorem 2 concerns the running average of boosted ascent, so the
        report fits and writes that series, as it does for plain ascent."""
        cfg = write_config(tmp_path, algorithm="boosted_pga", T=20, runs=3,
                           noise={"kind": "clipped_gaussian", "sigma": 0.05})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert cli.main(["report", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert "series: f_running_avg\n" in (out / "report.txt").read_text()
        battery = TrialBattery.from_csv(out / "battery.csv")
        rows = (out / "stats_min.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == \
            list(battery.f_running_avg.min(axis=0))
        assert not np.array_equal(battery.f_running_avg, battery.f_true)

    @pytest.mark.parametrize("override", ["opt=0", "opt=-2", 'opt={"runs":0}'])
    def test_non_positive_opt_not_used_to_normalize(self, tmp_path, one_dim_instance,
                                                    override, capsys):
        """Normalizing by a zero, negative or -inf optimum gives meaningless
        fits, so the report refuses such an optimum, as bounds does."""
        cfg = write_config(tmp_path, normalized=True)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--config", str(cfg), "--set", override]) == 2
        assert "opt" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_fit_defaults_are_the_refits_own(self, tmp_path, one_dim_instance):
        """A config without ``t_min`` fits with the defaults of
        ``analysis.shared_c1_refit``, ``p`` 0.5 and ``t_min`` 1."""
        cfg = write_config(tmp_path)
        for command in ("run", "report"):
            assert cli.main([command, "--config", str(cfg)]) == 0
        params = inspect.signature(shared_c1_refit).parameters
        assert (params["p"].default, params["t_min"].default) == (0.5, 1)
        assert "fit: p=0.5 t_min=1" in (tmp_path / "out" / "report.txt").read_text().splitlines()

    def test_missing_battery_exits_io(self, tmp_path, one_dim_instance, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["report", "--config", str(cfg)]) == 1
        assert "battery" in capsys.readouterr().err

    def test_unnormalized_report_needs_the_instance(self, tmp_path, one_dim_instance,
                                                    capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        one_dim_instance.unlink()
        assert cli.main(["report", "--config", str(cfg)]) == 1
        assert "one_dim.json" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize("override,expected", [
        ('bounds=[{"theorem":"theorem4","delta":0.5}]', "-0.1707063793042467"),
        ("noise.sigma=2", None),
    ])
    def test_bound_follows_the_config_not_a_stale_file(self, tmp_path, override, expected):
        """After ``bounds`` wrote the delta 0.01, sigma 0.5 curve, a report
        under another delta or sigma (of a battery run under it) evaluates
        that config's bound, the one ``bounds`` writes under the same
        override."""
        cfg = write_config(tmp_path, T=30, runs=4, opt=3.75,
                           problem={**_GENERATED, "m": 2},
                           noise={"kind": "clipped_gaussian", "sigma": 0.5},
                           bounds=[{"theorem": "theorem4", "delta": 0.01}], **PAIRED["theorem4"])
        for command in ("run", "bounds"):
            assert cli.main([command, "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        stale = (out / "bound_theorem4.csv").read_text().splitlines()[-1].split(",")[1]
        assert cli.main(["run", "--config", str(cfg), "--set", override]) == 0
        assert cli.main(["report", "--config", str(cfg), "--set", override]) == 0
        line = next(ln for ln in (out / "report.txt").read_text().splitlines()
                    if ln.startswith("violation theorem4"))
        reported = line.split("bound_at_T=")[1].split()[0]
        assert cli.main(["bounds", "--config", str(cfg), "--set", override]) == 0
        fresh = (out / "bound_theorem4.csv").read_text().splitlines()[-1].split(",")[1]
        assert reported == fresh != stale
        if expected is not None:
            assert reported == expected

    def test_violation_lines_need_no_bound_files(self, tmp_path, one_dim_instance):
        cfg = write_config(tmp_path, T=20, runs=3, opt=0.5,
                           noise={"kind": "clipped_gaussian", "sigma": 0.1},
                           bounds=[{"theorem": "theorem3", "delta": 1.0},
                                   {"theorem": "theorem4", "delta": 0.1}], **PAIRED["theorem4"])
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert cli.main(["report", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert not list(out.glob("bound_*.csv"))
        lines = (out / "report.txt").read_text().splitlines()
        assert [ln.split(":")[0] for ln in lines if ln.startswith("violation ")] == \
            ["violation theorem3", "violation theorem4"]

    def test_report_bytes_do_not_depend_on_bound_files(self, tmp_path, one_dim_instance):
        """report.txt is the same with no bound files, with the ones ``bounds``
        writes for this config, and with the ones of another delta."""
        cfg = write_config(tmp_path, T=30, runs=5, opt=0.5, normalized=True,
                           noise={"kind": "clipped_gaussian", "sigma": 0.2},
                           bounds=[{"theorem": "theorem3", "delta": 2.0},
                                   {"theorem": "theorem4", "delta": 0.05}], **PAIRED["theorem4"])
        out = tmp_path / "out"

        def report():
            assert cli.main(["report", "--config", str(cfg)]) == 0
            return (out / "report.txt").read_bytes()

        assert cli.main(["run", "--config", str(cfg)]) == 0
        without = report()
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        fresh = report()
        assert cli.main(["bounds", "--config", str(cfg), "--set",
                         'bounds=[{"theorem":"theorem3","delta":9.0},'
                         '{"theorem":"theorem4","delta":0.5}]']) == 0
        stale = report()
        assert without == fresh == stale
        assert b"violation theorem3" in without and b"violation theorem4" in without


def _double_the_hessian(instance):
    obj = load_nqp(instance)
    save_nqp(instance, NqpObjective(2.0 * obj.h_matrix, obj.polytope))


# (id, the --set overrides of the report, the edit made to the instance after
# bounds): each changes an input of the estimate, so report estimates again
_OTHER_INPUTS = [
    ("opt.runs", ["opt.runs=3"], None),
    ("opt.iterations", ["opt.iterations=30"], None),
    ("master_seed", ["master_seed=1"], None),
    ("noise.sigma", ["noise.sigma=0.2"], None),
    ("edited-instance", [], _double_the_hessian),
]


def _set_opt(value):
    def edit(record):
        record["opt"] = value
        return json.dumps(record)
    return edit


def _without(key):
    def edit(record):
        del record[key]
        return json.dumps(record)
    return edit


# (id, the rewrite of the valid record's parsed JSON to the file's new text):
# each record is unusable, so it is estimated again and no error is raised
_UNUSABLE_RECORD = [
    ("garbled", lambda record: json.dumps(record)[:-2]),
    ("list", lambda record: json.dumps([record])),
    ("no-inputs", _without("inputs")),
    ("no-opt", _without("opt")),
    ("zero", _set_opt(0)),
    ("nan", _set_opt(math.nan)),
    ("bool", _set_opt(True)),
    ("string", _set_opt("1.5")),
    ("repeated-key", lambda record: json.dumps(record)[:-1] + f', "opt": {record["opt"]!r}}}'),
]


class TestOptFile:
    """Whichever command estimates the optimum writes it to opt.json with the
    estimate's inputs, and every command reuses a record whose inputs match."""

    @staticmethod
    def config(tmp_path, **overrides):
        instance = tmp_path / "nqp.json"
        if not instance.exists():
            save_nqp(instance, generate_nqp(3, 4, 2, -1.0, 0.0))
        settings = dict(T=10, runs=3, normalized=True,
                        problem={"kind": "nqp-file", "path": str(instance)},
                        noise={"kind": "clipped_gaussian", "sigma": 0.1},
                        opt={"runs": 2, "iterations": 20},
                        bounds=[{"theorem": "theorem4", "delta": 0.1}], **PAIRED["theorem4"])
        return write_config(tmp_path, **{**settings, **overrides})

    @staticmethod
    def report(cfg, overrides=()):
        assert main_with("report", cfg, overrides) == 0
        return (cfg.parent / "out" / "report.txt").read_bytes()

    @staticmethod
    def count_estimates(monkeypatch):
        calls = []
        original = cli.analysis.approx_opt

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.analysis, "approx_opt", counted)
        return calls

    @staticmethod
    def forbid_estimates(monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the optimum was estimated again")

        monkeypatch.setattr(cli.analysis, "approx_opt", never)

    def test_report_reuses_the_estimate_of_bounds(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        fresh = self.report(cfg)
        (tmp_path / "out" / "opt.json").unlink()
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        self.forbid_estimates(monkeypatch)
        assert self.report(cfg) == fresh

    def test_bounds_reuses_a_matching_record(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        files = [(out / name).read_bytes() for name in ("opt.json", "bound_theorem4.csv")]
        self.forbid_estimates(monkeypatch)
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        assert [(out / name).read_bytes() for name in ("opt.json", "bound_theorem4.csv")] \
            == files

    def test_report_without_bounds_writes_the_record(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path, bounds=[])
        assert cli.main(["run", "--config", str(cfg)]) == 0
        calls = self.count_estimates(monkeypatch)
        fresh = self.report(cfg)
        assert len(calls) == 1
        assert (tmp_path / "out" / "opt.json").exists()
        self.forbid_estimates(monkeypatch)
        assert self.report(cfg) == fresh

    @pytest.mark.parametrize("overrides,edit", [pytest.param(o, e, id=i)
                                                for i, o, e in _OTHER_INPUTS])
    def test_report_estimates_again_for_other_inputs(self, tmp_path, monkeypatch,
                                                     overrides, edit):
        cfg = self.config(tmp_path)
        for command in ("run", "bounds"):
            assert cli.main([command, "--config", str(cfg)]) == 0
        if edit is not None:
            edit(tmp_path / "nqp.json")
        assert main_with("run", cfg, overrides) == 0  # the battery of the report's config
        calls = self.count_estimates(monkeypatch)
        reported = self.report(cfg, overrides)
        assert len(calls) == 1
        (tmp_path / "out" / "opt.json").unlink()
        assert reported == self.report(cfg, overrides)

    @pytest.mark.parametrize("command", ["bounds", "report"])
    @pytest.mark.parametrize("rewrite", [pytest.param(r, id=i) for i, r in _UNUSABLE_RECORD])
    def test_unusable_record_is_estimated_again(self, tmp_path, monkeypatch, command,
                                                rewrite):
        cfg = self.config(tmp_path)
        path = tmp_path / "out" / "opt.json"
        for step in ("run", "bounds"):
            assert cli.main([step, "--config", str(cfg)]) == 0
        valid = path.read_text()
        path.write_text(rewrite(json.loads(valid)))
        calls = self.count_estimates(monkeypatch)
        assert cli.main([command, "--config", str(cfg)]) == 0
        assert len(calls) == 1
        assert path.read_text() == valid

    def test_record_does_not_depend_on_output_dir(self, tmp_path):
        cfg = self.config(tmp_path)
        files = []
        for out in ("first", "second"):
            override = f"output_dir={json.dumps(str(tmp_path / out))}"
            assert cli.main(["bounds", "--config", str(cfg), "--set", override]) == 0
            files.append((tmp_path / out / "opt.json").read_text())
        assert files[0] == files[1]
        record = json.loads(files[0])
        assert files[0] == json.dumps(record, sort_keys=True, indent=1) + "\n"
        assert sorted(record) == ["inputs", "opt"] and record["opt"] > 0
        assert sorted(record["inputs"]) == ["estimator", "instance", "iterations",
                                            "master_seed", "n_runs", "noise"]

    def test_noise_free_record_names_one_run(self, tmp_path, monkeypatch):
        """Under noise ``none`` the estimate is one deterministic run, so its
        record names one run, which ``opt.runs=1`` repeats."""
        cfg = self.config(tmp_path, noise={"kind": "none"}, opt={"iterations": 20})
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        record = json.loads((tmp_path / "out" / "opt.json").read_text())
        assert record["inputs"]["n_runs"] == 1
        self.forbid_estimates(monkeypatch)
        assert main_with("bounds", cfg, ["opt.runs=1"]) == 0

    def test_noise_free_record_is_reused_across_master_seeds(self, tmp_path, monkeypatch):
        """Under noise ``none`` the estimate draws nothing, so its record
        leaves the seed out and another ``master_seed`` reuses it."""
        cfg = self.config(tmp_path, noise={"kind": "none"}, opt={"iterations": 20})
        path = tmp_path / "out" / "opt.json"
        assert cli.main(["bounds", "--config", str(cfg)]) == 0
        record = path.read_text()
        assert "master_seed" not in json.loads(record)["inputs"]
        self.forbid_estimates(monkeypatch)
        assert main_with("bounds", cfg, ["master_seed=5"]) == 0
        assert path.read_text() == record

    def test_numeric_opt_neither_writes_nor_reads_the_record(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", str(cfg), "--set", "opt=0.7"]) == 0
        assert not (out / "opt.json").exists()
        for command in ("run", "bounds"):
            assert cli.main([command, "--config", str(cfg)]) == 0
        assert (out / "opt.json").exists()
        assert b"\nopt: 0.69999999999999996\n" in self.report(cfg, ["opt=0.7"])

    @pytest.mark.parametrize("overrides,record", [
        pytest.param([], ["opt.json"], id="estimated"),
        pytest.param(["opt=0.7"], [], id="numeric")])
    def test_output_files(self, tmp_path, overrides, record):
        """The files of a pipeline, which criterion 10 byte-compares across reruns."""
        cfg = self.config(tmp_path)
        for command in ("run", "bounds", "report"):
            assert main_with(command, cfg, overrides) == 0
        assert sorted(os.listdir(tmp_path / "out")) == sorted(
            ["battery.csv", "bound_theorem4.csv", "report.txt", "run_config.json",
             "stats_median.csv", "stats_min.csv", "stats_q90.csv", *record])

    def test_each_command_computes_the_digest_once(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        calls = []
        original = cli.objectives.instance_digest

        def counted(objective):
            calls.append(objective)
            return original(objective)

        monkeypatch.setattr(cli.objectives, "instance_digest", counted)
        for command in ("run", "bounds", "report"):
            calls.clear()
            assert cli.main([command, "--config", str(cfg)]) == 0
            assert len(calls) == 1, command


def _set_in_run_config(name, value):
    def edit(out):
        path = out / "run_config.json"
        recorded = json.loads(path.read_text())
        recorded[name] = value
        path.write_text(json.dumps(recorded))
    return edit


def _hessian_sigma_recorded(out):
    """Rewrite run_config.json as a version that recorded the Hessian noise
    level ``noise.hessian_sigma`` (``0.1 * sigma``) wrote it."""
    path = out / "run_config.json"
    recorded = json.loads(path.read_text())
    recorded["noise"]["hessian_sigma"] = 0.1 * recorded["noise"]["sigma"]
    path.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")


# (id, the --set overrides of the report, the edit made to output_dir after
# run, the field the error names): each is a battery of another config
_OTHER_BATTERY = [
    ("noise.sigma", ["noise.sigma=2"], None, "noise.sigma 0.5, the config has 2"),
    ("master_seed", ["master_seed=1"], None, "trial.master_seed 0, the config has 1"),
    ("instance", ["problem.seed=4"], None, "instance"),
    ("stale-hessian_sigma", [], _hessian_sigma_recorded,
     "noise.hessian_sigma 0.05, the config has nothing"),
    ("runs", [], _set_in_run_config("runs", 3), "runs 3, the config has 2"),
    ("extra-field", [], _set_in_run_config("workers", 1), "workers 1, the config has nothing"),
]


class TestRunConfig:
    """``run`` writes what fixes the battery's rows to run_config.json, and
    ``report`` refuses a battery whose file differs from its own config."""

    @staticmethod
    def config(tmp_path, **overrides):
        return write_config(tmp_path, T=10, runs=2, algorithm="scgpp", batch_size=2,
                            problem={**_GENERATED, "seed": 3},
                            noise={"kind": "clipped_gaussian", "sigma": 0.5}, **overrides)

    def test_file_is_canonical_and_leaves_out_output_dir_and_workers(self, tmp_path):
        files = []
        for out, workers in (("first", 1), ("second", 2)):
            cfg = self.config(tmp_path, output_dir=str(tmp_path / out), workers=workers)
            assert cli.main(["run", "--config", str(cfg)]) == 0
            files.append((tmp_path / out / "run_config.json").read_text())
        assert files[0] == files[1]
        recorded = json.loads(files[0])
        assert files[0] == json.dumps(recorded, sort_keys=True, indent=1) + "\n"
        assert sorted(recorded) == ["instance", "noise", "runs", "trial"]
        assert "run_id" not in recorded["trial"] and recorded["trial"]["batch_size"] == 2
        assert recorded["noise"] == {"kind": "clipped_gaussian", "sigma": 0.5, "scale": 0.0}
        assert recorded["runs"] == 2
        assert recorded["instance"] == instance_digest(generate_nqp(3, 4, 1, -1.0, 0.0))

    @pytest.mark.parametrize("overrides,edit,named", [pytest.param(o, e, n, id=i)
                                                      for i, o, e, n in _OTHER_BATTERY])
    def test_report_rejects_a_battery_of_another_config(self, tmp_path, overrides, edit,
                                                        named, capsys):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg)]) == 0
        if edit is not None:
            edit(out)
        capsys.readouterr()
        assert main_with("report", cfg, overrides) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'run_config.json'}: the battery was run with ")
        assert named in err, err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("rewrite", [
        None, lambda text: "{not json", lambda text: "[1, 2]",
        lambda text: json.dumps({**json.loads(text), "extra": {}}),
        lambda text: text.rstrip()[:-1] + ', "runs": 2}'],
        ids=["missing", "garbled", "not-an-object", "empty-object", "repeated-key"])
    def test_report_rejects_a_missing_or_malformed_file(self, tmp_path, rewrite,
                                                      capsys):
        cfg = self.config(tmp_path)
        path = tmp_path / "out" / "run_config.json"
        assert cli.main(["run", "--config", str(cfg)]) == 0
        if rewrite is None:
            path.unlink()
        else:
            path.write_text(rewrite(path.read_text()))
        capsys.readouterr()
        assert cli.main(["report", "--config", str(cfg)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_report_accepts_the_same_config_under_other_cli_keys(self, tmp_path):
        cfg = self.config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        for overrides in (["workers=2"], ["normalized=true", "opt=2.5"], ["t_min=3"]):
            assert main_with("report", cfg, overrides) == 0


_GENERATED = {"kind": "nqp-generate", "n": 4, "m": 1, "entry_low": -1.0,
              "entry_high": 0.0, "seed": 3}
_BUDGET = {"kind": "budget-synthetic", "channels": 3, "customers": 4, "density": 0.7,
           "p_low": 0.2, "p_high": 0.7, "seed": 5, "k": 2}
_GAUSSIAN = {"kind": "gaussian_fixed", "sigma": 0.1}

# (id, the one change to the valid scg config of write_config, the error it
# gives): a setting the config's algorithm never reads
_UNREAD = [
    ("scg-batch_size", {"batch_size": 3}, "scg does not read batch_size"),
    ("pga-momentum_rule", {"algorithm": "pga", "momentum_rule": _ALPHA},
     "pga does not read momentum_rule"),
    ("scgpp-step_rule", {"algorithm": "scgpp", "step_rule": {"kind": "inv_sqrt", "value": 0.05}},
     "scgpp does not read step_rule"),
    ("poly48-value", {"momentum_rule": {"kind": "poly48", "value": 0.7}},
     "momentum rule 'poly48' takes no value"),
]

# (command, id, the one change to the valid scg config of write_config; for
# ``bounds``, the config with a valid bounds entry and a known optimum; a
# fragment of the error that change must give)
_INVALID = [
    ("run", "T-true", {"T": True}, "T must be an integer >= 1"),
    ("run", "runs-true", {"runs": True}, "runs must be a positive integer"),
    ("run", "workers-true", {"workers": True},
     "workers must be a positive integer or 'auto'"),
    ("run", "t_min-true", {"t_min": True}, "t_min must be a positive integer"),
    ("run", "master_seed-negative", {"master_seed": -1}, "master_seed must be an integer >= 0"),
    ("run", "scgpp-batch_size-fraction", {"algorithm": "scgpp", "batch_size": 2.5},
     "batch_size must be an integer >= 1"),
    ("run", "sigma-text", {"noise": {**_GAUSSIAN, "sigma": "a"}},
     "sigma must be a finite nonnegative number"),
    ("run", "sigma-nan", {"noise": {**_GAUSSIAN, "sigma": float("nan")}},
     "sigma must be a finite nonnegative number"),
    ("run", "hessian_sigma-text", {"noise": {**_GAUSSIAN, "hessian_sigma": "a"}},
     "error: unknown noise key(s): hessian_sigma\n"),
    ("run", "output_dir-number", {"output_dir": 5}, "output_dir must be a string"),
    ("report", "T-true", {"T": True}, "T must be an integer >= 1"),
    ("report", "normalized-text", {"normalized": "yes"}, "normalized must be true or false"),
    ("run", "algorithm-unknown", {"algorithm": "sgd"}, "unknown algorithm 'sgd'"),
    ("run", "algorithm-null", {"algorithm": None}, "config key 'algorithm' is required"),
    ("run", "step_rule-unknown", {"step_rule": {"kind": "linear", "value": 1.0}},
     "unknown step rule 'linear'"),
    ("run", "step_rule-zero", {"step_rule": {"kind": "inv_sqrt", "value": 0}},
     "step size must be a positive finite number"),
    ("run", "step_rule-constant", {"step_rule": {"kind": "constant", "value": 0.1}},
     "unknown step rule 'constant'"),
    ("run", "momentum_rule-unknown", {"momentum_rule": {"kind": "cubic"}},
     "unknown momentum rule 'cubic'"),
    ("run", "momentum_rule-constant", {"momentum_rule": {"kind": "constant", "value": 1.0}},
     "unknown momentum rule 'constant'"),
    ("run", "momentum_rule-value-text", {"momentum_rule": {**_ALPHA, "value": "a"}},
     "momentum value must be a finite number"),
    ("run", "boosted_pga-gamma-zero", {"algorithm": "boosted_pga", "gamma": 0},
     "gamma must lie in (0, 1]"),
    ("run", "init_rule-unknown", {"init_rule": "random"}, "unknown init rule 'random'"),
    ("run", "init_rule-upper", {"algorithm": "pga", "init_rule": "upper"},
     "unknown init rule 'upper'"),
    ("run", "returned_convention-unknown", {"returned_convention": "mean"},
     "unknown returned convention 'mean'"),
    ("run", "noise-text", {"noise": "none"}, "noise must be an object"),
    ("run", "problem-no-kind", {"problem": {"path": "one_dim.json"}},
     "problem must be an object with a 'kind'"),
    ("run", "problem-kind-unknown", {"problem": {"kind": "nqp-url"}},
     "unknown problem kind 'nqp-url'"),
    ("run", "generate-seed-missing",
     {"problem": {k: v for k, v in _GENERATED.items() if k != "seed"}},
     "problem spec is missing key 'seed'"),
    ("run", "generate-entry_low-text", {"problem": {**_GENERATED, "entry_low": "a"}},
     "entry_low and entry_high must be finite numbers"),
    ("run", "generate-entry_low-above-entry_high",
     {"problem": {**_GENERATED, "entry_low": -0.5, "entry_high": -1.0}},
     "entry_low must be <= entry_high"),
    ("run", "budget-seed-negative", {"problem": {**_BUDGET, "seed": -1}},
     "seed must be a nonnegative integer"),
    ("run", "budget-p_low-above-p_high", {"problem": {**_BUDGET, "p_low": 0.8}},
     "need 0 < p_low <= p_high < 1"),
    ("bounds", "bounds-empty", {"bounds": []}, "no bounds selected in config"),
] + [
    (command, name, change, message)
    for command in ("run", "bounds", "report")
    for name, change, message in (
        ("fit_exponent-unknown", {"fit_exponent": 0.5},
         "error: unknown config key(s): fit_exponent\n"),
        ("generate-n-text", {"problem": {**_GENERATED, "n": "a"}},
         "need integers seed >= 0, n >= 1 and m >= 0"),
        ("generate-n-fraction", {"problem": {**_GENERATED, "n": 2.5}},
         "need integers seed >= 0, n >= 1 and m >= 0"),
        ("generate-n-negative", {"problem": {**_GENERATED, "n": -1}},
         "need integers seed >= 0, n >= 1 and m >= 0"),
        ("generate-seed-text", {"problem": {**_GENERATED, "seed": "x"}},
         "need integers seed >= 0, n >= 1 and m >= 0"),
        ("budget-k-fraction", {"problem": {**_BUDGET, "k": 2.5}},
         "channels, customers and k must be positive integers"),
        ("budget-channels-text", {"problem": {**_BUDGET, "channels": "a"}},
         "channels, customers and k must be positive integers"),
        ("budget-density-text", {"problem": {**_BUDGET, "density": "x"}},
         "density must be in (0, 1]"),
        ("budget-upper-nan", {"problem": {**_BUDGET, "upper": float("nan")}},
         "per-advertiser budget must be 3 finite positive numbers"),
        ("budget-upper-true", {"problem": {**_BUDGET, "upper": True}},
         "per-advertiser budget must be 3 finite positive numbers"),
        ("budget-alphas-object", {"problem": {**_BUDGET, "alphas": {}}},
         "alphas must be 2 finite positive numbers"),
        ("file-path-number", {"problem": {"kind": "nqp-file", "path": 1}},
         "problem path must be a string"),
        ("budget-file", {"problem": {"kind": "budget-file", "path": "edges.tsv"}},
         "error: unknown problem kind 'budget-file'\n"),
        ("output_dir-empty", {"output_dir": ""}, "output_dir must not be empty"),
        ("t_min-equals-T", {"t_min": 4}, "t_min must be below T"),
        ("theorem4-alpha-near-one",
         {"momentum_rule": {**_ALPHA, "value": 0.995},
          "bounds": [{"theorem": "theorem4", "delta": 0.01, "alpha": 0.995}]},
         "theorem4: alpha = 0.995 is too close to 1"),
        ("theorem4-delta-negative",
         {**PAIRED["theorem4"], "bounds": [{"theorem": "theorem4", "delta": -1}]},
         "theorem4: delta must lie in (0, 1)"),
        ("theorem1-unbounded-noise",
         {**PAIRED["theorem1"], "noise": _GAUSSIAN,
          "bounds": [{"theorem": "theorem1", "delta": 0.1}]},
         "theorem1: bounded gradient error M unavailable"),
        ("theorem3-p-above-one", {"bounds": [{"theorem": "theorem3", "p": 1.5}]},
         "theorem3: confidence p must lie in (0, 1)"),
        ("theorem4-twice", {**PAIRED["theorem4"],
                            "bounds": [{"theorem": "theorem4", "delta": 0.01, "alpha": 0.5},
                                       {"theorem": "theorem4", "delta": 0.05}]},
         "theorem4: listed twice in bounds"),
        ("bounds-object", {"bounds": {"theorem": "theorem4", "delta": 0.01}},
         "bounds must be a list"),
        ("bounds-entry-list", {"bounds": [["theorem4", 0.01]]},
         "each bounds entry must be an object"),
        ("theorem9", {"bounds": [{"theorem": "theorem9", "delta": 0.01}]},
         "theorem9: unknown theorem"),
        ("theorem4-deltta",
         {**PAIRED["theorem4"], "bounds": [{"theorem": "theorem4", "deltta": 0.01}]},
         "theorem4: unknown bounds entry key(s): deltta"),
        ("theorem1-alpha", {**PAIRED["theorem1"],
                            "bounds": [{"theorem": "theorem1", "delta": 0.01, "alpha": 0.9}]},
         "theorem1: unknown bounds entry key(s): alpha"),
        ("theorem4-main_text_exponent",
         {**PAIRED["theorem4"],
          "bounds": [{"theorem": "theorem4", "delta": 0.01, "main_text_exponent": True}]},
         "theorem4: unknown bounds entry key(s): main_text_exponent"),
        ("theorem5-main_text_exponent",
         {**PAIRED["theorem5"],
          "bounds": [{"theorem": "theorem5", "delta": 1.0, "main_text_exponent": "yes"}]},
         "theorem5: unknown bounds entry key(s): main_text_exponent"),
        ("theorem2-main_text_smoothness",
         {**PAIRED["theorem2"],
          "bounds": [{"theorem": "theorem2", "delta": 0.1, "main_text_smoothness": True}]},
         "theorem2: unknown bounds entry key(s): main_text_smoothness"),
        ("theorem4-poly48", {"bounds": [{"theorem": "theorem4", "delta": 0.01}]},
         "theorem4: bounds the alpha momentum rule, not poly48"),
        ("theorem4-alpha-differs",
         {**PAIRED["theorem4"], "bounds": [{"theorem": "theorem4", "delta": 0.01, "alpha": 0.3}]},
         "theorem4: alpha 0.3 differs from the trial's 0.5"),
        ("theorem2-gamma-differs",
         {**PAIRED["theorem2"], "gamma": 0.5,
          "bounds": [{"theorem": "theorem2", "delta": 0.01, "gamma": 1.0}]},
         "theorem2: gamma 1.0 differs from the trial's 0.5"),
        ("none-noise-sigma", {"noise": {"kind": "none", "sigma": 1000.0}},
         "noise kind 'none' takes no sigma"),
        ("none-noise-opt-runs", {"opt": {"runs": 20, "iterations": 50}},
         "opt.runs must be 1"),
        ("gaussian_prop-sigma",
         {"noise": {"kind": "gaussian_prop", "scale": 0.1, "sigma": 1000.0}},
         "noise kind 'gaussian_prop' takes no sigma"),
        ("clipped_gaussian-scale", {"noise": {"kind": "clipped_gaussian", "sigma": 0.1,
                                              "scale": 50.0}},
         "noise kind 'clipped_gaussian' takes no scale"),
        ("scg-hessian_sigma", {"noise": {**_GAUSSIAN, "hessian_sigma": 0.01}},
         "error: unknown noise key(s): hessian_sigma\n"),
        ("scgpp-hessian_sigma",
         {**PAIRED["theorem5"], "bounds": [{"theorem": "theorem5", "p": 0.9}],
          "noise": {**_GAUSSIAN, "hessian_sigma": 0.01}},
         "error: unknown noise key(s): hessian_sigma\n"),
    )
] + [
    (command, name, change, message)
    for command in ("run", "bounds", "report")
    for name, change, message in _UNREAD
]


class TestOneValidationBoundary:
    """An invalid config value exits 2 with one error line and no traceback,
    and writes no output: ``run`` writes no battery."""

    @staticmethod
    def assert_rejected(command, cfg, out, capsys):
        before = sorted(out.iterdir()) if out.exists() else []
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert (sorted(out.iterdir()) if out.exists() else []) == before
        return err

    @pytest.mark.parametrize("command,change,message",
                             [pytest.param(c, ch, m, id=f"{c}-{i}") for c, i, ch, m in _INVALID])
    def test_invalid_value_exits_validation(self, tmp_path, one_dim_instance, command,
                                            change, message, capsys):
        out = tmp_path / "out"
        if command == "report":  # a battery to report on, from the valid config
            assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 0
            capsys.readouterr()
        if command == "bounds":
            change = {"opt": 0.5, "bounds": [{"theorem": "theorem3", "delta": 1.0}], **change}
        cfg = write_config(tmp_path, name="invalid.json", **change)
        err = self.assert_rejected(command, cfg, out, capsys)
        assert message in err, err
        assert command != "run" or not (out / "battery.csv").exists()

    @pytest.mark.parametrize("command", ["run", "bounds", "report"])
    @pytest.mark.parametrize("change,message",
                             [pytest.param(ch, m, id=i) for i, ch, m in _UNREAD])
    def test_unread_setting_is_named(self, tmp_path, one_dim_instance, command, change,
                                     message, capsys):
        """Every command rejects a setting the algorithm never reads for that
        reason, before it looks at a bounds entry or the battery."""
        if command == "report":
            assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 0
            capsys.readouterr()
        cfg = write_config(tmp_path, name="unread.json", opt=0.5,
                           bounds=[{"theorem": "theorem3", "delta": 1.0}], **change)
        err = self.assert_rejected(command, cfg, tmp_path / "out", capsys)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "bounds", "report"])
    @pytest.mark.parametrize("edit,message", [
        (lambda text: text.replace('"T": 4', '"T": 4, "T": 7'), "repeated key 'T'"),
        (lambda text: text.replace('"noise": {', '"noise": {"kind": "gaussian_fixed", '),
         "repeated key 'kind'"),
        (lambda text: "{" + text[2:], "Expecting property name enclosed in double quotes: "
                                      "line 1 column 2 (char 1)"),
    ], ids=["repeated-top-level-key", "repeated-nested-key", "garbled"])
    def test_config_parse_error_names_the_file(self, tmp_path, one_dim_instance, command,
                                               edit, message, capsys):
        """A config is read as an instance file is: a repeated key is an error
        rather than its last value, and every parse error names the file."""
        if command == "report":
            assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 0
            capsys.readouterr()
        cfg = write_config(tmp_path, name="parse.json", opt=0.5,
                           bounds=[{"theorem": "theorem3", "delta": 1.0}])
        cfg.write_text(edit(cfg.read_text()))
        err = self.assert_rejected(command, cfg, tmp_path / "out", capsys)
        assert err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("command", ["run", "bounds", "report"])
    def test_set_value_with_a_repeated_key_is_rejected(self, tmp_path, one_dim_instance,
                                                       command, capsys):
        """A ``--set`` value is read as a config file is: a repeated key is an
        error that names the item, rather than its last value."""
        cfg = write_config(tmp_path, opt=0.5, bounds=[{"theorem": "theorem3", "delta": 1.0}])
        if command == "report":
            assert cli.main(["run", "--config", str(cfg)]) == 0
            capsys.readouterr()
        out = tmp_path / "out"
        before = sorted(out.iterdir()) if out.exists() else []
        item = 'noise={"kind": "gaussian_fixed", "kind": "none"}'
        assert main_with(command, cfg, [item]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --set {item!r}: repeated key 'kind'\n"
        assert (sorted(out.iterdir()) if out.exists() else []) == before

    @pytest.mark.parametrize("item,message", [
        ("T", "--set expects key=value, got 'T'"),
        ("T.x=1", "--set path 'T.x' does not address an object"),
    ], ids=["no-equals", "through-a-number"])
    def test_malformed_set_item_is_rejected(self, tmp_path, one_dim_instance, item,
                                            message, capsys):
        assert main_with("run", write_config(tmp_path), [item]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("item,where", [(".T=5", "config"), ("=5", "config"),
                                            ("noise.=5", "noise")],
                             ids=["dotted", "bare", "nested"])
    def test_empty_set_key_is_named(self, tmp_path, one_dim_instance, item, where, capsys):
        assert main_with("run", write_config(tmp_path), [item]) == 2
        assert capsys.readouterr().err == f"error: unknown {where} key(s): ''\n"
        assert not (tmp_path / "out").exists()

    def test_empty_file_key_is_named(self, tmp_path, one_dim_instance, capsys):
        assert main_with("run", write_config(tmp_path, **{"": 1, "zz": 2})) == 2
        assert capsys.readouterr().err == "error: unknown config key(s): '', zz\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sigma", [0.1, 7.0])
    def test_written_out_hessian_sigma_is_unknown(self, tmp_path, one_dim_instance, sigma,
                                                  capsys):
        """An scg config that writes out the Hessian level ``0.1 * sigma``,
        the value the oracle uses, is refused as setting an unknown key."""
        cfg = write_config(tmp_path, noise={"kind": "clipped_gaussian", "sigma": sigma,
                                            "hessian_sigma": 0.1 * sigma})
        err = self.assert_rejected("run", cfg, tmp_path / "out", capsys)
        assert err == "error: unknown noise key(s): hessian_sigma\n"

    @pytest.mark.parametrize("change,values", [
        ({"algorithm": "pga"}, ("'scg'", "'pga'")),
        ({"T": 50}, ("4 points", "T = 50")),
        ({"T": 2}, ("4 points", "T = 2")),
        ({"runs": 3}, ("2 runs", "runs = 3")),
    ], ids=["algorithm", "T-longer", "T-shorter", "runs"])
    def test_battery_must_match_the_config(self, tmp_path, one_dim_instance, change,
                                           values, capsys):
        """A battery run under another algorithm, horizon or run count is not reported
        under this config's name, bounds or fits."""
        assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, name="other.json", **change)
        err = self.assert_rejected("report", cfg, tmp_path / "out", capsys)
        assert "battery.csv" in err and all(value in err for value in values), err

    @pytest.mark.parametrize("row", ["1,scg,5", "0,foo,5,0.5,0.5", "0,scg,5,nan,0.5",
                                     "0,scg,5,0.5,inf"])
    def test_malformed_battery_row_names_file_and_line(self, tmp_path, one_dim_instance,
                                                       row, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        battery = tmp_path / "out" / "battery.csv"
        line = len(battery.read_text().splitlines()) + 1
        with open(battery, "a") as fh:
            fh.write(row + "\n")
        err = self.assert_rejected("report", cfg, tmp_path / "out", capsys)
        assert f"{battery}:{line}:" in err and row in err
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_bounds_checks_entries_before_estimating_the_optimum(
            self, tmp_path, one_dim_instance, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("approx_opt ran before the bounds entries were checked")

        monkeypatch.setattr(cli.analysis, "approx_opt", never)
        cfg = write_config(tmp_path, opt={"iterations": 5},
                           bounds=[{"theorem": "theorem4", "delta": -1}], **PAIRED["theorem4"])
        err = self.assert_rejected("bounds", cfg, tmp_path / "out", capsys)
        assert "theorem4: delta must lie in (0, 1)" in err

    @pytest.mark.parametrize("command", ["bounds", "report"])
    def test_zero_estimated_optimum_rejected(self, tmp_path, command, capsys):
        """With f = 0 everywhere the estimated optimum is 0: nothing can be
        normalized by it or bounded below it, so neither command writes, and
        ``report`` needs no bounds entry to refuse it."""
        entries = [{"theorem": "theorem4", "delta": 0.1}] if command == "bounds" else []
        cfg = write_config(tmp_path, T=10, runs=3, normalized=True, bounds=entries,
                           **PAIRED["theorem4"],
                           problem={**_GENERATED, "n": 3, "entry_low": 0.0, "seed": 1},
                           noise={"kind": "clipped_gaussian", "sigma": 0.1},
                           opt={"runs": 2, "iterations": 20})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        err = self.assert_rejected(command, cfg, tmp_path / "out", capsys)
        assert "estimated optimum 0 is not positive" in err
        assert not (tmp_path / "out" / "opt.json").exists()

    @pytest.mark.parametrize("text,message",
                             [pytest.param(t, m, id=i) for i, t, m in MALFORMED_NQP_FILES])
    def test_malformed_instance_file_is_named(self, tmp_path, text, message, capsys):
        instance = tmp_path / "bad.json"
        instance.write_text(text)
        cfg = write_config(tmp_path, problem={"kind": "nqp-file", "path": str(instance)})
        err = self.assert_rejected("run", cfg, tmp_path / "out", capsys)
        assert err.startswith(f"error: {instance}: {message}"), err

    def test_instance_is_built_after_every_other_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, runs=0,
                           problem={"kind": "nqp-file", "path": str(tmp_path / "missing.json")})
        err = self.assert_rejected("run", cfg, tmp_path / "out", capsys)
        assert "runs must be a positive integer" in err

    def test_run_bounds_and_report_share_the_trial_checks(self, tmp_path, one_dim_instance,
                                                          capsys):
        cfg = write_config(tmp_path, T=True, opt=0.5,
                           bounds=[{"theorem": "theorem3", "delta": 1.0}])
        for command in ("run", "bounds", "report"):
            assert "T must be" in self.assert_rejected(command, cfg, tmp_path / "out", capsys)


class TestTheoremPairing:
    """Each theorem is checked on the algorithm it bounds, and on no other."""

    @pytest.mark.parametrize("theorem,statistic", [
        ("theorem1", "average_iterate"), ("theorem2", "average_iterate"),
        ("theorem3", "final_iterate"), ("theorem4", "final_iterate"),
        ("theorem5", "final_iterate")])
    def test_each_theorem_checks_the_algorithm_it_bounds(self, tmp_path, one_dim_instance,
                                                         theorem, statistic):
        cfg = write_config(tmp_path, T=10, opt=0.5,
                           noise={"kind": "clipped_gaussian", "sigma": 0.1},
                           bounds=[{"theorem": theorem, "delta": 0.5}], **PAIRED[theorem])
        for command in ("run", "bounds", "report"):
            assert cli.main([command, "--config", str(cfg)]) == 0, command
        line = next(ln for ln in (tmp_path / "out" / "report.txt").read_text().splitlines()
                    if ln.startswith(f"violation {theorem}:"))
        assert f" statistic={statistic} " in line

    def test_bound_of_another_algorithm_rejected(self, tmp_path, capsys):
        """A ``pga`` battery listed with an SCG++ bound and an SCG bound is
        refused by every command, naming the first entry's algorithm."""
        cfg = write_config(tmp_path, algorithm="pga", T=30, runs=4,
                           problem={**_GENERATED, "n": 8, "m": 3, "seed": 4},
                           noise={"kind": "clipped_gaussian", "sigma": 0.1},
                           opt={"runs": 2, "iterations": 50},
                           bounds=[{"theorem": "theorem5", "delta": 1.0},
                                   {"theorem": "theorem4", "delta": 0.1, "alpha": 0.3}])
        out = tmp_path / "out"
        for command in ("run", "bounds", "report"):
            err = TestOneValidationBoundary.assert_rejected(command, cfg, out, capsys)
            assert err == "error: theorem5: bounds scgpp batteries, not pga\n"
        assert not out.exists()


def _child_env():
    """The environment of a child interpreter that imports this drsubmax: the
    child does not inherit the test runner's import path, so it is given the
    directory that holds the imported package."""
    import os

    import drsubmax

    package_root = os.path.dirname(os.path.dirname(drsubmax.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


class TestMain:
    def test_overrides_do_not_leak_between_calls(self, tmp_path, one_dim_instance,
                                                 monkeypatch):
        """The parser is built once per process, and each call sees only its
        own ``--set`` values."""
        cfg = write_config(tmp_path)
        seen = []
        original = cli.load_config

        def recorded(path, overrides):
            seen.append(list(overrides))
            return original(path, overrides)

        monkeypatch.setattr(cli, "load_config", recorded)
        for overrides in (["T=5"], [], ["T=6", "runs=1"], []):
            assert main_with("run", cfg, overrides) == 0
        assert seen == [["T=5"], [], ["T=6", "runs=1"], []]
        assert cli._build_parser() is cli._build_parser()

    def test_commands_are_looked_up_at_call_time(self, tmp_path, one_dim_instance,
                                                 monkeypatch):
        """A command replaced after the parser is cached is the one ``main``
        runs, so a wrapper installed on the module (as a tracer is) applies."""
        cfg = write_config(tmp_path)
        cli._build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_report", lambda c: calls.append(c.trial.T) or 0)
        assert cli.main(["report", "--config", str(cfg)]) == 0
        assert calls == [4]

    @pytest.mark.parametrize("argv,code", [(["bogus"], 2), (["run"], 2), (["--help"], 0)])
    def test_parser_exit_is_a_return_code(self, argv, code, capsys):
        """An argparse exit, for a usage error or ``--help``, is returned
        rather than raised."""
        assert cli.main(argv) == code


# an LP whose entering x1 has rate 8.6e-13 in the one row, so the LMO fails
# its optimality certificate on the first direction (its optimum is 197.609)
_LMO_FAILURE = "LMO failed its optimality certificate: residual 0.0519"


@pytest.fixture()
def lmo_failure_config(tmp_path):
    path = tmp_path / "nqp3.json"
    save_nqp(path, NqpObjective(-np.ones((3, 3)), Polytope(
        [[613482016.4467916, 0.0005292282227471731, 8.174756674219773e-05]], [0.001],
        [0.001, 100.0, 0.1])))
    return write_config(tmp_path, problem={"kind": "nqp-file", "path": str(path)}, T=5,
                        runs=1, opt={"runs": 1, "iterations": 5},
                        bounds=[{"theorem": "theorem3", "delta": 10}])


class TestOneErrorExit:
    """An oracle that fails its certificate, from any command, and an aborted
    battery exit 1 with one ``error:`` line and no traceback."""

    def test_bounds_lmo_failure(self, lmo_failure_config, capsys):
        assert cli.main(["bounds", "--config", str(lmo_failure_config)]) == 1
        assert capsys.readouterr().err == f"error: {_LMO_FAILURE}\n"

    def test_run_lmo_failure(self, tmp_path, lmo_failure_config, capsys):
        assert cli.main(["run", "--config", str(lmo_failure_config)]) == 1
        assert capsys.readouterr().err == f"error: battery aborted: {_LMO_FAILURE}\n"
        marker = tmp_path / "out" / "battery.csv.partial"
        assert marker.read_text() == f"battery aborted: {_LMO_FAILURE}\n"

    def test_report_lmo_failure(self, tmp_path, one_dim_instance, monkeypatch, capsys):
        cfg = write_config(tmp_path, normalized=True)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise LmoError(_LMO_FAILURE, 0.0519)

        monkeypatch.setattr(cli.analysis, "approx_opt", fail)
        assert cli.main(["report", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {_LMO_FAILURE}\n"
        assert not (tmp_path / "out" / "report.txt").exists()


class TestOverflowExit:
    """Inputs whose arithmetic overflows or underflows a float exit 2 with one
    ``error:`` line: no traceback and no numpy warning."""

    @pytest.mark.parametrize("overrides,message", [
        (["noise.sigma=1e200"], "theorem3: a constant of the bound overflows a float"),
        (['bounds=[{"theorem": "theorem3", "delta": 1e300}]'],
         "theorem3: delta must be finite and positive, and its square a positive float"),
        (['bounds=[{"theorem": "theorem3", "delta": 1e-300}]'],
         "theorem3: delta must be finite and positive, and its square a positive float"),
        (["problem.entry_low=-1e308"], "the linear term h = -H @ upper overflows"),
    ], ids=["sigma", "delta-overflow", "delta-underflow", "entries"])
    def test_run_exits_2(self, tmp_path, capsys, overrides, message):
        cfg = write_config(
            tmp_path, T=6, problem={"kind": "nqp-generate", "seed": 3, "n": 4, "m": 2,
                                    "entry_low": -1, "entry_high": 0},
            noise={"kind": "clipped_gaussian", "sigma": 0.1}, opt={"runs": 2, "iterations": 10},
            bounds=[{"theorem": "theorem3", "delta": 10}])
        assert main_with("run", cfg, overrides) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bounds_on_overflowing_constants_exits_2(self, tmp_path, capsys):
        """Entries near -1e160 overflow the smoothness constant and the
        gradient norm at the origin: one ``error:`` line and no numpy
        warning."""
        cfg = write_config(
            tmp_path, T=5, momentum_rule={"kind": "alpha", "value": 0.5}, opt=1.0,
            problem={"kind": "nqp-generate", "seed": 3, "n": 4, "m": 2,
                     "entry_low": -1e160, "entry_high": 0},
            bounds=[{"theorem": "theorem4", "delta": 0.01}])
        assert main_with("bounds", cfg) == 2
        assert capsys.readouterr().err == "error: lipschitz overflows a float: it must be finite\n"

    @pytest.mark.parametrize("problem,overrides,message", [
        (None, ["opt=5e-324"], "fit 'min': a value of its curve is not a finite float"),
        ({"kind": "nqp-generate", "seed": 3, "n": 4, "m": 2, "entry_low": -1e160,
          "entry_high": 0}, [], "fit 'min': its c1, c2 or residual is not a finite float"),
    ], ids=["tiny-opt", "huge-values"])
    def test_report_of_a_fit_floats_cannot_hold_exits_2(self, tmp_path, one_dim_instance,
                                                         problem, overrides, message, capsys):
        """Values over an opt near zero overflow to inf, and values near
        1e160 overflow the fit's residual: one ``error:`` line naming the
        curve, no numpy warning, and no statistics or report written."""
        cfg = write_config(tmp_path, T=5, opt=1.0, normalized=problem is None,
                           momentum_rule={"kind": "alpha", "value": 0.5},
                           **({"problem": problem} if problem else {}))
        assert main_with("run", cfg) == 0
        capsys.readouterr()
        assert main_with("report", cfg, overrides) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(os.listdir(tmp_path / "out")) == ["battery.csv", "run_config.json"]


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "inst.json"
        result = subprocess.run(
            [sys.executable, "-m", "drsubmax", "generate", "nqp", "--n", "3",
             "--m", "1", "--low", "-1", "--high", "0", "--seed", "1",
             "--out", str(out)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()
        assert "L = " in result.stdout


_NUMPY_ONLY = """
import contextlib, io, json, sys
from drsubmax import NoiseModel, RunConfig, cli, generate_nqp, run_trial
from drsubmax.optimizers import ALGORITHMS

obj = generate_nqp(1, 4, 2, -1.0, 0.0)
for algorithm in ALGORITHMS:
    run_trial(obj, NoiseModel("clipped_gaussian", sigma=0.1), RunConfig(algorithm, T=3))
cfg = {"problem": {"kind": "nqp-generate", "n": 4, "m": 2, "entry_low": -1.0,
                   "entry_high": 0.0, "seed": 1},
       "algorithm": "scg", "T": 5, "runs": 2, "workers": 1,
       "noise": {"kind": "clipped_gaussian", "sigma": 0.1},
       "opt": {"runs": 2, "iterations": 5},
       "momentum_rule": {"kind": "alpha", "value": 0.5},
       "bounds": [{"theorem": "theorem4", "delta": 0.1}], "output_dir": sys.argv[2]}
with open(sys.argv[1], "w") as fh:
    json.dump(cfg, fh)
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("run", "bounds", "report"):
        assert cli.main([command, "--config", sys.argv[1]]) == 0, command
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print("multiprocessing" in sys.modules)
"""


class TestNumpyOnly:
    def test_trials_and_commands_import_no_scipy(self, tmp_path):
        """One trial of each algorithm and one run, bounds and report, with
        the optimum estimated, leave no scipy module loaded: the package
        depends on numpy alone.  With one worker they do not load
        multiprocessing either: only a process pool needs it."""
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_ONLY, str(tmp_path / "cfg.json"),
             str(tmp_path / "out")],
            capture_output=True, text=True, env=_child_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "False"]
        assert (tmp_path / "out" / "report.txt").exists()


class TestEndToEndDeterminism:
    def test_pipeline_reproduces_identical_bytes(self, tmp_path, one_dim_instance):
        cfg = write_config(tmp_path, T=30, runs=5, opt=0.5, normalized=True,
                           noise={"kind": "clipped_gaussian", "sigma": 0.2},
                           bounds=[{"theorem": "theorem5", "delta": 2.0}], **PAIRED["theorem5"])
        names = ["battery.csv", "bound_theorem5.csv", "stats_min.csv",
                 "stats_median.csv", "stats_q90.csv", "report.txt"]
        for out in ("first", "second"):
            override = f"output_dir={json.dumps(str(tmp_path / out))}"
            for command in ("run", "bounds", "report"):
                assert cli.main([command, "--config", str(cfg), "--set", override]) == 0
        for name in names:
            assert (tmp_path / "first" / name).read_bytes() == \
                (tmp_path / "second" / name).read_bytes()
