import inspect
import json
import math

import numpy as np
import pytest

from drsubmax import cli
from drsubmax.analysis import TrialBattery, shared_c1_refit
from drsubmax.geometry import Polytope
from drsubmax.objectives import NqpObjective, save_nqp


@pytest.fixture()
def one_dim_instance(tmp_path):
    path = tmp_path / "one_dim.txt"
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
        "problem": {"kind": "nqp-file", "path": str(tmp_path / "one_dim.txt")},
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


class TestGenerate:
    def test_writes_instance_and_prints_constants(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
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
                         "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "entry_high" in capsys.readouterr().err

    def test_byte_identical_regeneration(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
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
                                              "path": str(tmp_path / "absent.txt")})
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "absent.txt" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, one_dim_instance, capsys):
        cfg = write_config(tmp_path, typo_key=1)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_set_override(self, tmp_path, one_dim_instance):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--set", "T=2"]) == 0
        lines = (tmp_path / "out" / "battery.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("root", [[1, 2], 3, "text"])
    def test_non_object_root_with_override_exits_validation(self, tmp_path, root, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(root))
        assert cli.main(["run", "--config", str(path), "--set", "T=2"]) == 2
        assert "root must be an object" in capsys.readouterr().err

    def test_aborted_battery_leaves_partial_marker(self, tmp_path, one_dim_instance,
                                                   monkeypatch, capsys):
        import drsubmax.optimizers as opt_module

        real = opt_module.run_trial

        def explode(objective, noise, cfg):
            if cfg.run_id == 1:
                raise RuntimeError("synthetic trial failure")
            return real(objective, noise, cfg)

        monkeypatch.setattr(opt_module, "run_trial", explode)
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 1
        marker = tmp_path / "out" / "battery.csv.partial"
        assert marker.exists()
        assert "synthetic trial failure" in marker.read_text()

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

    def test_budget_synthetic_problem(self, tmp_path):
        cfg = write_config(
            tmp_path, algorithm="scg", T=10, runs=2,
            problem={"kind": "budget-synthetic", "channels": 3, "customers": 4,
                     "density": 0.7, "p_low": 0.2, "p_high": 0.7, "seed": 5, "k": 2},
            noise={"kind": "gaussian_fixed", "sigma": 0.1},
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "battery.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 10
        assert float(lines[-1].split(",")[3]) > 0.0

    def test_budget_file_problem(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("k1\tc1\t3\nk2\tc1\t1\nk2\tc2\t2\n")
        cfg = write_config(
            tmp_path, algorithm="scg", T=5, runs=1,
            problem={"kind": "budget-file", "path": str(edges),
                     "mapping": "linear", "k": 2, "upper": 1.5},
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "battery.csv").exists()

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
        {"theorem": "theorem5", "delta": 1.0, "main_text_exponent": "yes"},
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
        """A config without ``t_min`` or ``fit_exponent`` fits with the
        defaults of ``analysis.shared_c1_refit``."""
        cfg = write_config(tmp_path)
        for command in ("run", "report"):
            assert cli.main([command, "--config", str(cfg)]) == 0
        params = inspect.signature(shared_c1_refit).parameters
        assert f"fit: p={params['p'].default} t_min={params['t_min'].default}" in \
            (tmp_path / "out" / "report.txt").read_text().splitlines()

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
        assert "one_dim.txt" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize("override,expected", [
        ('bounds=[{"theorem":"theorem4","delta":0.5}]', "-0.1707063793042467"),
        ("noise.sigma=2", None),
    ])
    def test_bound_follows_the_config_not_a_stale_file(self, tmp_path, override, expected):
        """After ``bounds`` wrote the delta 0.01, sigma 0.5 curve, a report
        under another delta or sigma evaluates that config's bound, the one
        ``bounds`` writes under the same override."""
        cfg = write_config(tmp_path, T=30, runs=4, opt=3.75,
                           problem={**_GENERATED, "m": 2},
                           noise={"kind": "clipped_gaussian", "sigma": 0.5},
                           bounds=[{"theorem": "theorem4", "delta": 0.01}], **PAIRED["theorem4"])
        for command in ("run", "bounds"):
            assert cli.main([command, "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        stale = (out / "bound_theorem4.csv").read_text().splitlines()[-1].split(",")[1]
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
    ("scgpp-step_rule", {"algorithm": "scgpp", "step_rule": {"kind": "constant", "value": 0.05}},
     "scgpp does not read step_rule"),
    ("poly48-value", {"momentum_rule": {"kind": "poly48", "value": 0.7}},
     "momentum rule 'poly48' takes no value"),
    ("scg-hessian_sigma", {"noise": {**_GAUSSIAN, "hessian_sigma": 5.0}},
     "scg queries no Hessian, so it does not read noise.hessian_sigma"),
]

# (command, id, the one change to the valid scg config of write_config; for
# ``bounds``, the config with a valid bounds entry and a known optimum)
_INVALID = [
    ("run", "T-true", {"T": True}),
    ("run", "runs-true", {"runs": True}),
    ("run", "workers-true", {"workers": True}),
    ("run", "t_min-true", {"t_min": True}),
    ("run", "master_seed-negative", {"master_seed": -1}),
    ("run", "scgpp-batch_size-fraction", {"algorithm": "scgpp", "batch_size": 2.5}),
    ("run", "sigma-text", {"noise": {**_GAUSSIAN, "sigma": "a"}}),
    ("run", "sigma-nan", {"noise": {**_GAUSSIAN, "sigma": float("nan")}}),
    ("run", "hessian_sigma-text", {"noise": {**_GAUSSIAN, "hessian_sigma": "a"}}),
    ("run", "output_dir-number", {"output_dir": 5}),
    ("report", "T-true", {"T": True}),
    ("report", "fit_exponent-text", {"fit_exponent": "a"}),
    ("report", "normalized-text", {"normalized": "yes"}),
] + [
    (command, name, change)
    for command in ("run", "bounds", "report")
    for name, change in (
        ("generate-n-text", {"problem": {**_GENERATED, "n": "a"}}),
        ("generate-n-fraction", {"problem": {**_GENERATED, "n": 2.5}}),
        ("generate-n-negative", {"problem": {**_GENERATED, "n": -1}}),
        ("generate-seed-text", {"problem": {**_GENERATED, "seed": "x"}}),
        ("budget-k-fraction", {"problem": {**_BUDGET, "k": 2.5}}),
        ("budget-channels-text", {"problem": {**_BUDGET, "channels": "a"}}),
        ("budget-density-text", {"problem": {**_BUDGET, "density": "x"}}),
        ("budget-upper-nan", {"problem": {**_BUDGET, "upper": float("nan")}}),
        ("budget-upper-true", {"problem": {**_BUDGET, "upper": True}}),
        ("budget-alphas-object", {"problem": {**_BUDGET, "alphas": {}}}),
        ("file-path-number", {"problem": {"kind": "nqp-file", "path": 1}}),
        ("output_dir-empty", {"output_dir": ""}),
        ("t_min-equals-T", {"t_min": 4}),
        ("theorem4-alpha-near-one",
         {"momentum_rule": {**_ALPHA, "value": 0.995},
          "bounds": [{"theorem": "theorem4", "delta": 0.01, "alpha": 0.995}]}),
        ("theorem4-delta-negative",
         {**PAIRED["theorem4"], "bounds": [{"theorem": "theorem4", "delta": -1}]}),
        ("theorem1-unbounded-noise",
         {**PAIRED["theorem1"], "noise": _GAUSSIAN,
          "bounds": [{"theorem": "theorem1", "delta": 0.1}]}),
        ("theorem3-p-above-one", {"bounds": [{"theorem": "theorem3", "p": 1.5}]}),
        ("theorem4-twice", {**PAIRED["theorem4"],
                            "bounds": [{"theorem": "theorem4", "delta": 0.01, "alpha": 0.5},
                                       {"theorem": "theorem4", "delta": 0.05}]}),
        ("bounds-object", {"bounds": {"theorem": "theorem4", "delta": 0.01}}),
        ("bounds-entry-list", {"bounds": [["theorem4", 0.01]]}),
        ("theorem9", {"bounds": [{"theorem": "theorem9", "delta": 0.01}]}),
        ("theorem4-deltta",
         {**PAIRED["theorem4"], "bounds": [{"theorem": "theorem4", "deltta": 0.01}]}),
        ("theorem1-alpha", {**PAIRED["theorem1"],
                            "bounds": [{"theorem": "theorem1", "delta": 0.01, "alpha": 0.9}]}),
        ("theorem4-main_text_exponent",
         {**PAIRED["theorem4"],
          "bounds": [{"theorem": "theorem4", "delta": 0.01, "main_text_exponent": True}]}),
        ("theorem4-poly48", {"bounds": [{"theorem": "theorem4", "delta": 0.01}]}),
        ("theorem4-alpha-differs",
         {**PAIRED["theorem4"], "bounds": [{"theorem": "theorem4", "delta": 0.01, "alpha": 0.3}]}),
        ("theorem2-gamma-differs",
         {**PAIRED["theorem2"], "gamma": 0.5,
          "bounds": [{"theorem": "theorem2", "delta": 0.01, "gamma": 1.0}]}),
        ("none-noise-sigma", {"noise": {"kind": "none", "sigma": 1000.0}}),
        ("gaussian_prop-sigma",
         {"noise": {"kind": "gaussian_prop", "scale": 0.1, "sigma": 1000.0}}),
        ("clipped_gaussian-scale", {"noise": {"kind": "clipped_gaussian", "sigma": 0.1,
                                              "scale": 50.0}}),
    )
] + [
    (command, name, change)
    for command in ("run", "bounds", "report")
    for name, change, _ in _UNREAD
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

    @pytest.mark.parametrize("command,change",
                             [pytest.param(c, ch, id=f"{c}-{i}") for c, i, ch in _INVALID])
    def test_invalid_value_exits_validation(self, tmp_path, one_dim_instance, command,
                                            change, capsys):
        out = tmp_path / "out"
        if command == "report":  # a battery to report on, from the valid config
            assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 0
            capsys.readouterr()
        if command == "bounds":
            change = {"opt": 0.5, "bounds": [{"theorem": "theorem3", "delta": 1.0}], **change}
        cfg = write_config(tmp_path, name="invalid.json", **change)
        self.assert_rejected(command, cfg, out, capsys)
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
        cfg = write_config(tmp_path, opt={"runs": 2, "iterations": 5},
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

    def test_instance_is_built_after_every_other_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, runs=0,
                           problem={"kind": "nqp-file", "path": str(tmp_path / "missing.txt")})
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


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "inst.txt"
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
"""


class TestNumpyOnly:
    def test_trials_and_commands_import_no_scipy(self, tmp_path):
        """One trial of each algorithm and one run, bounds and report, with
        the optimum estimated, leave no scipy module loaded: the package
        depends on numpy alone."""
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_ONLY, str(tmp_path / "cfg.json"),
             str(tmp_path / "out")],
            capture_output=True, text=True, env=_child_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
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
