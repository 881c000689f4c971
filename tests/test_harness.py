"""Configuration round-trip, initial data, time loop and output files."""

import configparser
import csv
import dataclasses
import json
import os

import numpy as np
import pytest

import cahnlarche as cl
from cahnlarche import grid, harness


class TestRunConfig:
    def test_roundtrip(self):
        cfg = harness.RunConfig(
            n=16, gamma=7.5, xi=0.3, scheme="implicit", strategy="alternating",
            anderson_depth=3, seed=11, tau=2e-5, chord=True,
        )
        text = cfg.to_text()
        back = harness.RunConfig.from_text(text)
        assert back == cfg

    def test_sections_present(self):
        cp = configparser.ConfigParser()
        cp.read_string(harness.RunConfig().to_text())
        assert set(cp.sections()) == {"model", "discretization", "solver", "output"}

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            harness.RunConfig(scheme="euler")

    @pytest.mark.parametrize(
        "field, value",
        [("n", 1), ("tau", 0.0), ("tolerance", -1e-6), ("anderson_depth", -1),
         ("max_iterations", 0), ("snapshot_every", -3), ("seed", -1),
         # integer fields take integers only, never rounded
         ("n", 8.5), ("n", 8.0), ("n", True), ("anderson_depth", 1.5),
         ("max_iterations", 2.5), ("seed", 0.5), ("snapshot_every", False),
         ("t_final", 0.0),
         # float fields take finite values only
         ("tolerance", np.inf), ("gamma", np.inf), ("tau", np.inf), ("ell", np.inf),
         ("t_final", np.nan), ("m", np.nan), ("xi", np.nan), ("theta", np.nan)],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(harness.ConfigError, match=f"^{field} must be"):
            harness.RunConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = harness.RunConfig(n=np.int64(8), anderson_depth=np.int32(2), seed=np.uint8(3))
        assert (cfg.n, cfg.anderson_depth, cfg.seed) == (8, 2, 3)
        assert type(cfg.n) is int and type(cfg.seed) is int

    @pytest.mark.parametrize(
        "field, value", [("m", 0.0), ("gamma", -5.0), ("ell", 0.0), ("theta", 1.0)]
    )
    def test_rejects_invalid_model_parameter(self, field, value):
        # checked by ModelParams' own rules, at construction of the config
        with pytest.raises(harness.ConfigError, match=f"^{field} must"):
            harness.RunConfig(**{field: value})

    def test_homogeneous_scheme_forces_constant_law(self):
        # homogeneity is the law's C_plus = C_minus, not a config field
        cfg = harness.RunConfig(scheme="homogeneous")
        assert "heterogeneous" not in {f.name for f in dataclasses.fields(cfg)}
        assert len(dataclasses.fields(cfg)) == 18
        law = cfg.build_params().elastic
        assert not law.heterogeneous
        assert np.array_equal(law.c_plus, law.c_minus)
        assert harness.RunConfig().build_params().elastic.heterogeneous

    def test_from_text_rejects_homogeneous_scheme_with_heterogeneous_law(self):
        text = "[model]\nheterogeneous = true\n[discretization]\nscheme = homogeneous\n"
        with pytest.raises(harness.ConfigError, match=r"^unknown key 'heterogeneous' in section \[model\]"):
            harness.RunConfig.from_text(text)
        # the key is unknown whatever its value; without it the scheme's
        # constant law holds
        with pytest.raises(harness.ConfigError, match="^unknown key 'heterogeneous'"):
            harness.RunConfig.from_text("[model]\nheterogeneous = false\n")
        cfg = harness.RunConfig.from_text("[discretization]\nscheme = homogeneous\n")
        assert cfg == harness.RunConfig(scheme="homogeneous")
        assert not cfg.build_params().elastic.heterogeneous

    @pytest.mark.parametrize("options", [dict(chord=True), dict(anderson_depth=2)])
    def test_rejects_options_monolithic_ignores(self, options):
        # chord and Anderson mixing belong to alternating minimization
        harness.RunConfig(strategy="alternating", **options)
        with pytest.raises(harness.ConfigError, match="^chord and anderson_depth apply"):
            harness.RunConfig(strategy="monolithic", **options)
        text = harness.RunConfig(**options).to_text()
        with pytest.raises(harness.ConfigError, match="strategy = monolithic"):
            harness.RunConfig.from_text(text, strategy="monolithic")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[discretization]\nn = 1.5\n", r"^\[discretization\] n: "),
            ("[solver]\nchord = maybe\n", r"^\[solver\] chord: "),
            ("[model]\ngamma = abc\n", r"^\[model\] gamma: "),
            ("[model]\ngama = 3\n", r"^unknown key 'gama' in section \[model\]"),
            ("[modle]\ngamma = 3\n", r"^unknown section \[modle\]"),
            ("[DEFAULT]\nn = 3\n", r"^unknown section \[DEFAULT\]"),
            ("n = 3\n", r"^unreadable configuration"),
        ],
    )
    def test_from_text_rejects(self, text, message):
        with pytest.raises(harness.ConfigError, match=message):
            harness.RunConfig.from_text(text)

    def test_from_text_reads_a_partial_config(self):
        cfg = harness.RunConfig.from_text("[solver]\nchord = yes\n")
        assert cfg == harness.RunConfig(chord=True)

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(harness.RunConfig(n=12).to_text())
        assert harness.RunConfig.from_file(str(path)).n == 12


class TestInitialData:
    def test_midsplit_profile(self):
        mesh = grid.build_mesh(16)
        phi = harness.init_midsplit(mesh, ell=0.02)
        # antisymmetric about y = 0.5, close to +-1 away from the interface
        assert phi[np.isclose(mesh.nodes[:, 1], 0.0)].mean() == pytest.approx(1.0)
        assert phi[np.isclose(mesh.nodes[:, 1], 1.0)].mean() == pytest.approx(-1.0)
        mid = np.isclose(mesh.nodes[:, 1], 0.5)
        assert np.abs(phi[mid]).max() < 1e-12

    def test_random_seeded(self):
        mesh = grid.build_mesh(8)
        a = harness.init_random(mesh, seed=4)
        b = harness.init_random(mesh, seed=4)
        c = harness.init_random(mesh, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.abs(a).max() <= 0.05


class TestRunSimulation:
    def test_short_run_records_steps(self):
        cfg = harness.RunConfig(n=8, t_final=3e-5, scheme="semi_implicit")
        s = harness.run_simulation(cfg)
        assert s.completed
        assert len(s.steps) == 4  # initial record + 3 steps
        assert s.steps[0].step == 0
        assert s.steps[-1].time == pytest.approx(3e-5)

    def test_energy_decay_recorded(self):
        cfg = harness.RunConfig(n=8, t_final=5e-5, scheme="semi_implicit")
        s = harness.run_simulation(cfg)
        e = s.energies
        assert np.all(np.diff(e) <= 1e-10 * max(1.0, abs(e[0])))

    def test_mass_conservation_recorded(self):
        cfg = harness.RunConfig(n=8, t_final=5e-5)
        s = harness.run_simulation(cfg)
        masses = [r.mass for r in s.steps]
        assert np.abs(np.diff(masses)).max() <= 1e-9

    def test_failure_halts_and_reports(self):
        # implicit monolithic at strong coupling diverges quickly
        cfg = harness.RunConfig(
            n=8, t_final=5e-5, scheme="implicit", strategy="monolithic",
            gamma=5.0, xi=2.0, max_iterations=20,
        )
        s = harness.run_simulation(cfg)
        if not s.completed:
            assert s.failed_at_step >= 1
            assert s.failure_reason
            assert len(s.steps) == s.failed_at_step  # completed steps kept

    def test_determinism(self):
        cfg = harness.RunConfig(n=8, t_final=3e-5, init="random", seed=9)
        a = harness.run_simulation(cfg)
        b = harness.run_simulation(cfg)
        assert np.array_equal(a.final_state.phi, b.final_state.phi)
        assert [r.iterations for r in a.steps] == [r.iterations for r in b.steps]

    @pytest.mark.parametrize(
        "fields",
        [dict(scheme="implicit", strategy="monolithic"),
         dict(scheme="semi_implicit", anderson_depth=2)],
    )
    def test_runs_bitwise_equal(self, fields):
        # each run holds its own lagged LU, so a second run repeats the first
        cfg = harness.RunConfig(n=8, t_final=4e-5, init="random", seed=5, **fields)
        a = harness.run_simulation(cfg)
        b = harness.run_simulation(cfg)
        assert a.completed
        assert np.array_equal(a.energies, b.energies)
        assert a.steps == b.steps

    def test_inner_loops_recorded_per_step(self):
        am = harness.run_simulation(harness.RunConfig(n=8, t_final=2e-5))
        newton = harness.run_simulation(
            harness.RunConfig(n=8, t_final=2e-5, strategy="monolithic")
        )
        assert all(s.inner_loops >= s.loops > 0 for s in am.steps[1:])
        assert all(s.inner_loops == 0 for s in newton.steps)

    def test_estimate_bound_attaches_constants(self):
        cfg = harness.RunConfig(n=8, t_final=2e-5)
        s = harness.run_simulation(cfg, estimate_bound=True)
        assert s.constants is not None
        assert 0 < s.bound.contraction < 1


class TestOutputs:
    def make_summary(self, tmp_path):
        cfg = harness.RunConfig(n=8, t_final=3e-5, out_dir=str(tmp_path))
        return harness.run_simulation(cfg, estimate_bound=True), cfg

    def test_csv_and_json_files(self, tmp_path):
        summary, cfg = self.make_summary(tmp_path)
        harness.write_outputs(summary, cfg.out_dir)
        with open(os.path.join(cfg.out_dir, "energy.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(summary.steps)
        assert float(rows[0]["total"]) == pytest.approx(
            summary.steps[0].energy_total
        )
        with open(os.path.join(cfg.out_dir, "iterations.csv")) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == [
            "step", "time", "iterations", "loops", "inner_loops", "residual"
        ]
        assert len(rows) == len(summary.steps) - 1
        # AM's phase-field block takes at least one pass per outer pass
        inner = [int(row["inner_loops"]) for row in rows]
        assert all(i >= int(row["loops"]) for i, row in zip(inner, rows))
        with open(os.path.join(cfg.out_dir, "run.json")) as fh:
            meta = json.load(fh)
        assert meta["completed"]
        assert meta["inner_loops"] == sum(inner)
        assert "constants" in meta and "rate_bound" in meta
        assert meta["config"]["n"] == 8

    def test_vtk_snapshot(self, tmp_path):
        summary, cfg = self.make_summary(tmp_path)
        mesh = grid.build_mesh(cfg.n)
        harness.write_outputs(
            summary, cfg.out_dir, mesh=mesh,
            snapshots=[("final", summary.final_state)],
        )
        path = os.path.join(cfg.out_dir, "snapshot_final.vtk")
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET STRUCTURED_GRID" in lines
        assert f"POINTS {mesh.node_count} double" in lines
        assert any(l.startswith("SCALARS phi") for l in lines)
        assert any(l.startswith("VECTORS displacement") for l in lines)


class TestSweeps:
    def test_gamma_sweep_rows(self, tmp_path):
        base = harness.RunConfig(n=8, t_final=2e-5)
        rows = harness.run_sweep(base, "gamma", values=(1.0, 10.0))
        assert [r["gamma"] for r in rows] == [1.0, 10.0]
        assert all(r["completed"] for r in rows)
        path = str(tmp_path / "sweep_summary.csv")
        harness.write_sweep_csv(rows, path)
        with open(path) as fh:
            out = list(csv.DictReader(fh))
        assert len(out) == 2

    def test_anderson_sweep(self):
        base = harness.RunConfig(n=8, t_final=2e-5)
        rows = harness.run_sweep(base, "anderson", values=(0, 2))
        assert [r["anderson_depth"] for r in rows] == [0, 2]

    def test_anderson_sweep_rejects_fractional_depth(self):
        base = harness.RunConfig(n=8, t_final=2e-5)
        with pytest.raises(harness.ConfigError, match="^anderson_depth must be an integer"):
            harness.run_sweep(base, "anderson", values=(1.5,))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            harness.run_sweep(harness.RunConfig(), "tau")


class TestCli:
    def test_constants_command(self, capsys):
        from cahnlarche import cli

        rc = cli.main(["constants", "--n", "8"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "rate_bound" in out

    def test_run_command(self, tmp_path, capsys):
        from cahnlarche import cli

        config = harness.RunConfig(n=8, t_final=2e-5)
        cfg = tmp_path / "c.ini"
        cfg.write_text(config.to_text())
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "energy.csv").exists()
        assert (tmp_path / "o" / "snapshot_final.vtk").exists()
        # written on the run's own mesh, the initial snapshot is that of a fresh one
        mesh = grid.build_mesh(8)
        want = tmp_path / "want.vtk"
        harness.write_vtk(want, mesh, harness.initial_state(mesh, config), "initial")
        assert (tmp_path / "o" / "snapshot_initial.vtk").read_text() == want.read_text()

    def test_run_snapshots_keep_their_step(self, tmp_path, monkeypatch, capsys):
        # The snapshot cmd_run takes at a step holds that step's state after
        # every later step has run.
        from cahnlarche import cli

        simulate, at_step, written = harness.run_simulation, {}, {}

        def recording(config, callback=None, **kwargs):
            def record(step, state, report):
                at_step[f"{step:06d}"] = state.x.copy()
                callback(step, state, report)

            return simulate(config, callback=record, **kwargs)

        def capture(summary, out_dir, mesh=None, snapshots=()):
            written.update(snapshots)

        monkeypatch.setattr(harness, "run_simulation", recording)
        monkeypatch.setattr(harness, "write_outputs", capture)
        cfg = tmp_path / "c.ini"
        cfg.write_text(harness.RunConfig(n=8, t_final=4e-5, snapshot_every=1).to_text())
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(at_step) == 4
        assert set(written) == set(at_step) | {"initial", "final"}
        for name, x in at_step.items():
            assert np.array_equal(written[name].x, x)

    @pytest.mark.parametrize("config_dir, flag_dir, want", [
        ("mine", None, "mine"), ("mine", "flag", "flag"), (None, None, "out"),
    ])
    def test_output_directory(self, tmp_path, monkeypatch, capsys, config_dir, flag_dir, want):
        # --out overrides the config file's out_dir, which overrides the
        # RunConfig default.
        from cahnlarche import cli

        monkeypatch.chdir(tmp_path)
        argv = ["run", "--n", "4", "--t-final", "1e-5"]
        if config_dir is not None:
            cfg = tmp_path / "c.ini"
            cfg.write_text(harness.RunConfig(out_dir=config_dir).to_text())
            argv += ["--config", str(cfg)]
        if flag_dir is not None:
            argv += ["--out", flag_dir]
        assert cli.main(argv) == 0
        assert f"outputs written to {want}\n" in capsys.readouterr().out
        written = {p.name for p in tmp_path.iterdir() if p.is_dir()}
        assert written == {want}
        assert (tmp_path / want / "run.json").exists()

    def test_failed_run_writes_strict_json(self, tmp_path):
        # A run that fails at step 1 has no average iteration count; run.json
        # says so with null, since JSON has no NaN.
        from cahnlarche import cli

        cfg = tmp_path / "c.ini"
        cfg.write_text(harness.RunConfig(n=8, t_final=2e-5, max_iterations=1).to_text())
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "o" / "run.json").read_text()
        meta = json.loads(text, parse_constant=reject)
        assert meta["failed_at_step"] == 1
        assert meta["average_iterations"] is None

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--n", "1", "n"), ("--depth", "-2", "anderson_depth"), ("--gamma", "0", "gamma")],
    )
    def test_invalid_field_is_a_usage_error(self, capsys, flag, value, field):
        from cahnlarche import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", flag, value])
        assert exc.value.code == 2
        assert f"{field} must be" in capsys.readouterr().err

    def test_non_finite_flag_is_a_usage_error(self, capsys):
        from cahnlarche import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--gamma", "inf"])
        assert exc.value.code == 2
        assert "gamma must be finite, got inf" in capsys.readouterr().err

    def test_option_the_strategy_ignores_is_a_usage_error(self, tmp_path, capsys):
        from cahnlarche import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--strategy", "monolithic", "--depth", "2",
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "with strategy = monolithic" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, line, flags",
        [
            ("discretization", "n = 1.5", []),
            ("solver", "chord = maybe", []),
            ("model", "gama = 3", []),
            # homogeneity is the homogeneous scheme's C_plus = C_minus, not a key
            ("model", "heterogeneous = true", ["--scheme", "homogeneous"]),
        ],
        ids=[
            "discretization-n = 1.5", "solver-chord = maybe", "model-gama = 3",
            "model-heterogeneous = true --scheme homogeneous",
        ],
    )
    def test_bad_config_file_is_a_usage_error(self, tmp_path, capsys, section, line, flags):
        from cahnlarche import cli

        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
        assert exc.value.code == 2
        assert f"[{section}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_is_a_usage_error(self, tmp_path, capsys):
        from cahnlarche import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(tmp_path / "none.ini")])
        assert exc.value.code == 2
        assert "cannot read configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, value, message",
        [("gamma", "abc", "invalid float value"),
         ("anderson", "1.5", "Anderson depths must be integers")],
    )
    def test_bad_sweep_value_is_a_usage_error(self, tmp_path, capsys, preset, value, message):
        from cahnlarche import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", preset, "--values", value, "--n", "8",
                      "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_command(self, tmp_path):
        from cahnlarche import cli

        cfg = tmp_path / "c.ini"
        cfg.write_text(harness.RunConfig(n=8, t_final=2e-5).to_text())
        rc = cli.main(
            ["sweep", "gamma", "--values", "1", "5",
             "--config", str(cfg), "--out", str(tmp_path / "s")]
        )
        assert rc == 0
        assert (tmp_path / "s" / "sweep_summary.csv").exists()
