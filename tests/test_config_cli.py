"""Configuration parsing, initial conditions, experiment drivers, CLI."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vplandau.config import _KEYS, load_config, parse_config
from vplandau.errors import ConfigError, InitialConditionError
from vplandau.grid import PhaseGrid, SpatialGrid, VelocityGrid, integrate_v
from vplandau.initial import (
    initial_condition_and_halvings,
    make_initial_condition,
)
from vplandau.state import ConservedQuantities, SystemState, maxwellian

MINIMAL = """
[model]
model = landau
gamma = -3.0
k = 10.0

[grid]
n_v = 16
"""


class TestParseConfig:
    def test_minimal_valid_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model == "landau" and cfg.gamma == -3.0 and cfg.k == 10.0
        echo = cfg.echo()
        assert echo["n_x"] == 16 and echo["dt"] == 0.01  # defaults filled
        assert cfg.phase_grid().velocity.n_v == 16

    def test_fields_are_the_defaults_keys(self):
        # _KEYS is the one list of keys, in order; workers comes from the
        # VPLANDAU_THREADS environment variable
        keys = [key for section in _KEYS.values() for key in section]
        assert list(vars(parse_config(MINIMAL))) == keys + ["workers"]

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("-3.0", "2.0"))
        assert any("gamma range" in v for v in err.value.violations)

    def test_boltzmann_double_violation(self):
        text = """
[model]
model = boltzmann
gamma = -2.0
s = 0.4
k = 17.0
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msgs = err.value.violations
        assert any("s range" in v for v in msgs)
        assert any("gamma+2s" in v for v in msgs)

    def test_k_below_k0_cited(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("k = 10.0", "k = 9.0"))
        assert any("k below k0=10" in v for v in err.value.violations)
        text = """
[model]
model = boltzmann
gamma = 0.0
s = 0.75
k = 16.0
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("k below k0=17" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        text = """
[model]
model = landau
gamma = 5.0
k = 1.0

[grid]
n_v = 12

[time]
dt = -1.0
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.violations) >= 4

    def test_overrides(self):
        cfg = parse_config(MINIMAL, overrides={"time.dt": "0.5",
                                               "flags.mode": "operator_test"})
        assert cfg.dt == 0.5 and cfg.mode == "operator_test"

    def test_unknown_sections_and_keys_are_violations(self):
        text = MINIMAL + """
[time]
dtt = 0.5

[flags]
fit_mode = auto

[bogus]
x = 1
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text, overrides={"grid.nv": "8", "bogus.y": "2"})
        msgs = err.value.violations
        for name in ("time.dtt", "flags.fit_mode", "[bogus]", "grid.nv",
                     "bogus.y"):
            assert any(v.startswith(name + ":") for v in msgs), name
        assert len(msgs) == 5

    def test_percent_is_literal(self):
        cfg = parse_config(MINIMAL + "[output]\ndirectory = out%1\n")
        assert cfg.directory == "out%1"
        cfg = parse_config(MINIMAL, overrides={"output.directory": "a%b"})
        assert cfg.directory == "a%b"

    @pytest.mark.parametrize("text, violation", [
        (MINIMAL + "[grid]\nn_x = 8\n",
         "line 9: section [grid] appears twice"),
        (MINIMAL + "n_v = 8\n", "line 9: key grid.n_v appears twice"),
        ("n_v = 8\n" + MINIMAL, "line 1: text before the first section header"),
        (MINIMAL + "n_x\n", "line 9: neither a section header nor key = value"),
    ])
    def test_unreadable_text_is_a_violation(self, text, violation):
        # configparser's own errors name the offending line
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == [violation]

    @pytest.mark.parametrize("dotted", [
        "model.model", "time.scheme", "initial.family", "initial.profile",
        "initial.species", "flags.mode"])
    def test_unknown_choice_is_a_violation(self, dotted):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides={dotted: "bogus"})
        assert [v for v in err.value.violations
                if v.startswith(dotted + ":")], err.value.violations

    def test_bad_counts_are_violations(self):
        # no Picard iteration at all; a negative checkpoint period, which
        # step % period would take as its absolute value
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides={"time.picard_max_iters": "0",
                                             "output.checkpoint_every": "-2",
                                             "time.dt": "0"})
        msgs = err.value.violations
        for name in ("time.picard_max_iters", "output.checkpoint_every",
                     "time.dt"):
            assert any(v.startswith(name + ":") for v in msgs), name
        assert len(msgs) == 3

    def test_non_finite_and_out_of_range_values_are_violations(self):
        bad = {"time.dt": "inf", "time.t_final": "nan", "grid.cutoff": "nan",
               "time.picard_tol": "inf", "output.record_every": "0",
               "flags.transient_fraction": "1", "initial.amplitude": "nan",
               "initial.tail_power": "-inf"}
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides={**bad, "model.k": "nan"})
        msgs = err.value.violations
        for name in bad:
            assert any(v.startswith(name + ":") for v in msgs), name
        assert any(v.startswith("k range:") for v in msgs)
        assert len(msgs) == len(bad) + 1

    @pytest.mark.parametrize("dotted, value", [
        ("time.dt", "nan"), ("time.t_final", "-1"), ("time.t_final", "0"),
        ("time.t_final", "inf"), ("output.record_every", "-3"),
        ("flags.transient_fraction", "-0.1"),
        ("flags.transient_fraction", "nan"), ("initial.amplitude", "inf"),
        ("initial.seed", "-1")])
    def test_bad_value_is_a_violation(self, dotted, value):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides={dotted: value})
        assert [v for v in err.value.violations
                if v.startswith(dotted + ":")], err.value.violations

    @pytest.mark.parametrize("k", ["inf", "-inf"])
    def test_non_finite_k_is_a_violation(self, k):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides={"model.k": k})
        assert any(v.startswith("k range:") for v in err.value.violations)

    def test_values_at_their_bounds_parse(self):
        cfg = parse_config(MINIMAL, overrides={
            "flags.transient_fraction": "0", "initial.amplitude": "-1e-3",
            "output.record_every": "1", "time.t_final": "1e-3"})
        assert (cfg.transient_fraction, cfg.amplitude, cfg.record_every,
                cfg.t_final) == (0.0, -1e-3, 1, 1e-3)

    def test_linearized_checkpoints_are_a_violation(self):
        # the linearized mode writes no checkpoints, so a period is refused
        # there and kept for the nonlinear mode
        lin = {"flags.mode": "linearized", "output.checkpoint_every": "2"}
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides=lin)
        assert [v for v in err.value.violations
                if v.startswith("output.checkpoint_every:")] == [
            "output.checkpoint_every: the linearized mode writes no "
            "checkpoints; 0 required, got 2"]
        assert parse_config(MINIMAL, overrides={
            **lin, "flags.mode": "nonlinear"}).checkpoint_every == 2
        assert parse_config(MINIMAL, overrides={
            **lin, "output.checkpoint_every": "0"}).mode == "linearized"

    def test_counts_at_their_bounds_parse(self):
        cfg = parse_config(MINIMAL, overrides={"time.picard_max_iters": "1",
                                               "output.checkpoint_every": "0",
                                               "initial.seed": "0"})
        assert (cfg.picard_max_iters, cfg.checkpoint_every, cfg.seed) == (
            1, 0, 0)

    def test_readme_config_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(block)
        assert (cfg.model, cfg.dt, cfg.record_every) == ("landau", 0.005, 1)

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_thread_count_is_a_violation(self, monkeypatch, value):
        monkeypatch.setenv("VPLANDAU_THREADS", value)
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL)
        assert any("VPLANDAU_THREADS" in v and repr(value) in v
                   for v in err.value.violations)

    def test_thread_count_from_environment(self, monkeypatch):
        monkeypatch.setenv("VPLANDAU_THREADS", " 2 ")
        assert parse_config(MINIMAL).workers == 2
        monkeypatch.delenv("VPLANDAU_THREADS")
        assert parse_config(MINIMAL).workers is None


class TestInitialConditions:
    def test_zero_amplitude(self, small_grid):
        st = make_initial_condition(small_grid, amplitude=0.0)
        assert np.max(np.abs(st.f_plus)) == 0.0
        assert np.max(np.abs(st.phi)) == 0.0

    def test_single_mode_opposite_species(self, small_grid):
        st = make_initial_condition(small_grid, family="single_mode",
                                    amplitude=1e-3, modes=(1,),
                                    species="opposite", seed=0)
        q = ConservedQuantities.of(st)
        assert abs(q.mass_plus) <= 1e-12
        assert abs(q.mass_minus) <= 1e-12
        assert np.max(np.abs(q.momentum)) <= 1e-12
        assert abs(q.energy) <= 1e-12
        # opposite signs charge the plasma: nonzero initial potential
        assert np.max(np.abs(st.phi)) > 1e-6

    def test_random_bandlimited_deterministic(self, small_grid):
        a = make_initial_condition(small_grid, family="random_bandlimited",
                                   amplitude=1e-3, modes=(3,), seed=42)
        b = make_initial_condition(small_grid, family="random_bandlimited",
                                   amplitude=1e-3, modes=(3,), seed=42)
        assert np.array_equal(a.f_plus, b.f_plus)
        c = make_initial_condition(small_grid, family="random_bandlimited",
                                   amplitude=1e-3, modes=(3,), seed=43)
        assert not np.array_equal(a.f_plus, c.f_plus)

    def test_positivity_rescue_halves_amplitude(self, small_grid):
        with pytest.warns(RuntimeWarning):
            st = make_initial_condition(small_grid, amplitude=5.0, seed=1)
        mu = maxwellian(small_grid.velocity)
        assert float(np.min(mu + st.f_plus)) > 0.0

    def test_positivity_rescue_is_counted(self, small_grid):
        with pytest.warns(RuntimeWarning):
            st, halvings = initial_condition_and_halvings(
                small_grid, amplitude=5.0, seed=1)
        assert halvings > 0
        with pytest.warns(RuntimeWarning):
            same = make_initial_condition(small_grid, amplitude=5.0, seed=1)
        assert np.array_equal(st.f_plus, same.f_plus)
        # the effective amplitude rebuilds the state without a halving
        again, no_halvings = initial_condition_and_halvings(
            small_grid, amplitude=5.0 / 2**halvings, seed=1)
        assert no_halvings == 0
        assert np.array_equal(again.f_plus, st.f_plus)

    def test_positivity_rescue_gives_up(self, small_grid):
        with pytest.raises(InitialConditionError), pytest.warns(RuntimeWarning):
            make_initial_condition(small_grid, amplitude=1e9, seed=1)

    def test_unknown_species_layout_refused(self, small_grid):
        with pytest.raises(InitialConditionError, match="oposite"):
            make_initial_condition(small_grid, amplitude=1e-3,
                                   species="oposite")

    def test_two_mode_family(self, small_grid):
        st = make_initial_condition(small_grid, family="two_mode",
                                    amplitude=1e-3, modes=(1, 2), seed=0)
        q = ConservedQuantities.of(st)
        assert abs(q.energy) <= 1e-12


class TestExperimentDrivers:
    def test_operator_test_mode(self, tmp_path):
        text = MINIMAL + f"""
[flags]
mode = operator_test

[output]
directory = {tmp_path}
"""
        from vplandau.experiments import run_experiment

        cfg = parse_config(text)
        summary, passed = run_experiment(cfg)
        assert passed
        assert summary["fft_oracle_max_rel_error"] <= 1e-8
        assert summary["weight_suite"]["failed"] == 0
        assert summary["corrupted_r_floor_failures"] > 0
        assert (tmp_path / "summary.json").exists()
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["schema_version"] == 1

    def test_operator_test_lists_the_ignored_keys(self, tmp_path):
        # a config written for run parses; the evolution-only keys it sets
        # away from their defaults are listed, the keys the mode reads
        # (grid.n_v, initial.seed) and the defaults (time.t_final) are not
        from vplandau.experiments import run_experiment

        run_text = MINIMAL + f"""
[time]
dt = 0.005
t_final = 1.0

[initial]
seed = 7

[output]
directory = {tmp_path}
checkpoint_every = 2
"""
        overrides = {"flags.mode": "operator_test", "grid.n_v": "8"}
        summary, _ = run_experiment(parse_config(run_text, overrides))
        assert summary["ignored_keys"] == ["time.dt",
                                           "output.checkpoint_every"]
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written["ignored_keys"] == summary["ignored_keys"]
        plain = MINIMAL + f"[output]\ndirectory = {tmp_path}\n"
        summary, _ = run_experiment(parse_config(plain, overrides))
        assert summary["ignored_keys"] == []

    def test_nonlinear_short_run(self, tmp_path):
        text = f"""
[model]
model = landau
gamma = -3.0
k = 10.0

[grid]
n_x = 8
n_v = 16

[time]
dt = 0.005
t_final = 0.02

[output]
directory = {tmp_path}
record_every = 1
checkpoint_every = 2

[initial]
amplitude = 1e-4
"""
        from vplandau.experiments import run_experiment

        cfg = parse_config(text)
        summary, passed = run_experiment(cfg)
        assert summary["conservation"]["max_relative_drift"] <= 1e-8
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "checkpoint_000002.npz").exists()
        # positivity is monitored, never asserted (mu underflows FFT noise
        # at the box corners); the monitor must be recorded and finite
        assert np.isfinite(summary["min_full_distribution"])
        assert summary["positivity_rescue"] == {
            "requested_amplitude": 1e-4, "effective_amplitude": 1e-4,
            "halvings": 0}

    def test_summary_reports_the_largest_e_k_growth(self, tmp_path):
        # max_t E_k(t) / E_k(0), read from the series the run writes
        from vplandau.diagnostics import read_series_csv
        from vplandau.experiments import run_experiment

        cfg = parse_config(MINIMAL, {
            "grid.n_x": "4", "grid.n_v": "8", "time.dt": "0.005",
            "time.t_final": "0.02", "output.directory": str(tmp_path)})
        summary, _ = run_experiment(cfg)
        e_k = read_series_csv(tmp_path / "series.csv")["e_k"]
        assert e_k.size == 5 and e_k[0] > 0.0
        assert summary["e_k_max_ratio"] == max(e_k) / e_k[0]
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["e_k_max_ratio"] == summary["e_k_max_ratio"]

    def test_nonlinear_fit_bug_is_not_swallowed(self, tmp_path, monkeypatch):
        # a FitError (short series) is recorded in the summary; any other
        # exception out of the fits fails the run
        from vplandau import diagnostics
        from vplandau.experiments import run_experiment

        cfg = parse_config(self.LINEARIZED + f"[output]\ndirectory = "
                           f"{tmp_path}\n", overrides={
                               "flags.mode": "nonlinear",
                               "time.t_final": "0.02"})
        summary, _ = run_experiment(cfg)
        assert "samples" in summary["fits"]["exponential"]["error"]

        def broken(*args, **kwargs):
            raise TypeError("bug inside the fit")

        monkeypatch.setattr(diagnostics, "fit_decay", broken)
        with pytest.raises(TypeError, match="bug inside the fit"):
            run_experiment(cfg)

    LINEARIZED = MINIMAL.replace("n_v = 16", "n_x = 4\nn_v = 8") + """
[time]
dt = 0.01
t_final = 0.3

[flags]
mode = linearized
"""

    @pytest.mark.parametrize("mode", ["operator_test", "nonlinear",
                                      "linearized"])
    def test_every_mode_writes_the_common_keys(self, tmp_path, mode):
        # run_experiment makes the directory and adds the four keys to the
        # body each mode returns
        from vplandau.experiments import SCHEMA_VERSION, run_experiment

        out = tmp_path / "new"
        cfg = parse_config(self.LINEARIZED + f"[output]\ndirectory = {out}\n",
                           overrides={"flags.mode": mode})
        summary, passed = run_experiment(cfg)
        written = json.loads((out / "summary.json").read_text())
        assert written["schema_version"] == SCHEMA_VERSION
        assert written["mode"] == cfg.mode == mode
        assert written["config"] == json.loads(json.dumps(cfg.echo()))
        assert written["passed"] is summary["passed"] is passed

    def test_unknown_mode_is_refused_before_any_output(self, tmp_path):
        from vplandau.experiments import run_experiment

        out = tmp_path / "new"
        cfg = parse_config(MINIMAL + f"[output]\ndirectory = {out}\n")
        cfg.mode = "bogus"
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            run_experiment(cfg)
        assert not out.exists()

    def test_linearized_mode_checks_its_invariants(self, tmp_path):
        # the field energy is not a linearized invariant: its drift here is
        # 7.4e-8, while masses, momentum and kinetic energy hold to 1e-19
        from vplandau.experiments import LINEARIZED_DRIFT_TOL, run_experiment

        cfg = parse_config(
            self.LINEARIZED + f"[output]\ndirectory = {tmp_path}\n")
        summary, _ = run_experiment(cfg)
        assert summary["conservation_max_drift"] <= LINEARIZED_DRIFT_TOL
        assert summary["flags"]["conservation"]

    def test_linearized_decay_flag_reads_the_fitted_rate(self, tmp_path):
        # the README's locally Maxwellian data at 4x16^3: ||(I-P) f||^2
        # starts at round-off (3.6e-23), transport feeds it up to 1.0e-7
        # (t = 0.8), then it decays to 7.4e-13 at t = 6
        from vplandau.experiments import run_experiment

        cfg = parse_config(
            self.LINEARIZED.replace("n_v = 8", "n_v = 16")
            + f"[output]\ndirectory = {tmp_path}\n",
            overrides={"time.dt": "0.05", "time.t_final": "6.0"})
        summary, passed = run_experiment(cfg)
        assert summary["fit_exponential"]["rate"] > 2.0
        assert summary["flags"]["decayed"] and passed

    def test_linearized_decay_flag_stays_false_while_rising(self, tmp_path):
        # t <= 0.3: ||(I-P) f|| is still growing from round-off
        from vplandau.experiments import run_experiment

        cfg = parse_config(
            self.LINEARIZED + f"[output]\ndirectory = {tmp_path}\n")
        summary, passed = run_experiment(cfg)
        assert summary["fit_exponential"]["rate"] < 0.0
        assert not summary["flags"]["decayed"] and not passed

    def test_linearized_short_run_keeps_its_outputs(self, tmp_path):
        # 20 steps leave 19 samples in the fit window: the fit error is
        # reported, the series and the summary are written, and the run
        # fails on flags.decayed (exit 1), not on an exception (exit 2)
        from vplandau import cli
        from vplandau.diagnostics import read_series_csv

        ini = tmp_path / "lin.ini"
        ini.write_text(
            self.LINEARIZED.replace("n_v = 8", "n_v = 16")
            .replace("dt = 0.01", "dt = 0.05")
            .replace("t_final = 0.3", "t_final = 1.0")
            + f"[output]\ndirectory = {tmp_path}\n"
            + "[initial]\nmodes = 0\nprofile = weighted_maxwellian\n")
        with pytest.warns(RuntimeWarning, match="halving"):
            assert cli.main(["linearized", str(ini)]) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        for fit in ("fit_exponential", "fit_polynomial"):
            assert summary[fit] == {
                "error": "need >= 20 samples in window, got 19"}
        assert summary["subexponential"] is None
        assert summary["flags"]["decayed"] is False
        assert summary["flags"]["conservation"] and not summary["passed"]
        series = read_series_csv(tmp_path / "series.csv")
        assert series["micro_norm"].size == 21

    def test_summary_reports_the_positivity_rescue(self, tmp_path):
        # criterion 7's data: the weighted profile needs six halvings
        from vplandau.experiments import run_experiment

        cfg = parse_config(
            self.LINEARIZED.replace("n_v = 8", "n_v = 16")
            + f"[output]\ndirectory = {tmp_path}\n"
            + "[initial]\nmodes = 0\nprofile = weighted_maxwellian\n")
        with pytest.warns(RuntimeWarning, match="halving"):
            summary, _ = run_experiment(cfg)
        written = json.loads((tmp_path / "summary.json").read_text())
        assert summary["positivity_rescue"] == written["positivity_rescue"] \
            == {"requested_amplitude": 1e-3,
                "effective_amplitude": 1e-3 / 64, "halvings": 6}

    def test_linearized_mode_flags_a_kinetic_energy_drift(
            self, tmp_path, monkeypatch):
        from vplandau import dynamics
        from vplandau.experiments import run_experiment

        advance = dynamics.advance

        def shifted(*args, **kwargs):
            # add 1e-8 (|v|^2 - 3) mu: no charge, a |v|^2 moment of 6e-8
            final = advance(*args, **kwargs)
            ve = final.grid.velocity
            bump = 1e-8 * (ve.speed_squared() - 3.0) * maxwellian(ve)
            return final.with_fields(final.f_plus + bump,
                                     final.f_minus + bump)

        monkeypatch.setattr(dynamics, "advance", shifted)
        cfg = parse_config(
            self.LINEARIZED + f"[output]\ndirectory = {tmp_path}\n")
        summary, passed = run_experiment(cfg)
        assert summary["conservation_max_drift"] > 1e-8
        assert not summary["flags"]["conservation"] and not passed

    def test_linearized_mode_uses_the_configured_scheme(
            self, tmp_path, monkeypatch):
        from vplandau import dynamics
        from vplandau.experiments import run_experiment

        def refuse(tables):
            raise AssertionError("strang_rk4 needs no stiffness estimate")

        monkeypatch.setattr(dynamics, "collision_spectral_radius", refuse)
        cfg = parse_config(
            self.LINEARIZED + f"[output]\ndirectory = {tmp_path}\n",
            overrides={"time.scheme": "strang_rk4"})
        summary, _ = run_experiment(cfg)
        assert summary["config"]["scheme"] == "strang_rk4"


class TestCLI:
    def _run(self, *args, env=None):
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "vplandau.cli", *args],
            capture_output=True, text=True, env=full_env)

    def test_python_m_package(self):
        # a source checkout has no console script, only the package
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "vplandau", "--help"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert "operator-test" in proc.stdout

    def test_bad_config_exit_2_with_violations(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(MINIMAL.replace("-3.0", "9.0"))
        proc = self._run("run", str(bad))
        assert proc.returncode == 2
        payload = json.loads(proc.stderr)
        assert payload["error"] == "config"
        assert any("gamma range" in v for v in payload["violations"])

    def test_repeated_section_exit_2_with_violations(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(MINIMAL + "[grid]\nn_x = 8\n")
        proc = self._run("run", str(bad))
        assert proc.returncode == 2
        payload = json.loads(proc.stderr)
        assert payload == {"error": "config", "violations": [
            "line 9: section [grid] appears twice"]}

    def test_bad_thread_count_exit_2(self, tmp_path):
        ini = tmp_path / "ok.ini"
        ini.write_text(MINIMAL)
        proc = self._run("run", str(ini), env={"VPLANDAU_THREADS": "abc"})
        assert proc.returncode == 2
        payload = json.loads(proc.stderr)
        assert payload["error"] == "config"
        assert any("VPLANDAU_THREADS" in v for v in payload["violations"])

    def test_operator_test_cli(self, tmp_path):
        ini = tmp_path / "ok.ini"
        ini.write_text(MINIMAL + f"\n[output]\ndirectory = {tmp_path}\n")
        proc = self._run("operator-test", str(ini))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True

    def test_operator_test_cli_exit_1_when_a_check_fails(
            self, tmp_path, monkeypatch, capsys):
        from vplandau import cli, verify

        # the defect verify.oracle_error measures on mismatched tables
        monkeypatch.setattr(verify, "oracle_error", lambda *args: 10.0)
        ini = tmp_path / "ok.ini"
        ini.write_text(MINIMAL + f"\n[output]\ndirectory = {tmp_path}\n")
        assert cli.main(["operator-test", str(ini),
                         "--set", "grid.n_v=8"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["fft_oracle_max_rel_error"] == 10.0

    def test_fit_subcommand(self, tmp_path):
        csv = tmp_path / "series.csv"
        from vplandau.diagnostics import CSV_COLUMNS

        t = np.linspace(0, 5, 100)
        e = np.exp(-2 * t)
        rows = [",".join(CSV_COLUMNS)]
        for ti, ei in zip(t, e):
            vals = {c: "0.0" for c in CSV_COLUMNS}
            vals["time"] = repr(float(ti))
            vals["e_k"] = repr(float(ei))
            vals["picard_iterations"] = "0"
            rows.append(",".join(vals[c] for c in CSV_COLUMNS))
        csv.write_text("\n".join(rows) + "\n")
        proc = self._run("fit", str(csv), "--mode", "exponential")
        assert proc.returncode == 0, proc.stderr
        fit = json.loads(proc.stdout)
        assert fit["rate"] == pytest.approx(2.0, abs=1e-6)

    def test_fit_names_a_missing_column(self, tmp_path, capsys):
        from vplandau import cli

        csv = tmp_path / "series.csv"
        csv.write_text("time,e_k\n0.0,1.0\n1.0,0.5\n")
        assert cli.main(["fit", str(csv), "--column", "bogus"]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert "no column 'bogus'" in message
        assert message.endswith("its columns: time, e_k")

    @pytest.mark.parametrize("window", ["5", "a,b", "1,2,3"])
    def test_fit_says_what_window_takes(self, tmp_path, capsys, window):
        from vplandau import cli

        csv = tmp_path / "series.csv"
        csv.write_text("time,e_k\n0.0,1.0\n1.0,0.5\n")
        assert cli.main(["fit", str(csv), "--window", window]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"--window takes T0,T1, two numbers, got {window!r}"}

    def test_fit_reads_a_linearized_series(self, tmp_path, capsys):
        from vplandau import cli

        ini = tmp_path / "lin.ini"
        ini.write_text(TestExperimentDrivers.LINEARIZED
                       + f"[output]\ndirectory = {tmp_path}\n")
        cli.main(["linearized", str(ini)])
        capsys.readouterr()
        csv = str(tmp_path / "series.csv")
        assert cli.main(["fit", csv, "--column", "micro_norm"]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["n_samples"] >= 20
