"""Experiment runners, report rendering, and the command line interface.

Uses a deliberately small shear-forced regime (G = 2, n = 32) so every
runner finishes in seconds while still exercising the admissibility
conditions, the decay fit, and the report files.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nudgeflow
from nudgeflow import cli, experiments, schemes
from nudgeflow.config import ConfigError, default_config, render_config
from nudgeflow.experiments import (
    FAIL,
    PASS,
    SERIES_HEADER,
    SKIP,
    ExperimentReport,
    SeriesRecorder,
    _reference_step,
    build_forcing,
    build_grid,
    build_interpolant,
    build_params,
    render_report,
    run_contraction_test,
    run_n_sweep,
    run_self_check,
    run_stability_soak,
    run_tau_sweep,
    run_twin_experiment,
    write_report,
)
from nudgeflow.fields import (
    GalerkinCutoff,
    _Packing,
    is_low_supported,
    norm_DA,
    norm_H,
    norm_V,
    project_low,
)
from nudgeflow.krylov import SolveResult, SolverError
from nudgeflow.storage import Trajectory, load_snapshot

# Shear amplitude giving Grashof number 2 at nu = 0.1 on the 2 pi torus.
AMP_G2 = 0.02 * math.sqrt(2.0) / (2.0 * math.pi)


def tiny_twin_config(**overrides):
    base = dict(
        nu=0.1,
        grid_n=32,
        forcing="kolmogorov",
        forcing_kappa=1,
        forcing_amplitude=AMP_G2,
        beta=10.0,
        interpolant="fourier_truncation",
        h=1.0 / math.sqrt(111.0),
        lambda_cut=60.0,
        scheme="semi_implicit",
        tau=0.01,
        t_end=1.0,
        burn_in=0.0,
        truth="analytic:kolmogorov",
        ic="random_bv",
        ic_amplitude=0.9,
        min_decay_orders=0.5,
        seed=7,
    )
    base.update(overrides)
    return default_config(**base)


# ---------------------------------------------------------------------------
# builders


def test_build_forcing_none_is_zero():
    cfg = tiny_twin_config(forcing="none")
    f = build_forcing(cfg, build_grid(cfg))
    assert norm_H(f) == 0.0


def test_build_forcing_kolmogorov_norm():
    cfg = tiny_twin_config()
    f = build_forcing(cfg, build_grid(cfg))
    target = AMP_G2 * cfg.L / math.sqrt(2.0)
    assert math.isclose(norm_H(f), target, rel_tol=1e-12)


def test_build_forcing_random_band_norm_support_and_determinism():
    cfg = tiny_twin_config(forcing="random_band", forcing_decay=1.0)
    grid = build_grid(cfg)
    f1 = build_forcing(cfg, grid)
    f2 = build_forcing(cfg, grid)
    target = AMP_G2 * cfg.L / math.sqrt(2.0)
    assert math.isclose(norm_H(f1), target, rel_tol=1e-12)
    assert np.array_equal(f1.coeffs, f2.coeffs)

    other = build_forcing(dataclasses.replace(cfg, seed=8), grid)
    assert not np.array_equal(f1.coeffs, other.coeffs)


def test_build_forcing_rejects_unknown_kind():
    cfg = dataclasses.replace(tiny_twin_config(), forcing="gaussian")
    with pytest.raises(ConfigError, match="forcing"):
        build_forcing(cfg, build_grid(cfg))


# ---------------------------------------------------------------------------
# series recorder and report rendering


def test_series_recorder_columns_and_csv(tmp_path, grid8, rng):
    from nudgeflow.fields import random_field

    rec = SeriesRecorder()
    v = random_field(grid8, rng, norm_h=2.0)
    norms = (norm_H(v), norm_V(v), norm_DA(v))
    # the runners build rows from float arrays, the step column included
    rec.rows = [(0.0, 0.0, *norms, 0.0, 0.0, 0.0, 0.0), (1.0, 0.25, *norms, 0.5, 0.0, 1.5, 0.0)]
    assert rec.column("step").tolist() == [0.0, 1.0]
    assert rec.column("err_H").tolist() == [0.0, 0.5]
    assert math.isclose(rec.column("norm_H")[0], 2.0, rel_tol=1e-12)

    path = rec.write(str(tmp_path), "series.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(SERIES_HEADER)
    assert len(lines) == 3
    # the step column must round trip as an integer literal
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


def test_render_report_sections_and_determinism(tmp_path):
    report = ExperimentReport("demo", "semi_implicit", 11)
    report.add_check("alpha", PASS, "fine")
    report.add_check("beta", SKIP)
    report.values["gap"] = 0.125
    report.notes.append("hand built")
    text = render_report(report)
    assert text.splitlines()[0] == "[run]"
    assert "experiment = demo" in text
    assert "status = pass" in text
    assert "alpha = pass (fine)" in text
    assert "gap = 0.125" in text
    assert "note_0 = hand built" in text
    assert "[constants]" not in text
    assert text == render_report(report)
    assert text.endswith("\n")

    path = write_report(report, str(tmp_path))
    assert path.endswith("demo_report.txt")
    with open(path) as fh:
        assert fh.read() == text


def test_report_status_fails_on_any_failed_check():
    report = ExperimentReport("demo", "semi_implicit", 0)
    report.add_check("ok", PASS)
    assert report.status == PASS
    report.add_check("bad", FAIL)
    assert report.status == FAIL


# ---------------------------------------------------------------------------
# self check


def test_self_check_passes_with_expected_checks(tmp_path):
    report = run_self_check(seed=3, out_dir=str(tmp_path))
    assert report.status == PASS
    assert [c.name for c in report.checks] == [
        "bilinear_oracle",
        "bilinear_orthogonality",
        "poincare_projection",
        "steady_fixed_point",
        "vortex_recursion",
        "gronwall_domination",
    ]
    assert report.values["bilinear_oracle_rel"] <= 1e-12
    assert (tmp_path / "check_report.txt").exists()


# ---------------------------------------------------------------------------
# twin experiment


def test_twin_decays_and_reports(tmp_path):
    cfg = tiny_twin_config()
    report = run_twin_experiment(cfg, str(tmp_path))
    assert report.status == PASS
    names = {c.name: c.status for c in report.checks}
    assert names["decay_orders"] == PASS
    assert names["decay_rate"] == PASS
    assert names["conditions"] == PASS
    assert names["stability"] == PASS
    assert report.values["decay_orders"] >= cfg.min_decay_orders
    assert report.values["decay_rate"] > 0.0
    assert report.values["err_final_H"] < report.values["err0_H"]

    lines = (tmp_path / "twin_series.csv").read_text().splitlines()
    assert lines[0] == ",".join(SERIES_HEADER)
    assert len(lines) == 2 + round(cfg.t_end / cfg.tau)
    assert (tmp_path / "twin_report.txt").exists()


def test_twin_beta_zero_control_shows_no_decay(tmp_path):
    cfg = tiny_twin_config(
        beta=0.0, interpolant="none", twin_expect="no_decay", t_end=0.5
    )
    report = run_twin_experiment(cfg, str(tmp_path))
    names = {c.name: c for c in report.checks}
    assert names["no_decay"].status == PASS
    assert names["conditions"].status == SKIP
    assert "beta = 0" in names["conditions"].detail
    assert names["stability"].status == SKIP
    assert report.values["min_error_ratio"] >= 1e-2
    assert report.status == PASS


def test_twin_zero_forcing_names_why_conditions_are_skipped(tmp_path):
    # beta > 0, but the constants the conditions use need |f| > 0
    cfg = tiny_twin_config(
        forcing="none", beta=5.0, truth="analytic:taylor_green", t_end=0.2
    )
    report = run_twin_experiment(cfg, str(tmp_path))
    conditions = next(c for c in report.checks if c.name == "conditions")
    assert conditions.status == SKIP
    assert "zero forcing" in conditions.detail
    assert "beta = 0" not in conditions.detail


def test_analytic_taylor_green_twin_makes_no_grid_array(monkeypatch, tmp_path):
    # the vortex writes its four amplitudes and the truth is its t = 0 frame
    # times the decay, so the field is built once and no step packs or
    # unpacks a (2, n, n) array
    calls = []
    for name in ("_pack_grid", "_unpack_grid"):
        real = getattr(_Packing, name)
        monkeypatch.setattr(
            _Packing, name,
            lambda self, a, real=real, name=name: calls.append(name) or real(self, a),
        )
    built_at = []
    real_tg = experiments.taylor_green
    monkeypatch.setattr(
        experiments, "taylor_green",
        lambda grid, kappa, t, nu: built_at.append(t) or real_tg(grid, kappa, t, nu),
    )
    cfg = tiny_twin_config(
        grid_n=24, forcing="none", truth="analytic:taylor_green", ic="zero",
        lambda_cut=20.0, interpolant="volume_average", h=2.0 * math.pi / 8, t_end=0.05,
    )
    run_twin_experiment(cfg, str(tmp_path))
    rows = (tmp_path / "twin_series.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2", "3", "4", "5"]
    assert calls == []
    assert built_at == [0.0]


def test_twin_reruns_are_byte_identical(tmp_path):
    cfg = tiny_twin_config(t_end=0.3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_twin_experiment(cfg, str(out_a))
    csv_a = (out_a / "twin_series.csv").read_bytes()
    report_a = (out_a / "twin_report.txt").read_bytes()

    run_twin_experiment(cfg, str(out_b))
    assert (out_b / "twin_series.csv").read_bytes() == csv_a

    run_twin_experiment(cfg, str(out_a))
    assert (out_a / "twin_series.csv").read_bytes() == csv_a
    assert (out_a / "twin_report.txt").read_bytes() == report_a


# ---------------------------------------------------------------------------
# contraction runner


def test_contraction_semi_implicit_envelope(tmp_path):
    cfg = tiny_twin_config(perturbation=0.05, contraction_steps=80)
    report = run_contraction_test(cfg, str(tmp_path))
    names = {c.name: c.status for c in report.checks}
    assert names == {"contraction_H": PASS}
    assert 0.0 < report.values["max_ratio_H"] <= 1.0 + 1e-9
    assert report.values["eps_final_H"] < report.values["eps0_H"]


def test_contraction_fully_implicit_envelope(tmp_path):
    cfg = tiny_twin_config(
        scheme="fully_implicit", perturbation=0.05, contraction_steps=40
    )
    report = run_contraction_test(cfg, str(tmp_path))
    names = {c.name: c.status for c in report.checks}
    assert names == {"contraction_V": PASS}
    assert report.values["max_ratio_V"] <= 1.0 + 1e-9


def test_contraction_semi_skips_outside_hypothesis(tmp_path):
    # tau * beta > 1 voids the stepwise geometric factor in H
    cfg = tiny_twin_config(perturbation=0.05, contraction_steps=5, tau=0.2)
    report = run_contraction_test(cfg, str(tmp_path))
    names = {c.name: c for c in report.checks}
    assert names["contraction_H"].status == SKIP
    assert "tau*beta" in names["contraction_H"].detail


def test_contraction_unperturbed_runs_identical(tmp_path):
    cfg = tiny_twin_config(perturbation=0.0, contraction_steps=20)
    report = run_contraction_test(cfg, str(tmp_path))
    names = {c.name: c.status for c in report.checks}
    assert names == {"identical_runs": PASS}
    assert report.values["eps0_H"] == 0.0
    assert report.values["eps_final_H"] == 0.0


@pytest.mark.parametrize("scheme", ["semi_implicit", "fully_implicit"])
def test_contraction_first_solution_is_the_advance_march(tmp_path, scheme):
    # the series' norms are those of advance's own march from v0, bit for bit
    cfg = tiny_twin_config(scheme=scheme, perturbation=0.05, contraction_steps=12)
    run_contraction_test(cfg, str(tmp_path))
    at = SERIES_HEADER.index("norm_H")
    rows = (tmp_path / "contraction_series.csv").read_text().splitlines()[1:]
    recorded = [[float(x) for x in row.split(",")[at : at + 2]] for row in rows]
    setup = experiments._setup(
        cfg, horizon=(cfg.contraction_steps * cfg.tau, "contraction_steps * tau")
    )
    truth, v0 = experiments._start(setup)
    gal = schemes._galerkin(setup.params)
    _, traj = schemes.advance(
        v0, setup.params, truth, cfg.tau, cfg.contraction_steps, scheme=scheme,
        store_every=1,
    )
    assert recorded == [gal.norms(x)[:2] for x in traj.frames]


@pytest.mark.parametrize("ic", ["random_bv", "zero", "truth_low", "perturbed_truth"])
def test_start_gives_low_supported_initial_data(ic):
    # _start hands build_ic to advance unprojected: every branch is in P_N H
    cfg = tiny_twin_config(ic=ic)
    setup = experiments._setup(cfg, horizon=(cfg.t_end, "t_end"))
    _, v0 = experiments._start(setup)
    assert is_low_supported(v0, setup.params.cutoff)
    assert np.array_equal(project_low(v0, setup.params.cutoff).coeffs, v0.coeffs)


# ---------------------------------------------------------------------------
# tau sweep


def test_reference_step_is_half_the_smallest_tau_when_commensurate():
    assert _reference_step((0.02, 0.01, 0.005, 0.0025), 50) == 0.00125
    assert _reference_step((0.03, 0.02, 0.01), 50) == pytest.approx(0.005)
    # steps that are multiples of min(tau)/3 only: the old min(tau)/ref_factor
    # rule accepted them at ref_factor = 3, and m = 3 still does
    assert _reference_step((0.05, 0.04, 0.03), 3) == pytest.approx(0.005)
    with pytest.raises(ConfigError, match="integer multiple"):
        _reference_step((0.05, 0.04, 0.03), 2)


def test_tau_sweep_reference_check_certifies_the_reference(tmp_path):
    cfg = tiny_twin_config(t_end=0.06, burn_in=0.02)
    report = run_tau_sweep(cfg, str(tmp_path / "a"))
    status = {c.name: c.status for c in report.checks}
    gap = report.values["ref_gap_H"]
    sup_min = report.values["sup_err_H:tau=0.0025"]
    assert status["reference"] == PASS
    assert 0.0 < gap <= sup_min / cfg.ref_factor
    # a demanded accuracy ratio the reference cannot certify fails the check
    strict = dataclasses.replace(cfg, ref_factor=int(2.0 * sup_min / gap))
    report = run_tau_sweep(strict, str(tmp_path / "b"))
    assert {c.name: c.status for c in report.checks}["reference"] == FAIL
    with pytest.raises(ConfigError, match="ref_factor"):
        run_tau_sweep(dataclasses.replace(cfg, ref_factor=0), str(tmp_path / "c"))


# ---------------------------------------------------------------------------
# runner pipeline


@pytest.mark.parametrize(
    "runner, overrides, tables",
    [
        (run_twin_experiment, {}, ["twin_series.csv"]),
        (run_contraction_test, dict(contraction_steps=5), ["contraction_series.csv"]),
        (
            run_stability_soak,
            dict(soak_steps=5),
            [f"soak_series_tau_{t}.csv" for t in ("0_02", "0_01", "0_005", "0_0025")],
        ),
        (
            run_tau_sweep,
            dict(t_end=0.06, burn_in=0.02),
            [f"tau_sweep_series_{i}.csv" for i in range(4)] + ["tau_sweep_summary.csv"],
        ),
        (run_n_sweep, dict(t_end=0.1), ["n_sweep_summary.csv"]),
    ],
)
def test_runner_tables_are_written_in_registration_order(
    runner, overrides, tables, tmp_path
):
    report = runner(tiny_twin_config(**overrides), str(tmp_path))
    assert "solver" not in [c.name for c in report.checks]
    assert report.series_files == [str(tmp_path / name) for name in tables]
    assert all(os.path.exists(path) for path in report.series_files)
    text = (tmp_path / f"{report.name}_report.txt").read_text()
    listed = text.split("[series]\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert listed == [f"file_{i} = {path}" for i, path in enumerate(report.series_files)]


def _columns(path):
    rows = path.read_text().splitlines()[1:]
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    return dict(zip(SERIES_HEADER, table.T))


def _env_ratio(lhs, env):
    """max lhs / env^2 over steps 1..n where the recorded envelope is > 0."""
    lhs, env = lhs[1:], env[1:]
    return np.max(lhs[env > 0.0] / env[env > 0.0] ** 2, initial=0.0)


def _twin_from_columns(cfg, report, out):
    s = _columns(out / "twin_series.csv")
    return {"sup_norm_V": (np.max(s["norm_V"]), 0.0)}


def _contraction_from_columns(cfg, report, out):
    s = _columns(out / "contraction_series.csv")
    return {
        "max_ratio_H": (_env_ratio(s["err_H"] ** 2, s["envelope_H"]), 1e-12),
        "max_ratio_V": (_env_ratio(s["err_V"] ** 2, s["envelope_V"]), 1e-12),
    }


def _soak_from_columns(cfg, report, out):
    m1, lam1 = report.constants.M1, build_grid(cfg).lambda1
    found = {}
    for tau in cfg.tau_list:
        label = f"tau={tau:g}"
        s = _columns(out / f"soak_series_{label.replace('=', '_').replace('.', '_')}.csv")
        h, v = s["norm_H"][1:], s["norm_V"][1:]
        for name, ratio in (
            ("sup_V", np.max(v) / (6.0 * m1)),
            ("sup_H", np.max(h) * math.sqrt(lam1) / (6.0 * m1)),
            ("envelope_H2", _env_ratio(s["norm_H"] ** 2, s["envelope_H"])),
            ("envelope_V2", _env_ratio(s["norm_V"] ** 2, s["envelope_V"])),
        ):
            found[f"{label}:{name}:max_ratio"] = (ratio, 1e-12)
    return found


@pytest.mark.parametrize(
    "runner, overrides, from_columns",
    [
        (run_twin_experiment, dict(t_end=0.1), _twin_from_columns),
        (
            run_contraction_test,
            dict(perturbation=0.05, contraction_steps=20),
            _contraction_from_columns,
        ),
        (run_stability_soak, dict(soak_steps=6), _soak_from_columns),
    ],
)
def test_runner_checks_recompute_from_the_series_they_write(
    runner, overrides, from_columns, tmp_path
):
    # every step is recorded, and each verdict's value is a function of the
    # recorded columns (envelopes are recorded square-rooted, hence rel 1e-12);
    # the short twin's sup ||v|| is its row 0, which the sup must include
    cfg = tiny_twin_config(**overrides)
    report = runner(cfg, str(tmp_path))
    assert "solver" not in [c.name for c in report.checks]
    found = from_columns(cfg, report, tmp_path)
    assert found
    for key, (value, rel) in found.items():
        assert report.values[key] == pytest.approx(value, rel=rel, abs=0.0), key


def test_bad_input_inside_a_run_writes_nothing(tmp_path):
    # v0 = P_N u* of a steady truth the cutoff holds: zero initial error
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"v0 != u\(0\)"):
        run_twin_experiment(tiny_twin_config(ic="truth_low"), str(out))
    assert not out.exists()


# ---------------------------------------------------------------------------
# command line interface


def test_cli_check_passes(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "--seed", "3", "check"])
    assert rc == 0
    assert (tmp_path / "check_report.txt").exists()
    out = capsys.readouterr().out
    assert out.startswith("check: pass")
    assert "bilinear_oracle: pass" in out


def test_cli_quiet_suppresses_output(tmp_path, capsys):
    rc = cli.main(["--quiet", "--out", str(tmp_path), "check"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_cli_constants_report(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(tiny_twin_config()))
    rc = cli.main(
        ["--config", str(cfg_path), "--out", str(tmp_path / "out"), "constants"]
    )
    assert rc == 0
    text = (tmp_path / "out" / "constants_report.txt").read_text()
    assert "[constants]" in text
    assert "G = 2" in text
    assert "[conditions]" in text
    assert "scheme = semi_implicit" in text
    assert "beta_lower_bound" in capsys.readouterr().out


_IMPORT_GUARD = """
import sys
import nudgeflow
assert "scipy" not in sys.modules, "import nudgeflow loaded scipy"
from nudgeflow import cli
out = sys.argv[1]
for cfg in sys.argv[2:]:
    assert cli.main(["--quiet", "--config", cfg, "--out", out, "constants"]) == 0
    for name in ("scipy", "numpy.ma"):
        assert name not in sys.modules, "constants on " + cfg + " loaded " + name
"""


def test_cli_constants_never_loads_scipy_or_numpy_ma(tmp_path):
    # a fresh interpreter, so no other test has imported scipy or numpy.ma yet
    configs = []
    for name, overrides in (
        ("fourier.cfg", {}),
        ("volume.cfg", dict(interpolant="volume_average", h=2.0 * math.pi / 16, beta=5.0)),
    ):
        (tmp_path / name).write_text(render_config(tiny_twin_config(**overrides)))
        configs.append(str(tmp_path / name))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nudgeflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(tmp_path / "out"), *configs],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the volume-average run, written last, estimated its c0 by probing
    assert "c0=0.0" in (tmp_path / "out" / "constants_report.txt").read_text()


def test_cli_overrides_scheme_and_seed(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(tiny_twin_config()))
    rc = cli.main([
        "--quiet", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        "--scheme", "full", "--seed", "123", "constants",
    ])
    assert rc == 0
    text = (tmp_path / "out" / "constants_report.txt").read_text()
    assert "scheme = fully_implicit" in text
    assert "seed = 123" in text


def test_cli_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["--config", str(tmp_path / "nope.cfg"), "check"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nu = 0.1\n")
    rc = cli.main(["--config", str(bad), "check"])
    assert rc == 2
    assert "before any" in capsys.readouterr().err


def test_cli_invalid_physics_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(tiny_twin_config(nu=-1.0)))
    rc = cli.main(["--config", str(cfg_path), "constants"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("constants", "tau", "0"),
        ("twin", "tau", "0"),
        ("tau-sweep", "tau_list", "0.02,0,0.005"),
        ("twin", "truth_dt_factor", "0"),
        ("twin", "truth_spinup", "-1"),
        ("soak", "soak_steps", "-3"),
        ("contraction", "contraction_steps", "-3"),
        ("n-sweep", "tau_floor_factor", "0"),
        ("n-sweep", "tau_floor_factor", "-2"),
        ("twin", "seed", "-1"),
        ("constants", "seed", "-1"),
    ],
)
def test_cli_inadmissible_time_step_exits_2(tmp_path, capsys, command, key, value):
    cfg_path = tmp_path / "run.cfg"
    text = render_config(tiny_twin_config(truth="nse_integrate"))
    line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
    cfg_path.write_text(text.replace(line, f"{key} = {value}"))
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_cli_spinup_off_the_truth_step_exits_2(tmp_path, capsys):
    # 0.015 at a truth step of 0.01 used to be rounded to a 0.02 spin-up
    cfg_path = tmp_path / "run.cfg"
    cfg = tiny_twin_config(
        truth="nse_integrate", truth_dt_factor=1, truth_spinup=0.015, t_end=0.1
    )
    cfg_path.write_text(render_config(cfg))
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg_path), "--out", str(out), "twin"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "truth_spinup = 0.015 is not a whole number of truth steps" in err
    assert "truth_dt_factor = 0.01" in err
    assert not any(out.rglob("*"))


@pytest.mark.parametrize(
    "key, value",
    [("beta", "nan"), ("beta", "inf"), ("ic_amplitude", "nan"),
     ("min_decay_orders", "nan"), ("seed", "inf"), ("grid_n", "1e400")],
)
def test_cli_non_finite_value_exits_2(tmp_path, capsys, key, value):
    # each of these ran to exit 1 (a beta = 0 control, a solver FAIL, a
    # decay check against "required nan", or an OverflowError traceback
    # from an integer key) instead of being rejected
    cfg_path = tmp_path / "run.cfg"
    text = render_config(tiny_twin_config(truth="nse_integrate"))
    line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
    cfg_path.write_text(text.replace(line, f"{key} = {value}"))
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "twin"])
    assert rc == 2
    err = capsys.readouterr().err
    integer = isinstance(getattr(tiny_twin_config(), key), int)
    reason = f"key {key!r}: expected a finite integer" if integer else f"{key} must be finite"
    assert err.startswith("error:") and reason in err


def _minimal_config(tmp_path, key, value):
    """nu, tau and t_end, with one physics key set and the rest at defaults."""
    physics = f"nu = {value}" if key == "nu" else f"nu = 0.1\n{key} = {value}"
    path = tmp_path / "run.cfg"
    path.write_text(f"[physics]\n{physics}\n[experiment]\ntau = 0.005\nt_end = 10.0\n")
    return str(path)


@pytest.mark.parametrize("command", ["constants", "twin"])
@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("nu", "1e-300", "nu^2 lambda1 underflows to 0"),
        ("nu", "1e200", "Grashof number 0.000e+00 gives Lambda = -inf < 0"),
        ("forcing_amplitude", "1e100", "a-priori constant R1 = inf is not finite"),
        ("forcing_amplitude", "1e200", "a-priori constant G = inf is not finite"),
        # read as zero forcing (exit 0, no constants) when |f| decided it
        ("forcing_amplitude", "1e-200", "nonzero forcing underflows to 0"),
    ],
)
def test_cli_overflowing_constants_exit_2(tmp_path, capsys, command, key, value, reason):
    # these escaped as ZeroDivisionError or OverflowError tracebacks,
    # printed G = M1 = inf and exited 0, or gave "math domain error"; an
    # |f| of 1e200 also printed numpy's overflow warning before the reason
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--config", _minimal_config(tmp_path, key, value),
                       "--out", str(out), command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_overflowing_advisory_bound_fails_its_condition(tmp_path):
    # alpha = 0.999 lies inside (1/2, 1); its ppgm power overflowed
    out = tmp_path / "out"
    rc = cli.main(["--quiet", "--config", _minimal_config(tmp_path, "alpha", "0.999"),
                   "--out", str(out), "constants"])
    assert rc == 0
    text = (out / "constants_report.txt").read_text()
    assert "ppgm_beta_lower_bound = fail (lhs=inf <= rhs=50" in text


# Each of these was rejected only after its truth was integrated (13.5 s,
# 3.7 s and 3.3 s for the first three), or with a message naming no key.
_REJECTED_BASE = dict(
    nu=0.1, grid_n=32, beta=10.0, forcing_amplitude=0.011253953951963828,
    h=0.0949157995752499, tau=0.01, truth_spinup=1.0, t_end=1.0, burn_in=0.0,
)


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("soak", dict(ic_amplitude=1.5, soak_steps=200), "ic_amplitude = 1.5"),
        (
            "twin",
            dict(forcing="none", interpolant="volume_average", h=0.7, beta=5.0, t_end=0.5),
            "h, grid_n: L/h",
        ),
        ("n-sweep", dict(lambda_cut_list=(6.0, 16.0, 500.0), t_end=0.2),
         "lambda_cut_list entry 500.0"),
        (
            "soak",
            dict(tau=0.02, truth_dt_factor=1, truth_spinup=0.0, tau_list=(0.03, 0.01),
                 soak_steps=3),
            "soak_steps * max(tau_list) = 0.09 is not a whole number of truth steps",
        ),
    ],
)
def test_cli_rejects_a_bad_config_before_any_integration(
    tmp_path, capsys, monkeypatch, command, overrides, key
):
    def integrate(*args, **kwargs):
        raise AssertionError("a config that exits 2 was integrated")

    for name in ("advance", "nse_integrate", "reference_galerkin_integrate"):
        monkeypatch.setattr(experiments, name, integrate)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(default_config(**{**_REJECTED_BASE, **overrides})))
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg_path), "--out", str(out), command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_cli_lets_a_value_error_inside_a_run_propagate(tmp_path, monkeypatch):
    # a fault inside the run is a program error, never "bad input"
    def broken_stencil(self, t):
        raise ValueError("lookup fault")

    monkeypatch.setattr(Trajectory, "stencil", broken_stencil)
    cfg_path = tmp_path / "run.cfg"
    cfg = tiny_twin_config(truth="nse_integrate", truth_spinup=0.0, t_end=0.05)
    cfg_path.write_text(render_config(cfg))
    with pytest.raises(ValueError, match="lookup fault"):
        cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "twin"])


# One small valid base for every subcommand, and the values the fuzz below
# sets one to three keys to: odd or tiny grids, cutoffs outside the band, h
# not dividing L, extreme nu, beta and tau, truths that do not match the
# forcing.
_FUZZ_BASE = dict(
    nu=0.1, grid_n=16, forcing_kappa=1, forcing_amplitude=AMP_G2, beta=10.0,
    h=1.0 / math.sqrt(111.0), lambda_cut=9.0, tau=0.01, t_end=0.02, burn_in=0.0,
    truth="analytic:kolmogorov", truth_dt_factor=2, truth_spinup=0.0,
    ic_amplitude=0.9, soak_steps=2, contraction_steps=2,
    tau_list=(0.02, 0.01, 0.005), lambda_cut_list=(2.0, 5.0, 9.0), seed=7,
)
_FUZZ_VALUES = {
    "grid_n": [2, 5, 6, 8, 15],
    "lambda_cut": [0.5, 25.0, 1e3],
    "lambda_cut_list": [(0.5, 2.0, 5.0), (2.0, 5.0, 1e3), (2.0, 5.0)],
    "interpolant": ["volume_average", "none"],
    "h": [0.7, 2.0 * math.pi / 8, 2.0 * math.pi / 3, 3.0, 1e-200],
    "nu": [1e-300, 1e-6, 1e6, 1e200],
    "beta": [0.0, 1e-12, 1e300],
    "tau": [3e-7, 0.015, 1e3],
    "truth": ["nse_integrate", "analytic:taylor_green"],
    "forcing": ["none", "random_band"],
    "forcing_amplitude": [1e-6, 1e200],
    "forcing_kappa": [0, 9],
    "ic": ["zero", "truth_low", "perturbed_truth"],
    "ic_amplitude": [1.5],
    "seed": [-1],
}
_FUZZ_CHANGES = st.lists(
    st.sampled_from(sorted(_FUZZ_VALUES)), min_size=1, max_size=3, unique=True
).flatmap(
    lambda keys: st.fixed_dictionaries({k: st.sampled_from(_FUZZ_VALUES[k]) for k in keys})
)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(
        ["constants", "twin", "contraction", "soak", "tau-sweep", "n-sweep"]
    ),
    changes=_FUZZ_CHANGES,
)
def test_cli_exits_0_1_or_2_on_adversarial_configs(command, changes):
    # a run passes (0), fails a check (1) or is rejected by a ConfigError (2);
    # any other exception escapes main and fails this test.  A seed no
    # config can hold reaches main as the --seed override.
    changes = dict(changes)
    seed = ["--seed", str(changes.pop("seed"))] if "seed" in changes else []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(render_config(default_config(**{**_FUZZ_BASE, **changes})))
        argv = [
            "--quiet", "--config", cfg_path, "--out", os.path.join(tmp, "out"),
            *seed, command,
        ]
        assert cli.main(argv) in (0, 1, 2)


def test_cli_failed_check_exits_1(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg = tiny_twin_config(t_end=0.3, min_decay_orders=50.0)
    cfg_path.write_text(render_config(cfg))
    rc = cli.main([
        "--quiet", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "twin",
    ])
    assert rc == 1


# ---------------------------------------------------------------------------
# solver failures


def _stalled_gmres(apply_op, b, **kwargs):
    """A linear solve that never converges."""
    return SolveResult(np.array(b), False, 2000, 0.2201, (1.0, 0.5, 0.2201))


def _non_finite_gmres(apply_op, b, **kwargs):
    """A linear solve that 'converges' to a non-finite iterate."""
    return SolveResult(np.full_like(b, np.nan), True, 1, 0.0, (0.0,))


STALL = (
    "linear solve stalled at relative residual 2.201e-01 after 2000 iterations; "
    "residual trace (last 3 of 3): 1.000e+00 5.000e-01 2.201e-01"
)


@pytest.mark.parametrize(
    "runner, overrides, partial",
    [
        (run_twin_experiment, {}, "twin_series.csv"),
        # the stall hits the stored perturbed march, before the recorded one
        (run_contraction_test, dict(contraction_steps=5), None),
        (run_stability_soak, dict(soak_steps=5), "soak_series_tau_0_02.csv"),
        (run_tau_sweep, dict(t_end=0.06), "tau_sweep_series_0.csv"),
        (run_n_sweep, dict(lambda_cut_list=(6.0, 16.0, 40.0)), "n_sweep_summary.csv"),
        # the stall hits the truth integration before any series exists
        (run_twin_experiment, dict(truth="nse_integrate", truth_spinup=0.0), None),
    ],
)
def test_runners_report_a_solver_stall_as_failed_check(
    runner, overrides, partial, tmp_path, monkeypatch
):
    monkeypatch.setattr(schemes, "gmres", _stalled_gmres)
    cfg = tiny_twin_config(**overrides)
    report = runner(cfg, str(tmp_path))
    solver = [c for c in report.checks if c.name == "solver"]
    # the first step stalls, so the last accepted state is the initial one
    dump = f"{report.name}_solver_state.nnsf"
    detail = f"{STALL}; last accepted state (step 0) in {dump}"
    assert [(c.status, c.detail) for c in solver] == [(FAIL, detail)]
    text = (tmp_path / f"{report.name}_report.txt").read_text()
    assert f"solver = fail ({detail})" in text
    state, cutoff = load_snapshot(str(tmp_path / dump))
    assert state.grid.n == 32 and norm_H(state) > 0.0
    assert is_low_supported(state, cutoff)
    if partial is None:
        assert report.series_files == []
    else:
        assert report.series_files == [str(tmp_path / partial)]
        rows = (tmp_path / partial).read_text().splitlines()
        # the header, plus the initial state where the series records one
        assert 1 <= len(rows) <= 2
        if len(rows) == 2 and rows[0].split(",") == list(SERIES_HEADER):
            recorded = float(rows[1].split(",")[SERIES_HEADER.index("norm_H")])
            # series norms are Parseval sums over the packed amplitudes
            grid = build_grid(cfg)
            params = build_params(
                cfg, grid, build_forcing(cfg, grid), build_interpolant(cfg)
            )
            gal = schemes._galerkin(params)
            assert recorded == gal.norms(gal._pack_field(state))[0]


def test_tau_sweep_reference_failure_writes_report_and_snapshot(tmp_path, monkeypatch):
    def failing_reference(v0, p, truth, t_end, dt):
        exc = SolverError("non-finite iterate")
        exc.step, exc.field, exc.cutoff = 2, project_low(v0, p.cutoff), p.cutoff
        raise exc

    monkeypatch.setattr(experiments, "reference_galerkin_integrate", failing_reference)
    cfg = tiny_twin_config(t_end=0.06)
    report = run_tau_sweep(cfg, str(tmp_path))
    dump = "tau_sweep_solver_state.nnsf"
    detail = f"non-finite iterate; last accepted state (step 2) in {dump}"
    assert [(c.name, c.status, c.detail) for c in report.checks] == [
        ("solver", FAIL, detail)
    ]
    assert report.series_files == []
    assert f"solver = fail ({detail})" in (tmp_path / "tau_sweep_report.txt").read_text()
    state, cutoff = load_snapshot(str(tmp_path / dump))
    assert cutoff == GalerkinCutoff(cfg.lambda_cut) and norm_H(state) > 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tau_sweep_report.txt", dump]


def test_non_finite_iterate_is_a_failed_solver_check(tmp_path, monkeypatch):
    monkeypatch.setattr(schemes, "gmres", _non_finite_gmres)
    report = run_twin_experiment(
        tiny_twin_config(scheme="fully_implicit"), str(tmp_path)
    )
    dump = "twin_solver_state.nnsf"
    assert [(c.name, c.status, c.detail) for c in report.checks] == [
        ("solver", FAIL, f"non-finite iterate; last accepted state (step 0) in {dump}")
    ]
    assert (tmp_path / "twin_series.csv").exists()
    state, _ = load_snapshot(str(tmp_path / dump))
    assert norm_H(state) > 0.0


def test_cli_solver_stall_exits_1_with_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(schemes, "gmres", _stalled_gmres)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(tiny_twin_config(scheme="fully_implicit")))
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "twin"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"solver: fail ({STALL}; last accepted state (step 0) in " in captured.out
    assert (tmp_path / "out" / "twin_solver_state.nnsf").exists()
    assert (tmp_path / "out" / "twin_report.txt").exists()
    assert (tmp_path / "out" / "twin_series.csv").exists()


def _series_row(path, step):
    rows = path.read_text().splitlines()
    row = next(r for r in rows[1:] if r.split(",")[0] == str(step))
    return dict(zip(SERIES_HEADER, (float(x) for x in row.split(","))))


def test_solver_stall_mid_run_snapshots_the_last_packed_state(tmp_path, monkeypatch):
    # the last accepted state is a packed stepper state whose field is built
    # only for the snapshot; it is the iterate the series recorded
    real_gmres = schemes.gmres
    calls = []

    def stalls_at_fourth_solve(apply_op, b, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            return _stalled_gmres(apply_op, b, **kwargs)
        return real_gmres(apply_op, b, **kwargs)

    monkeypatch.setattr(schemes, "gmres", stalls_at_fourth_solve)
    cfg = tiny_twin_config()
    report = run_twin_experiment(cfg, str(tmp_path))
    [solver] = [c for c in report.checks if c.name == "solver"]
    assert solver.detail.endswith("last accepted state (step 3) in twin_solver_state.nnsf")
    state, cutoff = load_snapshot(str(tmp_path / "twin_solver_state.nnsf"))
    assert state.grid.n == cfg.grid_n and is_low_supported(state, cutoff)
    row = _series_row(tmp_path / "twin_series.csv", 3)
    for name, fn in (("norm_H", norm_H), ("norm_V", norm_V), ("norm_DA", norm_DA)):
        assert fn(state) == pytest.approx(row[name], rel=1e-13)


@pytest.mark.parametrize("scheme", ["semi_implicit", "fully_implicit"])
@pytest.mark.parametrize(
    "runner, overrides, series",
    [
        (run_twin_experiment, {}, "twin_series.csv"),
        (
            run_contraction_test, dict(perturbation=0.05, contraction_steps=8),
            "contraction_series.csv",
        ),
    ],
)
def test_solver_stall_mid_march_keeps_the_accepted_rows(
    runner, overrides, series, scheme, tmp_path, monkeypatch
):
    # every solve from the recorded march's fourth step on stalls; the
    # contraction runner's stored perturbed march comes first and is spared
    cfg = tiny_twin_config(scheme=scheme, **overrides)
    spared = 3 + (cfg.contraction_steps if runner is run_contraction_test else 0)
    real_gmres, real_step = schemes.gmres, schemes._Stepper.step
    steps = []

    def counted_step(self, *args):
        steps.append(1)
        return real_step(self, *args)

    def stalls_late(apply_op, b, **kwargs):
        if len(steps) > spared:
            return _stalled_gmres(apply_op, b, **kwargs)
        return real_gmres(apply_op, b, **kwargs)

    monkeypatch.setattr(schemes._Stepper, "step", counted_step)
    monkeypatch.setattr(schemes, "gmres", stalls_late)
    report = runner(cfg, str(tmp_path))
    [solver] = [c for c in report.checks if c.name == "solver"]
    dump = f"{report.name}_solver_state.nnsf"
    k = int(re.search(rf"last accepted state \(step (\d+)\) in {dump}$", solver.detail)[1])
    assert k >= 3
    # the series holds rows 0..k, and row k is the snapshot's iterate
    rows = (tmp_path / series).read_text().splitlines()
    assert rows[0] == ",".join(SERIES_HEADER)
    assert [r.split(",")[0] for r in rows[1:]] == [str(j) for j in range(k + 1)]
    state, _ = load_snapshot(str(tmp_path / dump))
    grid = build_grid(cfg)
    params = build_params(cfg, grid, build_forcing(cfg, grid), build_interpolant(cfg))
    gal = schemes._galerkin(params)
    last = _series_row(tmp_path / series, k)
    assert gal.norms(gal._pack_field(state)) == [
        last["norm_H"], last["norm_V"], last["norm_DA"]
    ]


@pytest.mark.parametrize("first", [1, 3])
def test_soak_violation_snapshots_the_offending_iterate(first, tmp_path, monkeypatch):
    real_envelope = experiments.stability_bound_h2

    def envelope_vanishing_from_first(p, consts, v0_h2, tau, steps):
        env = real_envelope(p, consts, v0_h2, tau, steps)
        env[first:] = 1e-30
        return env

    monkeypatch.setattr(experiments, "stability_bound_h2", envelope_vanishing_from_first)
    cfg = tiny_twin_config(soak_steps=4)
    report = run_stability_soak(cfg, str(tmp_path))
    [check] = [c for c in report.checks if c.name == "tau=0.01:envelope_H2"]
    assert check.status == FAIL and f"step {first}:" in check.detail
    snap = tmp_path / f"soak_violation_tau=0.01_envelope_H2_step{first}.nnsf"
    assert check.detail.endswith(str(snap))
    state, _ = load_snapshot(str(snap))
    assert is_low_supported(state, GalerkinCutoff(cfg.lambda_cut))
    # the snapshot is the stored frame of the violating step: the iterate
    # v^first, whose norms are that step's row bit for bit
    setup = experiments._setup(cfg, horizon=(cfg.soak_steps * cfg.tau, "soak_steps * tau"))
    truth, v0 = experiments._start(setup)
    v_first, _ = schemes.advance(v0, setup.params, truth, cfg.tau, first, scheme=cfg.scheme)
    assert np.array_equal(state.coeffs, v_first.coeffs)
    row = _series_row(tmp_path / "soak_series_tau_0_01.csv", first)
    gal = schemes._galerkin(setup.params)
    assert gal.norms(gal._pack_field(state)) == [
        row["norm_H"], row["norm_V"], row["norm_DA"]
    ]


def test_runner_reuses_cached_steppers_across_calls(tmp_path):
    # params compare by value, so a rerun of one config builds no new stepper
    cfg = tiny_twin_config(truth="nse_integrate", truth_spinup=0.05, t_end=0.1)
    run_twin_experiment(cfg, str(tmp_path / "a"))
    sizes = schemes._stepper.cache_info().currsize, schemes._galerkin.cache_info().currsize
    run_twin_experiment(cfg, str(tmp_path / "b"))
    assert (
        schemes._stepper.cache_info().currsize, schemes._galerkin.cache_info().currsize
    ) == sizes
