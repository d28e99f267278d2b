"""Experiment runners, report rendering, and the command line interface.

Uses a deliberately small shear-forced regime (G = 2, n = 32) so every
runner finishes in seconds while still exercising the admissibility
conditions, the decay fit, and the report files.
"""

import dataclasses
import math

import numpy as np
import pytest

from nudgeflow import cli, experiments, schemes
from nudgeflow.config import ConfigError, default_config, render_config, write_config
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
    SpectralField,
    is_low_supported,
    norm_DA,
    norm_H,
    norm_V,
)
from nudgeflow.krylov import SolveResult
from nudgeflow.storage import load_snapshot

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
    assert np.all(f1.coeffs[:, ~grid.dealias_mask] == 0.0)

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
    rec.add(0, 0.0, norms)
    rec.add(1, 0.25, norms, err_h=0.5, env_h=1.5)
    assert rec.column("step").tolist() == [0.0, 1.0]
    assert rec.column("err_H").tolist() == [0.0, 0.5]
    assert math.isclose(rec.column("norm_H")[0], 2.0, rel_tol=1e-12)

    path = rec.write(str(tmp_path), "series.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(SERIES_HEADER)
    assert len(lines) == 3
    # integer step column must round trip as an integer literal
    assert lines[1].split(",")[0] == "0"


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
    assert open(path).read() == text


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
    write_config(tiny_twin_config(), str(cfg_path))
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


def test_cli_overrides_scheme_and_seed(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config(tiny_twin_config(), str(cfg_path))
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
    write_config(tiny_twin_config(nu=-1.0), str(cfg_path))
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


@pytest.mark.parametrize(
    "key, value",
    [("beta", "nan"), ("beta", "inf"), ("ic_amplitude", "nan"),
     ("min_decay_orders", "nan")],
)
def test_cli_non_finite_value_exits_2(tmp_path, capsys, key, value):
    # each of these ran to exit 1 (a beta = 0 control, a solver FAIL, or a
    # decay check against "required nan") instead of being rejected
    cfg_path = tmp_path / "run.cfg"
    text = render_config(tiny_twin_config(truth="nse_integrate"))
    line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
    cfg_path.write_text(text.replace(line, f"{key} = {value}"))
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "twin"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be finite" in err


def test_cli_failed_check_exits_1(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config(tiny_twin_config(t_end=0.3, min_decay_orders=50.0), str(cfg_path))
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
        (run_contraction_test, dict(contraction_steps=5), "contraction_series.csv"),
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
    write_config(tiny_twin_config(scheme="fully_implicit"), str(cfg_path))
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


def test_soak_violation_snapshots_the_offending_iterate(tmp_path, monkeypatch):
    def vanishing_envelope(p, consts, v0_h2, tau, steps):
        return np.full(steps + 1, 1e-30)

    monkeypatch.setattr(experiments, "stability_bound_h2", vanishing_envelope)
    cfg = tiny_twin_config(soak_steps=4)
    report = run_stability_soak(cfg, str(tmp_path))
    [check] = [c for c in report.checks if c.name == "tau=0.01:envelope_H2"]
    assert check.status == FAIL and "step 1:" in check.detail
    snap = tmp_path / "soak_violation_tau=0.01_envelope_H2_step1.nnsf"
    assert check.detail.endswith(str(snap))
    state, _ = load_snapshot(str(snap))
    assert is_low_supported(state, GalerkinCutoff(cfg.lambda_cut))
    row = _series_row(tmp_path / "soak_series_tau_0_01.csv", 1)
    assert norm_H(state) == pytest.approx(row["norm_H"], rel=1e-13)
    assert norm_V(state) == pytest.approx(row["norm_V"], rel=1e-13)


def test_runner_reuses_cached_steppers_across_calls(tmp_path):
    # params compare by value, so a rerun of one config builds no new stepper
    cfg = tiny_twin_config(truth="nse_integrate", truth_spinup=0.05, t_end=0.1)
    run_twin_experiment(cfg, str(tmp_path / "a"))
    sizes = schemes._stepper.cache_info().currsize, schemes._galerkin.cache_info().currsize
    run_twin_experiment(cfg, str(tmp_path / "b"))
    assert (
        schemes._stepper.cache_info().currsize, schemes._galerkin.cache_info().currsize
    ) == sizes
