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
    render_report,
    run_contraction_test,
    run_n_sweep,
    run_stability_soak,
    run_tau_sweep,
    run_twin_experiment,
    write_report,
)
from nudgeflow.fields import (
    GalerkinCutoff,
    TorusGrid,
    _Packing,
    is_low_supported,
    norm_DA,
    norm_H,
    norm_V,
    project_low,
)
from nudgeflow.krylov import SolveResult, SolverError
from nudgeflow.oracles import run_self_check
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
    f = build_forcing(cfg, TorusGrid(cfg.L, cfg.grid_n))
    assert norm_H(f) == 0.0


def test_build_forcing_kolmogorov_norm():
    cfg = tiny_twin_config()
    f = build_forcing(cfg, TorusGrid(cfg.L, cfg.grid_n))
    target = AMP_G2 * cfg.L / math.sqrt(2.0)
    assert math.isclose(norm_H(f), target, rel_tol=1e-12)


def test_build_forcing_random_band_norm_support_and_determinism():
    cfg = tiny_twin_config(forcing="random_band", forcing_decay=1.0)
    grid = TorusGrid(cfg.L, cfg.grid_n)
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
        build_forcing(cfg, TorusGrid(cfg.L, cfg.grid_n))


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


def test_reference_step_is_the_smallest_tau_when_commensurate():
    # (dt_ref, the reference's steps t_end / dt_ref)
    assert _reference_step((0.02, 0.01, 0.005, 0.0025), 50, 0.06) == (0.0025, 24)
    assert _reference_step((0.03, 0.02, 0.01), 50, 0.06) == pytest.approx((0.01, 6))
    # steps that are multiples of min(tau)/3 only: the old min(tau)/ref_factor
    # rule accepted them at ref_factor = 3, and m = 3 still does
    assert _reference_step((0.05, 0.04, 0.03), 3, 0.6) == pytest.approx((0.01, 60))
    # m <= 2 ref_factor = 4 reaches m = 3 at ref_factor = 2 as well
    assert _reference_step((0.05, 0.04, 0.03), 2, 0.6) == pytest.approx((0.01, 60))
    with pytest.raises(ConfigError, match="whole multiple"):
        _reference_step((0.05, 0.04, 0.03), 1, 0.6)


def test_reference_step_is_even_when_t_end_is_an_odd_number_of_it(tmp_path):
    # m = 1 makes every tau a multiple of 0.01 but t_end = 15 * 0.01, so
    # the run at 2 dt_ref could not end at t_end; m = 2 is the step
    taus, t_end = (0.05, 0.03, 0.01), 0.15
    assert _reference_step(taus, 50, t_end) == pytest.approx((0.005, 30))
    cfg = default_config(
        grid_n=16, lambda_cut=20.0, forcing="kolmogorov", h=0.5,
        tau_list=taus, t_end=t_end, burn_in=0.0, truth_spinup=0.1,
    )
    report = run_tau_sweep(cfg, str(tmp_path))
    detail = {c.name: c.detail for c in report.checks}["reference"]
    assert "(dt_ref 0.005: 30 + 15 ETDRK4 steps)" in detail


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


def test_stiff_nudging_tau_sweep_runs_without_a_warning(tmp_path):
    # beta = 1e300: the ETDRK4 weights stay finite at h L near -1e298, and
    # the step right-hand sides, whose entries pass 1e154, keep finite
    # norms, so the sweep runs to its verdict with no solver failure
    cfg = default_config(
        grid_n=16, lambda_cut=20.0, forcing="kolmogorov", h=0.5, beta=1e300,
        tau_list=(0.02, 0.01, 0.005), t_end=0.04, burn_in=0.0, truth_spinup=0.1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_tau_sweep(cfg, str(tmp_path))
    assert "solver" not in [c.name for c in report.checks]


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
    m1, lam1 = report.constants.M1, TorusGrid(cfg.L, cfg.grid_n).lambda1
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
loaded = [name for name in sys.modules if name.startswith("nudgeflow.")]
assert not loaded, "import nudgeflow loaded " + ", ".join(loaded)
assert nudgeflow.__version__ == "0.1.0"
from nudgeflow import cli
out = sys.argv[1]
for cfg in sys.argv[2:]:
    assert cli.main(["--quiet", "--config", cfg, "--out", out, "constants"]) == 0
    for name in ("scipy", "numpy.ma"):
        assert name not in sys.modules, "constants on " + cfg + " loaded " + name
import math
import numpy as np
from nudgeflow.fields import TorusGrid, random_field
from nudgeflow.operators import kolmogorov_forcing
from nudgeflow.schemes import PhysicsParams, advance
from nudgeflow.oracles import run_self_check
grid = TorusGrid(2.0 * math.pi, 24)
forcing = kolmogorov_forcing(grid, 2, 0.5)
p = PhysicsParams(0.1, grid, forcing, 0.0, None, grid.band_cutoff())
advance(random_field(grid, np.random.default_rng(0)), p, None, 0.01, 5)
assert run_self_check(out_dir=out).status == "pass"
assert "scipy" not in sys.modules, "a march or the self check loaded scipy"
"""


def test_cli_constants_never_loads_scipy_or_numpy_ma(tmp_path):
    # a fresh interpreter, so no other test has imported scipy or numpy.ma
    # yet; the transforms are matrix products, so a march and the self
    # check leave scipy out too
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
        ("soak", "soak_steps", "3000000000"),
        ("contraction", "contraction_steps", "3000000000"),
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
        ("forcing_amplitude", "1e200", "a-priori constant R1 = inf is not finite"),
        # |f| = 4.4e-198 is positive, but far too small for the formulas
        ("forcing_amplitude", "1e-200", "Grashof number 4.443e-198 gives Lambda"),
    ],
)
def test_cli_overflowing_constants_exit_2(tmp_path, capsys, command, key, value, reason):
    # these escaped as ZeroDivisionError or OverflowError tracebacks,
    # printed G = M1 = inf and exited 0, or gave "math domain error"; an
    # |f| of 1e200 also overflowed to inf with numpy's warning before the
    # reason
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
    # c0 beta h^2 overflows; the condition reads inf and fails, and the
    # command still exits 0, since no check of `constants` reads it
    path = tmp_path / "run.cfg"
    path.write_text(
        "[physics]\nnu = 0.1\nL = 100\nh = 100\ngrid_n = 16\nlambda_cut = 0.05\n"
        "beta = 1e308\nforcing_amplitude = 1\ninterpolant = volume_average\n"
        "[experiment]\nscheme = fully_implicit\ntau = 0.01\nt_end = 0.01\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--quiet", "--config", str(path), "--out", str(out), "constants"])
    assert rc == 0
    text = (out / "constants_report.txt").read_text()
    assert "interpolant_resolution = fail (lhs=inf <= rhs=0.1," in text


@pytest.mark.parametrize(
    "section, key, value",
    # condition_c = -1 exited 2 while c was a key; c is now the fixed 1
    [("physics", "condition_c", "-1"), ("sweep", "tau_floor_factor", "0")],
)
def test_cli_removed_key_warns_and_reports_as_before(tmp_path, section, key, value):
    base = _minimal_config(tmp_path, "nu", "0.1")
    old = tmp_path / "old.cfg"
    old.write_text((tmp_path / "run.cfg").read_text() + f"[{section}]\n{key} = {value}\n")
    assert cli.main(["--quiet", "--config", base, "--out", str(tmp_path / "a"), "constants"]) == 0
    with pytest.warns(UserWarning, match=rf"unknown key '{key}' in section \[{section}\]"):
        rc = cli.main(["--quiet", "--config", str(old), "--out", str(tmp_path / "b"), "constants"])
    assert rc == 0
    report = "constants_report.txt"
    assert (tmp_path / "b" / report).read_bytes() == (tmp_path / "a" / report).read_bytes()


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
        # derived steps whose reciprocal overflows (a config rejects such a
        # tau or tau_list entry itself): each failed its solver
        ("n-sweep", dict(tau=1e-308, t_end=2e-308), "steps tau / 2 = 5e-309 has no finite"),
        ("twin", dict(tau=1e-307, t_end=1e-307), "truth steps tau / truth_dt_factor = "),
        # t_end / tau overflows: an OverflowError escaped main
        ("twin", dict(tau=1e-300, t_end=1e10), "t_end = 10000000000.0 is not a whole number"),
        # Fourier truncation observing nothing: 1/h^2 = 0.01 < lambda1 = 1
        ("twin", dict(h=10.0), "h, grid_n: h = 10.0: Fourier truncation observes"),
        # 1e300 steps: past MAX_STEPS no step can be told from its neighbours,
        # and the march never ended
        ("twin", dict(tau=1e-300, t_end=1.0), "t_end = 1.0 is 1e+300 steps tau = 1e-300, past"),
        # t_end = 1.67 tau: a tolerance absolute in time took it for 2 steps
        # at this scale and marched past t_end
        *[
            (command, dict(tau=3e-10, t_end=5e-10, truth_spinup=0.0, grid_n=16),
             "t_end = 5e-10 is not a whole number of steps tau = 3e-10")
            for command in ("twin", "n-sweep")
        ],
        ("twin", dict(tau=0.015, t_end=0.05), "t_end = 0.05 is not a whole number of steps"),
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
_FUZZ_COMMANDS = ("constants", "twin", "contraction", "soak", "tau-sweep", "n-sweep")
_FUZZ_CHANGES = st.lists(
    st.sampled_from(sorted(_FUZZ_VALUES)), min_size=1, max_size=3, unique=True
).flatmap(
    lambda keys: st.fixed_dictionaries({k: st.sampled_from(_FUZZ_VALUES[k]) for k in keys})
)


def _fuzz_exit(command: str, changes: dict) -> int:
    """The exit code of `command` on _FUZZ_BASE with `changes`, in a fresh
    temporary directory.  A seed no config can hold reaches main as the
    --seed override."""
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
        return cli.main(argv)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(_FUZZ_COMMANDS), changes=_FUZZ_CHANGES)
def test_cli_exits_0_1_or_2_on_adversarial_configs(command, changes):
    # a run passes (0), fails a check (1) or is rejected by a ConfigError (2);
    # any other exception escapes main and fails this test
    assert _fuzz_exit(command, changes) in (0, 1, 2)


# The exit codes of every one-key draw: per key, one string per value of
# _FUZZ_VALUES in order, one digit per command of _FUZZ_COMMANDS in order.
# `tests/fuzz_all.py` runs every draw of one to three keys.
_ONE_KEY_EXITS = {
    "beta": ["010201", "010201", "010211"],
    "forcing": ["022222", "022222"],
    "forcing_amplitude": ["222222", "222222"],
    "forcing_kappa": ["222222", "222222"],
    "grid_n": ["222222", "222222", "222222", "222222", "222222"],
    "h": ["010201", "010201", "222222", "222222", "222222"],
    "ic": ["010001", "020011", "010201"],
    "ic_amplitude": ["010201"],
    "interpolant": ["222222", "222222"],
    "lambda_cut": ["222222", "010001", "222222"],
    "lambda_cut_list": ["010002", "010002", "010002"],
    "nu": ["222222", "011211", "222222", "222222"],
    "seed": ["222222"],
    "tau": ["020002", "020002", "020002"],
    "truth": ["010001", "022222"],
}


def test_cli_pins_the_exit_code_of_every_one_key_draw():
    # 41 values x 6 commands, each run end to end: a change in any verdict
    # or rejection shows here, whichever draws the sampled fuzz makes
    exits = {
        key: ["".join(str(_fuzz_exit(c, {key: v})) for c in _FUZZ_COMMANDS) for v in values]
        for key, values in _FUZZ_VALUES.items()
    }
    assert exits == _ONE_KEY_EXITS


@pytest.mark.parametrize("truth", ["nse_integrate", "analytic:taylor_green"])
def test_cli_n_sweep_reports_finite_errors_past_the_square_overflow(tmp_path, truth):
    # nu = 1e-300 puts phi1's correction near 1e299: its norm is finite, so
    # the report reads finite errors, and no overflow warning escapes main
    cfg_path = tmp_path / "run.cfg"
    cfg = default_config(**{**_FUZZ_BASE, "forcing": "none", "nu": 1e-300, "truth": truth})
    cfg_path.write_text(render_config(cfg))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--quiet", "--config", str(cfg_path), "--out", str(out), "n-sweep"])
    assert rc == 1
    text = (out / "n_sweep_report.txt").read_text()
    errors = re.findall(r"^err_pp_H:lambda_cut=\S+ = (\S+)$", text, re.M)
    assert len(errors) == 3 and all(math.isfinite(float(e)) for e in errors)
    # each ratio prints in 4 significant digits, however large it is
    improves = re.findall(r"^pp_improves:.*$", text, re.M)
    assert len(improves) == 3 and all(len(line) < 120 for line in improves)


@pytest.mark.parametrize("L, forcing, exits", [
    (1e-152, "random_band", "22"), (1e-80, "none", "01"), (1e-75, "none", "01"),
    (1e150, "none", "01"), (1e155, "random_band", "22"),
])
def test_cli_domain_sides_near_the_ends_of_the_floats(capsys, L, forcing, exits):
    # the config scaled to side L: a side that puts the norms' Parseval
    # weights past the largest float is rejected on L, the others run
    s = 2.0 * math.pi / L
    changes = dict(
        L=L, forcing=forcing, truth="nse_integrate", h=_FUZZ_BASE["h"] / s,
        lambda_cut=9.0 * s * s,
        lambda_cut_list=tuple(x * s * s for x in _FUZZ_BASE["lambda_cut_list"]),
    )
    assert "".join(str(_fuzz_exit(c, changes)) for c in ("constants", "twin")) == exits
    assert ("error: L, grid_n: domain side" in capsys.readouterr().err) == (exits == "22")


def test_cli_diverging_march_fails_its_solver_check_without_warnings(tmp_path):
    # nu = 1e-6 lets the tau sweep's march blow up: the step's finiteness
    # check classifies it as a `solver` failure, and no numpy overflow or
    # invalid-value warning escapes on the way there
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(default_config(**{**_FUZZ_BASE, "nu": 1e-6})))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--quiet", "--config", str(cfg_path), "--out", str(out), "tau-sweep"])
    assert rc == 1
    assert "solver = fail" in (out / "tau_sweep_report.txt").read_text()


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
            gal = schemes._galerkin(experiments._setup(cfg).params)
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


# ---------------------------------------------------------------------------
# the c0 child: a run with volume averages estimates c0 in a forked child


def _volume_twin(**overrides):
    # c0 beta h^2 = 0.04 <= nu = 0.1; the twin passes
    base = dict(interpolant="volume_average", h=2.0 * math.pi / 16, beta=5.0, t_end=0.5)
    return tiny_twin_config(**{**base, **overrides})


@pytest.fixture
def forks(monkeypatch):
    """The pids forked while the test runs, in a process taken to have two CPUs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "overrides, stall, outcome",
    [
        ({}, False, PASS),
        # the truth march stalls: the conditions are joined on the way out
        (dict(truth="nse_integrate", truth_spinup=0.0), True, FAIL),
        # v0 = P_N u(0): exit 2 after the truth, while the child may still run
        (dict(ic="truth_low"), False, ConfigError),
    ],
    ids=["passes", "truth_stalls", "v0_is_u0"],
)
def test_no_c0_child_outlives_a_volume_average_twin(
    tmp_path, monkeypatch, forks, overrides, stall, outcome
):
    if stall:
        monkeypatch.setattr(schemes, "gmres", _stalled_gmres)
    cfg = _volume_twin(**overrides)
    if outcome is ConfigError:
        with pytest.raises(ConfigError, match="v0 != u"):
            run_twin_experiment(cfg, str(tmp_path))
    else:
        report = run_twin_experiment(cfg, str(tmp_path))
        assert report.status == outcome
        assert [c.name for c in report.conditions] == [
            "beta_lower_bound", "interpolant_resolution"
        ]
    assert len(forks) == 1
    _assert_no_child_left()


def test_the_conditions_take_the_c0_the_child_computed(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(experiments, "estimate_c0", lambda spec, grid: float(os.getpid()))
    report = run_twin_experiment(_volume_twin(), str(tmp_path))
    assert report.conditions[1].note == f"c0={float(forks[0]):g}"
    _assert_no_child_left()


def test_an_exception_in_the_c0_child_reaches_the_caller(tmp_path, monkeypatch, forks):
    def broken(spec, grid):
        raise FloatingPointError("probe fault")

    monkeypatch.setattr(experiments, "estimate_c0", broken)
    with pytest.raises(FloatingPointError, match="probe fault"):
        run_twin_experiment(_volume_twin(), str(tmp_path))
    assert len(forks) == 1
    _assert_no_child_left()
    assert not any(tmp_path.iterdir())


def test_the_forked_c0_writes_the_inline_bytes(tmp_path, monkeypatch, forks):
    cfg = _volume_twin()
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    run_twin_experiment(cfg, str(forked))
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    run_twin_experiment(cfg, str(inline))
    assert len(forks) == 1
    assert (forked / "twin_series.csv").read_bytes() == (inline / "twin_series.csv").read_bytes()
    report = (forked / "twin_report.txt").read_text()
    # the report names its own series file
    assert report.replace(str(forked), str(inline)) == (inline / "twin_report.txt").read_text()
    setup = experiments._setup(cfg)
    c0 = experiments.estimate_c0(setup.params.interpolant, setup.grid)
    resolution = next(ln for ln in report.splitlines() if ln.startswith("interpolant_resolution"))
    assert resolution.endswith(f", c0={c0:g})")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(cfg))
    out = tmp_path / "constants"
    assert cli.main(["--quiet", "--config", str(cfg_path), "--out", str(out), "constants"]) == 0
    assert resolution in (out / "constants_report.txt").read_text().splitlines()


def test_only_a_march_with_a_probed_c0_forks(tmp_path, forks):
    # constants (no march), the soak (it reads the conditions at its front
    # door) and Fourier truncation (c0 = 1) compute c0 inline
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(render_config(_volume_twin()))
    assert cli.main(["--quiet", "--config", str(cfg_path), "--out", str(tmp_path), "constants"]) == 0
    assert run_stability_soak(_volume_twin(soak_steps=5), str(tmp_path)).status == PASS
    assert run_twin_experiment(tiny_twin_config(t_end=0.3), str(tmp_path)).conditions
    assert forks == []
    # a setup read outside a run computes its conditions inline
    setup = experiments._setup(_volume_twin(), horizon=(0.5, "t_end"))
    experiments._start(setup)
    assert setup.conditions[1].passed and forks == []


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
    gal = schemes._galerkin(experiments._setup(cfg).params)
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
