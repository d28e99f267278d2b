"""Experiment config: parsing, validation, and lossless round-trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgeflow.config import (
    ConfigError,
    default_config,
    load_config,
    parse_config_text,
    render_config,
)
from nudgeflow.storage import MAX_STEPS

MINIMAL = """
[physics]
nu = 0.1

[experiment]
tau = 0.005
t_end = 2.0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.nu == 0.1
    assert cfg.tau == 0.005
    assert cfg.t_end == 2.0
    assert cfg.grid_n == 64
    assert cfg.scheme == "semi_implicit"
    assert cfg.forcing == "kolmogorov"
    assert cfg.seed == 20260815
    assert cfg.out_dir == "out"
    assert cfg.L == pytest.approx(2.0 * math.pi)


def test_default_config_overrides_by_attribute():
    cfg = default_config(grid_n=32, beta=7.5, tau_list=(0.1, 0.05, 0.025, 0.0125))
    assert cfg.grid_n == 32
    assert cfg.beta == 7.5
    assert cfg.tau_list == (0.1, 0.05, 0.025, 0.0125)
    with pytest.raises(TypeError):
        default_config(not_a_field=1)


def test_render_parse_round_trip_is_identity():
    cfg = default_config(
        nu=0.037, beta=12.25, tau=1.0 / 3.0, t_end=7.7, h=0.094868329805051381,
        lambda_cut_list=(6.0, 16.0, 40.0),
    )
    text = render_config(cfg)
    back = parse_config_text(text)
    assert back == cfg
    assert render_config(back) == text


def test_file_round_trip(tmp_path):
    cfg = default_config(grid_n=48, forcing="random_band", forcing_decay=1.25)
    path = tmp_path / "exp.cfg"
    path.write_text(render_config(cfg))
    assert load_config(str(path)) == cfg


def test_comments_and_blank_lines_ignored():
    text = MINIMAL + "\n# trailing comment\nburn_in = 0.5  # inline\n"
    cfg = parse_config_text(text)
    assert cfg.burn_in == 0.5


def test_duplicate_key_rejected_with_line_number():
    text = MINIMAL + "tau = 0.01\n"
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError, match=rf"cfgfile:{lineno}: duplicate key 'tau'"):
        parse_config_text(text, origin="cfgfile")


def test_key_before_section_rejected():
    with pytest.raises(ConfigError, match="before any"):
        parse_config_text("nu = 0.1\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match=r":2: expected 'key = value'"):
        parse_config_text("[physics]\nnu 0.1\n")
    with pytest.raises(ConfigError, match="empty section"):
        parse_config_text("[]\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("[physics]\n= 3\n")


def test_missing_required_key_names_key_and_section():
    with pytest.raises(ConfigError, match=r"missing required key 'nu' in section \[physics\]"):
        parse_config_text("[experiment]\ntau = 0.1\nt_end = 1.0\n")
    with pytest.raises(ConfigError, match=r"'t_end' in section \[experiment\]"):
        parse_config_text("[physics]\nnu = 0.1\n[experiment]\ntau = 0.1\n")


def test_unknown_key_warns_and_is_ignored():
    with pytest.warns(UserWarning, match=r"unknown key 'viscosity'"):
        cfg = parse_config_text(MINIMAL + "viscosity = 3\n")
    assert cfg.nu == 0.1


@pytest.mark.parametrize(
    "section, key, value",
    [
        # c is fixed at 1 and the n-sweep halves tau: a file that still
        # sets either loads as if it did not, whatever it set them to
        ("physics", "condition_c", "-1"),
        ("sweep", "tau_floor_factor", "0"),
        ("sweep", "tau_floor_factor", "-2"),
        ("sweep", "tau_floor_factor", "1"),
    ],
)
def test_removed_keys_warn_and_are_ignored(section, key, value):
    with pytest.warns(UserWarning, match=rf"unknown key '{key}' in section \[{section}\]"):
        cfg = parse_config_text(MINIMAL + f"[{section}]\n{key} = {value}\n")
    assert cfg == parse_config_text(MINIMAL)
    assert not hasattr(cfg, key)


def test_type_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r":3: key 'nu'"):
        parse_config_text("\n[physics]\nnu = fast\n[experiment]\ntau=1\nt_end=2\n")
    # integer keys reject fractional and non-finite values but accept
    # integral floats
    physics = "[physics]\nnu = 0.1\ngrid_n = {}\n[experiment]\ntau = 1\nt_end = 2\n"
    for value in ("48.5", "inf", "-inf", "1e400", "nan"):
        with pytest.raises(ConfigError, match=r":3: key 'grid_n': .*integer"):
            parse_config_text(physics.format(value))
    cfg = parse_config_text(physics.format("48.0"))
    assert cfg.grid_n == 48


def test_choice_keys_validated():
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config_text(MINIMAL + "scheme = rk4\n")
    cfg = parse_config_text(MINIMAL + "scheme = fully_implicit\n")
    assert cfg.scheme == "fully_implicit"


def test_burn_in_must_precede_t_end():
    with pytest.raises(ConfigError, match="burn_in"):
        parse_config_text(MINIMAL + "burn_in = 2.0\n")


@pytest.mark.parametrize(
    "section, key, value, match",
    [
        ("experiment", "tau", "0", "tau must be positive"),
        ("experiment", "tau", "-0.01", "tau must be positive"),
        ("experiment", "tau", "nan", "tau must be positive"),
        # an Euler stepper adds 1/tau to its diagonal: these failed their solver
        ("experiment", "tau", "5e-324", "tau must be positive with a finite reciprocal"),
        ("experiment", "tau", "1e-310", "with a finite reciprocal, got 1e-310"),
        ("sweep", "tau_list", "0.02, 0.0, 0.005", "tau_list entries"),
        ("sweep", "tau_list", "0.02, -0.01, 0.005", "tau_list entries"),
        ("sweep", "tau_list", "0.02, 1e-310", "tau_list entries must be positive with a finite"),
        # the runners label an entry by %g: these two share the label 0.01
        ("sweep", "tau_list", "0.01, 0.0100000001", "tau_list entries must differ"),
        ("sweep", "lambda_cut_list", "6, 16, 16.0000001", "lambda_cut_list entries must differ"),
        ("experiment", "truth_dt_factor", "0", "truth_dt_factor must be >= 1"),
        ("experiment", "truth_spinup", "-1", "truth_spinup must be nonnegative"),
        ("experiment", "truth_store_every", "0", "truth_store_every must be >= 1"),
        ("experiment", "soak_steps", "-3", "soak_steps must be >= 1"),
        ("experiment", "soak_steps", "0", "soak_steps must be >= 1"),
        ("experiment", "contraction_steps", "-3", "contraction_steps must be >= 1"),
        ("experiment", "contraction_steps", "0", "contraction_steps must be >= 1"),
        # past MAX_STEPS no step can be told from its neighbours; with an
        # analytic truth nothing else counts these marches
        ("experiment", "soak_steps", "3000000000", "soak_steps must be <= MAX_STEPS"),
        ("experiment", "contraction_steps", str(MAX_STEPS + 1),
         f"contraction_steps must be <= MAX_STEPS = {MAX_STEPS}, got {MAX_STEPS + 1}"),
        # numpy's generators reject it only when a runner draws
        ("experiment", "seed", "-1", "seed must be nonnegative"),
    ],
)
def test_inadmissible_time_steps_rejected(section, key, value, match):
    text = MINIMAL.replace("tau = 0.005\n", "") if key == "tau" else MINIMAL
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text + f"[{section}]\n{key} = {value}\n")


def test_step_counts_up_to_max_steps_load():
    cfg = default_config(soak_steps=MAX_STEPS, contraction_steps=MAX_STEPS)
    assert (cfg.soak_steps, cfg.contraction_steps) == (MAX_STEPS, MAX_STEPS)


def test_float_list_keys():
    cfg = parse_config_text(MINIMAL + "[sweep]\ntau_list = 0.1, 0.05\nlambda_cut_list =\n")
    assert cfg.tau_list == (0.1, 0.05)
    assert cfg.lambda_cut_list == ()


@settings(max_examples=30, deadline=None)
@given(
    nu=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    tau=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
    beta=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
def test_float_precision_survives_round_trip(nu, tau, beta):
    cfg = default_config(nu=nu, tau=tau, beta=beta)
    assert parse_config_text(render_config(cfg)) == cfg


# Float keys that ran (or failed late with exit 1) when NaN or infinite.
NON_FINITE = [
    ("physics", "beta", "nan"),
    ("physics", "beta", "inf"),
    ("experiment", "ic_amplitude", "nan"),
    ("experiment", "min_decay_orders", "nan"),
    ("physics", "nu", "-inf"),
    ("sweep", "lambda_cut_list", "6.0, inf, 40.0"),
]


@pytest.mark.parametrize("section, key, value", NON_FINITE)
def test_non_finite_values_rejected_by_load_config(tmp_path, section, key, value):
    path = tmp_path / "run.cfg"
    text = MINIMAL.replace("nu = 0.1\n", "") if key == "nu" else MINIMAL
    path.write_text(text + f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(str(path))


@pytest.mark.parametrize("section, key, value", NON_FINITE)
def test_non_finite_values_rejected_by_default_config(section, key, value):
    parsed = tuple(float(x) for x in value.split(","))
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        default_config(**{key: parsed if len(parsed) > 1 else parsed[0]})
