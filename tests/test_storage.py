"""Snapshot format, trajectory store, interpolation, atomic writes."""

import numpy as np
import pytest

from nudgeflow.fields import GalerkinCutoff, norm_H, random_field
from nudgeflow.storage import (
    SNAPSHOT_MAGIC,
    SnapshotFormatError,
    Trajectory,
    atomic_write_bytes,
    atomic_write_text,
    load_snapshot,
    save_snapshot,
    series_to_csv,
)


def test_snapshot_round_trip(tmp_path, rng, grid16):
    f = random_field(grid16, rng, norm_v=2.0)
    path = str(tmp_path / "f.nnsf")
    save_snapshot(path, f, GalerkinCutoff(9.0))
    g, cut = load_snapshot(path)
    assert g.grid == grid16
    assert cut.lambda_cut == 9.0
    assert np.array_equal(g.coeffs, f.coeffs)


def test_snapshot_defaults_to_band_cutoff(tmp_path, rng, grid16):
    f = random_field(grid16, rng)
    path = str(tmp_path / "f.nnsf")
    save_snapshot(path, f)
    _, cut = load_snapshot(path)
    assert cut.lambda_cut == grid16.band_cutoff().lambda_cut


def test_snapshot_writes_are_byte_stable(tmp_path, rng, grid16):
    f = random_field(grid16, rng)
    p1, p2 = str(tmp_path / "a.nnsf"), str(tmp_path / "b.nnsf")
    save_snapshot(p1, f)
    save_snapshot(p2, f)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_snapshot_format_errors(tmp_path, rng, grid16):
    f = random_field(grid16, rng)
    path = str(tmp_path / "f.nnsf")
    save_snapshot(path, f)
    blob = open(path, "rb").read()
    assert blob[:4] == SNAPSHOT_MAGIC

    bad_magic = str(tmp_path / "m.nnsf")
    open(bad_magic, "wb").write(b"XXXX" + blob[4:])
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(bad_magic)

    short = str(tmp_path / "s.nnsf")
    open(short, "wb").write(blob[:10])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(short)

    chopped = str(tmp_path / "c.nnsf")
    open(chopped, "wb").write(blob[:-8])
    with pytest.raises(SnapshotFormatError, match="expected"):
        load_snapshot(chopped)

    versioned = str(tmp_path / "v.nnsf")
    open(versioned, "wb").write(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(SnapshotFormatError, match="version"):
        load_snapshot(versioned)


def test_trajectory_append_guards(rng, grid16, grid32):
    traj = Trajectory(grid16)
    f = random_field(grid16, rng)
    traj.append(0, 0.0, f)
    with pytest.raises(ValueError, match="increase"):
        traj.append(1, 0.0, f)
    with pytest.raises(ValueError, match="grid"):
        traj.append(1, 1.0, random_field(grid32, rng))


def test_trajectory_exact_and_interpolated_lookup(rng, grid16):
    # fields polynomial (cubic) in t: 4-point Lagrange interpolation in
    # time must reproduce them exactly between samples
    base = random_field(grid16, rng, norm_v=1.0)

    def field_at(t):
        return base * (1.0 + 0.5 * t - 0.25 * t**2 + 0.125 * t**3)

    traj = Trajectory(grid16)
    times = np.linspace(0.0, 2.0, 9)
    for k, t in enumerate(times):
        traj.append(k, float(t), field_at(float(t)))

    got = traj.at(0.5)
    assert traj.exact_queries == 1 and traj.interpolated_queries == 0
    assert norm_H(got - field_at(0.5)) == 0.0

    mid = 0.625  # strictly between stored samples
    got = traj.at(mid)
    assert traj.interpolated_queries == 1
    assert norm_H(got - field_at(mid)) <= 1e-12 * norm_H(base)

    with pytest.raises(ValueError, match="outside"):
        traj.at(2.5)
    with pytest.raises(ValueError, match="empty"):
        Trajectory(grid16).at(0.0)


def test_trajectory_near_time_tolerance(rng, grid16):
    traj = Trajectory(grid16)
    f = random_field(grid16, rng)
    traj.append(0, 0.0, f)
    traj.append(1, 0.1, f * 2.0)
    # a query within the relative tolerance snaps to the stored sample
    got = traj.at(0.1 + 1e-12)
    assert norm_H(got - f * 2.0) == 0.0
    assert traj.interpolated_queries == 0


def test_atomic_writes_leave_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [p for p in target.parent.iterdir() if p.name != "out.txt"]
    assert leftovers == []
    atomic_write_bytes(str(target), b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"


def test_series_to_csv_formats():
    text = series_to_csv(("step", "x"), [(0, 0.1), (1, 2.0 / 3.0)])
    lines = text.strip().split("\n")
    assert lines[0] == "step,x"
    assert lines[1].startswith("0,")
    # full-precision floats round-trip exactly through the text form
    assert float(lines[2].split(",")[1]) == 2.0 / 3.0
    assert lines[2].split(",")[0] == "1"
    assert text.endswith("\n")
