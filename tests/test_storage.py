"""Snapshot format, trajectory store, interpolation, atomic writes."""

import numpy as np
import pytest

from nudgeflow import storage
from nudgeflow.fields import GalerkinCutoff, SpectralField, TorusGrid, norm_H, random_field
from nudgeflow.schemes import PhysicsParams, _galerkin
from nudgeflow.storage import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
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
    p1, p2 = tmp_path / "a.nnsf", tmp_path / "b.nnsf"
    save_snapshot(str(p1), f)
    save_snapshot(str(p2), f)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_format_errors(tmp_path, rng, grid16):
    f = random_field(grid16, rng)
    path = tmp_path / "f.nnsf"
    save_snapshot(str(path), f)
    blob = path.read_bytes()
    assert blob[:4] == SNAPSHOT_MAGIC

    bad_magic = tmp_path / "m.nnsf"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(str(bad_magic))

    short = tmp_path / "s.nnsf"
    short.write_bytes(blob[:10])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(str(short))

    chopped = tmp_path / "c.nnsf"
    chopped.write_bytes(blob[:-8])
    with pytest.raises(SnapshotFormatError, match="expected"):
        load_snapshot(str(chopped))

    versioned = tmp_path / "v.nnsf"
    versioned.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(SnapshotFormatError, match="version"):
        load_snapshot(str(versioned))


def _write_snapshot(path, version=SNAPSHOT_VERSION, L=2.0 * np.pi, n=16, lam=9.0,
                    body=None):
    """A snapshot file with the given header; the body defaults to the
    amplitudes of a zero field on the n = 16 grid."""
    if body is None:
        body = SpectralField.zero(TorusGrid(2.0 * np.pi, 16)).coeffs
    head = storage._HEADER.pack(SNAPSHOT_MAGIC, version, L, n, lam)
    path.write_bytes(head + np.asarray(body).astype("<c16").tobytes())
    return str(path)


@pytest.mark.parametrize(
    "header",
    [dict(n=3), dict(n=0), dict(L=-1.0), dict(lam=np.nan), dict(L=np.inf),
     dict(lam=np.inf)],
    ids=["n=3", "n=0", "L=-1", "lam=nan", "L=inf", "lam=inf"],
)
def test_snapshot_rejects_bad_headers_naming_the_file(tmp_path, header):
    path = _write_snapshot(tmp_path / "bad.nnsf", **header)
    with pytest.raises(SnapshotFormatError, match="bad.nnsf: bad header"):
        load_snapshot(path)


def test_snapshot_rejects_version_1_and_non_finite_bodies(tmp_path):
    # version 1 stored the (2, n, n) coefficient array
    n = 16
    v1 = _write_snapshot(tmp_path / "v1.nnsf", version=1, body=np.zeros((2, n, n)))
    with pytest.raises(SnapshotFormatError, match="v1.nnsf: unsupported version 1"):
        load_snapshot(v1)
    body = np.array(SpectralField.zero(TorusGrid(2.0 * np.pi, n)).coeffs)
    body[3] = np.nan
    with pytest.raises(SnapshotFormatError, match="nan.nnsf: .*finite"):
        load_snapshot(_write_snapshot(tmp_path / "nan.nnsf", body=body))


def _band_packing(grid):
    """The packing of every mode in grid's dealiased band."""
    return _galerkin(
        PhysicsParams(0.1, grid, SpectralField.zero(grid), 0.0, None, grid.band_cutoff())
    )


def test_trajectory_append_guards(rng, grid16):
    gal = _band_packing(grid16)
    traj = Trajectory(gal)
    x = gal._pack_field(random_field(grid16, rng))
    traj.append(0.0, x)
    with pytest.raises(ValueError, match="increase"):
        traj.append(0.0, x)


def test_trajectory_exact_and_interpolated_lookup(rng, grid16):
    # frames polynomial (cubic) in t: 4-point Lagrange interpolation in
    # time must reproduce them exactly between samples
    gal = _band_packing(grid16)
    base = gal._pack_field(random_field(grid16, rng, norm_v=1.0))

    def frame_at(t):
        return base * (1.0 + 0.5 * t - 0.25 * t**2 + 0.125 * t**3)

    traj = Trajectory(gal)
    times = np.linspace(0.0, 2.0, 9)
    for t in times:
        traj.append(float(t), frame_at(float(t)))

    got = traj.at(0.5)
    assert traj.exact_queries == 1 and traj.interpolated_queries == 0
    assert np.array_equal(got.coeffs, gal._field(frame_at(0.5)).coeffs)

    mid = 0.625  # strictly between stored samples
    got = traj.at(mid)
    assert traj.interpolated_queries == 1
    assert norm_H(got - gal._field(frame_at(mid))) <= 1e-12 * norm_H(gal._field(base))

    with pytest.raises(ValueError, match="outside"):
        traj.at(2.5)
    with pytest.raises(ValueError, match="empty"):
        Trajectory(gal).at(0.0)


def test_trajectory_near_time_tolerance(rng, grid16):
    gal = _band_packing(grid16)
    traj = Trajectory(gal)
    x = gal._pack_field(random_field(grid16, rng))
    traj.append(0.0, x)
    traj.append(0.1, x * 2.0)
    # a query within the relative tolerance snaps to the stored sample
    got = traj.at(0.1 + 1e-12)
    assert np.array_equal(got.coeffs, gal._field(x * 2.0).coeffs)
    assert traj.interpolated_queries == 0


def test_trajectory_with_a_given_stencil_reads_every_time_through_it(rng, grid16):
    # an analytic solution: its frames and closed-form weights, read at any
    # time without appended times, and counted as no lookup of either kind
    gal = _band_packing(grid16)
    frames = [gal._pack_field(random_field(grid16, rng)) for _ in range(2)]

    def stencil(t):
        return 0, [np.cos(t), np.sin(t)]

    traj = Trajectory(gal, frames, stencil)
    for t in (0.0, 0.3, 7.5):
        expected = storage.combine(frames, *stencil(t))
        assert np.array_equal(traj.packed(t), expected)
        assert np.array_equal(traj.at(t).coeffs, gal._field(expected).coeffs)
    assert traj.exact_queries == 0 and traj.interpolated_queries == 0


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
    # an int and an integral float print alike, as str prints the int
    big = 2**53 - 1
    assert series_to_csv(("a", "b", "c"), [(7, 7.0, big), (0, -0.0, float(big))]) == (
        f"a,b,c\n7,7,{big}\n0,-0,{big}\n"
    )
