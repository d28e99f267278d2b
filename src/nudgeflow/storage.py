"""Binary snapshot format, trajectory store, and atomic file writes.

Snapshot layout (little-endian): header = magic "NNSF", version u32,
L f64, n u32, lambda_cut f64; body = the field's complex128 amplitudes
on the band packing of the n x n grid (`fields._Packing`, one per
half-plane mode of |j|_inf <= band_limit, in the packing's order).
Every finite body is a valid field, so loading checks only the header,
the body size and finiteness.

A trajectory holds time-ordered frames in memory: the packed Galerkin
vectors that the solver marches (see `schemes`), from which it builds a
field only on request.  `Trajectory.stencil` names the frames of a time:
the stored frame at a stored time, else the 4-point Lagrange weights of
the stored times around it.  `combine` applies a stencil to the frames
themselves or to per-frame data derived linearly from them (packed
observations), so a trajectory is a truth (`schemes.TruthSource`).
"""

from __future__ import annotations

import os
import struct
import tempfile
from collections.abc import Iterable

import numpy as np

from .fields import GalerkinCutoff, SpectralField, TorusGrid

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotFormatError",
    "save_snapshot",
    "load_snapshot",
    "Trajectory",
    "atomic_write_bytes",
    "atomic_write_text",
]

SNAPSHOT_MAGIC = b"NNSF"
SNAPSHOT_VERSION = 2
_HEADER = struct.Struct("<4sIdId")
# Float format guaranteeing exact double round-trip in text outputs.
FLOAT_FMT = "%.17g"


class SnapshotFormatError(ValueError):
    """A snapshot file is malformed or has an unsupported version."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write bytes via a temp file + rename so readers never see partials."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_snapshot(
    path: str, field: SpectralField, cutoff: GalerkinCutoff | None = None
) -> None:
    """Serialize a field (and the cutoff it was computed under) to one file."""
    lam = cutoff.lambda_cut if cutoff is not None else field.grid.band_cutoff().lambda_cut
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, float(field.grid.L), field.grid.n, float(lam)
    )
    body = field.coeffs.astype("<c16").tobytes()
    atomic_write_bytes(path, header + body)


def load_snapshot(path: str) -> tuple[SpectralField, GalerkinCutoff]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, L, n, lam = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    try:
        grid, cutoff = TorusGrid(L=L, n=int(n)), GalerkinCutoff(lam)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: bad header: {exc}") from exc
    # 16 bytes per half-plane mode of the band, counted before any array
    # of the header's size is built
    expected = _HEADER.size + 8 * ((2 * grid.band_limit + 1) ** 2 - 1)
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"{path}: expected {expected} bytes for n={n}, got {len(raw)}"
        )
    c = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    try:
        field = SpectralField.from_coeffs(grid, c)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc
    return field, cutoff


def _lagrange_weights(times: np.ndarray, t: float) -> tuple[int, list[float]]:
    """First index and weights of the 4-point Lagrange stencil at time t.

    The stencil is the (at most) four stored times around t, shifted
    inward at the ends of the range.
    """
    width = min(4, len(times))
    i = int(np.searchsorted(times, t, side="right")) - 1
    lo = int(np.clip(i - (width - 1) // 2, 0, len(times) - width))
    xs = times[lo : lo + width]
    weights = []
    for m in range(width):
        w = 1.0
        for l in range(width):
            if l != m:
                w *= (t - xs[l]) / (xs[m] - xs[l])
        weights.append(w)
    return lo, weights


class Trajectory:
    """Time-ordered frames with exact lookup plus cubic time interpolation.

    Stores one packed vector per frame together with its packing (an
    object whose `_field(vec)` builds the field), and builds a field only
    when one is asked for: `at`, `fields`.  Queries at stored times return
    the stored frame; between samples a 4-point Lagrange polynomial in
    time is used (linear combinations preserve the field invariants
    exactly).
    exact_queries and interpolated_queries count the lookups of each kind
    so callers can report them.
    """

    _EXACT_RTOL = 1e-9

    def __init__(self, packing) -> None:
        self.packing = packing
        self._times: list[float] = []
        self.frames: list[np.ndarray] = []
        self.interpolated_queries = 0
        self.exact_queries = 0
        self._times_arr: np.ndarray | None = None

    def append(self, t: float, frame: np.ndarray) -> None:
        """Store the packed vector of the state at time t."""
        if self._times and t <= self._times[-1]:
            raise ValueError(
                f"snapshot times must increase: got {t} after {self._times[-1]}"
            )
        self._times.append(float(t))
        self.frames.append(frame)
        self._times_arr = None

    @property
    def times(self) -> np.ndarray:
        if self._times_arr is None:
            self._times_arr = np.asarray(self._times, dtype=float)
        return self._times_arr

    @property
    def fields(self) -> list[SpectralField]:
        """The stored frames as fields, built anew."""
        return [self.packing._field(vec) for vec in self.frames]

    def stencil(self, t: float) -> tuple[int, list[float] | None]:
        """Frame index and Lagrange weights for time t (weights None: exact).

        Counts the query as exact or interpolated.
        """
        if not self._times:
            raise ValueError("empty trajectory")
        times = self.times
        i = int(np.searchsorted(times, t))
        tol = self._EXACT_RTOL * (1.0 + abs(t))
        for j in (i - 1, i):
            if 0 <= j < len(times) and abs(times[j] - t) <= tol:
                self.exact_queries += 1
                return j, None
        if t < times[0] - tol or t > times[-1] + tol:
            raise ValueError(
                f"time {t} outside stored range [{times[0]}, {times[-1]}]"
            )
        if len(times) < 2:
            raise ValueError("cannot interpolate a single-snapshot trajectory")
        self.interpolated_queries += 1
        return _lagrange_weights(times, t)

    def at(self, t: float) -> SpectralField:
        """Field at time t: stored snapshot if t matches, else interpolated."""
        return self.packing._field(combine(self.frames, *self.stencil(t)))


def combine(frames, lo: int, weights: list[float] | None):
    """frames[lo] if weights is None, else the sum of weights[m] frames[lo + m].

    frames is any sequence of packed vectors (or rows of an array).
    """
    if weights is None:
        return frames[lo]
    out = frames[lo] * weights[0]
    for m in range(1, len(weights)):
        out = out + frames[lo + m] * weights[m]
    return out


def series_to_csv(header: Iterable[str], rows: Iterable[Iterable[float]]) -> str:
    """Render a numeric table with full-precision floats.

    FLOAT_FMT prints every integer below 2^53 as `str` does, so integer
    columns need no format of their own.
    """
    header = tuple(header)
    fmt = ",".join([FLOAT_FMT] * len(header))
    out = [",".join(header)]
    out.extend(fmt % tuple(row) for row in rows)
    return "\n".join(out) + "\n"
