"""Binary snapshot format, trajectory store, and atomic file writes.

Snapshot layout (little-endian): header = magic "NNSF", version u32,
L f64, n u32, lambda_cut f64; body = the (2, n, n) complex128
coefficient array, component-major, each component row-major.

A trajectory holds time-ordered frames in memory: fields, or the packed
Galerkin vectors that the solver marches (see `schemes`), from which it
builds a field only on request.  `Trajectory.lookup` interpolates between
stored times with 4-point Lagrange weights, for the frames themselves and
for per-frame data derived linearly from them (packed observations).
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
SNAPSHOT_VERSION = 1
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
    body = np.ascontiguousarray(field.coeffs).astype("<c16").tobytes()
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
    grid = TorusGrid(L=L, n=int(n))
    expected = _HEADER.size + 2 * n * n * 16
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"{path}: expected {expected} bytes for n={n}, got {len(raw)}"
        )
    c = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(2, n, n)
    field = SpectralField.from_coeffs(grid, c.astype(np.complex128))
    return field, GalerkinCutoff(lam)


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

    A plain trajectory stores fields.  A packed trajectory stores one packed
    vector per frame together with its packing (an object whose
    `_field(vec)` builds the field), and builds a field only when one is
    asked for: `at`, `fields`.  Queries at stored times return the stored
    frame; between samples a 4-point Lagrange polynomial in time is used
    (linear combinations preserve the field invariants exactly).
    exact_queries and interpolated_queries count the lookups of each kind
    so callers can report them.
    """

    _EXACT_RTOL = 1e-9

    def __init__(self, grid: TorusGrid, packing=None) -> None:
        self.grid = grid
        self.packing = packing
        self.steps: list[int] = []
        self._times: list[float] = []
        # fields (plain) or packed vectors (packed)
        self.frames: list = []
        self.interpolated_queries = 0
        self.exact_queries = 0
        self._times_arr: np.ndarray | None = None

    def append(self, step: int, t: float, frame) -> None:
        """Store a field, or a packed vector in a packed trajectory."""
        if self.packing is None and frame.grid != self.grid:
            raise ValueError("snapshot grid differs from trajectory grid")
        if self._times and t <= self._times[-1]:
            raise ValueError(
                f"snapshot times must increase: got {t} after {self._times[-1]}"
            )
        self.steps.append(int(step))
        self._times.append(float(t))
        self.frames.append(frame)
        self._times_arr = None

    @property
    def times(self) -> np.ndarray:
        if self._times_arr is None:
            self._times_arr = np.asarray(self._times, dtype=float)
        return self._times_arr

    def __len__(self) -> int:
        return len(self._times)

    @property
    def t_end(self) -> float:
        return self._times[-1]

    @property
    def fields(self) -> list[SpectralField]:
        """The stored frames as fields (built anew for a packed trajectory)."""
        if self.packing is None:
            return list(self.frames)
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

    def lookup(self, frames, t: float):
        """The entry of `frames` (one per stored time) at time t.

        frames may be the stored frames or any data derived linearly from
        them; between stored times the entries are interpolated.
        """
        lo, weights = self.stencil(t)
        if weights is None:
            return frames[lo]
        out = frames[lo] * weights[0]
        for m in range(1, len(weights)):
            out = out + frames[lo + m] * weights[m]
        return out

    def frame_at(self, t: float):
        """Stored frame at time t if t matches, else interpolated."""
        return self.lookup(self.frames, t)

    def at(self, t: float) -> SpectralField:
        """Field at time t: stored snapshot if t matches, else interpolated."""
        frame = self.frame_at(t)
        return frame if self.packing is None else self.packing._field(frame)


def series_to_csv(header: Iterable[str], rows: Iterable[Iterable[float]]) -> str:
    """Render a numeric table with full-precision floats, ints kept as ints."""
    out = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(FLOAT_FMT % float(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
