"""Binary snapshot format, trajectory store, and atomic file writes.

Snapshot layout (little-endian): header = magic "NNSF", version u32,
L f64, n u32, lambda_cut f64; body = the field's complex128 amplitudes
on the band packing of the n x n grid (`fields._Packing`, one per
half-plane mode of |j|_inf <= band_limit, in the packing's order).
Every finite body is a valid field, so loading checks only the header,
the body size and finiteness.

`Trajectory` is the one type of a solution held as frames: packed
vectors (see `schemes`) read through a time stencil, u(t) =
combine(frames, *stencil(t)), from which it builds a field only on
request.  A march that `advance` stores appends its frames, and its
stencil names the stored frame at a stored time, else the 4-point
Lagrange weights of the stored times around it; an analytic solution
gives its frames and stencil at construction.  Every truth the solver
observes and every reference it measures errors against is one:
`combine` applies the stencil to the frames themselves or to per-frame
data derived linearly from them (packed observations).
"""

from __future__ import annotations

import os
import struct
import tempfile
from collections.abc import Callable, Iterable

import numpy as np

from .fields import GalerkinCutoff, SpectralField, TorusGrid, _map, _Packing

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
    """A solution u(t) = combine(frames, *stencil(t)), packed on `packing`,
    which holds every mode of u.

    frames are packed vectors; stencil(t) returns the index of u(t)'s first
    frame and the weights of it and the frames after it (None: u(t) is
    that frame).  Without a given stencil the frames are those appended
    with their times, and `stencil` returns the stored frame at a stored
    time, else a 4-point Lagrange polynomial in time (linear combinations
    preserve the field invariants exactly); exact_queries and
    interpolated_queries count the lookups of each kind so callers can
    report them.  A given stencil, such as (0, None) for a steady u,
    replaces it and counts nothing.  Fields are built only when asked
    for: `at`, `fields`.
    """

    _EXACT_RTOL = 1e-9

    def __init__(
        self,
        packing: _Packing | None,
        frames: list[np.ndarray] | None = None,
        stencil: Callable[[float], tuple[int, list[float] | None]] | None = None,
    ) -> None:
        self.packing = packing
        self._times: list[float] = []
        self.frames: list[np.ndarray] = [] if frames is None else frames
        if stencil is not None:
            self.stencil = stencil
        self.interpolated_queries = 0
        self.exact_queries = 0
        self._times_arr: np.ndarray | None = None
        self._observed: dict[tuple, np.ndarray] = {}

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

    def packed(self, t: float) -> np.ndarray:
        """u(t) packed on `packing`."""
        return combine(self.frames, *self.stencil(t))

    def at(self, t: float) -> SpectralField:
        """The field of u(t), built anew."""
        return self.packing._field(self.packed(t))

    def observe(self, gal, t: float) -> np.ndarray:
        """P_N P_sigma I_h u(t) packed in gal (a `schemes._Galerkin`),
        I_h = gal.p.interpolant.

        The frames are observed once per packing and interpolant that
        observe u, in one product, and combined with the stencil.
        """
        key = (gal.grid, gal.p.cutoff, gal.p.interpolant)
        if key not in self._observed:
            if gal.grid != self.packing.grid:
                raise ValueError("observed truth grid differs from params grid")
            pair = gal._observation_map(self.packing.modes)
            self._observed[key] = _map(pair, np.array(self.frames))
        return combine(self._observed[key], *self.stencil(t))

    def errors(
        self, packing: _Packing, times: Iterable[float], rows: Iterable[np.ndarray]
    ) -> np.ndarray:
        """[err_H, err_V, err_DA] of v - u(t) for each vector v packed in
        `packing` and its time t, one row each, v embedded in this
        trajectory's packing.  Each difference is built and measured on its
        own, which holds one vector of this packing at a time."""
        own = self.packing
        at = own._index_of(packing.modes)
        out = []
        for t, x in zip(times, rows):
            d = -self.packed(t)
            d[at] += x
            out.append(own.norms(d))
        return np.array(out)


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
