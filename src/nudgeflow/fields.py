"""Divergence-free, mean-zero velocity fields on the 2D periodic torus.

A field u on Omega = (0, L)^2 has the Fourier series
u(x) = sum_k uhat(k) exp(i k.x) with k = (2 pi / L) (j1, j2).  Every field
lives in the dealiased square band |j|_inf <= band_limit of an n x n grid
and is stored as one complex amplitude a_k per half-plane mode of that
band (j2 > 0, or j2 = 0 < j1): uhat(k) = a_k e_k with e_k = (-j2, j1) / |j|
and uhat(-k) = conj(uhat(k)), the stream-function Galerkin form of Canuto
et al., Spectral Methods (2006).  Every finite amplitude vector is thus a
real, mean-free, solenoidal field: no code checks or repairs those
invariants.  `SpectralField.from_coeffs`, for arrays from outside the
package (stored snapshots), checks only their shape and finiteness.

`_Packing` holds amplitudes on any set of half-plane modes of the band:
the whole band (`_band_packing`, the packing of every field) or the low
modes of a Galerkin cutoff (the solver's, `schemes._Galerkin`).  It maps
amplitudes between packings by index (`_pack_field`, `_field`), and
through a product grid: `_sample` synthesizes the velocity samples of one
or two packed vectors from their half-plane block j2 >= 0, and `_project`
reads P_sigma of the divergence of a product tensor back at the packed
modes from the samples of its two or three products
(`operators.advect_raw`), each by separable partial DFTs, two small
matrix products per transform.  That is the one product path of
`to_physical`, `operators.bilinear_B` and the solver.  (2, n, n)
coefficient arrays appear only where a full grid is the point: random
draws are packed by the mirror gather `_pack_grid`, which is P_sigma of
the real part, and the full-grid oracles (`oracles.bilinear_B_direct`,
`interpolants.apply_ih`) and the tests unpack fields with `_unpack_grid`.
`leray_project_raw` is the Leray projection of such an array.

The inner product is normalized so that it equals the physical-space
integral: (f, g) = L^2 sum_k fhat(k) . conj(ghat(k)) = 2 L^2 Re sum a_k
conj(b_k).  With that convention norm_H is the L^2 norm, norm_V the H^1
seminorm (gradient norm) and norm_DA the norm of the Stokes operator
applied to the field, so the Poincare chain lambda1^(1/2) |f| <= ||f||
holds per mode.  A norm overflows or underflows only where its value
does: the Parseval weights are floats (`TorusGrid` rejects an L that puts
them past the largest), and where the sum of squares would pass the
largest float or fall below tiny / eps (about 1e-292), the norms are
taken on the amplitudes over the largest (`krylov._rescaled`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .krylov import _SQUARE_FLOOR, _rescaled

__all__ = [
    "GridMismatchError",
    "FieldInvariantError",
    "TorusGrid",
    "GalerkinCutoff",
    "SpectralField",
    "inner_product",
    "norm_H",
    "norm_V",
    "norm_DA",
    "project_low",
    "project_high",
    "is_low_supported",
    "leray_project_raw",
    "to_physical",
    "random_field",
]

# Relative slack when comparing |k|^2 against a cutoff, so that shells
# sitting exactly at the threshold are classified deterministically.
_SHELL_SLACK = 1e-9


class GridMismatchError(ValueError):
    """Two fields on different grids were combined."""


class FieldInvariantError(ValueError):
    """An amplitude array has the wrong shape or a non-finite entry."""


@dataclass(frozen=True)
class TorusGrid:
    """Periodic square domain (0, L)^2 sampled on n x n points."""

    L: float
    n: int

    def __post_init__(self) -> None:
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"domain side L must be positive and finite, got {self.L}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size n must be even and >= 4, got {self.n}")
        # the largest Parseval weights of `_Packing`: 2 L^2 of |v|, and
        # 2 L^2 k^4 of |A v| at the band's corner k^2 = lambda1 2 K^2
        q = 2.0 * math.pi / self.L
        corner = q * q * 2 * self.band_limit**2
        if not math.isfinite(2.0 * (self.L * self.L) * max(1.0, corner * corner)):
            raise ValueError(
                f"domain side L = {self.L} puts the Parseval weights of the norms "
                "past the largest float"
            )

    @property
    def lambda1(self) -> float:
        """First Stokes eigenvalue (2 pi / L)^2."""
        return (2.0 * np.pi / self.L) ** 2

    @cached_property
    def _j(self) -> np.ndarray:
        return np.fft.fftfreq(self.n, 1.0 / self.n).astype(np.int64)

    @cached_property
    def j1(self) -> np.ndarray:
        """Integer wavenumber index along the first axis, shape (n, 1)."""
        return self._j[:, None]

    @cached_property
    def j2(self) -> np.ndarray:
        """Integer wavenumber index along the second axis, shape (1, n)."""
        return self._j[None, :]

    @cached_property
    def shell(self) -> np.ndarray:
        """Integer eigenvalue shell j1^2 + j2^2, shape (n, n)."""
        return self.j1 * self.j1 + self.j2 * self.j2

    @property
    def band_limit(self) -> int:
        """Largest |j|_inf kept by the 2/3 dealiasing rule.

        Chosen so n >= 3 * band_limit + 1: products of two retained modes
        then alias only onto discarded modes, making the masked
        pseudo-spectral product exact on the band.
        """
        return (self.n - 1) // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        b = self.band_limit
        return (np.abs(self.j1) <= b) & (np.abs(self.j2) <= b)

    def band_cutoff(self) -> "GalerkinCutoff":
        """Largest eigenvalue ball inscribed in the dealiased band."""
        return GalerkinCutoff(self.lambda1 * float(self.band_limit**2))


@dataclass(frozen=True)
class GalerkinCutoff:
    """Eigenvalue-ball Galerkin truncation: mode k kept iff 0 < |k|^2 <= lambda_cut."""

    lambda_cut: float

    def __post_init__(self) -> None:
        if not (self.lambda_cut > 0.0 and math.isfinite(self.lambda_cut)):
            raise ValueError(
                f"lambda_cut must be positive and finite, got {self.lambda_cut}"
            )

    def shell_limit(self, grid: TorusGrid) -> int:
        """Largest integer shell m with m * lambda1 <= lambda_cut."""
        if self.lambda_cut < grid.lambda1 * (1.0 - _SHELL_SLACK):
            raise ValueError(
                f"lambda_cut={self.lambda_cut} below first eigenvalue {grid.lambda1}"
            )
        return int(np.floor(self.lambda_cut / grid.lambda1 * (1.0 + _SHELL_SLACK)))

    def mask_low(self, grid: TorusGrid) -> np.ndarray:
        m = self.shell_limit(grid)
        return (grid.shell >= 1) & (grid.shell <= m)

    def lambda_next(self, grid: TorusGrid) -> float:
        """Smallest representable eigenvalue strictly greater than lambda_cut."""
        m = self.shell_limit(grid)
        above = grid.shell[grid.shell > m]
        if above.size == 0:
            raise ValueError(
                f"lambda_cut={self.lambda_cut} leaves no representable mode above it"
            )
        return grid.lambda1 * float(above.min())

    def lambda_low(self, grid: TorusGrid) -> float:
        """Largest realizable eigenvalue <= lambda_cut (lambda_N)."""
        # never empty: shell_limit is at least 1 and shell 1 exists on every grid
        return grid.lambda1 * float(grid.shell[self.mask_low(grid)].max())

    def mode_count(self, grid: TorusGrid) -> int:
        return int(np.count_nonzero(self.mask_low(grid)))

    def within_band(self, grid: TorusGrid) -> bool:
        """True if the eigenvalue ball sits inside the dealiased band."""
        return self.shell_limit(grid) <= grid.band_limit**2


class _Packing:
    """Amplitudes of real solenoidal fields on half-plane modes of a grid's band.

    A packed vector holds one complex amplitude a_k per mode k of a mask
    inside the dealiased band with j2 > 0, or j2 = 0 < j1 (in the order of
    `modes`): uhat(k) = a_k e_k, e_k = (-j2, j1) / |j|, and
    uhat(-k) = conj(uhat(k)).  Products run on sgrid, a grid of the same
    side whose n_s exceeds twice the largest |j|_inf = K of a mode (the
    grid itself unless given).  A vector enters it as the (2K + 1) x (K + 1)
    half-plane block j2 >= 0 of its velocity, and a product tensor leaves
    it as the dot product of its divergence with e_k at the packed modes,
    which is P_sigma onto them.  Norms are Parseval sums.
    """

    def __init__(
        self, grid: TorusGrid, mask: np.ndarray, sgrid: TorusGrid | None = None
    ) -> None:
        self.grid = grid
        self.sgrid = sgrid = grid if sgrid is None else sgrid
        j = grid._j
        half_plane = (j[None, :] > 0) | ((j[None, :] == 0) & (j[:, None] > 0))
        rows, cols = np.nonzero(mask & half_plane)
        j1, j2 = j[rows], j[cols]
        self.modes = (j1, j2)
        self.size = j1.size
        self.shell = j1 * j1 + j2 * j2
        self.k_squared = grid.lambda1 * self.shell
        # Parseval: |v|^2, ||v||^2 and |A v|^2 are these weights times |a_k|^2
        self._norm_weights = 2.0 * grid.L**2 * np.stack(
            (np.ones_like(self.k_squared), self.k_squared, self.k_squared**2)
        )
        # for a sum of |a_k|^2 in a row's range no square or weighted sum of
        # the row overflows, and the row sum stays at least tiny / eps, so
        # it neither reads 0 nor loses digits to subnormals (a weight that
        # underflowed to 0 adds nothing either way); in every row's range,
        # the same holds for all of `norms`
        w = self._norm_weights
        floors = _SQUARE_FLOOR / w.min(1, initial=1.0, where=w > 0.0)
        limits = np.finfo(float).max / w.max(1, initial=1.0)
        self._square_ranges = list(zip(floors.tolist(), limits.tolist()))
        self._square_range = (float(floors.max()), float(limits.min()))
        self._e = np.stack((-j2, j1)) / np.sqrt(self.shell)
        # each component's or product's half-plane block: j1 at row
        # j1 % (2K + 1), j2 >= 0 at column j2, the modes only (`_transforms`)
        self._k = k = int(max(np.abs(j1).max(), j2.max()))
        self._block = (2 * k + 1, k + 1)
        at = j1 % (2 * k + 1) * (k + 1) + j2
        self._block_at = np.concatenate([at + i * math.prod(self._block) for i in range(4)])
        # the weights of the products of a tensor in `_project`
        ik = 2j * np.pi / grid.L / np.sqrt(self.shell)
        a, b, c = ik * j1 * j2, ik * j1 * j1, ik * j2 * j2
        self._product_weights = {3: np.stack((-a, b, -c)), 2: np.stack((-a, b - c))}

    # -- between packings ---------------------------------------------------

    @cached_property
    def _table(self) -> np.ndarray:
        n = self.grid.n
        table = np.full((n, n), -1)
        table[self.modes[0] % n, self.modes[1] % n] = np.arange(self.size)
        return table

    def _index_of(self, modes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Positions in this packing of the modes (j1, j2) of another one."""
        j1, j2 = self.modes
        n = self.grid.n
        at = self._table[modes[0] % n, modes[1] % n]
        if np.any(at < 0) or np.any(j1[at] != modes[0]) or np.any(j2[at] != modes[1]):
            raise ValueError("modes lie outside this packing")
        return at

    @cached_property
    def _band_at(self) -> np.ndarray:
        """Positions of the packed modes in the band packing of the grid."""
        return _band_packing(self.grid)._index_of(self.modes)

    def _pack_field(self, f: SpectralField) -> np.ndarray:
        """Packed amplitudes of a field: its amplitudes at these modes."""
        return f.coeffs[self._band_at]

    def _field(self, vec: np.ndarray) -> SpectralField:
        """The field of a packed vector."""
        c = np.zeros(_band_packing(self.grid).size, dtype=np.complex128)
        c[self._band_at] = vec
        return SpectralField(self.grid, c)

    def norms(self, vec: np.ndarray) -> list[float]:
        """[|v|, ||v||, |A v|] of a packed vector, by Parseval."""
        return _parseval_norms(self._norm_weights, self._square_range, vec).tolist()

    # -- product-grid transfers ---------------------------------------------

    @cached_property
    def _transforms(self) -> tuple[np.ndarray, ...]:
        """(Ex, Ey, Fx, Fy), the partial DFTs of `_sample` and `_project`:
        Ex[p, r] = exp(2 pi i j1 p / n_s) for the j1 of block row r; Ey has
        rows 2 cos, -2 sin (2 pi j2 p / n_s) per column j2, so u = 2 Re of
        the block's sum adds each mode's conjugate; Fx and Fy invert them on
        the block, each with the factor 1 / n_s."""
        n_s, k = self.sgrid.n, self._k
        p = np.arange(n_s)
        j = (np.arange(2 * k + 1) + k) % (2 * k + 1) - k
        ex = np.exp(2j * np.pi * (np.outer(p, j) % n_s) / n_s)
        angle = 2.0 * np.pi * (np.outer(np.arange(k + 1), p) % n_s) / n_s
        rows = np.stack((np.cos(angle), -np.sin(angle)), axis=1).reshape(-1, n_s)
        return ex, 2.0 * rows, ex.conj().T / n_s, rows.T / n_s

    def _sample(self, vec: np.ndarray) -> np.ndarray:
        """Product-grid samples of packed velocities, (Ex @ block).view(float64)
        @ Ey of their half-plane blocks: shape (2, n, n) for one packed
        vector, (2, 2, n, n) for a stack of two, shape (2, size).
        """
        ex, ey = self._transforms[:2]
        half = np.zeros(vec.shape[:-1] + (2,) + self._block, dtype=np.complex128)
        half.ravel()[self._block_at[: 2 * vec.size]] = (vec[..., None, :] * self._e).ravel()
        return (ex @ half).view(np.float64) @ ey

    def _project(self, products: np.ndarray) -> np.ndarray:
        """Packed P_sigma div T of a product tensor T, from the m product-grid
        samples of its products (`operators.advect_raw`), shape (m, n, n),
        whose half-plane blocks are Fx @ (products @ Fy).view(complex128).

        With F_bc = FT[T_bc], e_k . FT[div T](k) is -a (F11 - F22) +
        b F12 - c F21, (a, b, c) = i kappa (j1 j2, j1^2, j2^2) / |j| and
        kappa = 2 pi / L: m = 3 products (T11 - T22, T12, T21) take the
        weights (-a, b, -c), and the m = 2 of a symmetric T, (T11 - T22,
        T12), take (-a, b - c).
        """
        fx, fy = self._transforms[2:]
        m = len(products)
        spectra = fx @ (products @ fy).view(np.complex128)
        c = spectra.take(self._block_at[: m * self.size]).reshape(m, self.size)
        c *= self._product_weights[m]
        return c.sum(axis=0)

    # -- (2, n, n) coefficient arrays ---------------------------------------

    @cached_property
    def _grid_at(self) -> np.ndarray:
        # flat positions in a (2, n, n) array, both components' packed modes
        # followed by their mirrors: one scatter writes, one gather reads
        n = self.grid.n
        j1, j2 = self.modes
        at = np.concatenate((j1 % n * n + j2 % n, -j1 % n * n + -j2 % n))
        return np.concatenate((at, at + n * n))

    def _pack_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Packed P_sigma of the real part of a (2, n, n) coefficient array.

        The mirror gather: the mean of e_k . c(k) and conj(e_k . c(-k)).
        """
        c = coeffs.take(self._grid_at).reshape(2, 2, self.size)
        d = self._e[0] * c[0] + self._e[1] * c[1]
        return 0.5 * (d[0] + d[1].conj())

    def _unpack_grid(self, vec: np.ndarray) -> np.ndarray:
        """The (2, n, n) coefficient array of a packed vector (the grid scatter)."""
        n = self.grid.n
        coeffs = np.zeros((2, n, n), dtype=np.complex128)
        both = np.concatenate((vec, vec.conj()))
        coeffs.ravel()[self._grid_at] = (both * np.tile(self._e, 2)).ravel()
        return coeffs


def _map(pair: tuple[np.ndarray, np.ndarray], a: np.ndarray) -> np.ndarray:
    """M a + C conj(a) for the pair (M, C), on a packed vector or each row of a."""
    m, c = pair
    return a @ m.T + a.conj() @ c.T


@lru_cache(maxsize=16)
def _band_packing(grid: TorusGrid) -> _Packing:
    """The packing of the grid's dealiased square band |j|_inf <= band_limit."""
    return _Packing(grid, grid.dealias_mask)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable field: its amplitudes on the band packing of its grid."""

    grid: TorusGrid
    coeffs: np.ndarray  # (M,) complex128, M = _band_packing(grid).size; read-only

    def __post_init__(self) -> None:
        self.coeffs.flags.writeable = False

    @classmethod
    def from_coeffs(cls, grid: TorusGrid, coeffs: np.ndarray) -> "SpectralField":
        """The field of an amplitude array from outside the package, copied."""
        c = np.array(coeffs, dtype=np.complex128)
        size = _band_packing(grid).size
        if c.shape != (size,):
            raise FieldInvariantError(
                f"amplitudes must have shape ({size},) for n={grid.n}, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise FieldInvariantError("amplitudes must be finite")
        return cls(grid, c)

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralField":
        return cls(grid, np.zeros(_band_packing(grid).size, dtype=np.complex128))

    # -- arithmetic -----------------------------------------------------------

    def _require_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(
                f"grids differ: {self.grid} vs {other.grid}"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_grid(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


# ---------------------------------------------------------------------------
# inner product and norms (Parseval on the amplitudes)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """H inner product (f, g) = integral of f.g."""
    f._require_same_grid(g)
    s = np.vdot(g.coeffs, f.coeffs)  # sum conj(g) * f
    return float(2.0 * f.grid.L**2 * s.real)


def _parseval(weights: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """sqrt(weights @ |vec|^2), a norm per row of weights."""
    return np.sqrt(weights @ (vec.real**2 + vec.imag**2))


def _parseval_norms(
    weights: np.ndarray, square_range: tuple[float, float], vec: np.ndarray
) -> np.ndarray:
    """`_parseval`, taken on vec over its largest |entry| (`krylov._rescaled`)
    where the sum of |vec|^2 leaves square_range, the sums for which no
    term or row sum overflows or underflows."""
    floor, limit = square_range
    if floor <= np.vdot(vec, vec).real <= limit:
        return _parseval(weights, vec)
    return _rescaled(partial(_parseval, weights), vec)


def _norm(f: SpectralField, row: int) -> float:
    band = _band_packing(f.grid)
    return float(_parseval_norms(band._norm_weights[row], band._square_ranges[row], f.coeffs))


def norm_H(f: SpectralField) -> float:
    """L^2 norm |f|."""
    return _norm(f, 0)


def norm_V(f: SpectralField) -> float:
    """H^1 seminorm ||f|| = |A^(1/2) f|."""
    return _norm(f, 1)


def norm_DA(f: SpectralField) -> float:
    """|A f|, the H norm of the Stokes operator applied to f."""
    return _norm(f, 2)


# ---------------------------------------------------------------------------
# projections


def _low(grid: TorusGrid, cutoff: GalerkinCutoff) -> np.ndarray:
    """Which band modes the cutoff keeps."""
    return _band_packing(grid).shell <= cutoff.shell_limit(grid)


def project_low(f: SpectralField, cutoff: GalerkinCutoff) -> SpectralField:
    """Galerkin projection P_N: zero all modes with |k|^2 > lambda_cut."""
    return SpectralField(f.grid, np.where(_low(f.grid, cutoff), f.coeffs, 0.0))


def project_high(f: SpectralField, cutoff: GalerkinCutoff) -> SpectralField:
    """Complementary projection Q_N = I - P_N."""
    return SpectralField(f.grid, np.where(_low(f.grid, cutoff), 0.0, f.coeffs))


def is_low_supported(f: SpectralField, cutoff: GalerkinCutoff) -> bool:
    return not np.any(np.where(_low(f.grid, cutoff), 0.0, f.coeffs))


def leray_project_raw(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Leray projection P_sigma of a (2, n, n) coefficient array, into a new array.

    uhat(k) <- uhat(k) - k (k . uhat(k)) / |k|^2, in integer index form
    (the 2 pi / L factors cancel).  Also pins the mean mode to zero.
    """
    c = np.array(coeffs, dtype=np.complex128)
    j1, j2 = grid.j1, grid.j2
    shell = np.maximum(grid.shell, 1)
    d = (j1 * c[0] + j2 * c[1]) / shell
    c[0] -= j1 * d
    c[1] -= j2 * d
    c[:, 0, 0] = 0.0
    # the Nyquist slot n/2 (n is always even) has no conjugate partner with
    # flipped sign, so the projector cannot stay Hermitian there; drop it
    # (it lies far outside the dealias band in any case)
    c[:, grid.n // 2, :] = 0.0
    c[:, :, grid.n // 2] = 0.0
    return c


def to_physical(f: SpectralField) -> np.ndarray:
    """Real velocity samples of shape (2, n, n); u(x) = sum uhat e^(ik.x)."""
    return _band_packing(f.grid)._sample(f.coeffs)


# ---------------------------------------------------------------------------
# random fields (test oracles and initial conditions)


def random_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    *,
    decay: float = 0.5,
    norm_v: float | None = None,
    norm_h: float | None = None,
    cutoff: GalerkinCutoff | None = None,
) -> SpectralField:
    """Random smooth divergence-free field, spectrum ~ exp(-decay |j|).

    Draws (2, n, n) complex normals and packs them with the mirror gather,
    so the band modes (or the given cutoff's, which must lie inside the
    band) carry P_sigma of their real part.  Scaled to the requested
    norm_V or norm_H if given.
    """
    if cutoff is not None and not cutoff.within_band(grid):
        raise ValueError("random_field cutoff exceeds the dealiased band of the grid")
    p = _band_packing(grid)
    shape = (2, grid.n, grid.n)
    a = p._pack_grid(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a *= np.exp(-decay * np.sqrt(p.shell))
    if cutoff is not None:
        a = np.where(_low(grid, cutoff), a, 0.0)
    f = SpectralField(grid, a)
    if norm_v is not None:
        nv = norm_V(f)
        if nv == 0.0:
            raise ValueError("degenerate random field, cannot scale")
        f = f * (norm_v / nv)
    elif norm_h is not None:
        nh = norm_H(f)
        if nh == 0.0:
            raise ValueError("degenerate random field, cannot scale")
        f = f * (norm_h / nh)
    return f
