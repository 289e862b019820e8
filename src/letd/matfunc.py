"""Dirichlet Laplacians and the exponential-integrator phi functions.

The spatial operator throughout is the standard second-order finite
difference Laplacian on a uniform tensor grid with homogeneous Dirichlet
rows eliminated.  Along one axis with n interior nodes and spacing h it is

    A = (nu / h^2) tridiag(1, -2, 1),    shape (n, n),

whose eigenpairs are known in closed form: the eigenvectors are the
discrete sine modes and

    lambda_j = -(4 nu / h^2) sin^2(j pi / (2 (n + 1))),   j = 1..n.

On several axes the operator is the Kronecker sum of the per-axis
operators: its eigenvectors are the tensorized sine modes and its
eigenvalues the sums lambda_i + lambda_j (+ ...), formed by broadcasting.
The orthonormal sine transform (DST-I) is its own inverse, so products
with analytic functions of A (here exp and the phi functions) reduce to a
DST-I over the spatial axes, a diagonal scaling, and a second DST-I.
A 1d operator is the one-axis case.

The DST-I runs axis by axis.  An axis of at most `_DENSE_AXIS_MAX` (127)
nodes, the pieces of a localized method and the 127 x 127 monodomain
field, is one matrix product per level block with its cached orthonormal
sine matrix (`axis_sine_matrix`), cut into one-thread products where
OpenBLAS would thread it (`_PRODUCT_MAX`); a longer axis is a real FFT of
length 2(n + 1) of its odd extension (`_dst1`, pocketfft's DST-I bit for
bit), slow on small axes when n + 1 has a large prime factor.  The sine
rows of trace edges (`sine_row`) are cached per (n, node) on either route.

phi functions used by the exponential time differencing steps:

    phi_0(z) = e^z
    phi_1(z) = (e^z - 1) / z
    phi_2(z) = (e^z - 1 - z) / z^2

with the removable singularity at z = 0 handled by a Taylor expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce

import numpy as np

__all__ = [
    "DirichletLaplacian",
    "SpectralFactorization",
    "build_laplacian_1d",
    "build_laplacian_2d",
    "spectral_factorization",
    "spectral_factorization_2d",
    "axis_sine_matrix",
    "sine_row",
    "sine_matrix",
    "phi_scalar",
]

# Axes of at most this many nodes transform as one product with their sine
# matrix, longer ones by a real FFT (`_dst1`).  The product was the faster
# route at every measured n up to 127 (table in CHANGES.md), the 127 x 127
# monodomain field included; the bound stays at 127 so that the 1d runs of
# 128 nodes and up, whose tolerance-mode sweep counts round-off can move,
# keep the FFT route and its bits.
_DENSE_AXIS_MAX = 127
_FFT_BLOCK = 8192  # extension values per FFT call (64 KiB); whole fields took fresh pages per call
# Most multiply-adds (rows x columns x inner length) of one matrix product
# in `_axis_product`.  OpenBLAS runs a larger dgemm on several threads: on a
# 127 x 127 block that was no faster than one thread on an idle 2-core
# host, 2.2 times slower with the other core busy, and its waiting workers
# took CPU from the rest of the run; the bits also depended on the thread
# count.  65536 x 4 is OpenBLAS's default one-thread bound; the OpenBLAS
# bundled with numpy kept one thread up to about 10^6 on a 2-core host.
_PRODUCT_MAX = 1 << 18

# Below this magnitude the direct formulas for phi_1/phi_2 lose digits to
# cancellation, so a truncated Taylor series takes over.  Twelve terms keep
# the truncation error far below round-off for |z| <= 1e-2.
_TAYLOR_CUTOFF = 1e-2
_TAYLOR_TERMS = 12


@dataclass(frozen=True)
class DirichletLaplacian:
    """nu * Laplacian on a tensor grid of interior nodes, Dirichlet faces.

    shape[k] interior nodes with spacing spacings[k] along axis k; the
    diffusivity is shared by all axes.
    """

    shape: tuple[int, ...]
    nu: float
    spacings: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.shape or len(self.shape) != len(self.spacings):
            raise ValueError(f"need one spacing per axis, got {self.shape} and {self.spacings}")
        if min(self.shape) < 1:
            raise ValueError(f"need at least one interior node per axis, got {self.shape}")
        if self.nu <= 0.0:
            raise ValueError(f"diffusivity must be positive, got nu={self.nu}")
        if min(self.spacings) <= 0.0:
            raise ValueError(f"grid spacing must be positive, got {self.spacings}")

    def _axis_scale(self, k: int) -> float:
        """Stencil weight nu / h^2 along axis k."""
        return self.nu / self.spacings[k] ** 2

    def _axis_eigenvalues(self, k: int) -> np.ndarray:
        n = self.shape[k]
        j = np.arange(1, n + 1)
        s = np.sin(j * np.pi / (2.0 * (n + 1)))
        return -4.0 * self._axis_scale(k) * s * s

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues on the mode grid: entry (i, j, ...) is lambda_i +
        lambda_j + ...; a single axis is ascending in mode number."""
        lam = self._axis_eigenvalues(0)
        for k in range(1, len(self.shape)):
            lam = np.add.outer(lam, self._axis_eigenvalues(k))
        return lam


def build_laplacian_1d(n: int, nu: float, h: float) -> DirichletLaplacian:
    """Dirichlet Laplacian on n interior nodes with spacing h."""
    return DirichletLaplacian((n,), nu, (h,))


def build_laplacian_2d(nx: int, ny: int, nu: float, hx: float, hy: float) -> DirichletLaplacian:
    """Tensor-product Dirichlet Laplacian on an nx-by-ny interior grid."""
    return DirichletLaplacian((nx, ny), nu, (hx, hy))


@dataclass(frozen=True)
class SpectralFactorization:
    """Sine-mode diagonalization of a Dirichlet Laplacian.

    Transforms act on the trailing len(op.shape) axes of an array; leading
    axes are a batch.  DST-I with orthonormal weights is symmetric and
    involutive, so one call serves as forward and inverse transform.
    """

    op: DirichletLaplacian
    spectrum: np.ndarray = field(repr=False)  # eigenvalues on the mode grid

    def to_modes(self, v: np.ndarray) -> np.ndarray:
        """Physical nodal values -> sine-mode coefficients."""
        shape, d = self.op.shape, len(self.op.shape)
        if v.shape[-d:] != shape:
            raise ValueError(f"expected trailing shape {shape}, got {v.shape}")
        long_axes = tuple(k - d for k, n in enumerate(shape) if n > _DENSE_AXIS_MAX)
        out = _dst1(v, long_axes) if long_axes else v
        for k, n in enumerate(shape):
            if n <= _DENSE_AXIS_MAX:
                out = _axis_product(out, out.ndim - d + k, axis_sine_matrix(n))
        return out

    def from_modes(self, w: np.ndarray) -> np.ndarray:
        """Sine-mode coefficients -> physical nodal values."""
        return self.to_modes(w)


def spectral_factorization(op: DirichletLaplacian) -> SpectralFactorization:
    """Precompute the eigenvalues used by every phi application."""
    return SpectralFactorization(op=op, spectrum=op.eigenvalues())


spectral_factorization_2d = spectral_factorization


@cache
def axis_sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix of one axis of n nodes, built once per n
    as the transform of the identity and shared read-only by every caller.
    Row i is the transform of the unit vector at node i; the matrix is
    symmetric and its own inverse, so it maps values to sine modes and
    back."""
    out = _dst1(np.eye(n), (-1,))
    out.flags.writeable = False
    return out


def _dst1(v: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Orthonormal DST-I of v over `axes`, in order, with pocketfft's bits:
    per axis of n nodes, minus the imaginary parts of entries 1..n of the
    real FFT of the odd extension [0, x, 0, -x reversed], m = 2(n + 1) long,
    scaled once, after the first axis, by 1/sqrt(prod m) rounded from extended
    precision (a per-axis scale, or one rounded in double, moves the last bit)."""
    scale = float(-1 / np.sqrt(np.longdouble(math.prod(2 * (v.shape[a] + 1) for a in axes))))
    for i, a in enumerate(axes):
        x = np.moveaxis(v, a, -1)
        n = x.shape[-1]
        lines = x.reshape(-1, n)
        out = np.empty(lines.shape)
        step = max(1, _FFT_BLOCK // (2 * n + 2))
        ext = np.zeros((min(step, len(lines)), 2 * n + 2))
        spec = np.empty((len(ext), n + 2), dtype=complex)
        for s in range(0, len(lines), step):
            k = min(step, len(lines) - s)
            ext[:k, 1:n + 1] = lines[s:s + k]
            np.negative(ext[:k, n:0:-1], out=ext[:k, n + 2:])
            np.fft.rfft(ext[:k], out=spec[:k])
            np.multiply(spec[:k, 1:n + 1].imag, scale if i == 0 else -1.0, out=out[s:s + k])
        v = np.moveaxis(out.reshape(x.shape), -1, a)
    return v


def _axis_product(v: np.ndarray, axis: int, m: np.ndarray) -> np.ndarray:
    """v transformed along `axis` by m, whose row i is the transform of the
    unit vector at node i: one matrix product per trailing block of v, with
    `axis` as the block's rows (its columns for the last axis).  Block
    products are smaller than one flat product over the whole batch, which
    OpenBLAS may split over threads; on a shared 2-core host that split
    made a 128-level transform of a 40 x 36 piece 3.6 times slower.  A
    block of more than `_PRODUCT_MAX` multiply-adds is cut into even runs
    of its other columns (rows for the last axis), so that every product
    stays on one thread; the bits are those of one-thread products."""
    n = len(m)
    last = axis == v.ndim - 1
    w = v if last else v.reshape(v.shape[:axis] + (n, math.prod(v.shape[axis + 1:])))
    free = w.ndim - 2 if last else w.ndim - 1  # the axis a block's product may be cut along
    width = w.shape[free] if free >= 0 else 1
    runs = -(-width * n * n // _PRODUCT_MAX)
    if runs <= 1:
        return (w @ m if last else m.T @ w).reshape(v.shape)
    out = np.empty(w.shape)
    step = -(-width // runs)
    for s in range(0, width, step):
        cut = (slice(None),) * free + (slice(s, s + step),)
        if last:
            np.matmul(w[cut], m, out=out[cut])
        else:
            np.matmul(m.T, w[cut], out=out[cut])
    return out.reshape(v.shape)


@cache
def sine_row(n: int, j: int) -> np.ndarray:
    """Row j (0-based) of the orthonormal DST-I matrix of size n: the n
    sine modes sampled at node j, read-only.  The matrix is symmetric, so
    this is the transform of the unit vector at j; taking it from the
    transform keeps the transform's own round-off.  An axis of at most
    `_DENSE_AXIS_MAX` nodes reads it from the cached `axis_sine_matrix(n)`,
    whose rows are those transforms bit for bit; a longer one transforms
    the unit vector once per (n, j) and keeps the row.  A node outside
    0..n - 1 raises `ValueError`."""
    if not 0 <= j < n:
        raise ValueError(f"node {j} is outside the axis of n={n} nodes")
    if n <= _DENSE_AXIS_MAX:
        return axis_sine_matrix(n)[j]
    out = _dst1(np.eye(1, n, j), (-1,))[0]
    out.flags.writeable = False
    return out


def sine_matrix(shape: tuple[int, ...]) -> np.ndarray:
    """The orthonormal DST-I matrix over the axes of `shape`: the Kronecker
    product of the per-axis matrices `axis_sine_matrix` in C order, [[1.0]]
    with no axes.  On one axis it is the cached matrix itself, so a 2d
    piece's transform and its trace edges share it.  A row of values in C
    order times it gives their sine modes and back; on one axis its row j
    is `sine_row(n, j)`."""
    if not shape:
        return np.ones((1, 1))
    return reduce(np.kron, map(axis_sine_matrix, shape))


def _phi_taylor(k: int, z: np.ndarray) -> np.ndarray:
    # phi_k(z) = sum_{j>=0} z^j / (j + k)!, truncated; Horner evaluation.
    acc = np.full_like(z, 1.0 / math.factorial(_TAYLOR_TERMS - 1 + k))
    for j in range(_TAYLOR_TERMS - 2, -1, -1):
        acc = acc * z + 1.0 / math.factorial(j + k)
    return acc


def phi_scalar(k: int, z):
    """phi_k evaluated elementwise; k in {0, 1, 2}; z scalar or ndarray.

    Uses expm1-based formulas away from the origin and a 12-term Taylor
    series for |z| < 1e-2; the crossover keeps the relative error of
    phi_2 below ~5e-14 everywhere on the negative real axis.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"phi order must be 0, 1 or 2, got {k}")
    z = np.asarray(z, dtype=float)
    if k == 0:
        out = np.exp(z)
        return out if out.ndim else float(out)

    out = np.empty_like(z)
    small = np.abs(z) < _TAYLOR_CUTOFF
    if np.any(small):
        out[small] = _phi_taylor(k, z[small])
    if np.any(~small):
        zb = z[~small]
        em1 = np.expm1(zb)
        if k == 1:
            out[~small] = em1 / zb
        else:
            out[~small] = (em1 - zb) / (zb * zb)
    return out if out.ndim else float(out)
