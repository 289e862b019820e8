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
The orthonormal sine transform is its own inverse, so products with
analytic functions of A (here exp and the phi functions) reduce to a
DST-I over the spatial axes, a diagonal scaling, and a second DST-I.
A 1d operator is the one-axis case.

phi functions used by the exponential time differencing steps:

    phi_0(z) = e^z
    phi_1(z) = (e^z - 1) / z
    phi_2(z) = (e^z - 1 - z) / z^2

with the removable singularity at z = 0 handled by a Taylor expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dstn
from scipy.linalg import expm

__all__ = [
    "DirichletLaplacian",
    "SpectralFactorization",
    "build_laplacian_1d",
    "build_laplacian_2d",
    "spectral_factorization",
    "spectral_factorization_2d",
    "sine_row",
    "sine_matrix",
    "phi_scalar",
    "apply_phi",
    "expm_dense",
]

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

    def _axis_dense(self, k: int) -> np.ndarray:
        n, w = self.shape[k], self._axis_scale(k)
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = -2.0 * w
        a[idx[:-1], idx[:-1] + 1] = w
        a[idx[:-1] + 1, idx[:-1]] = w
        return a

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues on the mode grid: entry (i, j, ...) is lambda_i +
        lambda_j + ...; a single axis is ascending in mode number."""
        lam = self._axis_eigenvalues(0)
        for k in range(1, len(self.shape)):
            lam = np.add.outer(lam, self._axis_eigenvalues(k))
        return lam

    def dense(self) -> np.ndarray:
        """Materialize the matrix (for small oracles); row index = nodes in
        C order, axis 0 slowest: sum_k I x .. x A_k x .. x I."""
        total = math.prod(self.shape)
        out = np.zeros((total, total))
        for k, n in enumerate(self.shape):
            before = math.prod(self.shape[:k])
            after = total // (before * n)
            out += np.kron(np.kron(np.eye(before), self._axis_dense(k)), np.eye(after))
        return out


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
        shape = self.op.shape
        if v.shape[-len(shape):] != shape:
            raise ValueError(f"expected trailing shape {shape}, got {v.shape}")
        return dstn(v, type=1, norm="ortho", axes=tuple(range(-len(shape), 0)))

    def from_modes(self, w: np.ndarray) -> np.ndarray:
        """Sine-mode coefficients -> physical nodal values."""
        return self.to_modes(w)


def spectral_factorization(op: DirichletLaplacian) -> SpectralFactorization:
    """Precompute the eigenvalues used by every phi application."""
    return SpectralFactorization(op=op, spectrum=op.eigenvalues())


spectral_factorization_2d = spectral_factorization


def sine_row(n: int, j: int) -> np.ndarray:
    """Row j (0-based) of the orthonormal DST-I matrix of size n: the n
    sine modes sampled at node j.  The matrix is symmetric, so this is the
    transform of the unit vector at j; taking it from the transform keeps
    the transform's own round-off."""
    unit = np.zeros(n)
    unit[j] = 1.0
    return dstn(unit, type=1, norm="ortho")


def sine_matrix(shape: tuple[int, ...]) -> np.ndarray:
    """The orthonormal DST-I matrix over the axes of `shape`: the Kronecker
    product of the per-axis matrices in C order, [[1.0]] with no axes.  A
    row of values in C order times it gives their sine modes and back; on
    one axis its row j is `sine_row(n, j)`."""
    out = np.ones((1, 1))
    for n in shape:
        out = np.kron(out, dstn(np.eye(n), type=1, norm="ortho", axes=-1))
    return out


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


def apply_phi(fact: SpectralFactorization, k: int, dt: float, v: np.ndarray) -> np.ndarray:
    """phi_k(dt A) v through the sine-mode factorization; v is a nodal field."""
    if dt < 0.0:
        raise ValueError(f"time increment must be nonnegative, got dt={dt}")
    v = np.asarray(v, dtype=float)
    w = fact.to_modes(v)
    w = w * phi_scalar(k, dt * fact.spectrum)
    return fact.from_modes(w)


def expm_dense(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential (scaling-and-squaring Pade), oracle route."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return expm(a)
