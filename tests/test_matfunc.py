"""Operator construction, sine-basis factorization, and phi-function kernels."""
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.fft import dstn

from letd import matfunc
from letd.matfunc import (
    DirichletLaplacian,
    axis_sine_matrix,
    build_laplacian_1d,
    build_laplacian_2d,
    phi_scalar,
    sine_matrix,
    sine_row,
    spectral_factorization,
    spectral_factorization_2d,
)
from oracles import apply_phi, dense_laplacian, expm_dense

# Reference values computed with mpmath at 50 decimal digits, rounded to
# double precision.  phi0(-1e6) underflows to zero in doubles, which is the
# correctly rounded result.
PHI_POINTS = np.array([-1e6, -1e4, -100.0, -1.0, -0.02, -1e-3, -1e-8, 0.0, 1e-3, 0.5, 1.0])
PHI_TABLE = {
    0: (0, 0, 3.7200759760208361e-44, 0.36787944117144233, 0.98019867330675525,
        0.99900049983337502, 0.99999999000000006, 1, 1.0010005001667084,
        1.6487212707001282, 2.7182818284590451),
    1: (9.9999999999999995e-07, 0.0001, 0.01, 0.63212055882855767,
        0.99006633466223493, 0.99950016662500829, 0.99999999500000003, 1,
        1.0005001667083417, 1.2974425414002564, 1.7182818284590453),
    2: (9.9999899999999993e-07, 9.9989999999999996e-05, 0.0099000000000000008,
        0.36787944117144233, 0.49668326688825554, 0.49983337499166808,
        0.49999999833333336, 0.5, 0.5001667083416681, 0.59488508280051255,
        0.7182818284590452),
}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_phi_scalar_matches_high_precision_table(k):
    got = phi_scalar(k, PHI_POINTS)
    want = np.array(PHI_TABLE[k])
    assert np.allclose(got, want, rtol=2e-14, atol=0.0), (
        f"phi_{k} mismatch: {got} vs {want}")


def test_phi_scalar_series_branch_agrees_with_direct_formula():
    # just inside the series window the Taylor evaluation must match the
    # expm1-based formula evaluated at the same point
    for z in (9.9e-3, -9.9e-3, 5e-3, -5e-3):
        assert abs(phi_scalar(1, z) - np.expm1(z) / z) < 3e-16 * abs(np.expm1(z) / z)
        direct2 = (np.expm1(z) - z) / z**2
        assert abs(phi_scalar(2, z) - direct2) < 5e-14 * abs(direct2)


def test_phi_scalar_scalar_input_returns_float():
    out = phi_scalar(1, -0.5)
    assert isinstance(out, float)


def test_phi_scalar_rejects_bad_order():
    with pytest.raises(ValueError):
        phi_scalar(3, 0.1)
    with pytest.raises(ValueError):
        phi_scalar(-1, 0.1)


def test_laplacian_validation():
    with pytest.raises(ValueError):
        build_laplacian_1d(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_laplacian_1d(8, -1.0, 0.1)
    with pytest.raises(ValueError):
        build_laplacian_1d(8, 1.0, 0.0)


def test_dense_matches_stencil():
    op = build_laplacian_1d(5, 2.0, 0.25)
    A = dense_laplacian(op)
    w = 2.0 / 0.25**2
    assert A.shape == (5, 5)
    assert np.allclose(np.diag(A), -2 * w)
    assert np.allclose(np.diag(A, 1), w)
    assert np.allclose(np.diag(A, -1), w)
    assert A[0, 2] == 0.0


def test_eigenvalues_match_dense_spectrum():
    op = build_laplacian_1d(13, 0.7, 0.11)
    lam = np.sort(op.eigenvalues())
    dense = np.sort(scipy.linalg.eigvalsh(dense_laplacian(op)))
    assert np.allclose(lam, dense, rtol=1e-12, atol=1e-9)


def test_sine_transform_diagonalizes_operator():
    op = build_laplacian_1d(17, 1.3, 0.05)
    fact = spectral_factorization(op)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(17)
    # A v computed through the factorization equals the dense product
    got = fact.from_modes(fact.spectrum * fact.to_modes(v))
    assert np.allclose(got, dense_laplacian(op) @ v, rtol=1e-12, atol=1e-12)


def test_transform_roundtrip_and_batching():
    fact = spectral_factorization(build_laplacian_1d(9, 1.0, 0.1))
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 6, 9))
    assert np.allclose(fact.from_modes(fact.to_modes(v)), v, atol=1e-13)
    single = np.stack([fact.to_modes(v[i, j]) for i in range(4) for j in range(6)])
    assert np.allclose(fact.to_modes(v).reshape(24, 9), single, atol=1e-13)


def test_transform_rejects_wrong_length():
    fact = spectral_factorization(build_laplacian_1d(9, 1.0, 0.1))
    with pytest.raises(ValueError):
        fact.to_modes(np.zeros(8))


def _phi_dense_times(k, M, b):
    """phi_k(M) @ b via an augmented matrix exponential (independent route)."""
    n = M.shape[0]
    aug = np.zeros((n + k, n + k))
    aug[:n, :n] = M
    if k >= 1:
        aug[:n, n] = b
        for j in range(k - 1):
            aug[n + j, n + j + 1] = 1.0
        return scipy.linalg.expm(aug)[:n, n + k - 1]
    return scipy.linalg.expm(M) @ b


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n,dt", [(6, 1e-3), (12, 0.02), (24, 0.7)])
def test_apply_phi_matches_dense_augmented_exponential(k, n, dt):
    op = build_laplacian_1d(n, 0.9, 1.0 / (n + 1))
    fact = spectral_factorization(op)
    rng = np.random.default_rng(n + k)
    v = rng.standard_normal(n)
    got = apply_phi(fact, k, dt, v)
    want = _phi_dense_times(k, dt * dense_laplacian(op), v)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() < 5e-13 * scale


def test_apply_phi_rejects_negative_dt():
    fact = spectral_factorization(build_laplacian_1d(4, 1.0, 0.2))
    with pytest.raises(ValueError):
        apply_phi(fact, 1, -0.1, np.zeros(4))


def test_2d_operator_is_kronecker_sum():
    op = build_laplacian_2d(3, 4, 1.1, 0.25, 0.2)
    Ax = dense_laplacian(build_laplacian_1d(3, 1.1, 0.25))
    Ay = dense_laplacian(build_laplacian_1d(4, 1.1, 0.2))
    want = np.kron(Ax, np.eye(4)) + np.kron(np.eye(3), Ay)
    assert np.allclose(dense_laplacian(op), want, atol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_apply_phi_2d_matches_dense(k):
    op = build_laplacian_2d(4, 3, 0.8, 0.2, 0.25)
    fact = spectral_factorization_2d(op)
    rng = np.random.default_rng(11 + k)
    field = rng.standard_normal((4, 3))
    dt = 0.15
    got = apply_phi(fact, k, dt, field)
    want = _phi_dense_times(k, dt * dense_laplacian(op), field.ravel()).reshape(4, 3)
    assert np.abs(got - want).max() < 1e-12


def test_2d_transform_batches_leading_axes():
    fact = spectral_factorization_2d(build_laplacian_2d(5, 4, 1.0, 0.1, 0.12))
    rng = np.random.default_rng(2)
    fields = rng.standard_normal((7, 5, 4))
    batched = fact.to_modes(fields)
    for i in range(7):
        assert np.allclose(batched[i], fact.to_modes(fields[i]), atol=1e-13)
    assert np.allclose(fact.from_modes(batched), fields, atol=1e-13)


def test_sine_matrix_is_the_symmetric_orthonormal_transform_over_its_axes():
    assert np.array_equal(sine_matrix(()), [[1.0]])
    rng = np.random.default_rng(8)
    for shape in ((7,), (5, 4)):
        m = sine_matrix(shape)
        assert m.shape == (np.prod(shape),) * 2
        assert np.abs(m - m.T).max() <= 1e-14
        assert np.abs(m @ m.T - np.eye(len(m))).max() <= 1e-14
        # rows of values in C order over the axes -> their sine modes
        fact = spectral_factorization(DirichletLaplacian(shape, 1.0, (0.1,) * len(shape)))
        v = rng.standard_normal((3,) + shape)
        want = fact.to_modes(v).reshape(3, -1)
        assert np.abs(v.reshape(3, -1) @ m - want).max() <= 1e-14 * np.abs(want).max()
    m = sine_matrix((7,))
    assert all(np.array_equal(m[j], sine_row(7, j)) for j in range(7))


def test_sine_rows_of_dense_axes_are_the_transforms_of_unit_vectors_bitwise():
    # an axis the dense route serves reads its rows from the cached matrix;
    # they keep the bits of the transform of each unit vector alone
    for n in range(1, matfunc._DENSE_AXIS_MAX + 1):
        for j in range(n):
            row = sine_row(n, j)
            assert row.tobytes() == matfunc._dst1(np.eye(1, n, j), (-1,))[0].tobytes(), (n, j)
            assert row.tobytes() == axis_sine_matrix(n)[j].tobytes(), (n, j)
    n = matfunc._DENSE_AXIS_MAX + 1  # transformed, as before
    assert np.array_equal(sine_row(n, 5), matfunc._dst1(np.eye(1, n, 5), (-1,))[0])


def test_expm_dense_agrees_with_scipy_on_random_symmetric():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((6, 6))
    M = 0.5 * (B + B.T)
    assert np.allclose(expm_dense(M), scipy.linalg.expm(M), atol=1e-12)
    with pytest.raises(ValueError):
        expm_dense(np.zeros((2, 3)))


def _factorization(shape):
    return spectral_factorization(DirichletLaplacian(shape, 1.0, (0.1,) * len(shape)))


def _dstn(v, d):
    return dstn(v, type=1, norm="ortho", axes=tuple(range(-d, 0)))


# dense axes alone (one, two of unequal lengths, three short ones, 64 and
# 65 nodes), and the longest dense axis next to the shortest pocketfft one
MIXED_SHAPES = [(35,), (40, 36), (3, 5, 7), (64, 65),
                (matfunc._DENSE_AXIS_MAX, matfunc._DENSE_AXIS_MAX + 1)]


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)], ids=["unbatched", "batch4", "batch2x3"])
@pytest.mark.parametrize("shape", MIXED_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_transform_matches_scipy_dstn_over_dense_and_fft_axes(shape, batch):
    fact = _factorization(shape)
    v = np.random.default_rng(len(shape) + len(batch)).standard_normal(batch + shape)
    got = fact.to_modes(v)
    scale = np.abs(v).max()
    assert got.shape == v.shape
    assert np.abs(got - _dstn(v, len(shape))).max() <= 2e-15 * scale
    assert np.abs(fact.from_modes(got) - v).max() <= 1e-14 * scale


@pytest.mark.parametrize("shape,node", [((35,), (4,)), ((40, 36), (39, 5)), ((3, 5, 7), (1, 4, 2))])
def test_transform_of_a_unit_field_is_the_product_of_sine_rows_bitwise(shape, node):
    # each axis adds the transform of its unit vector, sine_row, exactly:
    # a product over a wrongly oriented axis matrix differs in the last bits
    unit = np.zeros(shape)
    unit[node] = 1.0
    want = reduce(np.multiply.outer, [sine_row(n, j) for n, j in zip(shape, node)])
    assert np.array_equal(_factorization(shape).to_modes(unit), want)


# the 1d study pieces keep pocketfft's bits, for a batch and for its first
# entry: the long-axis inputs of the benchmark workloads, with d transformed
# trailing axes, the shortest 2d grid of long axes and an unequal one
@pytest.mark.parametrize("shape,d", [
    pytest.param((3, 255), 1, id="255"),
    pytest.param((3, 511), 1, id="511"),
    pytest.param((3, 128, 128), 2, id="128x128"),
    pytest.param((82, 265), 1, id="82x265"),
    pytest.param((80, 1, 265), 1, id="80x1x265"),
    pytest.param((101, 131), 1, id="101x131"),
    pytest.param((2, 128, 128), 2, id="2x128x128"),
    pytest.param((3, 130, 200), 2, id="3x130x200"),
])
def test_long_axes_stay_bitwise_on_pocketfft(shape, d):
    fact = _factorization(shape[-d:])
    v = np.random.default_rng(9).standard_normal(shape)
    assert np.array_equal(fact.to_modes(v), _dstn(v, d))
    assert np.array_equal(fact.to_modes(v[0]), _dstn(v[0], d))


def test_a_batch_of_127x127_fields_is_each_level_block_alone_by_two_products_bitwise():
    # the monodomain field of the 2d study is on the dense route: a (levels,
    # k, 1) batch, as the drivers transform forcing, is each level block
    # alone, and that is the product along each axis with its sine matrix
    fact = _factorization((127, 127))
    v = np.random.default_rng(11).standard_normal((5, 2, 1, 127, 127))
    got = fact.to_modes(v)
    m = axis_sine_matrix(127)
    for level in range(len(v)):
        for j in range(v.shape[1]):
            block = v[level, j]
            assert np.array_equal(got[level, j], fact.to_modes(block))
            want = matfunc._axis_product(matfunc._axis_product(block, 1, m), 2, m)
            assert np.array_equal(got[level, j], want)


_THREAD_BITS = """
import hashlib, sys
import numpy as np
from letd import matfunc
m = matfunc.axis_sine_matrix(127)
fact = matfunc.spectral_factorization(matfunc.DirichletLaplacian((127, 127), 1.0, (1.0, 1.0)))
v = np.random.default_rng(5).standard_normal((3, 127, 127))
rows = np.random.default_rng(6).standard_normal((300, 127))
got = [fact.to_modes(v), matfunc._axis_product(rows, 1, m)]
whole = [np.matmul(m.T, v) @ m, rows @ m]  # one product per block
print(hashlib.sha256(b"".join(a.tobytes() for a in got)).hexdigest(),
      all(np.array_equal(a, b) for a, b in zip(got, whole)))
"""


def test_the_bits_of_long_dense_products_do_not_depend_on_blas_threads():
    # a 127 x 127 block is above OpenBLAS's one-thread bound, and so is a
    # 300-row batch of 127 nodes: both are cut into runs below it, whose
    # bits are one-thread bits, so the transform is the same with one BLAS
    # thread and with two, and one thread's whole products give the same bits
    src = str(Path(matfunc.__file__).resolve().parent.parent)
    assert 127 * 127 * 127 > matfunc._PRODUCT_MAX and 300 * 127 * 127 > matfunc._PRODUCT_MAX
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _THREAD_BITS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out[threads] = done.stdout.split()
    assert out["1"] == [out["2"][0], "True"]


@pytest.mark.parametrize("n", [131, 269])
def test_long_axis_sine_rows_are_cached_read_only_transforms_of_unit_vectors(n):
    for j in (0, 5, n - 1):
        row = sine_row(n, j)
        assert sine_row(n, j) is row
        assert row.tobytes() == matfunc._dst1(np.eye(1, n, j), (-1,))[0].tobytes()
        with pytest.raises(ValueError):
            row[0] = 0.0


@pytest.mark.parametrize("n,j", [(200, 250), (200, 200), (200, -1), (50, -1), (50, 50)])
def test_a_sine_row_of_a_node_outside_the_axis_raises(n, j):
    # on the FFT route (n = 200) these were an all-zero row, on the dense
    # route (n = 50) node -1 read row 49; nothing is cached for them
    cached = sine_row.cache_info().currsize
    with pytest.raises(ValueError, match=rf"node {j} .*n={n}"):
        sine_row(n, j)
    assert sine_row.cache_info().currsize == cached


def test_axis_sine_matrices_are_pocketfft_transforms_of_the_identity_bitwise():
    # every dense-route matrix, so its products keep the bits they had
    for n in range(1, matfunc._DENSE_AXIS_MAX + 1):
        assert np.array_equal(axis_sine_matrix(n), _dstn(np.eye(n), 1)), n


@pytest.mark.parametrize("n", [1, 7, 40])
def test_cached_axis_matrix_rows_are_sine_rows_and_read_only(n):
    m = axis_sine_matrix(n)
    assert axis_sine_matrix(n) is m
    assert all(np.array_equal(m[j], sine_row(n, j)) for j in range(n))
    with pytest.raises(ValueError):
        m[0, 0] = 0.0
    # a 2d piece's transform and the trace edges along one of its axes use one matrix
    assert sine_matrix((n,)) is m
