import numpy as np
import pytest

from pgthresh import (least_squares_on_support, mat_vec, objective,
                      residual_norm, transpose_mat_vec)
from pgthresh.linalg import LSQ_PIVOT_RATIO


def test_mat_vec_identity():
    assert np.allclose(mat_vec(np.eye(2), [3, -1]), [3, -1])


def test_mat_vec_row_sum():
    assert np.allclose(mat_vec(np.ones((1, 3)), [1, 2, 3]), [6])


def test_mat_vec_hand():
    assert np.allclose(mat_vec([[1, 2], [3, 4]], [1, 1]), [3, 7])


def test_mat_vec_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_vec(np.eye(2), [1, 2, 3])


def test_transpose_mat_vec_cases():
    assert np.allclose(transpose_mat_vec(np.eye(2), [5, 7]), [5, 7])
    assert np.allclose(transpose_mat_vec([[1, 0], [0, 2]], [1, 1]), [1, 2])
    assert np.allclose(transpose_mat_vec([[1, 2], [3, 4]], [1, -1]), [-2, -2])
    with pytest.raises(ValueError):
        transpose_mat_vec(np.eye(2), [1, 2, 3])


def test_objective_cases():
    a = np.eye(2)
    assert objective(a, [1, 0], [1, 0]) == 0.0
    assert objective(a, [1, 0], [0, 0]) == 0.5
    assert residual_norm(a, [1, 0], [0, 0]) == 1.0
    assert objective([[1, 1]], [4], [1, 1]) == 2.0
    assert residual_norm([[1, 1]], [4], [1, 1]) == 2.0


def test_least_squares_coordinate_projection():
    z = least_squares_on_support(np.eye(2), [3, 4], [0])
    assert np.allclose(z, [3, 0])


def test_least_squares_empty_support():
    z = least_squares_on_support(np.arange(6.0).reshape(2, 3), [1, 2], [])
    assert np.allclose(z, 0)


def test_least_squares_hand_derived():
    # normal equations: col0^T col0 * z0 = col0^T y = 4 -> z0 = 2; col1 fits 2
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z = least_squares_on_support(a, [1, 3, 2], [0, 1])
    assert np.allclose(z, [2, 2])


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((8, 12))
        y = rng.standard_normal(8)
        s = sorted(rng.choice(12, size=4, replace=False))
        z = least_squares_on_support(a, y, s)
        r = y - a @ z
        assert np.all(np.abs(a[:, s].T @ r) <= 1e-10 * (1 + np.linalg.norm(y)))


def test_least_squares_dominates_supported_competitors():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.standard_normal((10, 15))
        y = rng.standard_normal(10)
        s = sorted(rng.choice(15, size=5, replace=False))
        z = least_squares_on_support(a, y, s)
        for _ in range(10):
            other = np.zeros(15)
            other[s] = rng.standard_normal(5)
            assert objective(a, y, z) <= objective(a, y, other) + 1e-12


def test_least_squares_rank_deficient_minimum_norm():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    z = least_squares_on_support(a, [2, 2], [0, 1])
    # min-norm solution splits mass equally between identical columns
    assert np.allclose(z, [1, 1])


def test_least_squares_repeated_indices_merged():
    # the minimiser over vectors supported on {0} puts all of y[0] on z[0]
    z = least_squares_on_support(np.eye(2), [3, 4], [0, 0])
    assert np.array_equal(z, [3.0, 0.0])


@pytest.mark.parametrize("support", [[1.5], [0, 0.5], np.array([1.0])])
def test_least_squares_rejects_non_integer_indices(support):
    with pytest.raises(ValueError, match="integers"):
        least_squares_on_support(np.eye(2), [3, 4], support)


def _columns_with_condition(rng, m, j, kappa):
    """m x j matrix with singular values spread geometrically over [1/kappa, 1]."""
    u = np.linalg.qr(rng.standard_normal((m, j)))[0]
    v = np.linalg.qr(rng.standard_normal((j, j)))[0]
    return (u * np.logspace(0.0, -np.log10(kappa), j)) @ v.T


@pytest.mark.parametrize("m,j,kappa", [(12, 5, 1e1), (40, 10, 1e2),
                                       (8, 8, 1e2), (30, 30, 1e2)])
def test_least_squares_full_rank_matches_lstsq(m, j, kappa):
    rng = np.random.default_rng(m * j)
    for _ in range(20):
        a = _columns_with_condition(rng, m, j, kappa)
        y = rng.standard_normal(m)
        z = least_squares_on_support(a, y, np.arange(j))
        ref = np.linalg.lstsq(a, y, rcond=None)[0]
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


def _fallback_cases():
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((5, 9))
    duplicated = rng.standard_normal((10, 6))
    duplicated[:, 4] = duplicated[:, 1]
    zero = rng.standard_normal((10, 6))
    zero[:, 2] = 0.0
    ill = np.hstack([_columns_with_condition(rng, 20, 6, 1e5),
                     _columns_with_condition(rng, 20, 6, 1e4)])
    return [pytest.param(wide, np.arange(9), id="more-columns-than-rows"),
            pytest.param(duplicated, np.array([0, 1, 3, 4]),
                         id="duplicated-column"),
            pytest.param(zero, np.array([1, 2, 5]), id="zero-column"),
            pytest.param(ill, np.arange(6), id="cond-1e5"),
            pytest.param(ill, np.arange(6, 12), id="cond-1e4")]


@pytest.mark.parametrize("a,idx", _fallback_cases())
def test_least_squares_fallback_is_lstsq(a, idx):
    if idx.size <= a.shape[0]:
        # the case reaches the fallback only if the pivot is below the bound
        cols = a[:, idx]
        try:
            pivot = np.linalg.cholesky(cols.T @ cols).diagonal().min()
        except np.linalg.LinAlgError:
            pivot = 0.0
        assert pivot <= LSQ_PIVOT_RATIO * np.linalg.norm(cols, axis=0).max()
    y = np.random.default_rng(12).standard_normal(a.shape[0])
    z = least_squares_on_support(a, y, idx)
    expected = np.zeros(a.shape[1])
    expected[idx] = np.linalg.lstsq(a[:, idx], y, rcond=None)[0]
    assert np.array_equal(z, expected)


def test_least_squares_well_conditioned_skips_lstsq(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a well-conditioned support reached lstsq")

    rng = np.random.default_rng(13)
    a = rng.standard_normal((256, 1024)) / 16.0
    y = rng.standard_normal(256)
    s = np.sort(rng.choice(1024, size=60, replace=False))
    expected = np.zeros(1024)
    expected[s] = np.linalg.lstsq(a[:, s], y, rcond=None)[0]
    monkeypatch.setattr(np.linalg, "lstsq", fail)
    z = least_squares_on_support(a, y, s)
    assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)


def test_adjointness():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.standard_normal((7, 11))
        x = rng.standard_normal(11)
        r = rng.standard_normal(7)
        lhs = float(mat_vec(a, x) @ r)
        rhs = float(x @ transpose_mat_vec(a, r))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
