import itertools

import numpy as np
import pytest

from pgthresh import operators
from pgthresh import (ExhaustiveLimitError, RicTriple, brute_force_ric,
                      ceil_ratio, contraction_constants, pgot_explicit_bound,
                      pgot_root_bound, pgrot_explicit_bound, pgrot_root_bound,
                      pgrotp_bound, table1, verify_one_step_bound)
from pgthresh.theory import pgot_cubic, pgrot_cubic


def test_ceil_ratio():
    assert ceil_ratio(2, 1) == 2
    assert ceil_ratio(6, 3) == 2
    assert ceil_ratio(7, 3) == 3
    assert ceil_ratio(10, 3) == 4
    with pytest.raises(ValueError):
        ceil_ratio(0, 1)


PUBLISHED = {
    # (q, k) regime representatives -> (pgot, pgrot, pgrotp) thresholds
    (2, 1): (0.1729, 0.0407, 0.0407),
    (3, 1): (0.1348, 0.0308, 0.0308),
    (4, 1): (0.1106, 0.0248, 0.0248),
}


@pytest.mark.parametrize("qk,expected", PUBLISHED.items())
def test_root_bounds_match_published(qk, expected):
    q, k = qk
    assert pgot_root_bound(q, k) == pytest.approx(expected[0], abs=5e-4)
    assert pgrot_root_bound(q, k) == pytest.approx(expected[1], abs=5e-4)
    assert pgrotp_bound(q, k) == pytest.approx(expected[2], abs=5e-4)


def test_explicit_bounds_match_published():
    assert pgot_explicit_bound(2, 1) == pytest.approx(0.1517, abs=5e-4)
    assert pgot_explicit_bound(3, 1) == pytest.approx(0.1211, abs=5e-4)
    assert pgot_explicit_bound(4, 1) == pytest.approx(0.1009, abs=5e-4)


def test_pgrot_explicit_bound_closed_form():
    # psi at q = 2k equals 9 * (3 + sqrt(5)) / 2
    psi = 3.0 * ((np.sqrt(5) + 1) / 2) ** 2 * 3
    assert psi == pytest.approx(23.562, abs=1e-3)
    assert pgrot_explicit_bound(2, 1) == pytest.approx(0.039236001939758, abs=1e-9)


def test_bounds_reject_small_q():
    for fn in (pgot_root_bound, pgot_explicit_bound, pgrot_root_bound,
               pgrot_explicit_bound, pgrotp_bound):
        with pytest.raises(ValueError):
            fn(3, 2)


def test_roots_satisfy_their_cubics():
    for q in (2, 3, 4, 7):
        assert abs(pgot_cubic(pgot_root_bound(q, 1), q, 1)) <= 1e-9
        assert abs(pgrot_cubic(pgrot_root_bound(q, 1), q, 1)) <= 1e-9


def test_explicit_bounds_are_conservative():
    for q in (2, 3, 4, 6):
        assert pgot_explicit_bound(q, 1) < pgot_root_bound(q, 1)
        assert pgrot_explicit_bound(q, 1) < pgrot_root_bound(q, 1)


def test_bounds_nonincreasing_in_ratio():
    for fn in (pgot_root_bound, pgot_explicit_bound, pgrot_root_bound,
               pgrot_explicit_bound, pgrotp_bound):
        values = [fn(q, 1) for q in range(2, 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_contraction_constants_at_zero_deltas():
    zero = RicTriple(0.0, 0.0, 0.0)
    pgot_c = contraction_constants(zero, 2, 1, "pgot")
    assert pgot_c.rho == 0.0
    assert pgot_c.tau == pytest.approx(((np.sqrt(5) + 1) * 3 + 4) / 2, abs=1e-9)
    assert pgot_c.converges
    pgrot_c = contraction_constants(zero, 2, 1, "pgrot")
    assert pgrot_c.rho == 0.0
    assert pgrot_c.tau == pytest.approx(
        ((3 + np.sqrt(5)) / 2) * 9 + np.sqrt(5) + 1, abs=1e-6)
    pgrotp_c = contraction_constants(zero, 2, 1, "pgrotp")
    assert pgrotp_c.rho == 0.0
    assert pgrotp_c.tau == pytest.approx(
        ((3 + np.sqrt(5)) / 2) * 9 + np.sqrt(5) + 2, abs=1e-9)


def test_pgot_root_is_the_rho_equals_one_point():
    for q in (2, 3, 4):
        root = pgot_root_bound(q, 1)
        cc = contraction_constants(RicTriple(root, root, root), q, 1, "pgot")
        assert cc.rho == pytest.approx(1.0, abs=1e-3)


def test_pgrotp_bound_is_the_rho_equals_one_point():
    for q in (2, 3, 4):
        bound = pgrotp_bound(q, 1)
        cc = contraction_constants(RicTriple(bound, bound, bound), q, 1,
                                   "pgrotp")
        assert cc.rho == pytest.approx(1.0, abs=1e-12)


def test_rho_brackets_one_around_the_root():
    root = pgot_root_bound(2, 1)
    below = root - 1e-4
    above = root + 1e-4
    assert contraction_constants(
        RicTriple(below, below, below), 2, 1, "pgot").rho < 1
    assert contraction_constants(
        RicTriple(above, above, above), 2, 1, "pgot").rho > 1


def test_contraction_constants_domain_errors():
    with pytest.raises(ValueError):
        contraction_constants(RicTriple(0.5, 1.0, 1.2), 2, 1, "pgot")
    with pytest.raises(ValueError):
        contraction_constants(RicTriple(0.1, 0.2, 1.5), 2, 1, "pgrotp")
    with pytest.raises(ValueError):
        contraction_constants(RicTriple(0.0, 0.0, 0.0), 2, 1, "bogus")


def test_ric_triple_monotonicity_enforced():
    with pytest.raises(ValueError):
        RicTriple(0.3, 0.2, 0.4)


def test_brute_force_ric_orthonormal_columns():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 4)))
    for s in (1, 2, 3, 4):
        assert brute_force_ric(q, s) <= 1e-12


def test_brute_force_ric_diagonal():
    c = np.array([0.5, 1.0, 2.0])
    assert brute_force_ric(np.diag(c), 1) == pytest.approx(
        max(abs(c**2 - 1)), abs=1e-12)


def test_brute_force_ric_monotone_in_s():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 12)) / np.sqrt(8)
    deltas = [brute_force_ric(a, s) for s in (1, 2, 3, 4)]
    assert all(x <= y + 1e-14 for x, y in zip(deltas, deltas[1:]))


def test_brute_force_ric_dominates_random_search():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((8, 12)) / np.sqrt(8)
    s = 3
    delta = brute_force_ric(a, s)
    best = 0.0
    for _ in range(100_000):
        x = np.zeros(12)
        supp = rng.choice(12, size=s, replace=False)
        x[supp] = rng.standard_normal(s)
        x /= np.linalg.norm(x)
        best = max(best, abs(np.linalg.norm(a @ x) ** 2 - 1.0))
    assert best <= delta + 1e-12
    assert delta - best < 0.05  # random search gets close on tiny instances


@pytest.mark.parametrize("chunk_floats", [1, 20])
def test_brute_force_ric_independent_of_chunk_size(chunk_floats, monkeypatch):
    a = np.random.default_rng(10).standard_normal((6, 9)) / np.sqrt(6)
    default = [brute_force_ric(a, s) for s in (1, 2, 3, 9)]
    monkeypatch.setattr(operators, "CHUNK_FLOATS", chunk_floats)
    assert [brute_force_ric(a, s) for s in (1, 2, 3, 9)] == default


@pytest.mark.parametrize("m,n,s", [(6, 9, 1), (6, 9, 3), (8, 12, 6),
                                   (6, 11, 7), (5, 9, 9)])
def test_brute_force_ric_matches_per_subset_loop(m, n, s):
    # s > n / 2 takes the complements of the (n - s)-subsets
    a = np.random.default_rng(11 + s).standard_normal((m, n)) / np.sqrt(m)
    gram = a.T @ a
    expect = max(float(np.max(np.abs(np.linalg.eigvalsh(
        gram[np.ix_(sub, sub)] - np.eye(s)))))
        for sub in itertools.combinations(range(n), s))
    assert brute_force_ric(a, s) == expect


def test_brute_force_ric_limit_guard():
    with pytest.raises(ExhaustiveLimitError):
        brute_force_ric(np.ones((4, 30)), 15)


def _bad(array, index, value):
    array = np.array(array, dtype=float)
    array[index] = value
    return array


_QMAT = np.linalg.qr(np.random.default_rng(12).standard_normal((8, 6)))[0]
_X = np.eye(6)[2]


@pytest.mark.parametrize("call, message", [
    (lambda: brute_force_ric(_bad(_QMAT, (0, 1), np.nan), 2),
     "matrix entries must be finite"),
    (lambda: brute_force_ric(_bad(_QMAT, (3, 0), np.inf), 2),
     "matrix entries must be finite"),
    (lambda: brute_force_ric(np.ones(6), 1), "expected a 2-d matrix"),
    (lambda: verify_one_step_bound(_QMAT, _X, _bad(_X, 4, np.nan), 2, 1),
     "x_p entries must be finite"),
    (lambda: verify_one_step_bound(_QMAT, _bad(_X, 0, np.inf), _X, 2, 1),
     "x_star entries must be finite"),
    (lambda: verify_one_step_bound(_QMAT, _X, _X[:5], 2, 1),
     "x_p has length 5, expected 6"),
], ids=["ric-nan", "ric-inf", "ric-1d", "verify-nan-x_p", "verify-inf-x_star",
        "verify-short-x_p"])
def test_theory_rejects_a_bad_array_where_it_enters(call, message):
    # an input error is raised where the array enters: left to the
    # arithmetic, max(0.0, nan) keeps delta = 0.0 and a NaN in x_p fails
    # the certificate
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_table1_structure():
    table = table1()
    assert len(table.entries) == 9
    for variant in ("pgot", "pgrot", "pgrotp"):
        row = [table.get(variant, r) for r in ("q=2k", "2k<q<=3k", "3k<q<=4k")]
        assert row[0] > row[1] > row[2]
        assert all(0 < v < 1 for v in row)


def test_verify_one_step_fixed_point():
    rng = np.random.default_rng(12)
    q_mat, _ = np.linalg.qr(rng.standard_normal((8, 6)))
    x_star = np.zeros(6)
    x_star[2] = 1.5
    lhs, rhs, holds = verify_one_step_bound(q_mat, x_star, x_star, 2, 1)
    assert lhs <= 1e-10
    assert holds


def test_verify_one_step_orthonormal_recovers():
    rng = np.random.default_rng(13)
    q_mat, _ = np.linalg.qr(rng.standard_normal((9, 7)))
    x_star = np.zeros(7)
    x_star[[1, 5]] = [2.0, -1.0]
    x_p = np.zeros(7)
    x_p[0] = 0.7
    lhs, rhs, holds = verify_one_step_bound(q_mat, x_star, x_p, 4, 2)
    assert lhs <= 1e-10  # delta = 0, one exact step recovers
    assert holds


def test_verify_one_step_random_instances():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 25:
        m = int(rng.integers(6, 11))
        n = int(rng.integers(10, 13))
        k = int(rng.integers(1, 3))
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        if brute_force_ric(a, 2 * k) >= 1.0:
            continue  # bound formulas need delta_2k < 1
        x_star = np.zeros(n)
        x_star[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        x_p = np.zeros(n)
        x_p[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        lhs, rhs, holds = verify_one_step_bound(a, x_star, x_p, 2 * k, k)
        assert holds, (lhs, rhs)
        checked += 1
