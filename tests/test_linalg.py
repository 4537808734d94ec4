import random
from fractions import Fraction

import pytest

from hopfgalois import linalg

F = Fraction


def test_rref_identity():
    rows, pivots = linalg.rref([[F(2), F(0)], [F(0), F(3)]])
    assert rows == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_kernel_basis_canonical():
    # x + y + z = 0 has the two standard free-column vectors
    basis, free = linalg.kernel_basis([[F(1), F(1), F(1)]], 3)
    assert basis == [[F(-1), F(1), F(0)], [F(-1), F(0), F(1)]]
    assert free == [1, 2]


def test_kernel_of_empty_constraints_is_everything():
    basis, free = linalg.kernel_basis([], 2)
    assert basis == [[F(1), F(0)], [F(0), F(1)]]
    assert free == [0, 1]


def test_invert_round_trip():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 4)
        mat = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        inv = linalg.invert(mat)
        if inv is None:
            assert linalg.det(mat) == 0
            continue
        assert linalg.mat_eq(linalg.mat_mul(mat, inv), linalg.identity_matrix(n))


def test_det_matches_bareiss_on_random_integer_matrices():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        frac = linalg.det([[F(v) for v in row] for row in mat])
        assert frac == linalg.int_det(mat)


def test_hnf_known_case():
    assert linalg.hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]


def test_hnf_drops_zero_rows_and_sorts_pivots():
    assert linalg.hnf([[0, 0, 0], [0, 3, 1], [2, 0, 0]]) == [[2, 0, 0], [0, 3, 1]]


def _member(rows, vec):
    vec = list(vec)
    for row in rows:
        j = next(i for i, v in enumerate(row) if v)
        if vec[j]:
            if vec[j] % row[j]:
                return False
            q = vec[j] // row[j]
            for k in range(j, len(vec)):
                vec[k] -= q * row[k]
    return not any(vec)


def test_hnf_preserves_the_lattice():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        h = linalg.hnf(rows)
        for r in rows:
            assert _member(h, r)
        if len(h) == n:
            solver = linalg.LinearSolver(
                [[F(v) for v in row] for row in rows])
            for hr in h:
                coords = solver.solve([F(v) for v in hr])
                assert coords is not None
                assert all(c.denominator == 1 for c in coords)


def test_hnf_canonical_under_unimodular_change():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if linalg.int_det(rows) == 0:
            continue
        h = linalg.hnf(rows)
        transformed = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-3, 3)
            transformed[i] = [a + c * b for a, b in zip(transformed[i], transformed[j])]
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            transformed[i], transformed[j] = transformed[j], transformed[i]
        assert linalg.hnf(transformed) == h


def test_hnf_pivot_reduction_invariant():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        h = linalg.hnf(rows)
        pivots = {next(i for i, v in enumerate(r) if v): r for r in h}
        for j, row in pivots.items():
            assert row[j] > 0
            for other in h:
                if other is not row:
                    assert 0 <= other[j] < row[j] or other[j] == 0


def test_linear_solver_consistency_detection():
    solver = linalg.LinearSolver([[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    assert solver.solve([F(2), F(3), F(5)]) == [F(2), F(3)]
    assert solver.solve([F(2), F(3), F(4)]) is None


def test_linear_solver_rejects_dependent_columns():
    with pytest.raises(ValueError):
        linalg.LinearSolver([[F(1), F(2)], [F(2), F(4)]])


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (9, 0), (-6, -8)]:
        x, y, g = linalg.xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_det_mod_p_matches_int_det():
    rng = random.Random(11)
    p = 10007
    for n in (1, 2, 3, 5, 7):
        for _ in range(20):
            mat = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:  # make it singular
                mat[-1] = [3 * a for a in mat[0]]
            got = linalg.det_mod_p(mat, p)
            assert got == linalg.int_det(mat) % p
            assert 0 <= got < p
    # singular mod p only: the exact determinant is p
    assert linalg.det_mod_p([[p, 0], [0, 1]], p) == 0
    assert linalg.det_mod_p([[0, 1], [1, 0]], 7) == 6
