import random
from fractions import Fraction
from math import gcd

import pytest

from hopfgalois import linalg

from .oracles import det, rref, rref_kernel, rref_solve

F = Fraction


def test_rref_identity():
    rows, pivots = rref([[F(2), F(0)], [F(0), F(3)]])
    assert rows == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def _random_matrix(rng, nrows, ncols):
    """Rational entries with denominators 1-6, negatives and zeros, and now
    and then a zero row or a repeated row."""
    mat = [[F(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.7
            else F(0) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        mat[rng.randrange(nrows)] = list(mat[rng.randrange(nrows)])
    if rng.random() < 0.2:
        mat[rng.randrange(nrows)] = [F(0)] * ncols
    return mat


def _random_shapes(seed, count):
    """Seeded (rng, matrix) pairs: 1 x 1, square, wide and tall."""
    rng = random.Random(seed)
    for k in range(count):
        nrows, ncols = [(1, 1), (3, 3), (2, 5), (6, 3), (5, 5), (4, 7)][k % 6]
        yield rng, _random_matrix(rng, nrows, ncols)


def _cleared(mat):
    """The rational rows times their least common denominator: the integer
    rows the routines take, with the same rank, kernel and row space."""
    return linalg._clear_denominators(mat)[1]


def assert_integer_form(form, rational_rows):
    """form is the integer form (d, rows) of the Fraction rows: integer rows
    over d > 0 with gcd(d, every entry) = 1, and rows / d equal to them."""
    d, rows = form
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in rows for x in row)
    assert gcd(d, *(x for row in rows for x in row)) == 1
    assert [[F(x, d) for x in row] for row in rows] == rational_rows


def test_rank_and_kernel_match_the_rref_oracle():
    for _, mat in _random_shapes(20, 300):
        ncols = len(mat[0])
        assert linalg.rank(_cleared(mat)) == len(rref(mat)[1])
        d, rows, free = linalg.kernel_basis(_cleared(mat), ncols)
        basis, oracle_free = rref_kernel(mat, ncols)
        assert_integer_form((d, rows), basis)
        assert free == oracle_free


def test_invert_matches_the_rref_oracle():
    singular = 0
    for _, mat in _random_shapes(21, 300):
        n = len(mat)
        if n != len(mat[0]):
            continue
        mat = _cleared(mat)
        rows, pivots = rref([row + [F(int(i == j)) for j in range(n)]
                             for i, row in enumerate(mat)])
        if pivots[:n] != list(range(n)):
            singular += 1
            assert linalg.invert(mat) is None
        else:
            assert_integer_form(linalg.invert(mat), [row[n:] for row in rows])
    assert singular > 10


def test_solver_matches_the_rref_oracle():
    dependent = outside = 0
    for rng, mat in _random_shapes(22, 300):
        mat = _cleared(mat)
        columns = [list(col) for col in zip(*mat)]
        if len(rref(mat)[1]) < len(columns):
            dependent += 1
            with pytest.raises(ValueError):
                linalg.LinearSolver(columns)
            continue
        solver = linalg.LinearSolver(columns)
        # a target with rational coordinates, cleared by c: the solution
        # is the coordinates times c
        coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in columns]
        c, (target,) = linalg._clear_denominators([linalg.mat_vec(mat, coords)])
        d, solved = solver.solve(target)
        assert_integer_form((d, [solved]), [[c * x for x in coords]])
        target = [rng.randint(-4, 4) for _ in mat]
        in_span = len(rref(columns + [target])[1]) == len(columns)
        outside += not in_span
        solved = solver.solve(target)
        if in_span:
            d, solved = solved
            assert_integer_form((d, [solved]), [rref_solve(mat, target)])
            assert linalg.mat_vec(mat, [F(x, d) for x in solved]) == target
        else:
            assert solved is None
    assert dependent > 10 and outside > 10


def test_int_det_matches_the_field_determinant():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            mat[-1] = list(mat[0])
        assert linalg.int_det(mat) == det([[F(v) for v in row]
                                           for row in mat])


def test_clear_denominators_matches_a_fraction_reference():
    # d is the least scale that makes every entry integral: each d * x is an
    # integer, and for each prime p dividing d some (d / p) * x is not
    rng = random.Random(29)
    for _ in range(300):
        ncols = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(("zero", "int", "mixed"))
            rows.append([0 if kind == "zero" else rng.randint(-9, 9)
                         if kind == "int" or rng.random() < 0.4
                         else F(rng.randint(-9, 9), rng.randint(1, 12))
                         for _ in range(ncols)])
        d, ints = linalg._clear_denominators(rows)
        assert ints == [[F(x) * d for x in row] for row in rows]
        assert all(type(v) is int for row in ints for v in row)
        for p in (2, 3, 5, 7, 11):
            if d % p == 0:
                assert any((F(x) * (d // p)).denominator != 1
                           for row in rows for x in row)
    assert linalg._clear_denominators([]) == (1, [])
    assert linalg._clear_denominators([[0, 0], [-3, F(4)]]) == \
        (1, [[0, 0], [-3, 4]])
    assert linalg._clear_denominators([[F(-1, 2), 3], [0, F(2, 3)]]) == \
        (6, [[-3, 18], [0, 4]])


def test_fixed_space_matches_the_rref_oracle(monkeypatch):
    """Every fixed space a field fixture's load and descents compute: the
    subfield, then the stabilizer systems of each structure's descent."""
    from hopfgalois.descent import descend
    from hopfgalois.fixtures import load_bundled
    systems = []
    fixed_space = linalg.fixed_space

    def recording(forms, ncols):
        systems.append((forms, ncols))
        return fixed_space(forms, ncols)
    monkeypatch.setattr(linalg, "fixed_space", recording)
    for name in ("qi", "qzeta3", "c4quartic", "v4biquad", "qcbrt2", "s3sextic"):
        fx = load_bundled(name)
        for n in fx.structures():
            descend(n, fx.subfield())
    # one subfield per fixture and one stabilizer system per orbit of G on
    # each N, each distinct system solved once per fixture, since the
    # descents share them (qi, qzeta3, c4quartic, v4biquad, qcbrt2,
    # s3sextic); solved once per orbit, they were 53
    assert len(systems) == 2 + 2 + 3 + 5 + 3 + 4
    for forms, ncols in systems:
        # each automorphism in integer form (d, M), for the matrix M / d
        assert all(type(x) is int for d, m in forms for row in m for x in row)
        stacked = [[F(x, d) - (i == j) for j, x in enumerate(row)]
                   for d, m in forms for i, row in enumerate(m)]
        d, rows, free = fixed_space(forms, ncols)
        basis, oracle_free = rref_kernel(stacked, ncols)
        assert_integer_form((d, rows), basis)
        assert free == oracle_free


def test_span_basis_is_the_kernel_basis_of_its_span():
    # the canonical kernel basis depends only on the kernel: rebuilt from
    # any spanning set of it (here shuffled integer combinations, with
    # repeats and zero vectors) it comes out the same
    rng = random.Random(31)
    for _ in range(200):
        ncols = rng.randint(1, 7)
        mat = [[rng.randint(-3, 3) for _ in range(ncols)]
               for _ in range(rng.randint(0, 5))]
        basis, free = rref_kernel(mat, ncols)
        spanning = basis + [[0] * ncols]
        for _ in range(len(basis) + 1):
            coeffs = [rng.randint(-4, 4) for _ in basis]
            spanning.append([sum(a * v[c] for a, v in zip(coeffs, basis))
                             for c in range(ncols)])
        rng.shuffle(spanning)
        # coordinates over Z: integer vectors, the basis times d
        d, ints, span_free = linalg.span_basis(_cleared(spanning), ncols)
        assert_integer_form((d, ints), basis)
        assert span_free == free
        for v in spanning:
            coords = [v[f] for f in free]
            assert linalg.echelon_coords(basis, free, v) == coords
            assert linalg.echelon_coords(
                ints, free, [3 * x for x in v], d) == [3 * c for c in coords]
        # a vector of the span that is 0 at every free column is 0
        for p in set(range(ncols)) - set(free):
            unit = [int(c == p) for c in range(ncols)]
            assert linalg.echelon_coords(ints, free, unit, d) is None


def test_kernel_basis_canonical():
    # x + y + z = 0 has the two standard free-column vectors
    d, basis, free = linalg.kernel_basis([[1, 1, 1]], 3)
    assert (d, basis) == (1, [[-1, 1, 0], [-1, 0, 1]])
    assert free == [1, 2]


def test_kernel_of_empty_constraints_is_everything():
    d, basis, free = linalg.kernel_basis([], 2)
    assert (d, basis) == (1, [[1, 0], [0, 1]])
    assert free == [0, 1]


def test_invert_round_trip():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        inv = linalg.invert(mat)
        if inv is None:
            assert det([[F(v) for v in row] for row in mat]) == 0
            continue
        d, rows = inv
        assert linalg.mat_mul(mat, rows) == \
            [[d * int(i == j) for j in range(n)] for i in range(n)]


def test_det_matches_bareiss_on_random_integer_matrices():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        frac = det([[F(v) for v in row] for row in mat])
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
            solver = linalg.LinearSolver(rows)
            for hr in h:
                solved = solver.solve(hr)
                assert solved is not None
                assert solved[0] == 1


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
    solver = linalg.LinearSolver([[1, 0, 1], [0, 1, 1]])
    assert solver.solve([2, 3, 5]) == (1, [2, 3])
    assert solver.solve([2, 3, 4]) is None


def test_linear_solver_rejects_dependent_columns():
    with pytest.raises(ValueError):
        linalg.LinearSolver([[1, 2], [2, 4]])


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (9, 0), (-6, -8)]:
        x, y, g = linalg.xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
