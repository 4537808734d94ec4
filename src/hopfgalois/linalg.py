"""Exact linear algebra over Z: one fraction-free Gauss-Jordan elimination
for kernels, inverses and solves, run forward only for ranks and integer
determinants (a determinant mod p is int_det of the residue matrix, reduced
once), and the row Hermite normal form.  Every
routine takes integer rows: a rational matrix is cleared once, where it is
read (_clear_denominators), and a rational result is returned in one integer
form (d, rows): integer rows over a denominator d > 0 that shares no factor
with every entry (_integer_form)."""

from __future__ import annotations

from math import gcd, lcm
from operator import mul


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        ai = a[i]
        row = []
        for j in range(cols):
            acc = ai[0] * b[0][j]
            for k in range(1, inner):
                acc = acc + ai[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def combined(mats, rows):
    """For each integer coordinate row c, the integer matrix sum_k c_k M_k
    over the given integer matrices M_k: over an algebra's integer action
    matrices, the action of c times the action denominator."""
    return [[[sum(map(mul, c, entries)) for entries in zip(*(a[i] for a in mats))]
             for i in range(len(mats[0]))] for c in rows]


def _clear_denominators(rows):
    """(d, the rows times d as lists of ints): d is the least common multiple
    of the denominators of every entry (int or Fraction), 1 for integer
    rows.  Every denominator the toolkit clears is cleared here.  The pair
    is already in integer form: for each prime power p^a exactly dividing
    d, an entry with p^a in its denominator keeps a numerator prime to p."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row]
               for row in rows]


def _integer_form(d, rows):
    """The integer form of the rational rows rows / d, for integer rows and a
    nonzero integer d: both divided by the gcd g of d and every entry, with
    the sign of d, so the denominator is positive and shares no factor with
    every entry.  The form is unique: it is the one every routine here
    returns."""
    g = gcd(d, *(x for row in rows for x in row))
    if d < 0:
        g = -g
    return d // g, [[x // g for x in row] for row in rows]


def _eliminate(rows, forward_only=False):
    """Fraction-free (Bareiss) Gauss-Jordan elimination over Z of integer
    rows.  It replaces the entries of the list `rows` but changes no row in
    place.  Each step divides exactly by the previous pivot, which holds on
    integers only: a Fraction entry gives a wrong answer, not an error.
    Returns (rows, pivots, d): integer rows equal to d times the reduced row
    echelon form, its pivot columns, and the common final pivot d (1 when
    there is none).  A row swap negates the row it moves down, so for a
    square integer matrix of full rank d is the determinant.  With
    forward_only, each step updates only the rows below its pivot: the rows
    below a pivot are updated exactly as before, so the pivots and d are the
    same, but the rows are an echelon form only (enough for rank, int_det)."""
    nrows = len(rows)
    pivots = []
    prev = 1
    r = 0  # the number of pivots found so far
    for c in range(len(rows[0]) if rows else 0):
        if r == nrows:
            break
        for k in range(r, nrows):
            if rows[k][c]:
                break
        else:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], [-x for x in rows[r]]
        row_r = rows[r]
        p = row_r[c]
        for i in range(r + 1 if forward_only else 0, nrows):
            row = rows[i]
            f = row[c]
            if i != r and (f or p != prev):
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, row_r)]
        pivots.append(c)
        prev = p
        r += 1
    return rows, pivots, prev


def rank(mat) -> int:
    return len(_eliminate(list(mat), forward_only=True)[1])


def kernel_basis(mat, ncols: int):
    """Canonical basis of {v : mat @ v = 0}, for an integer mat, one vector
    per free column of the reduced echelon form, ordered by free-column
    index, as (d, rows, free): the basis in integer form and those free
    columns.  Vector j is 1 at
    free[j] and minus the reduced row's entry there at each pivot column;
    with the rows of the elimination, d times the reduced form, that is d
    and -row[free[j]] over d."""
    rows, pivots, d = _eliminate(list(mat))
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = d
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return *_integer_form(d, basis), free


def fixed_space(forms, ncols: int):
    """The vectors fixed by every ncols x ncols matrix M / d, each given in
    integer form (d, M): the canonical kernel basis of the stacked M - d I,
    as kernel_basis returns it.  Basis
    vector j is 1 at free[j] and 0 at every other free column, so
    echelon_coords reads coordinates off it without solving."""
    stacked = []
    for d, m in forms:
        for i, row in enumerate(m):
            row = list(row)
            row[i] -= d
            stacked.append(row)
    return kernel_basis(stacked, ncols)


def span_basis(vectors, ncols: int):
    """The basis kernel_basis returns for a kernel equal to the span of the
    given vectors, in the same (d, rows, free) shape.  That basis depends
    only on the space: vector j is the only one nonzero at free[j], where it
    is 1, and is 0 after it, so the basis is the reduced row echelon form of
    the vectors with their columns reversed, read back in reverse."""
    rows, pivots, d = _eliminate([list(reversed(v)) for v in vectors])
    basis = [list(reversed(rows[i])) for i in reversed(range(len(pivots)))]
    return *_integer_form(d, basis), [ncols - 1 - p for p in reversed(pivots)]


def echelon_coords(basis, free, target, scale=1):
    """Coordinates of target in a fixed_space basis, or None if target is
    outside its span: the entries of target at the free columns, checked by
    recombination at the other columns only.  With integer vectors, basis
    may be scale times such a basis; the coordinates are then those of
    target, still checked exactly."""
    coords = [target[f] for f in free]
    free_set = set(free)
    for c, x in enumerate(target):
        if c not in free_set and x * scale != sum(
                (a * v[c] for a, v in zip(coords, basis) if a and v[c]), 0):
            return None
    return coords


def invert(mat):
    """Inverse over Q of a square integer matrix in integer form (d, rows);
    None if singular.  The solver for the columns of mat reduces [mat | I] to
    [I | mat^-1]."""
    try:
        solver = LinearSolver(transpose(mat))
    except ValueError:
        return None
    return solver._denominator, solver._transform


def int_det(mat) -> int:
    """Determinant of an integer matrix: the final fraction-free pivot."""
    rows, pivots, d = _eliminate(list(mat), forward_only=True)
    return d if len(pivots) == len(mat) else 0


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (x, y, g) with x*a + y*b == g >= 0 for b != 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _leading(row) -> int:
    for j, v in enumerate(row):
        if v:
            return j
    return -1


def hnf(mat) -> list[list[int]]:
    """Canonical row Hermite normal form of an integer matrix: zero rows are
    dropped, pivots are positive, entries above a pivot lie in [0, pivot)."""
    pivot_row: dict[int, list[int]] = {}
    for vec in mat:
        vec = list(vec)
        while True:
            j = _leading(vec)
            if j < 0:
                break
            row = pivot_row.get(j)
            if row is None:
                pivot_row[j] = vec
                break
            # both vectors lead at column j, so combining keeps zeros left of j
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, len(vec)):
                    vec[k] -= q * row[k]
            else:
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, len(vec)):
                    rk, vk = row[k], vec[k]
                    row[k] = x * rk + y * vk
                    vec[k] = ag * vk - bg * rk
    basis = [pivot_row[j] for j in sorted(pivot_row)]
    for row in basis:
        if row[_leading(row)] < 0:
            for k in range(len(row)):
                row[k] = -row[k]
    # reduce above-pivot entries left to right so later passes cannot
    # re-inflate columns already reduced
    for i in range(1, len(basis)):
        j = _leading(basis[i])
        p = basis[i][j]
        for r in basis[:i]:
            q = r[j] // p
            if q:
                for k in range(j, len(r)):
                    r[k] -= q * basis[i][k]
    return basis


class LinearSolver:
    """Repeated exact solves of ``columns @ c = target`` for a fixed full
    column rank family of integer columns."""

    def __init__(self, columns):
        self.ncols = len(columns)
        n = len(columns[0])
        rows, pivots, d = _eliminate(
            [[col[i] for col in columns] + [int(i == j) for j in range(n)]
             for i in range(n)])
        if pivots[: self.ncols] != list(range(self.ncols)):
            raise ValueError("columns are linearly dependent")
        self._denominator, self._transform = _integer_form(
            d, [row[self.ncols:] for row in rows])

    def solve(self, target):
        """Coordinates of the integer target in the column family in integer
        form (d, coords), or None if target is outside their span."""
        y = mat_vec(self._transform, target)
        if any(y[self.ncols:]):
            return None
        d, (coords,) = _integer_form(self._denominator, [y[: self.ncols]])
        return d, coords
