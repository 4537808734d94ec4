"""Independent oracles the tests check the package against.  These stay
deliberately naive: different algorithms than the code under test."""

import itertools
from fractions import Fraction

from hopfgalois.perm import Permutation
from hopfgalois.transition import IntPolynomial


def compose(p, q):
    return tuple(p[i] for i in q)


def closure_of_pair(a, b, degree):
    identity = tuple(range(degree))
    group = {identity, a, b}
    changed = True
    while changed:
        changed = False
        for p in list(group):
            for q in list(group):
                r = compose(p, q)
                if r not in group:
                    group.add(r)
                    changed = True
    return frozenset(group)


def all_subgroups_sym(degree):
    """Every subgroup of Sym(degree) for degree <= 4, as closures of all
    ordered pairs of elements; complete because every subgroup of S4 (and
    below) is generated by at most two elements."""
    assert degree <= 4
    elements = list(itertools.permutations(range(degree)))
    found = set()
    for a in elements:
        for b in elements:
            found.add(closure_of_pair(a, b, degree))
    return found


def regular_normalized_oracle(space, lam):
    """Exhaustive-scan counterpart of the search-based enumeration."""
    size = space.size
    lam_images = [lam.of(i).images for i in range(space.group.order())]
    out = []
    for sub in all_subgroups_sym(size):
        if len(sub) != size:
            continue
        orbit = {p[space.base_point] for p in sub}
        if len(orbit) != size:
            continue
        ok = True
        for g in lam_images:
            ginv = tuple(sorted(range(size), key=lambda i: g[i]))
            ginv = [0] * size
            for i, j in enumerate(g):
                ginv[j] = i
            for p in sub:
                conj = tuple(g[p[ginv[x]]] for x in range(size))
                if conj not in sub:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(Permutation(p) for p in sub))
    return set(out)


def cofactor_det(matrix_rows, nvars):
    """Recursive cofactor expansion of a coset-variable matrix (entry k is
    y_k) or of a matrix of integer linear forms (entry (a_0, .., a_{n-1}) is
    a_0*y_0 + ..), with no memoization of minors; independent of the
    package's determinant."""
    size = len(matrix_rows)

    def var(entry):
        if isinstance(entry, int):
            return IntPolynomial.variable(nvars, entry)
        total = IntPolynomial.zero(nvars)
        for j, a in enumerate(entry):
            total = total + IntPolynomial.variable(nvars, j) * a
        return total

    def expand(rows, cols):
        if len(rows) == 1:
            return var(matrix_rows[rows[0]][cols[0]])
        total = IntPolynomial.zero(nvars)
        r = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            minor = expand(rest, cols[:idx] + cols[idx + 1:])
            term = var(matrix_rows[r][c]) * minor
            total = total + term if idx % 2 == 0 else total - term
        return total

    return expand(list(range(size)), list(range(size)))


def first_free_witness(order, bound):
    """The lexicographically first nonzero vector of sup-norm at most `bound`
    that passes is_free_witness, testing every candidate in turn; None when
    there is none."""
    from hopfgalois.integral import is_free_witness
    m = len(order.ideal_action_matrices)
    for v in itertools.product(range(-bound, bound + 1), repeat=m):
        if any(v) and is_free_witness(order, list(v)):
            return v
    return None


def multiplication_trace(field, x):
    """Trace of y -> x*y computed from the multiplication matrix."""
    mat = field.multiplication_matrix(x)
    return sum((mat[i][i] for i in range(field.degree)), Fraction(0))


def stabilizer_scan_order(algebra, ideal, max_denominator):
    """Brute-force membership scan for the associated order of a rank-2 ideal:
    all rational vectors with denominators up to the bound, checked against the
    stabilizing condition directly."""
    from hopfgalois import linalg
    m = algebra.dim
    assert m == 2
    vecs = ideal.lattice.basis_vectors()
    w = [[vecs[j][i] for j in range(m)] for i in range(m)]
    w_inv = linalg.invert(w)
    members = []
    steps = [Fraction(n, max_denominator)
             for n in range(-3 * max_denominator, 3 * max_denominator + 1)]
    for c0 in steps:
        for c1 in steps:
            mat = linalg.mat_mul(w_inv, linalg.mat_mul(
                algebra.action_matrix_of([c0, c1]), w))
            if all(v.denominator == 1 for row in mat for v in row):
                members.append((c0, c1))
    return members
