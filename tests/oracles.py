"""Independent oracles the tests check the package against.  These stay
deliberately naive: different algorithms than the code under test."""

import itertools
from fractions import Fraction
from functools import cache, reduce
from math import lcm

from hopfgalois import linalg
from hopfgalois.errors import ConsistencyError, DomainError, StructureError
from hopfgalois.integral import _flat_matrix, _transfer_rows
from hopfgalois.numberfield import (REDUCTION_PRIME_MIN, FieldElement,
                                    _is_prime, _is_squarefree_p, _minus_x_p,
                                    _pack, _poly_mod_p, _polygcd_p, _polypow_p,
                                    _reduce_int, _slot_bytes, _unpack)
from hopfgalois.perm import FiniteGroup, Permutation, _close_tuples
from hopfgalois.transition import (IntPolynomial, form_evaluator,
                                   transition_matrix_of)


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


def all_subgroups(group):
    """Every subgroup of a FiniteGroup, by closure of incrementally extended
    generator sets, sorted by (order, element images)."""
    trivial = frozenset({group.elements[group.identity_index]})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            for p in group.elements:
                if p in sub:
                    continue
                closure = _close_tuples(
                    [q.images for q in sub | {p}], group.degree, None)
                bigger = frozenset(Permutation(t) for t in closure)
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    groups = [FiniteGroup(s) for s in found]
    groups.sort(key=lambda g: (g.order(), [p.images for p in g.elements]))
    return groups


def conjugacy_classes(group):
    """The conjugacy classes of a FiniteGroup, each the set of conjugates
    q p q^-1 of its first element p, in the order of the elements."""
    classes = []
    for p in group.elements:
        if not any(p in cls for cls in classes):
            classes.append(frozenset(q * p * q.inverse()
                                     for q in group.elements))
    return classes


def normal_subgroups_by_filter(group):
    """The subgroups closed under conjugation by every element, in the order
    of all_subgroups."""
    out = []
    for sub in all_subgroups(group):
        members = set(sub.elements)
        if all(q * p * q.inverse() in members
               for p in sub.elements for q in group.elements):
            out.append(sub)
    return out


def is_regular(perms, space):
    """True iff the (verified) subgroup has order |X| and is transitive."""
    elems = sorted(set(perms))
    index = set(elems)
    for p in elems:
        for q in elems:
            if p * q not in index:
                raise StructureError(f"not closed under composition: {p} * {q}")
    if len(elems) != space.size:
        return False
    orbit = {p(space.base_point) for p in elems}
    return len(orbit) == space.size


def is_isomorphic(group, other):
    """Exhaustive generator-image search with order-profile pruning."""
    if group.order() != other.order():
        return False
    if group.order_profile() != other.order_profile():
        return False
    gens = _small_generating_set(group)
    orders = [g.order() for g in gens]
    pools = [[q for q in other.elements if q.order() == o] for o in orders]
    for images in itertools.product(*pools):
        if _extends_to_isomorphism(group, gens, images, other):
            return True
    return False


def _small_generating_set(group):
    chosen = []
    span = {group.elements[group.identity_index]}
    while len(span) < group.order():
        best = None
        best_span = None
        for p in group.elements:
            if p in span:
                continue
            closure = _close_tuples(
                [q.images for q in list(span) + [p]], group.degree, None)
            if best_span is None or len(closure) > len(best_span):
                best, best_span = p, closure
                if len(closure) == group.order():
                    break
        chosen.append(best)
        span = {Permutation(t) for t in best_span}
    return chosen


def _extends_to_isomorphism(group, gens, images, other):
    mapping = {group.elements[group.identity_index]:
               other.elements[other.identity_index]}
    frontier = [group.elements[group.identity_index]]
    while frontier:
        nxt = []
        for p in frontier:
            for g, h in zip(gens, images):
                q = p * g
                target = mapping[p] * h
                if q in mapping:
                    if mapping[q] != target:
                        return False
                else:
                    mapping[q] = target
                    nxt.append(q)
        frontier = nxt
    return len(mapping) == group.order() and len(set(mapping.values())) == group.order()


def is_normalized_by(n, space):
    """Whether the translations of the space normalize N: every conjugate
    of an element of N by a generator's translation lies in N."""
    members = set(n.elements)
    for g in map(space.translations.__getitem__, space.group.generators):
        ginv = g.inverse()
        for p in n.elements:
            if g * p * ginv not in members:
                return False
    return True


def regular_normalized_oracle(space):
    """Exhaustive-scan counterpart of the search-based enumeration."""
    size = space.size
    lam_images = [p.images for p in space.translations]
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


def regular_normalized_by_two_sided_closure(space):
    """Reference enumeration of the regular subgroups normalized by the
    translations, as image-tuple sets sorted by their images.  For each
    uncovered coset, each power-free candidate over it joins the partial
    group, which is closed under products with the whole partial group on
    both sides and under translation-conjugation, element by element; a
    branch ends at the first non-identity element with a fixed point, or
    once the set outgrows |X|."""
    size = space.size
    base = space.base_point
    identity = tuple(range(size))
    lam_gens = [(g.images, g.inverse().images) for g in
                map(space.translations.__getitem__, space.group.generators)]
    pool = {}
    for cand in _power_free_by_size(size):
        if cand != identity:
            pool.setdefault(cand[base], []).append(cand)

    def close(seed):
        group = set(seed)
        frontier = list(group)
        while frontier:
            new = []
            for p in frontier:
                conjugates = [tuple(g[p[ginv[x]]] for x in range(size))
                              for g, ginv in lam_gens]
                others = itertools.chain(
                    (compose(p, q) for q in list(group)),
                    (compose(q, p) for q in list(group)),
                    conjugates)
                for prod in others:
                    if prod in group:
                        continue
                    if prod != identity and any(prod[i] == i for i in range(size)):
                        return None
                    group.add(prod)
                    new.append(prod)
                    if len(group) > size:
                        return None
            frontier = new
        return group

    results = set()
    partial = [{identity}]
    while partial:
        group = partial.pop()
        if len(group) == size:
            results.add(frozenset(group))
            continue
        hits = {p[base] for p in group}
        target = min(c for c in range(size) if c not in hits)
        for cand in pool.get(target, []):
            bigger = close(group | {cand})
            if bigger is not None:
                partial.append(bigger)
    return sorted(tuple(sorted(g)) for g in results)


def centralizer_by_whole_products(n, space):
    """Centralizer of N in the full symmetric group on X: every permutation
    whose two whole products with each element of N agree, in
    itertools.permutations order (which is sorted).  The identity, element
    0, commutes with everything and is left out."""
    members = [(q.images, q.images.__getitem__) for q in n.elements[1:]]
    out = []
    for images in itertools.permutations(range(space.size)):
        at = images.__getitem__
        for q, q_at in members:
            if [*map(at, q)] != [*map(q_at, images)]:
                break
        else:
            out.append(Permutation(images))
    return tuple(out)


def power_free_candidates_by_powers(size):
    """The identity and the fixed-point-free permutations of 0..size-1 whose
    every nontrivial power is fixed-point-free, by walking the powers, in
    itertools.permutations order."""
    out = []
    for images in itertools.permutations(range(size)):
        if all(images[i] == i for i in range(size)):
            out.append(images)
            continue
        if any(images[i] == i for i in range(size)):
            continue
        power = images
        ok = True
        while True:
            power = tuple(images[i] for i in power)
            if all(power[i] == i for i in range(size)):
                break
            if any(power[i] == i for i in range(size)):
                ok = False
                break
        if ok:
            out.append(images)
    return out


@cache
def _power_free_by_size(size):
    return tuple(power_free_candidates_by_powers(size))


def rref(mat):
    """Reduced row echelon form over Q by Gauss-Jordan elimination with
    Fraction arithmetic.  Returns (rows, pivot_columns); the input is not
    modified."""
    rows = [[Fraction(x) for x in r] for r in mat]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def det(mat):
    """Determinant over an exact field by Gaussian elimination, over Q or
    over E (the reference for linalg.int_det and numberfield._packed_det)."""
    n = len(mat)
    m = [list(r) for r in mat]
    zero = mat[0][0] - mat[0][0]
    sign = 1
    pivots = []
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return zero
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        piv = m[c][c]
        pivots.append(piv)
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / piv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    acc = pivots[0]
    for p in pivots[1:]:
        acc = acc * p
    return -acc if sign < 0 else acc


def rref_kernel(mat, ncols):
    """The kernel of mat read off its rref: one vector per free column, 1
    there and 0 at the other free columns; returned with the free columns."""
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return basis, free


class FractionSolver:
    """linalg.LinearSolver on rational columns and targets, each cleared
    first, with each solution as a Fraction vector, or None outside the
    span, for the oracles that work over Q.  With the columns cleared by d
    and a target by c, a solution e^-1 y of the integer system is the
    coordinates times c / d."""

    def __init__(self, columns):
        self.scale, ints = linalg._clear_denominators(columns)
        self.solver = linalg.LinearSolver(ints)

    def solve(self, target):
        c, (ints,) = linalg._clear_denominators([target])
        solved = self.solver.solve(ints)
        return None if solved is None else \
            [Fraction(self.scale * x, solved[0] * c) for x in solved[1]]


def rational_lattice(rows):
    """The Lattice spanned by rational rows, through its one constructor on
    the rows' integer form."""
    from hopfgalois.integral import Lattice
    return Lattice.from_integer_rows(*linalg._clear_denominators(rows))


def lattice_contains(lattice, vector):
    """Lattice.contains on a rational vector: ints / c, once cleared, lies in
    the lattice when the denominator times ints, over c, is spanned."""
    c, (ints,) = linalg._clear_denominators([vector])
    return lattice._spans([lattice.denominator * v for v in ints], c)


def basis_vectors(lattice):
    """The lattice's basis rows over its denominator, as Fraction rows."""
    return [[Fraction(v, lattice.denominator) for v in r] for r in lattice.rows]


def fraction_inverse(mat):
    """The inverse of a nonsingular rational matrix, as Fraction rows: with
    the matrix d times an integer one, d times linalg.invert of that."""
    d, ints = linalg._clear_denominators(mat)
    e, rows = linalg.invert(ints)
    return [[Fraction(d * x, e) for x in row] for row in rows]


def rref_solve(mat, target):
    """The solution c of mat @ c = target, for mat of full column rank and a
    target in its column span, read off the rref of [mat | target]."""
    rows, _ = rref([list(row) + [t] for row, t in zip(mat, target)])
    return [row[-1] for row in rows[:len(mat[0])]]


def stacked_descent_system(context, space, n):
    """The simultaneous action on E[N] as one stacked system: for each
    generator g of G, the mn x mn matrix sending block i (the coefficient of
    eta_i) to block c_g(i) through M_g, minus the identity.  M_g is read
    off g's integer form (d, mat) as mat / d."""
    m, deg = space.size, context.degree
    stacked = []
    for g in space.group.generators:
        lam = space.translations[g]
        conj = [n.index_of(lam * eta * lam.inverse()) for eta in n.elements]
        d, mat = context.matrices[g]
        big = [[Fraction(0)] * (m * deg) for _ in range(m * deg)]
        for i in range(m):
            for r in range(deg):
                for c in range(deg):
                    big[conj[i] * deg + r][i * deg + c] = Fraction(mat[r][c], d)
        stacked += [[x - (i == j) for j, x in enumerate(row)]
                    for i, row in enumerate(big)]
    return stacked


def stacked_descent(context, space, n, subfield):
    """E[N]^G by one elimination of the stacked system (rref_kernel) and
    everything else over Q: the kernel basis with its free columns, the
    action matrices on the subfield basis from field-element sums, and the
    structure constants from group-algebra products solved for in the
    basis, each set in integer form over its least common denominator."""
    m, deg = space.size, context.degree
    kernel, free = rref_kernel(stacked_descent_system(context, space, n),
                               m * deg)
    basis = [GroupAlgebraElement(n, [context.field.element(v[i * deg:(i + 1) * deg])
                                     for i in range(m)]) for v in kernel]
    base = space.base_point
    images = [[context.apply(g, b) for b in subfield_basis(subfield)]
              for g in space.representatives]
    action = []
    for b in basis:
        cols = []
        for j in range(subfield.dim):
            total = context.field.zero()
            for eta, c in zip(n.elements, b.coefficients):
                total = total + c * images[eta.inverse()(base)][j]
            cols.append(subfield.coords(total))
        action.append(linalg.transpose(cols))
    solver = FractionSolver(kernel)
    structure = [[solver.solve(flatten_coefficients(group_algebra_product(a, b)))
                  for b in basis] for a in basis]
    return kernel, free, integer_form(action), integer_form(structure)


def integer_form(matrices):
    """(d, the matrices times d as integer tuples), d the least common
    denominator of every entry."""
    rows = [r for mat in matrices for r in mat]
    d = lcm(*(Fraction(x).denominator for r in rows for x in r))
    size = len(matrices[0])
    ints = [tuple(int(x * d) for x in r) for r in rows]
    return d, tuple(tuple(ints[k:k + size]) for k in range(0, len(ints), size))


class RingPolynomial(IntPolynomial):
    """IntPolynomial with the ring operations, for building reference
    polynomials term by term."""

    __slots__ = ()

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def variable(cls, nvars, k):
        exps = [0] * nvars
        exps[k] = 1
        return cls(nvars, {tuple(exps): 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return RingPolynomial(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return RingPolynomial(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingPolynomial(self.nvars,
                                  {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return RingPolynomial(self.nvars, out)

    __rmul__ = __mul__


def cofactor_det(matrix_rows, nvars):
    """Recursive cofactor expansion of a coset-variable matrix (entry k is
    y_k) or of a matrix of integer linear forms (entry (a_0, .., a_{n-1}) is
    a_0*y_0 + ..), with no memoization of minors; independent of the
    package's determinant."""
    size = len(matrix_rows)

    def var(entry):
        if isinstance(entry, int):
            return RingPolynomial.variable(nvars, entry)
        total = RingPolynomial.zero(nvars)
        for j, a in enumerate(entry):
            total = total + RingPolynomial.variable(nvars, j) * a
        return total

    def expand(rows, cols):
        if len(rows) == 1:
            return var(matrix_rows[rows[0]][cols[0]])
        total = RingPolynomial.zero(nvars)
        r = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            minor = expand(rest, cols[:idx] + cols[idx + 1:])
            term = var(matrix_rows[r][c]) * minor
            total = total + term if idx % 2 == 0 else total - term
        return total

    return expand(list(range(size)), list(range(size)))


def evaluate(poly, values, one):
    """Value of an IntPolynomial at ring elements `values`, `one` being that
    ring's unit: power tables and a sum of products, in the ring's own
    arithmetic."""
    max_exp = [0] * poly.nvars
    for exps in poly.terms:
        for k, e in enumerate(exps):
            max_exp[k] = max(max_exp[k], e)
    powers = []
    for k, top in enumerate(max_exp):
        row = [one]
        for _ in range(top):
            row.append(row[-1] * values[k])
        powers.append(row)
    total = None
    for exps, coeff in poly.terms.items():
        term = None
        for k, e in enumerate(exps):
            if e:
                term = powers[k][e] if term is None else term * powers[k][e]
        if term is None:
            term = one
        term = coeff * term
        total = term if total is None else total + term
    if total is None:
        return one - one
    return total


def packed_form_evaluator(form, modulus):
    """The value of a homogeneous IntPolynomial as a function of the
    elements of Z[t]/(f), f the monic modulus, given by their integer
    coordinate vectors ints[k]: its coordinates in Z[t]/(f).  The form's
    evaluator (transition.form_evaluator) is planned once.  Each point is
    packed at t = 2^(8 w), a ring map Z[t] -> Z, so the evaluator's integer
    sums and products give the packed value; it is unpacked and reduced by
    f once (the reference for evaluating a form over E at packed points).

    Slot width: only the value is unpacked.  With L the largest l1 norm of
    an element and d the degree, its coefficients are at most sum |c| L^d
    in absolute value."""
    evaluate = form_evaluator([form])
    degree = max(map(sum, form.terms), default=0)
    size = sum(map(abs, form.terms.values()))
    n = len(modulus) - 1
    slots = max(degree * (n - 1) + 1, n)

    def value(ints):
        largest = max(sum(map(abs, v)) for v in ints)
        width = _slot_bytes(size * largest ** degree)
        (packed,) = evaluate([_pack(v, width) for v in ints])
        return _reduce_int(_unpack(packed, slots, width), modulus)
    return value


def half_box_hits(poly, bound):
    """The full box's unit points whose first nonzero coordinate is
    negative, by evaluating the form at every point."""
    hits = []
    for v in itertools.product(range(-bound, bound + 1), repeat=poly.nvars):
        if next((t for t in v if t), 0) < 0:
            value = evaluate(poly, v, 1)
            if value in (1, -1):
                hits.append((v, value))
    return hits


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


def fraction_product(x, y):
    """Coordinates of x * y in Q[t]/(f): a Fraction convolution, reduced with
    the table of t^(n+k) mod f for k = 0 .. n-2."""
    field = x.field
    n = field.degree
    rows = [[Fraction(-c) for c in field.modulus[:-1]]]
    for _ in range(n - 2):
        top = rows[-1][-1]
        shifted = [Fraction(0)] + rows[-1][:-1]
        rows.append([s + top * r for s, r in zip(shifted, rows[0])])
    conv = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            conv[i + j] += a * b
    out = conv[:n]
    for k in range(n, 2 * n - 1):
        for i in range(n):
            out[i] += conv[k] * rows[k - n][i]
    return tuple(out)


def residue(x, p, r):
    """Image of the field element x in F_p under t -> r, for r a root of the
    modulus mod p, coordinate by coordinate: each Fraction's numerator times
    the inverse of its denominator; None when a denominator is divisible by
    p (the reference for descent._residues)."""
    acc = 0
    for c in reversed(x.coords):
        num, den = c.numerator, c.denominator
        if den % p == 0:
            return None
        acc = (acc * r + num * pow(den, -1, p)) % p
    return acc


def reduction_root_by_gcd(modulus):
    """The reference for numberfield._reduction_root: the least prime
    p >= REDUCTION_PRIME_MIN at which the modulus is squarefree and
    gcd(f, x^p - x), the product of the x - r over the roots r of f mod p,
    is not constant, with the least root r."""
    for p in filter(_is_prime, itertools.count(REDUCTION_PRIME_MIN)):
        f = _poly_mod_p(modulus, p)
        if _is_squarefree_p(f, p) and len(_polygcd_p(
                f, _minus_x_p(_polypow_p([0, 1], p, f, p), p), p)) > 1:
            return p, next(r for r in range(p) if not reduce(
                lambda acc, c: (acc * r + c) % p, reversed(f), 0))


def multiplication_trace(field, x):
    """Trace of y -> x*y computed from its matrix in the power basis: the
    diagonal entry j is coordinate j of x t^j."""
    total, power = Fraction(0), x
    for j in range(field.degree):
        total += power.coords[j]
        power = power * field.element([0, 1])
    return total


def stabilizer_scan_order(algebra, ideal, max_denominator):
    """Brute-force membership scan for the associated order of a rank-2 ideal:
    all rational vectors with denominators up to the bound, checked against the
    stabilizing condition directly."""
    from hopfgalois import linalg
    m = algebra.dim
    assert m == 2
    vecs = basis_vectors(ideal.lattice)
    w = [[vecs[j][i] for j in range(m)] for i in range(m)]
    w_inv = fraction_inverse(w)
    members = []
    steps = [Fraction(n, max_denominator)
             for n in range(-3 * max_denominator, 3 * max_denominator + 1)]
    for c0 in steps:
        for c1 in steps:
            mat = linalg.mat_mul(w_inv, linalg.mat_mul(
                action_matrix_of(algebra, [c0, c1]), w))
            if all(v.denominator == 1 for row in mat for v in row):
                members.append((c0, c1))
    return members


def fraction_associated_order(algebra, ideal):
    """The associated order over Q: each action matrix rewritten in the
    ideal basis as W^-1 A_k W with Fraction products, the stacked rows put
    in Hermite form, its inverse transposed, and each basis element's ideal
    action rebuilt from its own action matrix."""
    from math import lcm

    from hopfgalois.integral import AssociatedOrder
    m = algebra.dim
    w = linalg.transpose(basis_vectors(ideal.lattice))
    w_inv = fraction_inverse(w)
    rewritten = [linalg.mat_mul(w_inv, linalg.mat_mul(a, w))
                 for a in rational_action_matrices(algebra)]
    den = lcm(*(v.denominator for mat in rewritten for row in mat for v in row))
    stacked = [[int(mat[i][j] * den) for mat in rewritten]
               for i in range(m) for j in range(m)]
    h_inv = fraction_inverse(linalg.hnf(stacked))
    lattice = rational_lattice(
        [[den * h_inv[i][j] for i in range(m)] for j in range(m)])
    actions = []
    for c in basis_vectors(lattice):
        mat = linalg.mat_mul(w_inv, linalg.mat_mul(
            action_matrix_of(algebra, c), w))
        if any(v.denominator != 1 for row in mat for v in row):
            raise ConsistencyError("order element does not stabilize the ideal")
        actions.append(_flat_matrix([[int(v) for v in row] for row in mat]))
    return AssociatedOrder(lattice, tuple(actions))


# --- definitional counterparts of the descent layer

class GroupAlgebraElement:
    """Element of E[N]: one field coefficient per subgroup element, indexed in
    the subgroup's canonical element order."""

    __slots__ = ("subgroup", "coefficients")

    def __init__(self, subgroup, coefficients):
        self.subgroup = subgroup
        self.coefficients = tuple(coefficients)

    def __repr__(self):
        return f"GroupAlgebraElement({list(self.coefficients)})"


def descended_basis(algebra):
    """The descended basis as elements of E[N], read off its integer form:
    basis element k is int_basis[k] over basis_denominator, block by
    block."""
    field, den = algebra.subfield.context.field, algebra.basis_denominator
    return [GroupAlgebraElement(algebra.subgroup, [
        FieldElement(field, tuple(Fraction(x, den) for x in block))
        for block in vec]) for vec in algebra.int_basis]


def subfield_basis(sub):
    """The subfield basis as field elements: the elements with the unit
    coordinate vectors (Subfield.from_coords)."""
    return [sub.from_coords([int(i == j) for j in range(sub.dim)])
            for i in range(sub.dim)]


class MapAlgebraElement:
    """Element of the function algebra Map(X, E): one coefficient per coset,
    multiplied pointwise; the indicator functions are the idempotent basis."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)

    def __add__(self, other):
        return MapAlgebraElement(a + b for a, b in zip(self.values, other.values))

    def __sub__(self, other):
        return MapAlgebraElement(a - b for a, b in zip(self.values, other.values))

    def __mul__(self, other):
        return MapAlgebraElement(a * b for a, b in zip(self.values, other.values))

    def scale(self, c):
        return MapAlgebraElement(c * v for v in self.values)

    def __eq__(self, other):
        return isinstance(other, MapAlgebraElement) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"MapAlgebraElement({list(self.values)})"


def embed_in_map_algebra(context, space, subfield, x):
    """x -> sum over cosets of (representative applied to x) times the coset's
    idempotent; an exact algebra embedding of the fixed subfield."""
    if not subfield.contains(x):
        raise DomainError("element is not fixed by the stabilizer")
    return MapAlgebraElement(context.apply(space.representatives[c], x)
                             for c in range(space.size))


def group_algebra_sum(a, b):
    """a + b in E[N], coefficientwise."""
    return GroupAlgebraElement(
        a.subgroup, (x + y for x, y in zip(a.coefficients, b.coefficients)))


def group_algebra_product(a, b):
    """a * b in E[N]: the coefficient products, each added at the product
    of its two subgroup elements."""
    group = a.subgroup
    out = [a.coefficients[0].field.zero() for _ in group.elements]
    for i, x in enumerate(a.coefficients):
        for j, y in enumerate(b.coefficients):
            if x and y:
                out[group.mul(i, j)] += x * y
    return GroupAlgebraElement(group, out)


def transfer_element(algebra, partner, a_coords, x):
    """The unique partner element acting on the generator x exactly as the
    given element does; solves z . x = a . x in the partner's coordinates."""
    xc = algebra.subfield.coords(x)
    a_of_x = linalg.mat_vec(action_matrix_of(algebra, list(a_coords)), xc)
    c, (xi,) = linalg._clear_denominators([xc])
    d, (z,) = _transfer_rows(partner, c, xi,
                             *linalg._clear_denominators([a_of_x]))
    return [Fraction(v, d) for v in z]

def idempotent(context, size, coset):
    values = [context.field.zero()] * size
    values[coset] = context.field.one()
    return MapAlgebraElement(values)


def permutation_act_on_map(eta, f):
    """The subgroup action that permutes idempotent subscripts."""
    out = [None] * len(f.values)
    for g, v in enumerate(f.values):
        out[eta(g)] = v
    return MapAlgebraElement(out)


def element_from_coords(algebra, coords):
    """The element of E[N] with the given coordinates in the descended basis."""
    total = None
    for c, b in zip(coords, descended_basis(algebra)):
        piece = GroupAlgebraElement(
            algebra.subgroup, (v * Fraction(c) for v in b.coefficients))
        total = piece if total is None else group_algebra_sum(total, piece)
    return total


def descended_solver(algebra):
    """A FractionSolver for coordinates in the descended basis of E[N], whose
    elements it takes as flattened rational vectors (flatten_coefficients)."""
    return FractionSolver([flatten_coefficients(b)
                           for b in descended_basis(algebra)])


def flatten_coefficients(element):
    return [Fraction(v) for c in element.coefficients for v in c.coords]


def coords_of(algebra, element):
    """Coordinates in the descended basis of an element of E[N]."""
    coords = descended_solver(algebra).solve(flatten_coefficients(element))
    if coords is None:
        raise DomainError("element does not lie in the descended algebra")
    return coords


def descended_act(algebra, h, x):
    """The descended action: sum of c_eta times (representative of
    eta^{-1}(base)) applied to x.  The result must land in the subfield."""
    base, context = algebra.space.base_point, algebra.subfield.context
    total = context.field.zero()
    for eta, c in zip(algebra.subgroup.elements, h.coefficients):
        if not c:
            continue
        coset = eta.inverse()(base)
        total = total + c * context.apply(
            algebra.space.representatives[coset], x)
    if not algebra.subfield.contains(total):
        raise ConsistencyError("action left the fixed subfield")
    return total


def action_matrix_of(algebra, coords):
    """The action over Q of the algebra element with these coordinates: the
    combination of the integer action matrices over their denominator."""
    m = algebra.subfield.dim
    return [[sum((c * a[i][j] for c, a in zip(coords, algebra.int_action_matrices)),
                 Fraction(0)) / algebra.action_denominator for j in range(m)]
            for i in range(m)]


def multiply_coords(algebra, a, b):
    """Coordinates of the product of two algebra elements, read off the
    integer structure constants over their denominator."""
    consts = algebra.int_structure_constants
    return [sum((ai * bj * row[k] for ai, rows in zip(a, consts)
                 for bj, row in zip(b, rows)), Fraction(0))
            / algebra.structure_denominator for k in range(algebra.dim)]


def rational_action_matrices(algebra):
    """The descended action matrices over Q: matrix k holds in column j the
    subfield coordinates of descended_act(b_k, l_j)."""
    sub = algebra.subfield
    return [linalg.transpose([sub.coords(descended_act(algebra, b, lb))
                              for lb in subfield_basis(sub)])
            for b in descended_basis(algebra)]


def rational_structure_constants(algebra):
    """The structure constants over Q: matrix i holds in row j the
    coordinates of b_i * b_j, solved for in the descended basis."""
    solver = descended_solver(algebra)
    basis = descended_basis(algebra)
    return [[solver.solve(flatten_coefficients(group_algebra_product(bi, bj)))
             for bj in basis] for bi in basis]


def unit_forms(size):
    """The indeterminates y_0 .. y_{size-1} as linear forms: the values whose
    transition matrix is the symbolic one."""
    return [tuple(int(j == k) for j in range(size)) for k in range(size)]


def transition_matrix_values(context, space, n, x):
    """The numeric transition matrix: entry (eta, g) is eta(g)-representative
    applied to x."""
    return transition_matrix_of(
        n, [context.apply(g, x) for g in space.representatives])


def galois_act_on_map(context, space, g_index, f):
    """The group action on Map(X, E): Galois on values, left translation on
    subscripts."""
    lam_images = [space.coset_of[space.group.mul(g_index, space.representatives[c])]
                  for c in range(space.size)]
    out = [None] * space.size
    for c, v in enumerate(f.values):
        out[lam_images[c]] = context.apply(g_index, v)
    return MapAlgebraElement(out)


def group_algebra_act_on_map(h, f):
    """sum of c_eta times (eta acting on f), for h in E[N]."""
    total = None
    for eta, c in zip(h.subgroup.elements, h.coefficients):
        if not c:
            continue
        piece = permutation_act_on_map(eta, f).scale(c)
        total = piece if total is None else total + piece
    if total is None:
        zero = h.coefficients[0].field.zero()
        return MapAlgebraElement([zero] * len(f.values))
    return total


def sum_over_subgroup(algebra):
    """The element with every coefficient 1; always survives the descent."""
    one = algebra.subfield.context.field.one()
    return GroupAlgebraElement(
        algebra.subgroup, [one] * len(algebra.subgroup.elements))


def generates_map_algebra_over_group_algebra(algebra, f):
    """Whether E[N] f = Map(X, E): exact rank over E of the orbit of f under
    the subgroup elements."""
    rows = [list(permutation_act_on_map(eta, f).values)
            for eta in algebra.subgroup.elements]
    return bool(det(rows))


def generates_fixed_map_algebra(algebra, f):
    """Whether the descended algebra's orbit of f spans the rational form of
    the function algebra: exact rank over Q."""
    rows = [[v for c in group_algebra_act_on_map(b, f).values
             for v in c.coords] for b in descended_basis(algebra)]
    return linalg.rank(linalg._clear_denominators(rows)[1]) == algebra.dim
