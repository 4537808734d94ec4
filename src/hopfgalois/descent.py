"""Galois descent of group algebras, the descended action on the fixed
subfield, and the verification predicates built on it (Hopf-Galois property,
commuting actions, generators, separability).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from math import lcm

from . import linalg
from .errors import ConsistencyError, StructureError
from .numberfield import (FieldElement, NumberField, Subfield, _convolve_into,
                          _packed_det, _reduce_int)
from .perm import FiniteGroup
from .transition import (IntPolynomial, det_symbolic, form_evaluator,
                         form_residues, transition_matrix_of)


@dataclass(frozen=True, eq=False)
class DescendedAlgebra:
    """The rational form of E[N] under the simultaneous Galois action, carried
    with its basis, its exact action matrices on a fixed basis of the fixed
    subfield and its structure constants (matrix i holds the coordinates of
    b_i * b_j in row j), each in integer form only: the set times one common
    denominator, which descend computes once.  A basis element has one block
    of power-basis coordinates per element of the subgroup, in its order.
    The coset space is the subfield's."""

    subgroup: FiniteGroup
    subfield: Subfield
    basis_denominator: int
    int_basis: tuple[tuple[tuple[int, ...], ...], ...]
    identity_coords: tuple[int, ...]
    action_denominator: int
    int_action_matrices: tuple[tuple[tuple[int, ...], ...], ...]
    structure_denominator: int
    int_structure_constants: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.int_basis)

    def orbit(self, x_coords):
        """Subfield coordinates of b_k . x for each basis element b_k, given
        the subfield coordinates of x, all times action_denominator: the
        integer form applied as it is, which keeps the orbit's rank."""
        return [linalg.mat_vec(a, x_coords) for a in self.int_action_matrices]

    @cached_property
    def non_scalar_actions(self):
        """(the non-scalar integer action matrices A_k, sum_k r_k A_k, sum_k
        s_k A_k) for verify_commuting's weights r_k = k + 2, s_k = k^2 + 3,
        built once per algebra; ([], None, None) when every A_k is scalar."""
        mats = [a for a in self.int_action_matrices if any(
            x != (a[0][0] if i == j else 0)
            for i, row in enumerate(a) for j, x in enumerate(row))]
        if not mats:
            return mats, None, None
        ks = range(len(mats))
        return mats, *linalg.combined(mats, [[k + 2 for k in ks],
                                             [k * k + 3 for k in ks]])


def descend(n: FiniteGroup, subfield: Subfield) -> DescendedAlgebra:
    """The fixed points E[N]^G of the simultaneous action (Galois on the
    coefficients, conjugation by the translations of the subfield's coset
    space on N) inside E[N], with its integer action matrices on the
    subfield basis and integer structure constants, for the Galois action
    of the subfield's context.  A conjugate outside N in the table of the
    c_g below is a StructureError: N does not descend unless the
    translations normalize it.

    sum_i v_i eta_i is fixed when v_{c_g(i)} = M_g v_i for every g, where
    eta_{c_g(i)} = lambda_g eta_i lambda_g^-1 and M_g is the matrix of g.
    So the fixed space is built orbit by orbit of G on N's indices: for an
    orbit with root r and, for each j in it, an element h_j with
    c_{h_j}(r) = j, its fixed vectors are v_j = M_{h_j} u (M_ab = M_a M_b,
    which load_field checks), for u in the fixed field of the root's
    stabilizer.  The Schreier elements h_k^-1 g h_j, k = c_g(j), generate
    that stabilizer, so each orbit costs one n x n fixed_space, which the
    context keeps for every descent of the fixture (GaloisContext.fixed_space).
    The basis is the canonical one of the space (linalg.span_basis): the
    kernel basis of the stacked system of every M_g - 1, with its free
    columns.

    The result is certified, not trusted.  Every basis vector is checked
    fixed by every generator, over Z, and the basis independent over E
    (_packed_det, int_det on the packed blocks).  Fixed vectors independent
    over Q are independent over E (Speiser), so dim_Q E[N]^G <= m, and m
    fixed vectors independent over E are a basis of the whole fixed space.
    Products are taken over Z[t]/(f) on the basis times its common
    denominator, and their coordinates, read off at the free columns, are
    checked by an integer recombination."""
    space, context = subfield.space, subfield.context
    group = space.group
    matrices, m, nf_degree = context.matrices, space.size, context.degree
    modulus = context.field.modulus
    conj = {}
    for g in group.generators:
        lam_g = space.translations[g]
        lam_g_inv = lam_g.inverse()
        try:
            conj[g] = [n.index_of(lam_g * eta * lam_g_inv)
                       for eta in n.elements]
        except KeyError:
            raise StructureError(
                "subgroup is not normalized by the translation image; "
                "it does not descend") from None

    spanning = []
    reached = set()
    for root in range(m):
        if root in reached:
            continue
        # index j in the orbit -> h_j, and the Schreier elements
        orbit = {root: group.identity_index}
        stabilizer = set()
        frontier = [root]
        while frontier:
            nxt = []
            for j in frontier:
                for g in group.generators:
                    k, h = conj[g][j], group.mul(g, orbit[j])
                    if k in orbit:
                        stabilizer.add(group.mul(group.inv(orbit[k]), h))
                    else:
                        orbit[k] = h
                        nxt.append(k)
            frontier = nxt
        reached.update(orbit)
        stabilizer.discard(group.identity_index)
        _, fixed, _ = context.fixed_space(tuple(sorted(stabilizer)))
        # over Z: the u as integers, M_{h_j} in integer form (e_j, I_j), and
        # block j is common / e_j times I_j u, so that every block carries
        # one factor
        forms = {j: matrices[h] for j, h in orbit.items()}
        common = lcm(*(e for e, _ in forms.values()))
        for u in fixed:
            vec = [0] * (m * nf_degree)
            for j, (e, mh) in forms.items():
                vec[j * nf_degree:(j + 1) * nf_degree] = \
                    [common // e * x for x in linalg.mat_vec(mh, u)]
            spanning.append(vec)
    # the basis is ints over den; it is kept as integer blocks
    den, ints, free = linalg.span_basis(spanning, m * nf_degree)
    if len(ints) != m:
        raise ConsistencyError(
            f"descended algebra has dimension {len(ints)}, expected {m}")
    blocks = tuple(tuple(tuple(vec[i * nf_degree:(i + 1) * nf_degree])
                         for i in range(m)) for vec in ints)
    for g in group.generators:
        scale, mg = matrices[g]
        for vec in blocks:
            for block, k in zip(vec, conj[g]):
                if linalg.mat_vec(mg, block) != [scale * x for x in vec[k]]:
                    raise ConsistencyError(
                        "descended basis is not fixed by the Galois action")

    # full E[N] is recovered over E: the basis must have full rank over E
    if not any(_packed_det(blocks, modulus)):
        raise ConsistencyError("descended basis does not span E[N] over E")

    # b . l_j = sum_eta c_eta sigma(l_j), sigma the representative of the
    # coset eta^-1(base); over Z on the images times their denominator
    images = subfield.coset_images
    columns = [linalg.transpose(mat) for mat in images.matrices]
    base = space.base_point
    acting = [columns[eta.inverse()(base)] for eta in n.elements]
    # the action and structure matrices are m x m; both are collected as
    # one list of rows, matrix after matrix, for linalg._integer_form
    action = []
    for vec in blocks:
        cols = []
        for j in range(subfield.dim):
            acc = [0] * (2 * nf_degree - 1)
            for block, image in zip(vec, acting):
                _convolve_into(acc, block, image[j])
            coords = subfield.int_coords(_reduce_int(acc, modulus))
            if coords is None:
                raise ConsistencyError(
                    "descended action does not preserve the fixed subfield")
            cols.append(coords)
        action += linalg.transpose(cols)

    # the unit is 1 at n.elements[0], the identity (lexicographically least)
    identity_coords = linalg.echelon_coords(
        ints, free, [1] + [0] * (m * nf_degree - 1), den)
    if identity_coords is None:
        raise ConsistencyError("unit of the group algebra escaped the descent")

    supports = [[(a, x) for a, x in enumerate(vec) if any(x)] for vec in blocks]
    structure = []
    for bi in supports:
        for bj in supports:
            acc = [[0] * (2 * nf_degree - 1) for _ in range(m)]
            for a, x in bi:
                for b, y in bj:
                    _convolve_into(acc[n.mul(a, b)], x, y)
            coords = linalg.echelon_coords(
                ints, free, [c for block in acc
                             for c in _reduce_int(block, modulus)], den)
            if coords is None:
                raise ConsistencyError(
                    "descended algebra is not closed under multiplication")
            structure.append(coords)

    def integer_matrices(scale, rows):
        d, rows = linalg._integer_form(scale, rows)
        return d, tuple(tuple(map(tuple, rows[k:k + m]))
                        for k in range(0, len(rows), m))
    return DescendedAlgebra(
        n, subfield, den, blocks, tuple(identity_coords),
        *integer_matrices(den * images.denominator, action),
        *integer_matrices(den * den, structure))


def verify_hopf_galois(algebra: DescendedAlgebra) -> bool:
    """Bijectivity of the canonical map L (x) H -> End(L): the m^2 x m^2 exact
    matrix of y -> b_i * (h_k . y) must have full rank.  Each column is the
    product of a subfield multiplication matrix and an action matrix, both
    taken over Z: scaling a matrix by a nonzero integer scales its columns
    and keeps the rank, so the algebra's integer form serves."""
    subfield = algebra.subfield
    m = subfield.dim
    columns = []
    for mm in subfield.int_multiplication_matrices()[1]:
        for act in algebra.int_action_matrices:
            prod = linalg.mat_mul(mm, act)
            columns.append([prod[i][j] for j in range(m) for i in range(m)])
    return linalg.rank(columns) == m ** 2


def verify_commuting(a1: DescendedAlgebra, a2: DescendedAlgebra) -> bool:
    """Exact commutation of every pair of basis action matrices, on the
    algebras' integer forms: (d A)(e B) = (e B)(d A) exactly when AB = BA.
    A scalar matrix commutes with every matrix, so it is compared with none:
    the unit's, basis element 0 on every field fixture.

    One product pair comes first: X = sum_k r_k A_k and Y = sum_k s_k B_k
    over the other matrices, with fixed weights r_k = k + 2 and s_k = k^2 + 3
    (no draw, so the seeded stream is untouched; non_scalar_actions).  If
    every A_k commutes with every B_l, X commutes with Y, so XY != YX proves
    the pair does not commute; only XY = YX runs the all-pairs check, which
    decides.  The ratios r_k / s_k are distinct, so on a1 = a2 no commutator
    A_k A_l - A_l A_k drops out of XY - YX, as it would with equal weights."""
    ints1, x, _ = a1.non_scalar_actions
    ints2, _, y = a2.non_scalar_actions
    if not (ints1 and ints2):
        return True
    if linalg.mat_mul(x, y) != linalg.mat_mul(y, x):
        return False
    for r1 in ints1:
        for r2 in ints2:
            if linalg.mat_mul(r1, r2) != linalg.mat_mul(r2, r1):
                return False
    return True


def _residues(scaled, scale, field: NumberField) -> list[int] | None:
    """The residues under t -> r mod p, for the field's (p, r) =
    NumberField.reduction_root(), of the values with power-basis coordinates
    scaled[k] / scale: the integers at r, times the inverse of scale mod p
    (one pow per call); None when p divides scale."""
    p, r = field.reduction_root()
    if scale % p == 0:
        return None
    inv = pow(scale, -1, p)
    residues = []
    for vec in scaled:
        acc = 0
        for x in reversed(vec):
            acc = (acc * r + x) % p
        residues.append(acc * inv % p)
    return residues


@dataclass(frozen=True, eq=False)
class GeneratorSample:
    """A subfield element with what every generator test of it shares,
    whatever the structure: its subfield coordinates times a positive
    integer (an integer vector), its field, the coset values in integer
    form (the value at coset k has power-basis coordinates scaled[k] /
    scale) and their residues mod the field's reduction prime p, which
    exist exactly when p does not divide scale (None otherwise).  `scaled`
    is built by `vectors` on first read: only the exact determinant of a
    generator test reads it."""

    coords: list[int]
    field: NumberField
    scale: int
    residues: list[int] | None
    vectors: Callable[[], list[list[int]]]

    @cached_property
    def scaled(self) -> list[list[int]]:
        return self.vectors()

    @classmethod
    def of_values(cls, coords, values) -> GeneratorSample:
        """The sample with the given coset values, as field elements, and
        the given integer coordinates."""
        field = values[0].field
        scale, scaled = linalg._clear_denominators([v.coords for v in values])
        return cls(coords, field, scale, _residues(scaled, scale, field),
                   lambda: scaled)


def transition_det_nonzero(n: FiniteGroup, sample: GeneratorSample) -> bool:
    """Whether the transition matrix on the sample's coset values has a
    nonzero determinant over E.  Certified mod p first: t -> r is a ring map
    to F_p on the elements whose denominators are prime to p, so a matrix of
    residues invertible mod p (linalg.nonsingular_mod_p) proves the exact
    determinant nonzero.  A matrix singular mod p, or a sample without
    residues, takes the exact determinant in Z[t]/(f) of the transition
    matrix on the integer values (_packed_det, int_det of the packed
    matrix), scale^m times the one over E."""
    field = sample.field
    if sample.residues is not None and linalg.nonsingular_mod_p(
            transition_matrix_of(n, sample.residues),
            field.reduction_root()[0]):
        return True
    return any(_packed_det(transition_matrix_of(n, sample.scaled),
                           field.modulus))


def generator_sample(subfield: Subfield, c: int, ints) -> GeneratorSample:
    """The sample of the subfield element with coordinates ints / c, for an
    integer vector ints and a positive integer c, in integer arithmetic on
    the subfield's CosetImages, with scale D c.  The value at coset k is
    M_k ints / (D c): one integer matrix-vector product, made only when the
    sample's vectors are read.  When p does not divide D c, the residue at
    coset k is the dot product of ints with the table's residue row k,
    times the inverse of D c mod p; otherwise there are none."""
    table = subfield.coset_images
    field = table.field
    p = field.reduction_root()[0]
    scale = table.denominator * c
    residues = None
    if scale % p:
        inv = pow(scale, -1, p)
        residues = [v * inv % p
                    for v in linalg.mat_vec(table.residue_rows, ints)]
    return GeneratorSample(ints, field, scale, residues,
                           lambda: table.vectors(ints))


def generates(algebra: DescendedAlgebra, sample: GeneratorSample,
              orbit=None) -> bool:
    """Whether the orbit of the sampled element under the descended algebra
    spans the subfield.  Computed two ways, and the two must agree: the
    orbit is square, so it spans exactly when its integer determinant is
    nonzero (linalg.int_det); and the transition determinant
    (transition_det_nonzero).  The orbit is algebra.orbit of the sample's
    integer coordinates, or `orbit` when given: an integer orbit the caller
    already built, a nonzero rational multiple of that one."""
    if orbit is None:
        orbit = algebra.orbit(sample.coords)
    by_rank = linalg.int_det(orbit) != 0
    by_det = transition_det_nonzero(algebra.subgroup, sample)
    if by_rank != by_det:
        raise ConsistencyError(
            "orbit rank and transition determinant disagree on a generator test")
    return by_rank


def generator_verdicts(algebras, dets, subfield: Subfield,
                       coords) -> list[list[bool]]:
    """[generates(a, generator_sample(subfield, 1, ints)) for each ints in
    coords] for each algebra a, at every m, for integer coordinate vectors
    coords, all samples read mod p in one batch (transition.form_residues)
    for the field's reduction prime p.

    The rank route is R(ints) != 0 for the rank form R(c) = det[A_k c], the
    orbit's int_det as a polynomial in the coordinates (det_symbolic on the
    rows of the integer action matrices A_k).  The determinant route reads
    one certificate per (sample, structure) on the sample's coset residues:
    one column combination per coset (CosetImages.residue_rows) times D^-1
    mod p, for the table's denominator D, the scale of every sample; when p
    divides D, no sample has residues and every certificate is 0.  While
    every Delta_N that dets yields (+- the transition determinant, a form in
    the coset values) has at most m^3 terms, the products of one m x m
    elimination (zeta16's have 810-1,279), the certificate is Delta_N at the
    residues; dets is read no further than the first past m^3, and past it
    the certificate is linalg.nonsingular_mod_p of the residue matrix.

    A value nonzero mod p is proved nonzero; a zero takes the exact route: R
    at the point (form_evaluator), or _packed_det on the sample's vectors
    (CosetImages.vectors, built once per sample).  The routes must agree on
    every (sample, structure).  Two checks tie the batch to the per-sample
    test, per algebra: generates on the generator_sample of the first
    generator (the first sample if there is none), and R at the first
    sample against the orbit's int_det."""
    table = subfield.coset_images
    field = table.field
    p = field.reduction_root()[0]
    columns = list(zip(*coords))
    residues = None
    if table.denominator % p:
        inverse = pow(table.denominator, -1, p)
        unit = [tuple(int(j == k) for j in range(subfield.dim))
                for k in range(subfield.dim)]
        residues = [[v * inverse % p for v in column]
                    for column in form_residues(
                        [IntPolynomial(subfield.dim, dict(zip(unit, row)))
                         for row in table.residue_rows], columns, p)]
    rank_forms = [det_symbolic(a.int_action_matrices) for a in algebras]
    ranks = form_residues(rank_forms, columns, p)
    ranks_at = form_evaluator(rank_forms)
    forms = []
    for d in dets:
        if len(d.terms) > d.nvars ** 3:
            forms = None
            break
        forms.append(d)
    if residues is None:
        certificates = [[0] * len(coords)] * len(algebras)
    elif forms is None:
        points = list(zip(*residues))
        certificates = [[linalg.nonsingular_mod_p(
            transition_matrix_of(a.subgroup, point), p) for point in points]
            for a in algebras]
    else:
        certificates = form_residues(forms, residues, p)

    @cache
    def exact_ranks(s):
        return ranks_at(coords[s])

    @cache
    def vectors(s):
        return table.vectors(coords[s])
    # a (sample, structure) with both values nonzero mod p is proved a
    # generator both ways; every other one takes the exact route
    verdicts = [[True] * len(coords) for _ in algebras]
    for s in range(len(coords)):
        for i, algebra in enumerate(algebras):
            if ranks[i][s] and certificates[i][s]:
                continue
            rank = ranks[i][s] != 0 or exact_ranks(s)[i] != 0
            nonzero = certificates[i][s] != 0 or any(_packed_det(
                transition_matrix_of(algebra.subgroup, vectors(s)),
                field.modulus))
            if nonzero != rank:
                raise ConsistencyError("orbit rank and transition determinant "
                                       "disagree on a generator test")
            verdicts[i][s] = nonzero
    for algebra, rank, tested in zip(algebras, exact_ranks(0), verdicts):
        k = tested.index(True) if True in tested else 0
        if generates(algebra, generator_sample(subfield, 1, coords[k])) \
                != tested[k] \
                or rank != linalg.int_det(algebra.orbit(coords[0])):
            raise ConsistencyError(
                "generator forms disagree with the per-sample test")
    return verdicts


def is_generator(algebra: DescendedAlgebra, x: FieldElement) -> bool:
    """generates() on the sample of x, a field element: its coset values are
    x under each representative.  The orbit is taken on x's rational
    coordinates, then cleared, at the cost perfbench's `generators` workload
    has always timed: a faster test keeps more operations in a run."""
    sub = algebra.subfield
    coords = sub.coords(x)
    orbit = linalg._clear_denominators(algebra.orbit(coords))[1]
    _, (ints,) = linalg._clear_denominators([coords])
    return generates(algebra, GeneratorSample.of_values(
        ints, [sub.context.apply(g, x) for g in sub.space.representatives]),
        orbit)


def trace_form_nondegenerate(left_mult_matrices) -> bool:
    """Semisimplicity test in characteristic zero: the trace form of the left
    regular representation must be nondegenerate.  Its determinant is taken
    over Z, as int_det of the Gram matrix of the integer matrices given.
    Rational matrices scaled by one nonzero integer c (an algebra's integer
    form) scale it by c^(2m)."""
    m = len(left_mult_matrices)
    gram = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            prod = linalg.mat_mul(left_mult_matrices[i], left_mult_matrices[j])
            tr = sum(prod[k][k] for k in range(m))
            gram[i][j] = tr
            gram[j][i] = tr
    return bool(linalg.int_det(gram))


def is_separable(algebra: DescendedAlgebra) -> bool:
    return trace_form_nondegenerate(
        [linalg.transpose(rows) for rows in algebra.int_structure_constants])
