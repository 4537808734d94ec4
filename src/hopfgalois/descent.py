"""Galois descent of group algebras, the descended action on the fixed
subfield, and the verification predicates built on it (Hopf-Galois property,
commuting actions, generators, separability).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from . import linalg
from .errors import ConsistencyError, StructureError
from .numberfield import (FieldElement, NumberField, Subfield, _convolve_into,
                          _packed_det, _reduce_int)
from .perm import CosetSpace, FiniteGroup
from .transition import det_symbolic, form_evaluator, transition_matrix_of


@dataclass(frozen=True, eq=False)
class DescendedAlgebra:
    """The rational form of E[N] under the simultaneous Galois action, carried
    with its basis, its exact action matrices on a fixed basis of the fixed
    subfield and its structure constants (matrix i holds the coordinates of
    b_i * b_j in row j), each in integer form only: the set times one common
    denominator, which descend computes once.  A basis element has one block
    of power-basis coordinates per element of the subgroup, in its order."""

    space: CosetSpace
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


def descend(space: CosetSpace, n: FiniteGroup,
            subfield: Subfield) -> DescendedAlgebra:
    """The fixed points E[N]^G of the simultaneous action (Galois on the
    coefficients, conjugation by the translations on N) inside E[N], with
    its integer action matrices on the subfield basis and integer structure
    constants, for the Galois action of the subfield's context.  A
    conjugate outside N in the table of the c_g below is a StructureError:
    N does not descend unless the translations normalize it.

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
    group, context = space.group, subfield.context
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
    images = subfield.coset_images(space.representatives)
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
        space, n, subfield, den, blocks, tuple(identity_coords),
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
    the unit's, basis element 0 on every field fixture."""
    def unscalar(mats):
        return [a for a in mats if any(
            x != (a[0][0] if i == j else 0)
            for i, row in enumerate(a) for j, x in enumerate(row))]
    ints2 = unscalar(a2.int_action_matrices)
    for r1 in unscalar(a1.int_action_matrices):
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
    integer (an integer vector), the field's modulus and reduction prime p,
    the coset values in integer form (the value at coset k has power-basis
    coordinates scaled[k] / scale) and their residues mod p, which exist
    exactly when p does not divide scale (None otherwise).  `scaled` is
    built by `vectors` on first read: only the exact determinant of a
    generator test reads it."""

    coords: list[int]
    modulus: tuple[int, ...]
    scale: int
    prime: int
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
        return cls(coords, field.modulus, scale,
                   field.reduction_root()[0], _residues(scaled, scale, field),
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
    if sample.residues is not None and linalg.nonsingular_mod_p(
            transition_matrix_of(n, sample.residues), sample.prime):
        return True
    return any(_packed_det(transition_matrix_of(n, sample.scaled),
                           sample.modulus))


def generator_sample(subfield: Subfield, space: CosetSpace, c: int,
                     ints) -> GeneratorSample:
    """The sample of the subfield element with coordinates ints / c, for an
    integer vector ints and a positive integer c, in integer arithmetic on
    the subfield's CosetImages, with scale D c.  The value at coset k is
    M_k ints / (D c): one integer matrix-vector product, made only when the
    sample's vectors are read.  When p does not divide D c, the residue at
    coset k is the dot product of ints with the table's residue row k,
    times the inverse of D c mod p; otherwise there are none."""
    table = subfield.coset_images(space.representatives)
    field = table.field
    p = field.reduction_root()[0]
    scale = table.denominator * c
    residues = None
    if scale % p:
        inv = pow(scale, -1, p)
        residues = [v * inv % p
                    for v in linalg.mat_vec(table.residue_rows, ints)]
    return GeneratorSample(ints, field.modulus, scale, p, residues,
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


def generator_verdicts(algebras, dets, samples) -> list[list[bool]]:
    """[generates(a, s) for s in samples] for each algebra a, at every m,
    with homogeneous forms of degree m evaluated at every sample on one
    table of monomial values per sample (transition.form_evaluator, planned
    once per set of forms).

    The rank form R(c) = det[A_k c], for A_k the integer action matrices, is
    the orbit's int_det as a polynomial in the integer coordinates c, built
    by det_symbolic on the rows of the A_k: the rank route is R(c) != 0.
    dets yields the canonical transition determinant Delta_N of each
    algebra's structure, +- the transition determinant.  The determinant
    route is one chain for every sample: Delta_N at the sample's residues,
    nonzero mod p, proves the exact determinant nonzero; every other sample
    goes to transition_det_nonzero (elimination mod p, then the exact
    determinant).  Delta_N is read as a form only when every Delta_N has at
    most m^3 terms, the products of one m x m elimination; past that
    (zeta16's 810-1,279 against 512), and for a sample without residues, the
    chain starts at transition_det_nonzero.  dets is read no further than
    the first Delta_N past m^3.  The two routes must agree on every sample.
    Two checks tie the forms to the per-sample test, per algebra: one sample
    runs through generates too, the first generator if there is one and the
    first sample otherwise; and R at the first sample must equal the orbit's
    int_det."""
    ranks_at = form_evaluator([det_symbolic(a.int_action_matrices)
                               for a in algebras])
    forms, dets_at = [], None
    for d in dets:
        if len(d.terms) > d.nvars ** 3:
            break
        forms.append(d)
    else:
        dets_at = form_evaluator(forms)
    by_rank = [ranks_at(s.coords) for s in samples]
    verdicts = [[] for _ in algebras]
    for sample, ranks in zip(samples, by_rank):
        values = ([0] * len(algebras)
                  if dets_at is None or sample.residues is None
                  else dets_at(sample.residues))
        for i, (algebra, rank) in enumerate(zip(algebras, ranks)):
            nonzero = (values[i] % sample.prime != 0
                       or transition_det_nonzero(algebra.subgroup, sample))
            if nonzero != bool(rank):
                raise ConsistencyError("orbit rank and transition determinant "
                                       "disagree on a generator test")
            verdicts[i].append(nonzero)
    first = samples[0].coords
    for algebra, rank, tested in zip(algebras, by_rank[0], verdicts):
        k = tested.index(True) if True in tested else 0
        if generates(algebra, samples[k]) != tested[k] \
                or rank != linalg.int_det(algebra.orbit(first)):
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
        ints, [sub.context.apply(g, x) for g in algebra.space.representatives]),
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
