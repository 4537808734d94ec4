"""Galois descent of group algebras, the descended action on the fixed
subfield, and the verification predicates built on it (Hopf-Galois property,
commuting actions, generators, separability).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import ConsistencyError, DomainError, StructureError
from .numberfield import FieldElement, GaloisContext, Subfield, field_det
from .perm import CosetSpace, FiniteGroup, is_normalized_by
from .transition import transition_matrix_of


class GroupAlgebraElement:
    """Element of E[N]: one field coefficient per subgroup element, indexed in
    the subgroup's canonical element order."""

    __slots__ = ("subgroup", "coefficients")

    def __init__(self, subgroup: FiniteGroup, coefficients):
        self.subgroup = subgroup
        self.coefficients = tuple(coefficients)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        group = self.subgroup
        out = [self.coefficients[0].field.zero() for _ in group.elements]
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            for j, b in enumerate(other.coefficients):
                if not b:
                    continue
                out[group.mul(i, j)] += a * b
        return GroupAlgebraElement(self.subgroup, out)

    def __repr__(self):
        return f"GroupAlgebraElement({list(self.coefficients)})"


@dataclass(frozen=True, eq=False)
class DescendedAlgebra:
    """The rational form of E[N] under the simultaneous Galois action, carried
    with its exact action matrices on a fixed basis of the fixed subfield and
    its structure constants (matrix i holds the coordinates of b_i * b_j in
    row j).  Both sets are kept in integer form only: the set times one
    common denominator, which descend computes once."""

    context: GaloisContext
    space: CosetSpace
    subgroup: FiniteGroup
    subfield: Subfield
    basis: tuple[GroupAlgebraElement, ...]
    identity_coords: tuple[Fraction, ...]
    action_denominator: int
    int_action_matrices: tuple[tuple[tuple[int, ...], ...], ...]
    structure_denominator: int
    int_structure_constants: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def orbit(self, x_coords):
        """Subfield coordinates of b_k . x for each basis element b_k, given
        the subfield coordinates of x, all times action_denominator: the
        integer form applied as it is, which keeps the orbit's rank."""
        return [linalg.mat_vec(a, x_coords) for a in self.int_action_matrices]


def _flatten(values) -> list[Fraction]:
    """Rational coordinates of the given field elements, concatenated."""
    return [v for c in values for v in c.coords]


def descend(context: GaloisContext, space: CosetSpace, n: FiniteGroup,
            subfield: Subfield) -> DescendedAlgebra:
    """Exact fixed points of the simultaneous action (Galois on coefficients,
    translation-conjugation on the subgroup) inside E[N], with action matrices
    on the chosen subfield basis."""
    if not is_normalized_by(n, space):
        raise StructureError(
            "subgroup is not normalized by the translation image; "
            "it does not descend")
    m = space.size
    nf_degree = context.degree
    dim = m * nf_degree
    elems = n.elements

    matrices = []
    for g in space.group.generators:
        lam_g = space.translations[g]
        lam_g_inv = lam_g.inverse()
        conj = [n.index_of(lam_g * eta * lam_g_inv) for eta in elems]
        mg = context.matrices[g]
        big = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(m):
            ti = conj[i]
            for r in range(nf_degree):
                row = big[ti * nf_degree + r]
                for c in range(nf_degree):
                    row[i * nf_degree + c] = mg[r][c]
        matrices.append(big)
    kernel, free = linalg.fixed_space(matrices, dim)
    if len(kernel) != m:
        raise ConsistencyError(
            f"descended algebra has dimension {len(kernel)}, expected {m}")

    basis = []
    for vec in kernel:
        coeffs = [FieldElement(context.field,
                               tuple(vec[i * nf_degree: (i + 1) * nf_degree]))
                  for i in range(m)]
        basis.append(GroupAlgebraElement(n, coeffs))

    # full E[N] is recovered over E: the basis must have full rank over E
    e_matrix = [list(b.coefficients) for b in basis]
    if not field_det(e_matrix):
        raise ConsistencyError("descended basis does not span E[N] over E")

    base = space.base_point
    action_matrices = []
    acting_cosets = [eta.inverse()(base) for eta in elems]
    images = subfield.coset_images(space.representatives).elements
    for b in basis:
        cols = []
        for j in range(subfield.dim):
            total = context.field.zero()
            for c, coset in zip(b.coefficients, acting_cosets):
                if c:
                    total = total + c * images[coset][j]
            try:
                cols.append(subfield.coords(total))
            except DomainError:
                raise ConsistencyError(
                    "descended action does not preserve the fixed subfield")
        action_matrices.append(linalg.transpose(cols))

    # the unit is 1 at n.elements[0], the identity (lexicographically least)
    field = context.field
    identity_coords = linalg.echelon_coords(
        kernel, free, _flatten([field.one()] + [field.zero()] * (m - 1)))
    if identity_coords is None:
        raise ConsistencyError("unit of the group algebra escaped the descent")

    structure = []
    for bi in basis:
        row = []
        for bj in basis:
            coords = linalg.echelon_coords(kernel, free,
                                           _flatten((bi * bj).coefficients))
            if coords is None:
                raise ConsistencyError(
                    "descended algebra is not closed under multiplication")
            row.append(coords)
        structure.append(row)

    return DescendedAlgebra(
        context, space, n, subfield, tuple(basis), tuple(identity_coords),
        *_integer_form(action_matrices), *_integer_form(structure))


def _integer_form(matrices):
    """(d, the matrices times d as integer tuples): one common denominator d
    for the whole set of square matrices."""
    n = len(matrices[0])
    d, rows = linalg._clear_denominators([r for mat in matrices for r in mat])
    return d, tuple(tuple(map(tuple, rows[k:k + n]))
                    for k in range(0, len(rows), n))


def verify_hopf_galois(algebra: DescendedAlgebra) -> bool:
    """Bijectivity of the canonical map L (x) H -> End(L): the m^2 x m^2 exact
    matrix of y -> b_i * (h_k . y) must have full rank."""
    return canonical_map_rank(algebra.int_action_matrices, algebra.subfield) \
        == algebra.subfield.dim ** 2


def canonical_map_rank(action_matrices, subfield: Subfield) -> int:
    """Rank of the canonical map for arbitrary action matrices, so negative
    controls (for example the zero action) use the same computation.  Each
    column is the product of a subfield multiplication matrix and an action
    matrix, both taken over Z: scaling a matrix by a nonzero integer scales
    its columns and keeps the rank, so the action matrices may come with any
    nonzero scale each (an algebra's integer form)."""
    m = subfield.dim
    columns = []
    for mm in subfield.int_multiplication_matrices():
        for act in action_matrices:
            prod = linalg.mat_mul(mm, act)
            columns.append([prod[i][j] for j in range(m) for i in range(m)])
    return linalg.rank(columns)


def verify_commuting(a1: DescendedAlgebra, a2: DescendedAlgebra) -> bool:
    """Exact commutation of every pair of basis action matrices, on the
    algebras' integer forms: (d A)(e B) = (e B)(d A) exactly when AB = BA."""
    ints2 = a2.int_action_matrices
    for r1 in a1.int_action_matrices:
        for r2 in ints2:
            if linalg.mat_mul(r1, r2) != linalg.mat_mul(r2, r1):
                return False
    return True


def coset_values(context: GaloisContext, space: CosetSpace,
                 x: FieldElement) -> list[FieldElement]:
    """x under each coset's representative, in coset order."""
    return [context.apply(space.representatives[c], x)
            for c in range(space.size)]


def residues_mod_p(values) -> list[int] | None:
    """The residues of the given field elements under t -> r mod p, for the
    field's (p, r) = NumberField.reduction_root(); None when p divides a
    denominator."""
    p, r = values[0].field.reduction_root()
    residues = [v.residue(p, r) for v in values]
    return None if None in residues else residues


@dataclass(frozen=True, eq=False)
class GeneratorSample:
    """A subfield element with what every generator test of it shares,
    whatever the structure: its subfield coordinates, the reduction prime p,
    the residues mod p of its coset values (None when p divides a
    denominator), and the coset values themselves.  Those are built on first
    use, by build_values: only the exact fallback and det-specialization read
    them."""

    coords: list[Fraction | int]
    prime: int
    residues: list[int] | None
    build_values: Callable[[], list[FieldElement]]

    @cached_property
    def values(self) -> list[FieldElement]:
        return self.build_values()

    @classmethod
    def of_values(cls, coords, values) -> GeneratorSample:
        """The sample with the given coset values and residues_mod_p."""
        p, _ = values[0].field.reduction_root()
        return cls(coords, p, residues_mod_p(values), lambda: values)


def transition_det_nonzero(n: FiniteGroup, sample: GeneratorSample) -> bool:
    """Whether the transition matrix on the sample's coset values has a
    nonzero determinant over E.  Certified mod p first: t -> r is a ring map
    to F_p on the elements whose denominators are prime to p, so a nonzero
    determinant of the reduced matrix proves the exact one nonzero.  A zero
    mod p, or a denominator divisible by p (no residues), falls back to the
    exact determinant over E (field_det)."""
    if sample.residues is not None and linalg.det_mod_p(
            transition_matrix_of(n, sample.residues), sample.prime):
        return True
    return bool(field_det(transition_matrix_of(n, sample.values)))


def generator_sample(subfield: Subfield, space: CosetSpace,
                     coords) -> GeneratorSample:
    """The sample of the subfield element with these coordinates, in integer
    arithmetic on the subfield's CosetImages: for coords = a / c with a an
    integer vector, the value at coset k is M_k a / (D c) and its residue is
    (R_k . a) / c mod p.  When p divides c or a denominator of R, the
    residues are residues_mod_p of the values."""
    table = subfield.coset_images(space.representatives)
    c, (ints,) = linalg._clear_denominators([coords])
    scaled = [linalg.mat_vec(m, ints) for m in table.matrices]
    field = subfield.context.field
    scale = table.denominator * c

    def values():
        return [FieldElement(field, tuple(Fraction(v, scale) for v in vec))
                for vec in scaled]
    p, reduced = table.residues
    if reduced is None or c % p == 0:
        return GeneratorSample.of_values(coords, values())
    inv = pow(c, -1, p)
    residues = [sum(r * a for r, a in zip(row, ints)) * inv % p
                for row in reduced]
    return GeneratorSample(coords, p, residues, values)


def generates(algebra: DescendedAlgebra, sample: GeneratorSample,
              orbit=None) -> bool:
    """Whether the orbit of the sampled element under the descended algebra
    spans the subfield.  Computed two ways (exact rank of the orbit,
    nonvanishing of the numeric transition determinant); the two must
    agree.  `orbit`, when given, is a nonzero multiple of
    algebra.orbit(sample.coords) that the caller already built."""
    if orbit is None:
        orbit = algebra.orbit(sample.coords)
    by_rank = linalg.rank(orbit) == algebra.subfield.dim
    by_det = transition_det_nonzero(algebra.subgroup, sample)
    if by_rank != by_det:
        raise ConsistencyError(
            "orbit rank and transition determinant disagree on a generator test")
    return by_rank


def is_generator(algebra: DescendedAlgebra, x: FieldElement) -> bool:
    """generates() on the sample of x, for a single test: its coset values
    are x under each representative, and its coordinates are solved for."""
    sub = algebra.subfield
    return generates(algebra, GeneratorSample.of_values(
        sub.coords(x), coset_values(sub.context, algebra.space, x)))


def trace_form_nondegenerate(left_mult_matrices) -> bool:
    """Semisimplicity test in characteristic zero: the trace form of the left
    regular representation must be nondegenerate.  Its determinant is taken
    over Z, as int_det of the Gram matrix scaled by its common denominator d,
    which multiplies the determinant by d^m != 0.  Matrices scaled by one
    nonzero integer c (an algebra's integer form) scale it by c^(2m)."""
    m = len(left_mult_matrices)
    gram = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            prod = linalg.mat_mul(left_mult_matrices[i], left_mult_matrices[j])
            tr = sum(prod[k][k] for k in range(m))
            gram[i][j] = tr
            gram[j][i] = tr
    return bool(linalg.int_det(linalg._clear_denominators(gram)[1]))


def is_separable(algebra: DescendedAlgebra) -> bool:
    return trace_form_nondegenerate(
        [linalg.transpose(rows) for rows in algebra.int_structure_constants])
