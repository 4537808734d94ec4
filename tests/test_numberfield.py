import random
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

from hopfgalois import linalg
from hopfgalois.descent import _residues
from hopfgalois.errors import CapabilityError, DomainError, StructureError
from hopfgalois.fixtures import load_bundled, parse
from hopfgalois.numberfield import (RATIONAL_ROOT_BOUND, REDUCTION_PRIME_MIN,
                                    FieldElement, NumberField, _int_mul,
                                    _packed_det, _poly_mod_p, _polydivmod_p,
                                    _polymul_p, _reduction_root,
                                    check_irreducible, fixed_subfield,
                                    load_field)
from hopfgalois.perm import (ENUMERATION_BOUND, FiniteGroup, Permutation,
                             build_coset_space)
from hopfgalois.transition import IntPolynomial

from .oracles import (FractionSolver, det, evaluate, fraction_product,
                      multiplication_trace, packed_form_evaluator,
                      reduction_root_by_gcd, residue, subfield_basis)

F = Fraction


def _c2():
    return FiniteGroup.generated_by([Permutation([1, 0])])


# --- field arithmetic

def test_gaussian_arithmetic():
    field = NumberField([1, 0, 1])
    i = field.element([0, 1])
    assert (i * i).coords == (F(-1), F(0))
    x = field.element([2, 3])      # 2 + 3i
    y = field.element([1, -1])     # 1 - i
    assert (x * y).coords == (F(5), F(1))
    assert (x / x).coords == (F(1), F(0))
    # over-long coordinates are reduced modulo f: t^2 = -1, t^4 = 1
    assert field.element([0, 0, 1]) == field.element([-1])
    assert field.element([1, 0, 0, 0, F(1, 2)]) == field.element([F(3, 2)])


def test_field_axioms_on_random_samples():
    field = NumberField([23, 0, 9, 0, -6, 0, 1])
    rng = random.Random(0)

    def rand():
        return field.element([rng.randint(-9, 9) for _ in range(6)])

    for _ in range(20):
        a, b, c = rand(), rand(), rand()
        assert (a * (b + c)) == (a * b + a * c)
        if a:
            assert (a * a.inverse()).coords == field.one().coords


def test_power_matches_repeated_multiplication():
    field = NumberField([1, 1, 1])
    t = field.element([0, 1])
    assert t ** 3 == field.one()
    assert t ** -1 == t * t


# --- irreducibility

def test_rational_root_is_rejected():
    with pytest.raises(StructureError, match="reducible"):
        load_field([-1, 0, 1], _c2(), {1: [0, -1]})


def test_quadratics_and_cubics_without_roots_are_proved():
    assert check_irreducible([1, 0, 1]) is True
    assert check_irreducible([2, 0, 0, 1]) is True


def test_rational_root_search_is_capped():
    # the search tries every divisor d <= sqrt|a0|: at the bound it still
    # decides, and beyond it the request is refused before the first
    with pytest.raises(StructureError, match="rational root -1000000"):
        check_irreducible([-RATIONAL_ROOT_BOUND, 0, 1])
    for a0 in (RATIONAL_ROOT_BOUND + 1, -10 ** 30):
        with pytest.raises(CapabilityError, match=str(RATIONAL_ROOT_BOUND)):
            check_irreducible([a0, 0, 1])


def test_degree_sieve_proves_a_quartic():
    # x^4 + x^3 + x^2 + x + 1 is irreducible mod 2
    assert check_irreducible([1, 1, 1, 1, 1]) is True


def test_sieve_is_inconclusive_for_biquadratic_minimal_polynomial():
    # x^4 - 10x^2 + 1 factors modulo every prime
    assert check_irreducible([1, 0, -10, 0, 1]) is None


def test_inconclusive_without_assertion_is_an_error():
    klein = FiniteGroup.generated_by([Permutation([1, 0, 3, 2]),
                                      Permutation([2, 3, 0, 1])])
    images = {klein.index_of(Permutation([1, 0, 3, 2])): [0, 10, 0, -1],
              klein.index_of(Permutation([2, 3, 0, 1])): [0, -10, 0, 1]}
    with pytest.raises(StructureError, match="assert"):
        load_field([1, 0, -10, 0, 1], klein, images)
    ctx = load_field([1, 0, -10, 0, 1], klein, images, irreducible_asserted=True)
    assert ctx.irreducibility == "asserted"


# --- automorphism validation

def test_gaussian_conjugation():
    group = _c2()
    ctx = load_field([1, 0, 1], group, {group.index_of(Permutation([1, 0])): [0, -1]})
    i = ctx.field.element([0, 1])
    sigma = group.index_of(Permutation([1, 0]))
    assert ctx.apply(sigma, i).coords == (F(0), F(-1))
    identity = group.identity_index
    assert ctx.apply(identity, i) == i


def test_automorphism_forms_are_the_fraction_power_matrices(field_fixtures):
    # each automorphism's integer form (d, M), reduced, against the matrix
    # whose column j is image^j, with the image of t read off column 1 and
    # its powers taken by Fraction field arithmetic
    from math import gcd
    for fx in field_fixtures:
        field = fx.context.field
        for d, m in fx.context.matrices:
            assert d > 0 and gcd(d, *(x for row in m for x in row)) == 1
            image = field.element([F(row[1], d) for row in m])
            columns, power = [], field.one()
            for _ in range(field.degree):
                columns.append(power.coords)
                power = power * image
            assert [[F(x, d) for x in row] for row in m] == \
                linalg.transpose(columns)


def test_invalid_automorphism_is_named():
    group = _c2()
    with pytest.raises(StructureError, match="not a root"):
        load_field([1, 0, 1], group, {group.index_of(Permutation([1, 0])): [0, -2]})


def test_non_galois_duplicate_automorphisms_rejected():
    group = _c2()
    with pytest.raises(StructureError, match="not Galois"):
        load_field([1, 0, 1], group, {group.index_of(Permutation([1, 0])): [0, 1]})


def test_group_order_must_match_the_degree():
    group = _c2()
    with pytest.raises(StructureError, match="degree"):
        load_field([1, 1, 1, 1, 1], group,
                   {group.index_of(Permutation([1, 0])): [0, 0, 0, 1]})


def test_relations_must_hold():
    # C4 declared, but the map t -> -t has order 2: walking the relations
    # gives inconsistent matrices
    c4 = FiniteGroup.generated_by([Permutation([1, 2, 3, 0])])
    gen = c4.index_of(Permutation([1, 2, 3, 0]))
    with pytest.raises(StructureError):
        load_field([1, 1, 1, 1, 1], c4, {gen: [-1, -1, -1, -1]})


def test_composition_is_functorial_on_random_elements(s3sextic):
    ctx = s3sextic.context
    rng = random.Random(1)
    group = ctx.group
    for _ in range(50):
        x = ctx.field.element([rng.randint(-9, 9) for _ in range(6)])
        i = rng.randrange(group.order())
        j = rng.randrange(group.order())
        assert ctx.apply(group.mul(i, j), x) == ctx.apply(i, ctx.apply(j, x))


def test_automorphisms_are_multiplicative(s3sextic):
    ctx = s3sextic.context
    rng = random.Random(2)
    for _ in range(20):
        x = ctx.field.element([rng.randint(-5, 5) for _ in range(6)])
        y = ctx.field.element([rng.randint(-5, 5) for _ in range(6)])
        for g in ctx.group.generators:
            assert ctx.apply(g, x * y) == ctx.apply(g, x) * ctx.apply(g, y)


# --- fixed subfields

def test_trivial_stabilizer_fixes_everything(qi):
    sub = fixed_subfield(qi.context,
                         build_coset_space(qi.group, FiniteGroup.trivial(2)))
    assert sub.dim == 2
    assert [b.coords for b in subfield_basis(sub)] == \
        [(F(1), F(0)), (F(0), F(1))]


def test_full_group_fixes_only_rationals(qi):
    sub = fixed_subfield(qi.context, build_coset_space(qi.group, qi.group))
    assert sub.dim == 1
    assert subfield_basis(sub)[0].is_rational()


def test_sextic_transposition_fixes_a_cubic_field(s3sextic):
    ctx = s3sextic.context
    # the descriptor's generator t
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    sub = fixed_subfield(ctx, build_coset_space(ctx.group, stab))
    assert sub.dim == 3
    # frozen coordinates of a root of x^3 - x - 1 inside the sextic field,
    # from the fixture construction
    theta = ctx.field.element(
        [F(-2, 9), F(1, 2), F(5, 18), 0, F(-1, 18), 0])
    assert sub.contains(theta)
    assert theta * theta * theta - theta - ctx.field.one() == ctx.field.zero()
    powers = [sub.coords(ctx.field.one()), sub.coords(theta),
              sub.coords(theta * theta)]
    assert linalg.rank(linalg._clear_denominators(powers)[1]) == 3


def test_cbrt_fixture_subfield_is_the_cubic_radical_field(qcbrt2):
    sub = qcbrt2.subfield()
    assert sub.dim == 3
    ctx = qcbrt2.context
    theta = ctx.field.element(
        [2, 1, F(-2, 3), F(2, 3), F(1, 3), F(2, 9)])
    assert sub.contains(theta)
    assert theta * theta * theta == ctx.field.element([2])


def test_coset_application_is_well_defined(qcbrt2):
    ctx = qcbrt2.context
    space = qcbrt2.coset_space()
    sub = qcbrt2.subfield()
    rng = random.Random(3)
    for _ in range(10):
        x = sub.random_element(rng)
        for c, rep in enumerate(space.representatives):
            value = ctx.apply(rep, x)
            for s in space.stabilizer.elements:
                other = space.group.mul(rep, space.group.index_of(s))
                assert ctx.apply(other, x) == value


def test_stabilizer_fixes_the_subfield(qcbrt2):
    ctx = qcbrt2.context
    sub = qcbrt2.subfield()
    rng = random.Random(4)
    for _ in range(10):
        x = sub.random_element(rng)
        for s in qcbrt2.stabilizer.elements:
            assert ctx.apply(ctx.group.index_of(s), x) == x


def test_random_coords_draw_as_randint_does(field_fixtures):
    # the draws of `verify generators` and det-specialization: the same
    # integers as rng.randint(-9, 9), leaving the stream where randint
    # leaves it, at seeds 0-99 and every subfield dimension (1-6)
    for fx in field_fixtures:
        sub = fx.subfield()
        for seed in range(100):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert sub.random_coords(rng) == \
                    [reference.randint(-9, 9) for _ in range(sub.dim)]
            assert rng.getstate() == reference.getstate(), (fx.name, seed)


def test_read_off_coordinates_match_the_solver(field_fixtures):
    rng = random.Random(6)
    for fx in field_fixtures:
        sub = fx.subfield()
        basis = subfield_basis(sub)
        solver = FractionSolver([list(b.coords) for b in basis])
        samples = [sub.random_element(rng) for _ in range(5)]
        samples += [b * c for b in basis for c in basis]
        for x in samples:
            assert sub.coords(x) == solver.solve(list(x.coords))
        t = fx.context.field.element([0, 1])
        assert sub.contains(t) == (solver.solve(list(t.coords)) is not None)


def test_subfield_elements_and_matrices_match_field_arithmetic(
        field_fixtures):
    # from_coords and multiplication_matrix are read off the integer basis
    # and multiplication table; the reference combines and multiplies the
    # basis as field elements
    rng = random.Random(7)
    for fx in field_fixtures:
        sub = fx.subfield()
        basis = subfield_basis(sub)
        for _ in range(5):
            coords = [F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(sub.dim)]
            total = fx.context.field.zero()
            for c, b in zip(coords, basis):
                total = total + b * c
            x = sub.from_coords(coords)
            assert x == total
            assert sub.multiplication_matrix(x) == \
                linalg.transpose([sub.coords(x * b) for b in basis])


def test_a_change_at_one_pivot_column_leaves_the_subfield(qcbrt2, s3sextic):
    # s3sextic's generator t
    transposition = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    for ctx, stab in [(qcbrt2.context, qcbrt2.stabilizer),
                      (s3sextic.context, transposition)]:
        sub = fixed_subfield(ctx, build_coset_space(ctx.group, stab))
        gens = sorted({ctx.group.index_of(stab.elements[g])
                       for g in stab.generators})
        d, ints, free = linalg.fixed_space([ctx.matrices[g] for g in gens],
                                           ctx.degree)
        vectors = [[F(x, d) for x in v] for v in ints]
        assert [list(b.coords) for b in subfield_basis(sub)] == vectors
        pivots = [c for c in range(ctx.degree) if c not in free]
        assert pivots
        for j, v in enumerate(vectors):
            assert linalg.echelon_coords(vectors, free, v) == \
                [int(i == j) for i in range(len(vectors))]
            for c in pivots:
                changed = list(v)
                changed[c] += 1
                assert linalg.echelon_coords(vectors, free, changed) is None
                assert not sub.contains(FieldElement(ctx.field, tuple(changed)))


def test_coords_of_a_generator_outside_the_subfield_is_a_domain_error(qcbrt2):
    with pytest.raises(DomainError):
        qcbrt2.subfield().coords(qcbrt2.context.field.element([0, 1]))


# --- traces

def test_trace_of_one_is_the_degree(s3sextic):
    ctx = s3sextic.context
    assert ctx.trace(ctx.field.one()) == 6


def test_trace_of_i_is_zero(qi):
    ctx = qi.context
    assert ctx.trace(ctx.field.element([0, 1])) == 0


def test_trace_splits_the_rational_inclusion(c4quartic):
    ctx = c4quartic.context
    for c in (F(3), F(-7, 2)):
        assert ctx.trace(ctx.field.element([c])) == 4 * c


def test_trace_matches_multiplication_matrix_oracle(s3sextic):
    ctx = s3sextic.context
    rng = random.Random(5)
    for _ in range(20):
        x = ctx.field.element([rng.randint(-9, 9) for _ in range(6)])
        assert ctx.trace(x) == multiplication_trace(ctx.field, x)


# --- the reduction prime of the mod-p certificates

def _roots_by_scan(modulus, p):
    return [r for r in range(p)
            if sum(c * pow(r, k, p) for k, c in enumerate(modulus)) % p == 0]


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _resultant_with_derivative(modulus):
    """Resultant of f and f' (the discriminant up to sign), as the
    determinant of their Sylvester matrix."""
    f = list(reversed(modulus))
    d = [k * c for k, c in enumerate(modulus)][1:][::-1]
    n = len(f) - 1
    size = 2 * n - 1
    rows = [[0] * i + f + [0] * (size - n - 1 - i) for i in range(n - 1)]
    rows += [[0] * i + d + [0] * (size - n - i) for i in range(n)]
    return linalg.int_det(rows)


def test_reduction_root_is_the_least_usable_prime_and_root(field_fixtures):
    for fx in field_fixtures:
        modulus = fx.context.field.modulus
        p, r = fx.context.field.reduction_root()
        assert NumberField(modulus).reduction_root() == (p, r)
        assert _reduction_root.__wrapped__(modulus) == (p, r)
        assert p >= REDUCTION_PRIME_MIN and _is_prime(p)
        assert r == _roots_by_scan(modulus, p)[0]
        # f is squarefree mod q exactly when q does not divide the resultant
        res = _resultant_with_derivative(modulus)
        assert res % p
        for q in filter(_is_prime, range(REDUCTION_PRIME_MIN, p)):
            assert res % q == 0 or not _roots_by_scan(modulus, q)


REDUCTION_ROOTS = {"qi": (10009, 3303), "qzeta3": (10009, 1044),
                   "c4quartic": (10061, 435), "v4biquad": (10007, 1164),
                   "qcbrt2": (10009, 1623), "s3sextic": (10067, 736)}


def test_reduction_roots_of_the_field_fixtures_are_pinned(field_fixtures):
    # the least prime p >= REDUCTION_PRIME_MIN with a usable reduction, and
    # the least root mod p
    assert {fx.name: fx.context.field.reduction_root()
            for fx in field_fixtures} == REDUCTION_ROOTS


def test_reduction_root_matches_the_gcd_reference(field_fixtures):
    # the root read off the distinct-degree split against the squarefree
    # test and gcd(f, x^p - x), on every bundled and test-data modulus, on
    # seeded random monic polynomials of degree 1 to 12, and on t^2 - p for
    # the least candidate p: a double root mod p, where f is not squarefree
    data = Path(__file__).parent / "data"
    moduli = [fx.context.field.modulus for fx in field_fixtures]
    moduli.append((-REDUCTION_PRIME_MIN, 0, 1))
    moduli += [parse(data / name).context.field.modulus
               for name in ("c5quintic.hgx", "zeta16.hgx")]
    rng = random.Random(14)
    moduli += [tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 12)))
               + (1,) for _ in range(50)]
    for modulus in moduli:
        assert _reduction_root.__wrapped__(modulus) == \
            reduction_root_by_gcd(modulus), modulus


def test_polydivmod_p_is_division_with_remainder():
    rng = random.Random(9)
    for p in (2, 3, 7, 37, REDUCTION_PRIME_MIN):
        for _ in range(40):
            a = [rng.randrange(p) for _ in range(rng.randint(0, 12))]
            b = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
            b.append(rng.randrange(1, p))
            q, r = _polydivmod_p(a, b, p)
            assert len(r) < len(b) and (not r or r[-1])
            total = zip_longest(_polymul_p(q, b, p), r, fillvalue=0)
            assert _poly_mod_p([x + y for x, y in total], p) == _poly_mod_p(a, p)


def _monic_products(rng):
    out = []
    for da, db in [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 5), (2, 10), (6, 6)]:
        a = [rng.randint(-9, 9) for _ in range(da)] + [1]
        b = [rng.randint(-9, 9) for _ in range(db)] + [1]
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        out.append(prod)
    return out


# check_irreducible (True, None, or the reducibility message) and
# _reduction_root of each modulus, recorded with the F_p polynomial code that
# had separate remainder and exact-quotient routines
IRREDUCIBILITY_PINS = {
    "bundled": [
        (True, (10009, 3303)), (True, (10009, 1044)), (True, (10061, 435)),
        (None, (10007, 1164)), (True, (10009, 1623)), (True, (10067, 736))],
    "random": [
        (True, (10007, 10002)), (True, (10007, 9999)), (True, (10007, 10002)),
        (True, (10009, 4254)), (True, (10009, 3135)), (True, (10009, 2364)),
        (True, (10007, 8927)), (True, (10009, 63)),
        ("polynomial is reducible: rational root 7", (10007, 7)),
        (True, (10007, 658)), (True, (10009, 1534)), (True, (10061, 8529)),
        (True, (10009, 1488)), (True, (10007, 4559)), (True, (10009, 4311)),
        (True, (10007, 2231)), (True, (10037, 6032)), (True, (10007, 2050)),
        (True, (10007, 1191)), (True, (10007, 1494)), (True, (10007, 6955)),
        (True, (10007, 8181)), (True, (10007, 363)), (True, (10009, 2244)),
        (True, (10007, 7006)), (True, (10007, 1554)),
        ("polynomial is reducible: rational root 2", (10007, 2)),
        (True, (10009, 3046)), (True, (10007, 3028)), (True, (10007, 9676)),
        (True, (10007, 1480)), (True, (10007, 5042)), (True, (10009, 4647)),
        (True, (10009, 4662)), (True, (10039, 2672)), (True, (10007, 5167))],
    "products": [
        (None, (10007, 2459)),
        ("polynomial is reducible: rational root 1", (10007, 1)),
        (None, (10009, 5635)), (None, (10007, 4620)), (None, (10007, 3820)),
        (None, (10007, 6690)), (None, (10007, 1884)), (None, (10007, 8003))],
}


def test_irreducibility_and_reduction_roots_are_pinned(field_fixtures):
    def outcome(coeffs):
        try:
            irreducible = check_irreducible(coeffs)
        except StructureError as err:
            irreducible = str(err)
        return irreducible, _reduction_root.__wrapped__(tuple(coeffs))

    rng = random.Random(11)
    random_monic = [[rng.randint(-9, 9) for _ in range(d)] + [1]
                    for d in range(1, 13) for _ in range(3)]
    moduli = {"bundled": [list(fx.context.field.modulus) for fx in field_fixtures],
              "random": random_monic,
              "products": _monic_products(random.Random(12))}
    for kind, polys in moduli.items():
        assert [outcome(c) for c in polys] == IRREDUCIBILITY_PINS[kind]


def _residue(x):
    """descent._residues of the single element x of Z[t]/(f), on its
    integer coordinates."""
    assert all(c.denominator == 1 for c in x.coords)
    return _residues([[int(c) for c in x.coords]], x.field)[0]


def test_residue_is_a_ring_map_onto_f_p(s3sextic):
    field = s3sextic.context.field
    p, r = field.reduction_root()
    rng = random.Random(12)
    for _ in range(20):
        x = field.element([rng.randint(-9, 9) for _ in range(6)])
        y = field.element([rng.randint(-9, 9) for _ in range(6)])
        assert _residue(x * y) == _residue(x) * _residue(y) % p
        assert _residue(x + y) == (_residue(x) + _residue(y)) % p
    assert _residue(field.element([0, 1])) == r
    assert _residue(field.element([p])) == 0


def test_residues_match_the_coordinatewise_reference(field_fixtures):
    # integer vectors, with numerators divisible by p and p^2 among them:
    # each residue is the vector evaluated at r mod p, whatever scale the
    # caller's values carry
    rng = random.Random(13)
    for fx in field_fixtures:
        field = fx.context.field
        p, r = field.reduction_root()
        n = field.degree
        for factor in (1, p, p * p):
            for _ in range(4):
                scaled = [[factor * rng.randint(-10 ** 6, 10 ** 6)
                           for _ in range(n)] for _ in range(3)]
                if rng.random() < 0.5:
                    # one numerator that p need not divide
                    scaled[-1][rng.randrange(n)] = rng.randint(-99, 99)
                expected = [residue(field.element(vec), p, r)
                            for vec in scaled]
                assert _residues(scaled, field) == expected, \
                    (fx.name, scaled)


def test_reduction_root_is_computed_lazily():
    _reduction_root.cache_clear()
    fx = load_bundled("c4quartic")
    for i in range(len(fx.structures())):
        fx.algebra(i)
    assert _reduction_root.cache_info().currsize == 0
    fx.context.field.reduction_root()
    assert _reduction_root.cache_info().currsize == 1


# --- the packed kernels over Z[t]/(f), against Gaussian elimination over E
# and ring arithmetic; field elements are scaled to integers by their common
# denominator D, and each result is scaled back

def _det_in_e(matrix):
    """Determinant over E by _packed_det: D^m times it, on the entries
    times D."""
    m, field = len(matrix), matrix[0][0].field
    den, flat = linalg._clear_denominators([x.coords for row in matrix
                                            for x in row])
    rows = [flat[i * m:(i + 1) * m] for i in range(m)]
    return field.element(_packed_det(rows, field.modulus)) / den ** m


def _value_in_e(terms, values):
    """The polynomial's value over E by packed_form_evaluator: D^d times
    it, for d the top degree, on the values times D and one more variable
    of value D, which lifts each term to degree d (the form is
    homogeneous)."""
    field = values[0].field
    den, ints = linalg._clear_denominators([x.coords for x in values])
    top = max(map(sum, terms), default=0)
    form = IntPolynomial(len(values) + 1, {
        (*e, top - sum(e)): c for e, c in terms.items()})
    value = packed_form_evaluator(form, field.modulus)(ints + [[den]])
    return field.element(value) / den ** top


def _random_element(field, rng, denominators=(1, 2, 3, 5)):
    return field.element([F(rng.randint(-9, 9), rng.choice(denominators))
                          for _ in range(field.degree)])


def _random_matrix(field, m, rng, denominators=(1, 2, 3, 5)):
    return [[_random_element(field, rng, denominators) for _ in range(m)]
            for _ in range(m)]


def _large_element(field, rng, denominators=(1, 7, 10 ** 12)):
    """An element whose coordinates are near +-10^30."""
    return field.element([F(rng.choice((-1, 1)) * (10 ** 30 + rng.randint(-9, 9)),
                            rng.choice(denominators))
                          for _ in range(field.degree)])


def _slot_edge_elements(field):
    """Negative rational elements at both sides of the 1-, 2- and 3-byte
    slot widths: a 1 x 1 determinant of one of them, or a linear term,
    has a bound equal to its one coefficient, so the least width that bound
    allows puts the coefficient at the edge of a signed slot (-127,
    -(2^15 - 1), -(2^23 - 1)) or past the edge of an unsigned one (-255,
    -(2^16 - 1))."""
    return [field.element([c]) for c in (-127, -128, -255, -(2 ** 15 - 1),
                                         -(2 ** 16 - 1), -(2 ** 23 - 1))]


def test_field_det_matches_gaussian_elimination(field_fixtures):
    rng = random.Random(21)
    for fx in field_fixtures:
        field = fx.context.field
        for m in range(1, 7):
            for _ in range(2):
                matrix = _random_matrix(field, m, rng)
                assert _det_in_e(matrix) == det(matrix)
        # coefficients near 10^30, with and without denominators
        for m in (1, 2, 4):
            matrix = [[_large_element(field, rng) for _ in range(m)]
                      for _ in range(m)]
            assert _det_in_e(matrix) == det(matrix)
        for x in _slot_edge_elements(field):
            assert _det_in_e([[x]]) == x
        # diag(x, x t): the determinant x^2 t has its coefficient in slot 1
        x, t = _slot_edge_elements(field)[0], field.element([0, 1])
        matrix = [[x, field.zero()], [field.zero(), x * t]]
        assert _det_in_e(matrix) == det(matrix)
        # the elimination finds no pivot where it first looks: a zero (0, 0)
        # entry, and a leading 2 x 2 minor that is singular (its second row
        # an integer multiple of the first) under a nonsingular whole
        for m in (2, 3, 5):
            matrix = _random_matrix(field, m, rng)
            matrix[0][0] = field.zero()
            assert _det_in_e(matrix) == det(matrix)
            matrix = _random_matrix(field, m + 1, rng)
            matrix[1][:2] = [x * field.element([-3]) for x in matrix[0][:2]]
            assert det(matrix) and _det_in_e(matrix) == det(matrix)


def test_field_det_is_one_int_det_and_no_other_elimination(c4quartic,
                                                          monkeypatch):
    # every elimination over Z runs through _eliminate; the Hermite form has
    # its own
    calls = []
    for name in ("int_det", "_eliminate", "hnf"):
        def recording(*args, name=name, kernel=getattr(linalg, name),
                      **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        monkeypatch.setattr(linalg, name, recording)
    rng = random.Random(28)
    rows = [[[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            for _ in range(4)]
    assert any(_packed_det(rows, c4quartic.context.field.modulus))
    assert calls == ["int_det", "_eliminate"]


def test_field_det_at_the_size_bound_on_a_quartic_field(c4quartic):
    field = c4quartic.context.field
    matrix = _random_matrix(field, ENUMERATION_BOUND, random.Random(22))
    assert _det_in_e(matrix) == det(matrix)


def test_field_det_with_denominators_divisible_by_the_reduction_prime(
        field_fixtures):
    rng = random.Random(23)
    for fx in field_fixtures:
        field = fx.context.field
        p, _ = field.reduction_root()
        matrix = _random_matrix(field, 3, rng, denominators=(1, p, p * p, 2 * p))
        assert _det_in_e(matrix) == det(matrix)


def test_field_det_of_singular_matrices(field_fixtures):
    rng = random.Random(24)
    for fx in field_fixtures:
        field = fx.context.field
        for m in (2, 4):
            repeated = _random_matrix(field, m, rng)
            repeated[-1] = list(repeated[0])
            assert not _det_in_e(repeated)
            zero_row = _random_matrix(field, m, rng)
            zero_row[1] = [field.zero()] * m
            assert not _det_in_e(zero_row)
            assert _det_in_e(zero_row) == field.zero()
            # dependent over E but not over Q: the last row is a field
            # multiple of the first (plus one of the second, at m = 4), so
            # the terms cancel only after reduction by f; entries near 10^30
            dependent = [[_large_element(field, rng) for _ in range(m)]
                         for _ in range(m)]
            y, z = _large_element(field, rng), _random_element(field, rng)
            dependent[-1] = [a * y + (b * z if m > 2 else field.zero())
                             for a, b in zip(dependent[0], dependent[1])]
            assert not _det_in_e(dependent)
        # ad - bc = t^(n-1) t - (t^n mod f) = f: zero in E, not in Z[t]
        n = field.degree
        power = field.element([0] * (n - 1) + [1])
        assert not _det_in_e([[power, field.one()],
                              [field.element([0] * n + [1]),
                               field.element([0, 1])]])


def test_field_det_above_the_size_bound_is_a_capability_error(qi):
    field = qi.context.field
    size = ENUMERATION_BOUND + 1
    identity = [[field.one() if i == j else field.zero() for j in range(size)]
                for i in range(size)]
    with pytest.raises(CapabilityError, match="field determinant bound"):
        _det_in_e(identity)


# --- the integer product in Z[t]/(f), under FieldElement multiplication

def test_integer_product_matches_field_multiplication(field_fixtures):
    rng = random.Random(25)
    for fx in field_fixtures:
        field = fx.context.field
        for bound in (1, 9, 10 ** 6):
            for _ in range(10):
                a = [rng.randint(-bound, bound) for _ in range(field.degree)]
                b = [rng.randint(-bound, bound) for _ in range(field.degree)]
                product = fraction_product(field.element(a), field.element(b))
                assert _int_mul(a, b, field.modulus) == list(product)
        # FieldElement multiplication, with denominators 1, 2, 3 and 5
        for _ in range(20):
            x, y = _random_element(field, rng), _random_element(field, rng)
            assert (x * y).coords == fraction_product(x, y)


def test_polynomial_value_matches_ring_arithmetic(field_fixtures):
    rng = random.Random(26)
    for fx in field_fixtures:
        field = fx.context.field
        polys = [fx.transition_det(i)[0] for i in range(len(fx.structures()))]
        # not homogeneous: the terms are scaled to the top degree
        polys.append(IntPolynomial(3, {(2, 0, 1): 4, (0, 1, 0): -3, (0, 0, 0): 7}))
        polys.append(IntPolynomial(2))
        for poly in polys:
            for _ in range(2):
                values = [_random_element(field, rng) for _ in range(poly.nvars)]
                assert _value_in_e(poly.terms, values) == \
                    evaluate(poly, values, field.one())
            # values near 10^30, with and without denominators
            values = [_large_element(field, rng) for _ in range(poly.nvars)]
            assert _value_in_e(poly.terms, values) == \
                evaluate(poly, values, field.one())
        # cancelling: y0^2 - y1^2 at (x, x) and (x, -x), y0^3 - 3 y0 y1 at
        # (x, x^2 / 3)
        square = IntPolynomial(2, {(2, 0): 1, (0, 2): -1})
        cube = IntPolynomial(2, {(3, 0): 1, (1, 1): -3})
        x = _large_element(field, rng)
        for poly, values in ((square, [x, x]), (square, [x, -x]),
                             (cube, [x, x * x * F(1, 3)])):
            assert not _value_in_e(poly.terms, values)
            assert evaluate(poly, values, field.one()) == field.zero()
        # one negative slot at the edge of the least width its bound allows
        for x in _slot_edge_elements(field):
            assert _value_in_e({(1,): 1}, [x]) == x
            assert _value_in_e({(1,): -1}, [-x]) == x
            poly = IntPolynomial(2, {(1, 1): -1, (0, 2): 1})
            values = [-x, field.one()]
            assert _value_in_e(poly.terms, values) == \
                evaluate(poly, values, field.one())


def test_polynomial_value_with_denominators_divisible_by_the_reduction_prime(
        field_fixtures):
    rng = random.Random(27)
    for fx in field_fixtures:
        field = fx.context.field
        p, _ = field.reduction_root()
        poly = fx.transition_det(0)[0]
        values = [_random_element(field, rng, denominators=(1, p, 2 * p))
                  for _ in range(poly.nvars)]
        assert _value_in_e(poly.terms, values) == \
            evaluate(poly, values, field.one())
