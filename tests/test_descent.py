import copy
import dataclasses
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from hopfgalois import cli, descent, linalg
from hopfgalois.descent import (DescendedAlgebra, GeneratorSample, _residues,
                                descend, generates, generator_sample,
                                is_generator, is_separable,
                                trace_form_nondegenerate,
                                transition_det_nonzero, verify_commuting,
                                verify_hopf_galois)
from hopfgalois.errors import ConsistencyError, DomainError, StructureError
from hopfgalois.fixtures import load_bundled, parse
from hopfgalois.numberfield import GaloisContext, NumberField
from hopfgalois.perm import (FiniteGroup, Permutation, opposite,
                             right_translation_subgroup)
from hopfgalois.transition import det_symbolic, transition_matrix_of

from .oracles import (GroupAlgebraElement, action_matrix_of,
                      conjugacy_classes, coords_of, descended_act,
                      descended_basis, descended_solver, det,
                      element_from_coords, embed_in_map_algebra, evaluate,
                      flatten_coefficients, galois_act_on_map,
                      generates_fixed_map_algebra,
                      generates_map_algebra_over_group_algebra,
                      group_algebra_product, idempotent, is_normalized_by,
                      multiply_coords, permutation_act_on_map,
                      rational_action_matrices, rational_structure_constants,
                      residue, stacked_descent, sum_over_subgroup,
                      transition_matrix_values)

F = Fraction


def _opposite_index(fx, i):
    structs = fx.structures()
    opp = opposite(structs[i], fx.coset_space())
    return next(j for j, n in enumerate(structs) if n == opp)


# --- the function algebra and the embedding

def test_embedding_of_one_is_the_unit(qcbrt2):
    ctx, space, sub = qcbrt2.context, qcbrt2.coset_space(), qcbrt2.subfield()
    f = embed_in_map_algebra(ctx, space, sub, ctx.field.one())
    assert all(v == ctx.field.one() for v in f.values)


def test_embedding_is_multiplicative_on_random_elements(qcbrt2):
    ctx, space, sub = qcbrt2.context, qcbrt2.coset_space(), qcbrt2.subfield()
    rng = random.Random(0)
    for _ in range(25):
        x, y = sub.random_element(rng), sub.random_element(rng)
        fx = embed_in_map_algebra(ctx, space, sub, x)
        fy = embed_in_map_algebra(ctx, space, sub, y)
        fxy = embed_in_map_algebra(ctx, space, sub, x * y)
        assert fx * fy == fxy
        assert embed_in_map_algebra(ctx, space, sub, x + y) == fx + fy


def test_embedding_of_rationals_is_scalar(s3sextic):
    ctx, space, sub = s3sextic.context, s3sextic.coset_space(), s3sextic.subfield()
    c = ctx.field.element([F(7, 2)])
    f = embed_in_map_algebra(ctx, space, sub, c)
    assert all(v == c for v in f.values)


def test_embedding_rejects_unfixed_elements(qcbrt2):
    ctx, space, sub = qcbrt2.context, qcbrt2.coset_space(), qcbrt2.subfield()
    with pytest.raises(DomainError):
        embed_in_map_algebra(ctx, space, sub, ctx.field.element([0, 1]))


def test_embedded_elements_are_fixed_by_the_combined_action(qcbrt2):
    ctx, space, sub = qcbrt2.context, qcbrt2.coset_space(), qcbrt2.subfield()
    rng = random.Random(1)
    for _ in range(10):
        f = embed_in_map_algebra(ctx, space, sub, sub.random_element(rng))
        for g in ctx.group.generators:
            assert galois_act_on_map(ctx, space, g, f) == f


def test_subgroup_action_permutes_idempotents(s3sextic):
    ctx, space = s3sextic.context, s3sextic.coset_space()
    for n in s3sextic.structures():
        for eta in n.elements:
            for c in range(space.size):
                u = idempotent(ctx, space.size, c)
                assert permutation_act_on_map(eta, u) == \
                    idempotent(ctx, space.size, eta(c))


# --- descent

def test_classical_descent_recovers_the_rational_group_algebra(s3sextic):
    space = s3sextic.coset_space()
    rho = right_translation_subgroup(space)
    index = next(i for i, n in enumerate(s3sextic.structures()) if n == rho)
    algebra = s3sextic.algebra(index)
    assert algebra.dim == 6
    # every basis coefficient is rational: the conjugation action is trivial
    for b in descended_basis(algebra):
        rational = [c for c in b.coefficients if c]
        assert all(c.is_rational() for c in rational)
        assert len(rational) == 1
    # action matrices are exactly the Galois matrices in the power basis
    ctx = s3sextic.context
    base = space.base_point
    table = rho.point_map(base)
    d = algebra.action_denominator
    for b, mat in zip(descended_basis(algebra), algebra.int_action_matrices):
        eta = next(e for e, c in zip(rho.elements, b.coefficients) if c)
        coset = eta.inverse()(base)
        g = space.representatives[coset]
        assert linalg._integer_form(d, [list(r) for r in mat]) == \
            ctx.matrices[g]


def test_translation_structure_basis_is_conjugacy_orbit_sums(s3sextic):
    space = s3sextic.coset_space()
    lam = FiniteGroup(space.translations)
    index = next(i for i, n in enumerate(s3sextic.structures()) if n == lam)
    algebra = s3sextic.algebra(index)
    assert algebra.dim == 6
    # the support of each basis element is a single conjugacy orbit
    classes = conjugacy_classes(lam)
    for b in descended_basis(algebra):
        support = frozenset(eta for eta, c in
                            zip(lam.elements, b.coefficients) if c)
        assert any(support <= cls for cls in classes)


def test_descended_dimension_for_the_cubic_shape(qcbrt2):
    algebra = qcbrt2.algebra(0)
    assert algebra.dim == 3


def test_descend_rejects_unnormalized_subgroups(c4quartic):
    space = c4quartic.coset_space()
    stray = FiniteGroup(
        [Permutation([0, 1, 2, 3]), Permutation([1, 3, 0, 2]),
         Permutation([3, 2, 1, 0]), Permutation([2, 0, 3, 1])])
    with pytest.raises(StructureError, match="^subgroup is not normalized by "
                       "the translation image; it does not descend$"):
        descend(stray, c4quartic.subfield())
    assert not is_normalized_by(stray, space)


def test_descend_matches_the_stacked_oracle(field_fixtures):
    # the orbit-by-orbit descent over Z against one elimination of the
    # stacked system and Fraction arithmetic throughout
    for fx in field_fixtures:
        ctx, space, sub = fx.context, fx.coset_space(), fx.subfield()
        for i, n in enumerate(fx.structures()):
            algebra = fx.algebra(i)
            kernel, free, action, structure = stacked_descent(ctx, space, n, sub)
            vectors = [flatten_coefficients(b)
                       for b in descended_basis(algebra)]
            assert vectors == kernel
            # a canonical basis vector is last nonzero at its free column
            assert [max(c for c, x in enumerate(v) if x) for v in vectors] \
                == free
            assert (algebra.action_denominator,
                    algebra.int_action_matrices) == action
            assert (algebra.structure_denominator,
                    algebra.int_structure_constants) == structure


def _tampered(sub, index, replacement):
    """sub on its context with automorphism `index` replaced by another
    integer form (d, M), such as another automorphism's, as descend's fixed
    space reads it: the coset images, from which the action is read, stay
    the true ones."""
    ctx = sub.context
    matrices = list(ctx.matrices)
    matrices[index] = replacement
    bad = copy.copy(sub)
    bad.context = GaloisContext(ctx.field, ctx.group, tuple(matrices),
                                ctx.irreducibility)
    return bad


def test_planted_wrong_matrix_fails_the_fixedness_certificate(s3sextic,
                                                              c4quartic):
    # element 4 of S3 is no generator: its matrix only guides the orbit
    # formula, which the certificate checks against the generators' own
    ctx, space, sub = s3sextic.context, s3sextic.coset_space(), s3sextic.subfield()
    assert 4 not in space.group.generators
    bad = _tampered(sub, 4, ctx.matrices[0])
    with pytest.raises(ConsistencyError, match="not fixed by the Galois action"):
        descend(s3sextic.structures()[2], bad)
    # normalization is still checked first
    ctx = c4quartic.context
    stray = FiniteGroup(
        [Permutation([0, 1, 2, 3]), Permutation([1, 3, 0, 2]),
         Permutation([3, 2, 1, 0]), Permutation([2, 0, 3, 1])])
    with pytest.raises(StructureError, match="does not descend"):
        descend(stray, _tampered(c4quartic.subfield(), 2, ctx.matrices[0]))


def test_wrong_non_generator_matrices_never_pass_silently(s3sextic, v4biquad):
    # with the generators' matrices right, a descent that returns is the
    # true one: each non-generator's matrix replaced by every other matrix
    for fx in (s3sextic, v4biquad):
        ctx, space, sub = fx.context, fx.coset_space(), fx.subfield()
        for h in set(range(1, ctx.group.order())) - set(space.group.generators):
            for other in ctx.matrices:
                if other == ctx.matrices[h]:
                    continue
                bad = _tampered(sub, h, other)
                for i, n in enumerate(fx.structures()):
                    try:
                        algebra = descend(n, bad)
                    except ConsistencyError:
                        continue
                    good = fx.algebra(i)
                    assert (algebra.basis_denominator, algebra.int_basis) == \
                        (good.basis_denominator, good.int_basis)
                    assert algebra.int_action_matrices == \
                        good.int_action_matrices
                    assert algebra.int_structure_constants == \
                        good.int_structure_constants


# --- the descended action

def test_sum_over_subgroup_acts_as_the_trace(s3sextic):
    ctx = s3sextic.context
    algebra = s3sextic.algebra(0)
    rng = random.Random(2)
    for _ in range(10):
        x = algebra.subfield.random_element(rng)
        acted = descended_act(algebra, sum_over_subgroup(algebra), x)
        assert acted == ctx.field.element([ctx.trace(x)])


def test_classical_action_is_the_galois_action(qi):
    ctx = qi.context
    space = qi.coset_space()
    rho = right_translation_subgroup(space)
    index = next(i for i, n in enumerate(qi.structures()) if n == rho)
    algebra = qi.algebra(index)
    base = space.base_point
    rng = random.Random(3)
    for _ in range(10):
        x = algebra.subfield.random_element(rng)
        for b in descended_basis(algebra):
            eta = next(e for e, c in zip(rho.elements, b.coefficients) if c)
            g = space.representatives[eta.inverse()(base)]
            assert descended_act(algebra, b, x) == ctx.apply(g, x)


def test_identity_acts_as_identity(v4biquad):
    algebra = v4biquad.algebra(0)
    unit = element_from_coords(algebra, algebra.identity_coords)
    rng = random.Random(4)
    for _ in range(30):
        x = algebra.subfield.random_element(rng)
        assert descended_act(algebra, unit, x) == x


def test_action_is_bilinear(qcbrt2):
    algebra = qcbrt2.algebra(0)
    rng = random.Random(5)
    sub = algebra.subfield
    for _ in range(10):
        a = [F(rng.randint(-5, 5)) for _ in range(algebra.dim)]
        b = [F(rng.randint(-5, 5)) for _ in range(algebra.dim)]
        xc = sub.coords(sub.random_element(rng))

        def act(h):
            return linalg.mat_vec(action_matrix_of(algebra, h), xc)
        left = act([ai + bi for ai, bi in zip(a, b)])
        right = [u + v for u, v in zip(act(a), act(b))]
        assert left == right


# --- verification predicates

def test_hopf_galois_holds_for_every_structure(field_fixtures):
    for fx in field_fixtures:
        for i in range(len(fx.structures())):
            assert verify_hopf_galois(fx.algebra(i))


def test_zero_action_is_not_hopf_galois(qi):
    algebra = qi.algebra(0)
    m = algebra.subfield.dim
    zero = tuple(tuple(tuple(0 for _ in range(m)) for _ in range(m))
                 for _ in range(algebra.dim))
    assert not verify_hopf_galois(
        dataclasses.replace(algebra, int_action_matrices=zero))


def test_commuting_characterizes_opposites(s3sextic):
    structs = s3sextic.structures()
    for i in range(len(structs)):
        for j in range(len(structs)):
            expected = _opposite_index(s3sextic, i) == j
            assert verify_commuting(s3sextic.algebra(i),
                                    s3sextic.algebra(j)) == expected


def test_commutative_algebra_commutes_with_itself(qzeta3):
    algebra = qzeta3.algebra(0)
    assert verify_commuting(algebra, algebra)


def _acting(d, mats):
    """An algebra that carries only integer action matrices over d, all that
    verify_commuting reads."""
    return DescendedAlgebra(None, None, 1, (), (), d, tuple(mats), 1, ())


def test_commuting_keeps_each_denominator():
    # [[a, b], [b, a]] commute; dropping the denominators would make the
    # last pair commute too
    def actions(*mats):
        # the integer form over the least common denominator
        d, rows = linalg._clear_denominators([r for m in mats for r in m])
        return _acting(d, [rows[k:k + 2] for k in range(0, len(rows), 2)])

    a = actions([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 2)]], [[1, 0], [0, 1]])
    assert verify_commuting(a, actions([[1, F(1, 4)], [F(1, 4), 1]]))
    assert not verify_commuting(a, actions([[1, F(1, 4)], [F(1, 2), 1]]))


def _is_scalar(mat):
    return all(x == (mat[0][0] if i == j else 0)
               for i, row in enumerate(mat) for j, x in enumerate(row))


def _commute_pairwise(a1, a2):
    """The all-pairs oracle: every action matrix of a1, the scalar one too,
    commutes with every one of a2."""
    mul = linalg.mat_mul
    return all(mul(a, b) == mul(b, a) for a in a1.int_action_matrices
               for b in a2.int_action_matrices)


def _zeta16():
    return parse(Path(__file__).parent / "data" / "zeta16.hgx")


def test_commuting_matches_the_all_pairs_oracle(field_fixtures):
    # every ordered pair of structures of every field fixture and zeta16
    # (26 structures, 4 distinct commuting pairs)
    seen = set()
    for fx in field_fixtures + [_zeta16()]:
        count = len(fx.structures())
        algebras = [fx.algebra(i) for i in range(count)]
        verdicts = {(i, j): verify_commuting(algebras[i], algebras[j])
                    for i in range(count) for j in range(count)}
        assert verdicts == {
            (i, j): _commute_pairwise(algebras[i], algebras[j])
            for i in range(count) for j in range(count)}, fx.name
        seen |= set(verdicts.values())
    assert seen == {False, True}


def test_commuting_runs_all_pairs_only_where_the_combinations_commute(
        monkeypatch):
    # on zeta16, XY != YX turns away every non-commuting pair, so of the 351
    # unordered pairs only the 22 commuting ones (18 self-opposite
    # structures with themselves, 4 distinct pairs) take more than the two
    # products XY and YX
    fx = _zeta16()
    count = len(fx.structures())
    algebras = [fx.algebra(i) for i in range(count)]
    opposites = fx.opposite_indices()
    products = []
    mat_mul = linalg.mat_mul

    def counting(a, b):
        products.append(None)
        return mat_mul(a, b)
    monkeypatch.setattr(linalg, "mat_mul", counting)
    reached = []
    for i in range(count):
        for j in range(i, count):
            products.clear()
            commute = verify_commuting(algebras[i], algebras[j])
            assert commute == (opposites[i] == j)
            assert len(products) >= 2
            if len(products) > 2:
                reached.append((i, j))
    assert len(reached) == 22
    assert reached == [(i, j) for i in range(count) for j in range(i, count)
                       if opposites[i] == j]
    assert sum(i != j for i, j in reached) == 4


def test_commuting_compares_no_scalar_matrix(field_fixtures, s3sextic,
                                             monkeypatch):
    # the unit acts by a scalar matrix, basis element 0 on every field
    # fixture, and commutes with everything: a commuting pair of s3sextic
    # (m = 6) takes 2 (m - 1)^2 products, not 2 m^2
    for fx in field_fixtures:
        for i in range(len(fx.structures())):
            mats = fx.algebra(i).int_action_matrices
            assert [_is_scalar(a) for a in mats] == \
                [True] + [False] * (len(mats) - 1), (fx.name, i)
    i, j = next((i, j) for i in range(len(s3sextic.structures()))
                if (j := _opposite_index(s3sextic, i)) != i)
    a1, a2 = s3sextic.algebra(i), s3sextic.algebra(j)
    products = []
    mat_mul = linalg.mat_mul

    def counting(a, b):
        products.append((a, b))
        return mat_mul(a, b)
    monkeypatch.setattr(linalg, "mat_mul", counting)
    assert verify_commuting(a1, a2)
    # XY and YX for the fixed combinations, then the all-pairs check
    assert len(products) == 2 + 2 * 5 ** 2
    assert not any(_is_scalar(a) or _is_scalar(b) for a, b in products)
    # a diagonal matrix that is not scalar is compared
    diagonal = _acting(1, [[[1, 0], [0, 2]]])
    skew = _acting(1, [[[0, 1], [0, 0]], [[3, 0], [0, 3]]])
    assert not verify_commuting(diagonal, skew)


def test_separability_of_every_structure(field_fixtures):
    for fx in field_fixtures:
        for i in range(len(fx.structures())):
            assert is_separable(fx.algebra(i))


def test_nilpotent_algebra_fails_the_separability_test():
    # Q[e]/(e^2): left multiplications by 1 and e
    one = [[1, 0], [0, 1]]
    eps = [[0, 0], [1, 0]]
    assert not trace_form_nondegenerate([one, eps])


@pytest.mark.parametrize("c", [F(1, 4), F(1, 9), F(-3, 7)])
def test_trace_form_with_denominators_is_nondegenerate(c):
    # Q[e]/(e^2 - c) for c != 0 is semisimple; its left multiplications
    # are rational, so they go in as their integer form, both times the
    # denominator d of c, which scales the Gram determinant by d^4
    one = [[F(1), F(0)], [F(0), F(1)]]
    e = [[F(0), c], [F(1), F(0)]]
    _, rows = linalg._clear_denominators(one + e)
    assert trace_form_nondegenerate([rows[:2], rows[2:]])


def test_separability_matches_the_rational_trace_form(field_fixtures):
    # the Gram matrix of the integer structure constants is d^2 times the
    # rational one, d their common denominator
    def gram(constants):
        mats = [linalg.transpose(rows) for rows in constants]
        return [[sum(linalg.mat_mul(a, b)[k][k] for k in range(len(a)))
                 for b in mats] for a in mats]
    for fx in field_fixtures:
        for i in range(len(fx.structures())):
            algebra = fx.algebra(i)
            rational = det(gram(rational_structure_constants(algebra)))
            assert is_separable(algebra) == bool(rational)
            d = algebra.structure_denominator
            assert linalg.int_det(gram(algebra.int_structure_constants)) == \
                d ** (2 * algebra.dim) * rational


def test_integer_forms_share_one_least_denominator(field_fixtures):
    # d is least: no common factor of d and every entry could be cancelled.
    # The action matrices over d are the definitional action; the structure
    # constants over d are checked against the solver below
    for fx in field_fixtures:
        for i in range(len(fx.structures())):
            a = fx.algebra(i)
            for d, ints in ((a.action_denominator, a.int_action_matrices),
                            (a.structure_denominator,
                             a.int_structure_constants)):
                assert gcd(d, *(x for m in ints for row in m for x in row)) == 1
            d = a.action_denominator
            assert [[[F(x, d) for x in row] for row in m]
                    for m in a.int_action_matrices] == \
                rational_action_matrices(a)


# --- generators

def test_one_is_not_a_generator_beyond_degree_one(c4quartic):
    algebra = c4quartic.algebra(0)
    assert not is_generator(algebra, c4quartic.context.field.one())


def test_classical_normal_basis_element_for_the_gaussians(qi):
    ctx = qi.context
    algebra = qi.algebra(0)
    x = ctx.field.element([1, 1])  # 1 + i and its conjugate span the field
    assert is_generator(algebra, x)


def test_generator_transfer_on_samples(s3sextic):
    rng = random.Random(6)
    sub = s3sextic.subfield()
    pairs = sorted({tuple(sorted((i, _opposite_index(s3sextic, i))))
                    for i in range(len(s3sextic.structures()))})
    for _ in range(25):
        x = sub.random_element(rng)
        for i, j in pairs:
            assert is_generator(s3sextic.algebra(i), x) == \
                is_generator(s3sextic.algebra(j), x)


def test_generator_matches_numeric_transition_determinant(field_fixtures):
    for fx in field_fixtures:
        ctx, space = fx.context, fx.coset_space()
        count = len(fx.structures())
        rng = random.Random(7)
        for k in range(20):
            algebra = fx.algebra(k % count)
            x = algebra.subfield.random_element(rng)
            numeric = transition_matrix_values(ctx, space, algebra.subgroup, x)
            assert is_generator(algebra, x) == bool(det(numeric))


def _counting_exact_det(monkeypatch):
    calls = []
    exact = descent._packed_det

    def det(rows, modulus):
        calls.append(rows)
        return exact(rows, modulus)
    monkeypatch.setattr(descent, "_packed_det", det)
    return calls


def test_nonzero_mod_p_certifies_without_the_exact_determinant(qi, monkeypatch):
    calls = _counting_exact_det(monkeypatch)
    field = qi.context.field
    n = qi.structures()[0]
    # [[y0, y1], [y1, y0]] at (2, 1): determinant 3
    values = [field.element([2]), field.one()]
    assert transition_det_nonzero(n, GeneratorSample.of_values(None, values))
    assert calls == []


def test_planted_zero_mod_p_falls_back_to_the_exact_determinant(qi, monkeypatch):
    calls = _counting_exact_det(monkeypatch)
    field = qi.context.field
    p, _ = field.reduction_root()
    n = qi.structures()[0]
    # (p + 1)^2 - 1 = p (p + 2): nonzero, but zero mod p
    values = [field.element([p + 1]), field.one()]
    assert transition_det_nonzero(n, GeneratorSample.of_values(None, values))
    assert len(calls) == 1
    # a genuine zero goes the same way
    values = [field.one(), field.one()]
    assert not transition_det_nonzero(n, GeneratorSample.of_values(None,
                                                                   values))
    assert len(calls) == 2


def test_denominator_divisible_by_p_is_certified_on_the_numerators(
        qi, monkeypatch):
    # the values [1/p, 0] have no residues, but the sample holds their
    # integer numerators [1, 0], p times them: [[y0, y1], [y1, y0]] there
    # has determinant 1, nonzero mod p, so no exact determinant runs
    calls = _counting_exact_det(monkeypatch)
    field = qi.context.field
    p, r = field.reduction_root()
    n = qi.structures()[0]
    values = [field.element([F(1, p)]), field.zero()]
    sample = GeneratorSample.of_values(None, values)
    assert residue(values[0], p, r) is None
    assert sample.scaled == [[1, 0], [0, 0]] and sample.residues == [1, 0]
    assert transition_det_nonzero(n, sample)
    assert calls == []


def _sample(sub, coords):
    """(generator_sample of c x, c) for the subfield element x with these
    coordinates and c their least common denominator: the sample is taken
    on the integer numerators, and c x generates exactly when x does."""
    c, (ints,) = linalg._clear_denominators([coords])
    return generator_sample(sub, ints), c


def _mixed_coords(rng, dim, p):
    """Seeded subfield coordinates: integers, and fractions whose
    denominators are 2, 3, 6 or the reduction prime p."""
    return [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6, p)))
            for _ in range(dim)]


def test_coset_images_match_the_element_route(field_fixtures):
    # the integer table must give exactly the values of the element route,
    # denominator included: a wrong common denominator scales both sides of
    # det-specialization alike and changes no verdict, so only this sees it
    for fx in field_fixtures:
        ctx, space, sub = fx.context, fx.coset_space(), fx.subfield()
        p, r = ctx.field.reduction_root()
        rng = random.Random(10)
        for k in range(30):
            coords = ([rng.randint(-9, 9) for _ in range(sub.dim)] if k < 10
                      else _mixed_coords(rng, sub.dim, p))
            sample, c = _sample(sub, coords)
            scale = sub.coset_images.denominator
            x = sub.from_coords(coords)
            values = [ctx.apply(g, x) * c for g in space.representatives]
            assert [tuple(F(v, scale) for v in vec)
                    for vec in sample.scaled] == \
                [v.coords for v in values], (fx.name, coords)
            # the residues are those of the integer vectors, D c x
            assert sample.residues == [residue(v * scale, p, r)
                                       for v in values], (fx.name, coords)
            for i in range(len(fx.structures())):
                assert generates(fx.algebra(i), sample) == \
                    is_generator(fx.algebra(i), x)


def test_table_samples_take_the_exact_determinant_only_when_needed(
        field_fixtures, monkeypatch):
    # samples read off the coset table, at seeded integer coordinates and at
    # coordinates over 2, 3, 6 and p (sampled on their numerators), with the
    # known non-generators 0 and 1 among them: their residues are _residues
    # of their integer vectors; the exact determinant runs for exactly the
    # samples with a transition matrix singular mod p, and the verdicts are
    # is_generator's
    calls = _counting_exact_det(monkeypatch)
    for fx in field_fixtures:
        ctx, sub = fx.context, fx.subfield()
        field = ctx.field
        p, _ = field.reduction_root()
        rng = random.Random(12)
        coords = [[0] * sub.dim, sub.coords(field.one())]
        coords += [[rng.randint(-9, 9) for _ in range(sub.dim)]
                   for _ in range(10)]
        coords += [_mixed_coords(rng, sub.dim, p) for _ in range(20)]
        samples = [_sample(sub, c)[0] for c in coords]
        for sample in samples:
            assert sample.residues == _residues(sample.scaled, field), \
                (fx.name, sample.coords)
        for i in range(len(fx.structures())):
            algebra = fx.algebra(i)
            n = algebra.subgroup
            calls.clear()
            verdicts = [generates(algebra, s) for s in samples]
            assert calls == [
                transition_matrix_of(n, s.scaled) for s in samples
                if linalg.int_det(transition_matrix_of(n, s.residues)) % p
                == 0], (fx.name, i)
            assert verdicts == [is_generator(algebra, sub.from_coords(c))
                                for c in coords], (fx.name, i)
            assert verdicts[:2] == [False, False] and any(verdicts)


def _integer_one(fx):
    """Integer subfield coordinates of a nonzero rational, which generates
    nothing: those of 1 with their denominators cleared."""
    return linalg._clear_denominators(
        [fx.subfield().coords(fx.context.field.one())])[1][0]


def test_generator_verdicts_match_the_per_sample_test(field_fixtures,
                                                     monkeypatch):
    # the batch gives generates' verdict for every structure and sample, at
    # seeds 0-4: seeded integer coordinates and the non-generators 0 and 1.
    # Every Delta_N here has at most m^3 terms, so both routes are read off
    # forms, and Delta_N is read at generator_sample's residues of every
    # sample, those of its integer coset vectors
    read = []
    form_residues = descent.form_residues

    def recording(forms, columns, p):
        read.append(columns)
        return form_residues(forms, columns, p)
    monkeypatch.setattr(descent, "form_residues", recording)

    def check(fx, seeds):
        sub = fx.subfield()
        count = len(fx.structures())
        algebras = [fx.algebra(i) for i in range(count)]
        dets = [fx.transition_det(i)[0] for i in range(count)]
        samples, verdicts = [], set()
        for seed in seeds:
            rng = random.Random(seed)
            coords = [sub.random_coords(rng) for _ in range(6)]
            coords += [[0] * sub.dim, _integer_one(fx)]
            samples = [generator_sample(sub, c) for c in coords]
            expected = [[generates(a, s) for s in samples] for a in algebras]
            read.clear()
            assert descent.generator_verdicts(algebras, dets, sub, coords) \
                == expected, (fx.name, seed)
            # the coset residues, the rank forms, then Delta_N at the
            # residues
            assert [list(column) for column in read[2]] == [
                list(column)
                for column in zip(*(s.residues for s in samples))], \
                (fx.name, seed)
            verdicts |= {v for row in expected for v in row}
        assert verdicts == {False, True}, fx.name
        return algebras, samples
    for fx in field_fixtures:
        check(fx, range(5))
    # a planted reduction (3, 1) on s3sextic, whose D = 6 is divisible by
    # 3, on the fixture loaded fresh, since a subfield keeps its residue
    # rows: 1 is a root of f mod 3, so the map is a ring map, and every
    # certificate is 0 mod 3, so every (sample, structure) takes the exact
    # route and the verdicts are still generates'
    p, r = 3, 1
    monkeypatch.setattr(NumberField, "reduction_root", lambda self: (p, r))
    fx = load_bundled("s3sextic")
    modulus = fx.context.field.modulus
    assert sum(c * r ** k for k, c in enumerate(modulus)) % p == 0
    assert fx.subfield().coset_images.denominator % p == 0
    algebras, samples = check(fx, range(2))
    assert not any(linalg.int_det(transition_matrix_of(a.subgroup,
                                                       s.residues)) % p
                   for a in algebras for s in samples)


def test_generator_verdicts_eliminate_past_m_cubed_terms(monkeypatch,
                                                        generator_kernels):
    # zeta16's Delta_N have 810-1,279 terms, past m^3 = 512: only the rank
    # forms are read, each (sample, structure) certificate is one
    # elimination of its residue matrix mod p, and the verdicts are
    # generates'
    fx = parse(Path(__file__).parent / "data" / "zeta16.hgx")
    space, sub = fx.coset_space(), fx.subfield()
    count = len(fx.structures())
    algebras = [fx.algebra(i) for i in range(count)]
    dets = [fx.transition_det(i)[0] for i in range(count)]
    assert min(len(d.terms) for d in dets) > space.size ** 3
    rng = random.Random(0)
    coords = [sub.random_coords(rng) for _ in range(2)]
    coords += [[0] * sub.dim, _integer_one(fx)]
    samples = [generator_sample(sub, c) for c in coords]
    expected = [[generates(a, s) for s in samples] for a in algebras]
    read = []
    form_residues = descent.form_residues

    def reading(forms, columns, p):
        read.append(forms)
        return form_residues(forms, columns, p)
    monkeypatch.setattr(descent, "form_residues", reading)
    generator_kernels.clear()
    verdicts = descent.generator_verdicts(algebras, dets, sub, coords)
    # read mod p: the coset residues (one linear form per coset) and the
    # rank forms, no Delta_N
    assert [len(forms) for forms in read] == [space.size, count]
    assert read[1] == [det_symbolic(a.int_action_matrices) for a in algebras]
    # one elimination per (sample, structure), then one per structure in
    # the tie
    eliminated = [rows for kind, rows in generator_kernels if kind == "mod p"]
    assert eliminated[:count * len(samples)] == [
        transition_matrix_of(a.subgroup, s.residues)
        for a in algebras for s in samples]
    assert len(eliminated) == count * len(samples) + count
    assert verdicts == expected
    assert {v for row in verdicts for v in row} == {False, True}


def _chain(algebras, dets, samples, verdicts):
    """The kernel calls of generator_verdicts on samples with residues, as
    the generator_kernels fixture records them: when the Delta_N are not
    read as forms, one elimination mod p per structure and sample,
    structure after structure, as its certificate; then, sample after
    sample, the orbit's int_det of each (sample, structure) whose rank form
    is 0 mod p and the exact determinant of each whose certificate is 0;
    then each structure's first generator takes generates' chain (the
    orbit's int_det, an elimination mod p, and the exact determinant when
    its residue matrix is singular), and the first sample's orbit its
    int_det."""
    p = samples[0].field.reduction_root()[0]
    forms = all(len(d.terms) <= d.nvars ** 3 for d in dets)

    def walk(algebra, sample):
        residues = transition_matrix_of(algebra.subgroup, sample.residues)
        steps = [("orbit", algebra.orbit(sample.coords)), ("mod p", residues)]
        if linalg.int_det(residues) % p == 0:
            steps.append(("exact", transition_matrix_of(algebra.subgroup,
                                                        sample.scaled)))
        return steps
    expected, certificates = [], []
    for algebra, d in zip(algebras, dets):
        row = []
        for sample in samples:
            if forms:
                row.append(evaluate(d, sample.residues, 1) % p)
            else:
                residues = transition_matrix_of(algebra.subgroup,
                                                sample.residues)
                expected.append(("mod p", residues))
                row.append(linalg.int_det(residues) % p)
        certificates.append(row)
    for s, sample in enumerate(samples):
        for algebra, row in zip(algebras, certificates):
            orbit = algebra.orbit(sample.coords)
            if linalg.int_det(orbit) % p == 0:
                expected.append(("orbit", orbit))
            if row[s] == 0:
                expected.append(("exact", transition_matrix_of(
                    algebra.subgroup, sample.scaled)))
    for algebra, tested in zip(algebras, verdicts):
        expected += walk(algebra, samples[tested.index(True)])
        expected.append(("orbit", algebra.orbit(samples[0].coords)))
    return expected


def _cli_samples(fx, seed):
    """The samples `verify generators` draws at this seed."""
    sub, rng = fx.subfield(), random.Random(seed)
    return [generator_sample(sub, sub.random_coords(rng))
            for _ in range(cli.GENERATOR_SAMPLES)]


@pytest.mark.parametrize("name, structures, zeros", [
    pytest.param("v4biquad", None, 30, id="v4biquad"),
    # zeta16 eliminates each sample: the two structures with the most
    # non-generators at seed 0 and one with the fewest (811 in all 26)
    pytest.param("zeta16", (8, 22, 25), 15 + 75 + 70, id="zeta16")])
def test_generator_chain_takes_each_exact_determinant_once(
        v4biquad, generator_kernels, name, structures, zeros):
    # each (sample, structure) has one certificate mod p: nonzero proves a
    # generator, and 0 goes straight to the exact determinant, with no
    # second elimination; the tie runs on a generator, so no exact
    # determinant is taken twice
    fx = (v4biquad if name == "v4biquad"
          else parse(Path(__file__).parent / "data" / "zeta16.hgx"))
    structures = structures or range(len(fx.structures()))
    algebras = [fx.algebra(i) for i in structures]
    dets = [fx.transition_det(i)[0] for i in structures]
    samples = _cli_samples(fx, 0)
    events = generator_kernels
    events.clear()
    verdicts = descent.generator_verdicts(algebras, dets, fx.subfield(),
                                          [s.coords for s in samples])
    assert events == _chain(algebras, dets, samples, verdicts)
    exact = [rows for kernel, rows in events if kernel == "exact"]
    assert len(exact) == sum(row.count(False) for row in verdicts) == zeros
    assert len({repr(rows) for rows in exact}) == zeros


def test_generator_verdicts_without_algebras_are_empty(qcbrt2):
    # a field fixture may have no regular normalized structure, and so no
    # pair to test
    sub = qcbrt2.subfield()
    coords = [[1, 2, 3], [0, 1, 0]]
    assert descent.generator_verdicts([], [], sub, coords) == []


def test_table_sample_falls_back_on_a_planted_zero_mod_p(qi, monkeypatch):
    # x = p + i: the transition determinant of the two conjugates is
    # y0^2 - y1^2 = 4 p i, nonzero but zero mod p, so the test must take
    # the exact determinant and find x a generator
    calls = _counting_exact_det(monkeypatch)
    field, sub = qi.context.field, qi.subfield()
    p, _ = field.reduction_root()
    sample, _ = _sample(sub, sub.coords(field.element([p, 1])))
    for i in range(len(qi.structures())):
        algebra = qi.algebra(i)
        residues = transition_matrix_of(algebra.subgroup, sample.residues)
        assert linalg.int_det(residues) % p == 0
        calls.clear()
        assert generates(algebra, sample)
        assert len(calls) == 1


def test_coset_images_are_built_once_per_subfield_and_space(monkeypatch):
    # the load builds one subfield on the fixture's one coset space, and
    # that subfield its one table of coset images; no descent or sample
    # builds another
    from hopfgalois import numberfield
    from hopfgalois.fixtures import load_bundled
    tables = []
    build = numberfield.CosetImages

    def recording(subfield):
        tables.append(build(subfield))
        return tables[-1]
    monkeypatch.setattr(numberfield, "CosetImages", recording)
    s3sextic = load_bundled("s3sextic")
    sub = s3sextic.subfield()
    assert tables == [sub.coset_images]
    assert sub.space is s3sextic.coset_space()
    for i in range(len(s3sextic.structures())):
        assert s3sextic.algebra(i).subfield is sub
    generator_sample(sub, [1] * sub.dim)
    assert tables == [sub.coset_images]
    # s3sextic's subfield basis has non-integral images: D > 1 is exercised
    assert sub.coset_images.denominator > 1


def test_p_in_a_coordinate_denominator_is_sampled_on_the_numerators(
        field_fixtures, monkeypatch):
    # coordinates over the reduction prime p: the sample is that of p x, on
    # the integer numerators, and the exact determinant runs only where its
    # residue matrix is singular mod p; the verdicts are x's
    calls = _counting_exact_det(monkeypatch)
    for fx in field_fixtures:
        sub = fx.subfield()
        p, _ = fx.context.field.reduction_root()
        coords = [F(k + 1, p) for k in range(sub.dim)]
        sample, c = _sample(sub, coords)
        assert c == p
        x = sub.from_coords(coords)
        for i in range(len(fx.structures())):
            residues = transition_matrix_of(fx.algebra(i).subgroup,
                                            sample.residues)
            before = len(calls)
            verdict = generates(fx.algebra(i), sample)
            assert len(calls) == before + (linalg.int_det(residues) % p == 0)
            assert verdict == is_generator(fx.algebra(i), x)


def test_function_algebra_generator_lemma(qcbrt2):
    # f_x generates the descended form over the descended algebra exactly when
    # it generates the whole function algebra over the group algebra
    ctx, space, sub = qcbrt2.context, qcbrt2.coset_space(), qcbrt2.subfield()
    algebra = qcbrt2.algebra(0)
    rng = random.Random(8)
    for _ in range(50):
        x = sub.random_element(rng)
        f = embed_in_map_algebra(ctx, space, sub, x)
        over_group_algebra = generates_map_algebra_over_group_algebra(algebra, f)
        over_descended = generates_fixed_map_algebra(algebra, f)
        assert over_group_algebra == over_descended
        assert over_descended == is_generator(algebra, x)


# --- structure constants

def test_multiplication_closes_with_rational_constants(s3sextic):
    algebra = s3sextic.algebra(1)
    rng = random.Random(9)
    for _ in range(5):
        a = [F(rng.randint(-3, 3)) for _ in range(algebra.dim)]
        b = [F(rng.randint(-3, 3)) for _ in range(algebra.dim)]
        via_constants = multiply_coords(algebra, a, b)
        ea = element_from_coords(algebra, a)
        eb = element_from_coords(algebra, b)
        assert coords_of(algebra, group_algebra_product(ea, eb)) == \
            via_constants


def test_unit_coordinates_multiply_neutrally(v4biquad):
    algebra = v4biquad.algebra(1)
    one = list(algebra.identity_coords)
    rng = random.Random(10)
    a = [F(rng.randint(-5, 5)) for _ in range(algebra.dim)]
    assert multiply_coords(algebra, one, a) == a
    assert multiply_coords(algebra, a, one) == a


def test_descended_coordinates_match_the_solver(field_fixtures):
    for fx in field_fixtures:
        for i in range(len(fx.structures())):
            algebra = fx.algebra(i)
            solver = descended_solver(algebra)
            field = fx.context.field
            unit = GroupAlgebraElement(algebra.subgroup, [
                field.one() if p.is_identity() else field.zero()
                for p in algebra.subgroup.elements])
            assert list(algebra.identity_coords) == \
                solver.solve(flatten_coefficients(unit))
            d = algebra.structure_denominator
            for bi, row in zip(descended_basis(algebra),
                               algebra.int_structure_constants):
                for bj, constants in zip(descended_basis(algebra), row):
                    assert [F(c, d) for c in constants] == \
                        solver.solve(flatten_coefficients(
                            group_algebra_product(bi, bj)))


# the coset images over a fresh load and all its descents: one table per
# load, built with its subfield and shared by every structure, of one
# integer product per coset representative (m of them), and no
# GaloisContext.apply.  It was m * dim L apply calls per load (4, 4, 16, 16,
# 9, 36), and per structure before that
DESCENT_COSET_COUNTS = {"qi": 2, "qzeta3": 2, "c4quartic": 4, "v4biquad": 4,
                        "qcbrt2": 3, "s3sextic": 6}


def test_descent_applies_each_coset_once(field_fixtures, monkeypatch):
    from hopfgalois.fixtures import load_bundled
    from hopfgalois.numberfield import CosetImages
    tables, applied = [], []
    build = CosetImages.__init__

    def recording(self, subfield):
        build(self, subfield)
        tables.append(self)

    def apply(self, g_index, x):
        applied.append(g_index)
    monkeypatch.setattr(CosetImages, "__init__", recording)
    monkeypatch.setattr(GaloisContext, "apply", apply)
    counts = {}
    for name in (fx.name for fx in field_fixtures):
        tables.clear()
        fx = load_bundled(name)
        for n in fx.structures():
            descend(n, fx.subfield())
        assert len(tables) == 1 and applied == []
        counts[fx.name] = len(tables[0].matrices)
    assert counts == DESCENT_COSET_COUNTS
