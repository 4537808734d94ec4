import random
from pathlib import Path

import pytest

from hopfgalois import transition
from hopfgalois.errors import CapabilityError, ConsistencyError
from hopfgalois.fixtures import parse
from hopfgalois.integral import associated_order, norm_form
from hopfgalois.perm import (FiniteGroup, Permutation, build_coset_space,
                             enumerate_regular_normalized, metacyclic_group,
                             opposite, right_translation_subgroup)
from hopfgalois.transition import (IntPolynomial, _monomials, det_identity,
                                   det_symbolic, form_evaluator,
                                   signed_canonical_det, transition_matrix_of)

from .oracles import RingPolynomial, cofactor_det, evaluate, unit_forms


def _a3_structure():
    group = FiniteGroup.generated_by(
        [Permutation([1, 2, 0]), Permutation([0, 2, 1])])
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    [n] = enumerate_regular_normalized(space)
    return n, space


# --- polynomial arithmetic

def test_polynomial_canonical_text():
    p = IntPolynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3})
    assert str(p) == "y0^3 + y1^3 + y2^3 - 3*y0*y1*y2"


def test_polynomial_arithmetic_and_zero_pruning():
    x = RingPolynomial.variable(2, 0)
    y = RingPolynomial.variable(2, 1)
    assert str((x + y) * (x - y)) == "y0^2 - y1^2"
    assert (x - x).is_zero()
    assert ((x + y) * (x - y)) == x * x - y * y


def test_polynomial_evaluation_over_rationals():
    from fractions import Fraction
    p = IntPolynomial(2, {(2, 0): 1, (0, 1): -3, (0, 0): 5})
    value = evaluate(p, [Fraction(1, 2), Fraction(2)], Fraction(1))
    assert value == Fraction(1, 4) - 6 + 5


@pytest.mark.parametrize("seed", range(20))
def test_form_values_match_term_by_term_evaluation(seed):
    # 1-4 forms of one degree 0-5 in 1-4 variables, each on its own random
    # set of monomials (a zero form among them), coefficients up to 2^40,
    # at points with coordinates up to 2^20, by one evaluator
    rng = random.Random(seed)
    nvars, degree = rng.randint(1, 4), rng.randint(0, 5)
    monomials = _monomials(nvars, degree)
    forms = [IntPolynomial(nvars, {
        e: rng.randint(-2 ** 40, 2 ** 40)
        for e in rng.sample(monomials, rng.randint(0, len(monomials)))})
        for _ in range(rng.randint(1, 4))]
    points = [[rng.randint(-2 ** 20, 2 ** 20) for _ in range(nvars)]
              for _ in range(5)]
    values = form_evaluator(forms)
    for p in points:
        assert values(p) == [evaluate(f, p, 1) for f in forms]


def test_a_form_without_terms_evaluates_to_zero():
    # each form sums over its own monomials: a form with none sums nothing,
    # alone or beside forms that have terms
    empty = IntPolynomial(2)
    assert form_evaluator([empty])([3, 5]) == [0]
    values = form_evaluator([empty, IntPolynomial(2, {(1, 1): 4}), empty,
                             IntPolynomial(2, {(2, 0): -1, (1, 1): 2})])
    assert values([3, 5]) == [0, 60, 0, 21]


def test_form_values_of_no_forms_are_empty():
    # a fixture without tested structures has no forms to evaluate
    values = form_evaluator([])
    assert values([1, 2]) == values([0, 3]) == []


def test_form_residues_refuse_a_slot_bound_past_64_bits():
    # T p^2 for T = 2 terms reaches 2^63 at p > 2^31: refused before any
    # column is packed; just below, the residues are the values mod p
    form = IntPolynomial(2, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(CapabilityError):
        transition.form_residues([form], [[1], [2]], 2 ** 31 + 1)
    assert transition.form_residues([form], [[1], [2]], 2 ** 31 - 1) == \
        [[2 ** 31 - 2]]


# --- transition matrices

def _symbolic(n, space):
    return transition_matrix_of(n, unit_forms(space.size))


def _indices(n, space):
    # entry (eta, g) is the coset index eta(g), the form cofactor_det reads
    # as y_{eta(g)}
    return transition_matrix_of(n, list(range(space.size)))


def test_transition_matrix_c2():
    group = FiniteGroup.generated_by([Permutation([1, 0])])
    space = build_coset_space(group, FiniteGroup.trivial(2))
    rho = right_translation_subgroup(space)
    assert _indices(rho, space) == [[0, 1], [1, 0]]
    assert str(det_symbolic(_symbolic(rho, space))) == "y0^2 - y1^2"


def test_transition_identity_row_is_the_coset_order():
    n, space = _a3_structure()
    assert _indices(n, space)[0] == list(range(space.size))


def test_a3_circulant_determinant():
    n, space = _a3_structure()
    expected = IntPolynomial(
        3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3})
    # rows are ordered by sorted elements; the determinant is the circulant
    # value up to the sign of that ordering
    det = det_symbolic(_symbolic(n, space))
    assert det in (expected, -expected)
    assert signed_canonical_det(n, space)[0] == expected
    # independent route: cofactor expansion
    assert cofactor_det(_indices(n, space), 3) == det


def test_permutation_pattern_determinant():
    rows = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    y = unit_forms(3)
    assert det_symbolic([[y[k] for k in row] for row in rows]) == \
        cofactor_det(rows, 3)


def test_det_symbolic_independent_of_orderings_up_to_sign():
    n, space = _a3_structure()
    matrix = _symbolic(n, space)
    base = det_symbolic(matrix)
    reordered = [matrix[1], matrix[0], matrix[2]]
    assert det_symbolic(reordered) in (base, -base)


def test_det_symbolic_matches_cofactor_oracle_on_seven_and_eight_points():
    group, s, t = metacyclic_group(7, 3, 2)
    space = build_coset_space(group, FiniteGroup.generated_by([t]))
    [n] = enumerate_regular_normalized(space)
    cases = [(n, space)]
    c8 = [Permutation([1, 2, 3, 4, 5, 6, 7, 0])]
    c2_cubed = [Permutation([1, 0, 3, 2, 5, 4, 7, 6]),
                Permutation([2, 3, 0, 1, 6, 7, 4, 5]),
                Permutation([4, 5, 6, 7, 0, 1, 2, 3])]
    for gens in (c8, c2_cubed):
        space = build_coset_space(FiniteGroup.generated_by(gens),
                                  FiniteGroup.trivial(8))
        cases.append((right_translation_subgroup(space), space))
    for n, space in cases:
        assert det_symbolic(_symbolic(n, space)) == \
            cofactor_det(_indices(n, space), space.size)


def test_det_symbolic_matches_cofactor_oracle_on_linear_forms():
    rng = random.Random(7)
    for size, nvars in ((1, 2), (2, 3), (3, 3), (4, 2), (5, 4)):
        rows = [[tuple(rng.randint(-3, 3) for _ in range(nvars))
                 for _ in range(size)] for _ in range(size)]
        assert det_symbolic(rows) == cofactor_det(rows, nvars)
    rows[1] = rows[0]  # two equal rows: the zero polynomial
    assert not det_symbolic(rows)


def test_det_symbolic_packs_eighth_powers_without_carries():
    # the packed exponent of y0^8 must not reach the digit of y1: with
    # radix 8 instead of 9 it would read as y1
    m = 8
    rows = [[(0, 0)] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = (1, 1)
        rows[i][(i + 1) % m] = (0, 2)
    rows[2][6] = (3, 0)
    det = det_symbolic(rows)
    assert det.terms[(8, 0)] == 1 and det.terms[(0, 8)]
    assert det == cofactor_det(rows, 2)


def _y0_power(m):
    return (m,) + (0,) * (m - 1)


def test_signed_canonical_det_recovers_the_unsorted_determinant(all_fixtures):
    # the canonical determinant has y0^m coefficient 1, and the sign
    # recovers the transition matrix's determinant as built (rows in the
    # structure's element order), also by cofactor expansion below size 8
    # (an 8 x 8 expansion takes about a second; det_symbolic is checked
    # against it at 8 points above)
    for fx in all_fixtures:
        space = fx.coset_space()
        for n in fx.structures():
            poly, sign = signed_canonical_det(n, space)
            assert poly.terms[_y0_power(space.size)] == 1
            unsorted = poly if sign == 1 else -poly
            assert det_symbolic(_symbolic(n, space)) == unsorted
            if space.size < 8:
                assert cofactor_det(_indices(n, space), space.size) == unsorted


def _permutation_sign(images):
    return (-1) ** (len(images) - len(Permutation(images).cycles()))


def test_sign_is_read_off_the_latin_square(all_fixtures):
    # y0 fills one permutation matrix of the transition matrix, row eta at
    # the column x with eta(x) = 0, so the y0^m coefficient is that
    # permutation's sign.  y0^m is the first printed term and the leading
    # one in graded lex order
    structures = 0
    for fx in all_fixtures:
        space = fx.coset_space()
        m = space.size
        for n in fx.structures():
            structures += 1
            columns = [eta.inverse()(0) for eta in n.elements]
            det = det_symbolic(_symbolic(n, space))
            assert det.terms[_y0_power(m)] == _permutation_sign(columns)
            assert max(det.terms, key=lambda e: (sum(e), e)) == _y0_power(m)
            poly, sign = signed_canonical_det(n, space)
            assert sign == _permutation_sign(columns)
            assert str(poly).startswith(f"y0^{m} ")
    assert structures == 67


def test_non_regular_subgroup_has_no_canonical_sign():
    # <(0 1), (2 3)> has order 4 on 4 points but is not transitive: y0 sits
    # in two rows of one column, and the determinant is 0
    space = build_coset_space(
        FiniteGroup.generated_by([Permutation([1, 2, 3, 0])]),
        FiniteGroup.trivial(4))
    n = FiniteGroup.generated_by([Permutation([1, 0, 2, 3]),
                                  Permutation([0, 1, 3, 2])])
    assert not det_symbolic(_symbolic(n, space))
    with pytest.raises(ConsistencyError):
        signed_canonical_det(n, space)


def test_size_bound_enforced():
    y = unit_forms(9)
    with pytest.raises(CapabilityError):
        det_symbolic([list(y) for _ in range(9)])


# --- the determinant identity

def test_identity_for_every_structure_on_sextic_shape(s3sextic):
    space = s3sextic.coset_space()
    for n in s3sextic.structures():
        n_opp = opposite(n, space)
        assert det_identity(n, n_opp, space, signed_canonical_det(n, space)[0],
                            signed_canonical_det(n_opp, space)[0])


def test_identity_fails_on_unequal_determinants(s3sextic):
    space = s3sextic.coset_space()
    n = s3sextic.structures()[1]
    n_opp = opposite(n, space)
    det_n = signed_canonical_det(n, space)[0]
    assert not det_identity(n, n_opp, space, det_n, -det_n)


def test_identity_trivial_for_abelian(qcbrt2):
    space = qcbrt2.coset_space()
    [n] = qcbrt2.structures()
    assert opposite(n, space) == n
    det_n = signed_canonical_det(n, space)[0]
    assert det_identity(n, n, space, det_n, det_n)


def test_identity_with_reindexing_witness_for_translations(s3sextic):
    space = s3sextic.coset_space()
    rho = right_translation_subgroup(space)
    lam_opp = opposite(rho, space)
    base = space.base_point
    left = [[eta(etap(base)) for etap in lam_opp.elements] for eta in rho.elements]
    right = [[etap(eta(base)) for eta in rho.elements] for etap in lam_opp.elements]
    for i in range(space.size):
        for j in range(space.size):
            assert left[i][j] == right[j][i]
    assert (signed_canonical_det(rho, space)[0]
            == signed_canonical_det(lam_opp, space)[0])


# --- packed dense minors

def _dense_forms(rng, size, nvars, spread=3):
    return [[tuple(rng.randint(-spread, spread) for _ in range(nvars))
             for _ in range(size)] for _ in range(size)]


@pytest.mark.parametrize("size, nvars", [(1, 2), (2, 2), (3, 4), (4, 3),
                                         (5, 5), (6, 6), (7, 3), (8, 2)])
def test_packed_minors_match_the_cofactor_oracle(size, nvars):
    rows = _dense_forms(random.Random(size), size, nvars)
    assert transition._dense_det(rows, nvars) is not None
    assert det_symbolic(rows) == cofactor_det(rows, nvars)


def test_packed_minors_of_singular_matrices_vanish():
    rng = random.Random(11)
    rows = _dense_forms(rng, 5, 3)
    rows[2] = [(0, 0, 0)] * 5
    assert transition._dense_det(rows, 3) == {}
    assert not det_symbolic(rows)
    # a row that is a combination of two others: nonzero minors below it,
    # the zero polynomial at the top
    rows = _dense_forms(rng, 6, 4)
    rows[3] = [tuple(2 * a - b for a, b in zip(f, g))
               for f, g in zip(rows[0], rows[5])]
    assert transition._dense_det(rows, 4) == {}
    assert det_symbolic(rows) == cofactor_det(rows, 4)


def _recording_expansions(monkeypatch):
    # the packed levels _dense_det runs (one gather table each) and the
    # matrices _sparse_det expands
    levels, calls = [], []
    times_variable = transition._times_variable
    sparse_det = transition._sparse_det

    def gathers(nvars, degree):
        levels.append(degree)
        return times_variable(nvars, degree)

    def recording(matrix, nvars):
        calls.append(matrix)
        return sparse_det(matrix, nvars)
    monkeypatch.setattr(transition, "_times_variable", gathers)
    monkeypatch.setattr(transition, "_sparse_det", recording)
    return levels, calls


def test_packed_minors_fall_back_to_dicts_beyond_the_slot_bound(monkeypatch):
    # entries in +-200: the last level's bound, the row's absolute sum times
    # the largest coefficient below it, is about 2^69, past a 64-bit slot.
    # Seven levels are packed, then one dict expansion of the whole matrix
    # replaces them
    rows = _dense_forms(random.Random(200), 8, 2, spread=200)
    levels, calls = _recording_expansions(monkeypatch)
    assert det_symbolic(rows) == cofactor_det(rows, 2)
    assert levels == list(range(7))
    assert calls == [rows]


@pytest.mark.parametrize("spread, rows_left", [(10 ** 5, 3), (10 ** 8, 4),
                                               (10 ** 12, 5), (10 ** 19, 6)])
def test_packed_minors_hand_over_at_any_level(spread, rows_left, monkeypatch):
    # the larger the entries, the earlier a level overflows, with rows_left
    # rows still to expand (at 10^19 even the first level does); whichever
    # it is, one dict expansion of the whole matrix replaces the packed one
    rows = _dense_forms(random.Random(spread), 6, 3, spread=spread)
    levels, calls = _recording_expansions(monkeypatch)
    assert det_symbolic(rows) == cofactor_det(rows, 3)
    assert levels == list(range(6 - rows_left))
    assert calls == [rows]


# the expansion det_symbolic runs on each structure's rank forms (the rows
# of its integer action matrices, as descent.generator_verdicts builds them)
# and on its norm form of each ideal (integral.norm_form): P for packed
# minors, D for dicts, one letter per structure
EXPANSIONS = {
    "qi": ("D", {"OL": "D"}),
    "qzeta3": ("P", {"OL": "P"}),
    "c4quartic": ("DD", {"OL": "DD"}),
    "v4biquad": ("DDDD", {"OL": "PPPP"}),
    "qcbrt2": ("P", {"OL": "P"}),
    "s3sextic": ("PPDDP", {"OE": "PPPPP", "OL": "PPPPP"}),
    "c5quintic": ("P", {"OL": "P"}),
    "zeta16": ("D" * 26, {"OL": "D" * 26}),
}


@pytest.mark.parametrize("name", EXPANSIONS)
def test_det_symbolic_packs_only_dense_forms(name, request, monkeypatch):
    # packed when some entry has two or more terms and more than half of the
    # coefficients are nonzero: the norm forms of s3sextic and v4biquad are,
    # zeta16's forms (5-20% nonzero) and c4quartic's (39-47%) are not
    data = Path(__file__).parent / "data"
    fx = (parse(data / f"{name}.hgx") if name in ("c5quintic", "zeta16")
          else request.getfixturevalue(name))
    ran = []
    dense_det, sparse_det = transition._dense_det, transition._sparse_det

    def packed(matrix, nvars):
        terms = dense_det(matrix, nvars)
        ran.append("P" if terms is not None else "overflow")
        return terms

    def dicts(matrix, nvars):
        ran.append("D")
        return sparse_det(matrix, nvars)
    count = len(fx.structures())
    algebras = [fx.algebra(i) for i in range(count)]
    monkeypatch.setattr(transition, "_dense_det", packed)
    monkeypatch.setattr(transition, "_sparse_det", dicts)
    for a in algebras:
        det_symbolic(a.int_action_matrices)
    expansions = ("".join(ran), {})
    for ideal in sorted(fx.ideals):
        ran.clear()
        for a in algebras:
            norm_form(associated_order(a, fx.ideal(ideal)))
        expansions[1][ideal] = "".join(ran)
    assert expansions == EXPANSIONS[name]


def test_transition_matrices_keep_the_dict_expansion(s3sextic, metacyclic21,
                                                     monkeypatch):
    # unit forms have sparse minors: packing them would cost more than it saves
    def refuse(matrix, nvars):
        raise AssertionError("a transition matrix took the packed path")
    monkeypatch.setattr(transition, "_dense_det", refuse)
    for fx in (s3sextic, metacyclic21):
        space = fx.coset_space()
        for n in fx.structures():
            assert det_symbolic(_symbolic(n, space)) == \
                cofactor_det(_indices(n, space), space.size)
