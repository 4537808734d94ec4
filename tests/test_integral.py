import itertools
import json
import random
from array import array
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hopfgalois import integral, linalg
from hopfgalois.descent import DescendedAlgebra
from hopfgalois.errors import (CapabilityError, ConsistencyError, DomainError,
                               StructureError)
from hopfgalois.fixtures import (_validate_integral_basis, bundled_path,
                                 parse)
from hopfgalois.integral import (FREENESS_BOX_BOUND, FractionalIdeal,
                                 FreenessResult, Lattice, associated_order,
                                 freeness_certificate, freeness_search,
                                 is_free_witness, norm_form, witness_matrix)
from hopfgalois.numberfield import Subfield
from hopfgalois.perm import opposite, right_translation_subgroup
from hopfgalois.transition import IntPolynomial

from .oracles import (basis_vectors, evaluate, first_free_witness,
                      fraction_associated_order, fraction_inverse,
                      half_box_hits, lattice_contains, multiply_coords,
                      rational_lattice, transfer_element)

F = Fraction


def _classical_algebra(fx):
    rho = right_translation_subgroup(fx.coset_space())
    index = next(i for i, n in enumerate(fx.structures()) if n == rho)
    return fx.algebra(index)


def _ring(fx):
    """The bundled fixture's integral basis as its ring, as the parser
    checks it (each element's multiplication matrix in integer form)."""
    doc = json.loads(bundled_path(fx.name).read_text(encoding="utf-8"))
    return _validate_integral_basis(doc["integral_basis"], fx.context,
                                    fx.subfield(), [])


def _opposite_index(fx, i):
    structs = fx.structures()
    opp = opposite(structs[i], fx.coset_space())
    return next(j for j, n in enumerate(structs) if n == opp)


def _witness_element(subfield, result):
    """The field element of a FREE result's witness, whose subfield
    coordinates are the result's integers over the lattice denominator."""
    den, ints = result.witness_subfield_coords
    return subfield.from_coords([F(x, den) for x in ints])


# --- lattices

def test_lattice_canonical_form():
    lat = rational_lattice([[F(1, 2), F(1, 2)], [F(0), F(1)]])
    assert lat.denominator == 2
    assert lat.rows == ((1, 1), (0, 2))


def test_lattice_membership():
    lat = rational_lattice([[F(1, 2), F(1, 2)], [F(0), F(1)]])
    assert lattice_contains(lat, [F(1), F(0)])
    assert lattice_contains(lat, [F(1, 2), F(1, 2)])
    assert not lattice_contains(lat, [F(1, 2), F(0)])
    assert not lattice_contains(lat, [F(1, 3), F(1, 3)])
    # contains itself takes integer vectors
    assert lat.contains([1, 0]) and lat.contains([0, 1])
    coarse = rational_lattice([[F(2), F(0)], [F(0), F(1)]])
    assert coarse.contains([2, 3]) and coarse.contains([-4, 0])
    assert not coarse.contains([1, 0]) and not coarse.contains([3, 1])


def test_lattice_canonicity_under_unimodular_change():
    rng = random.Random(0)
    base = [[F(3, 2), F(1)], [F(1), F(4)]]
    lat = rational_lattice(base)
    for _ in range(20):
        a = [row[:] for row in base]
        c = rng.randint(-4, 4)
        a[0] = [x + c * y for x, y in zip(a[0], a[1])]
        if rng.random() < 0.5:
            a[0], a[1] = a[1], a[0]
        assert rational_lattice(a) == lat


# --- associated orders

def test_tame_quadratic_order_is_the_integral_group_ring(qzeta3):
    algebra = _classical_algebra(qzeta3)
    order = associated_order(algebra, qzeta3.ideal("OL"))
    assert order.lattice == rational_lattice(
        [[F(1), F(0)], [F(0), F(1)]])


def test_wild_quadratic_order_strictly_contains_the_group_ring(qi):
    algebra = _classical_algebra(qi)
    order = associated_order(algebra, qi.ideal("OL"))
    group_ring = rational_lattice([[F(1), F(0)], [F(0), F(1)]])
    assert group_ring != order.lattice
    assert all(lattice_contains(order.lattice, v)
               for v in basis_vectors(group_ring))
    # contains (1 + sigma)/2
    assert lattice_contains(order.lattice, [F(1, 2), F(1, 2)])


def test_wild_quadratic_order_matches_denominator_scan(qi):
    from .oracles import stabilizer_scan_order
    algebra = _classical_algebra(qi)
    ideal = qi.ideal("OL")
    order = associated_order(algebra, ideal)
    members = stabilizer_scan_order(algebra, ideal, 4)
    for c in members:
        assert lattice_contains(order.lattice, list(c))
    for v in basis_vectors(order.lattice):
        if all(abs(x) <= 3 and (x * 4).denominator == 1 for x in v):
            assert tuple(v) in {tuple(m) for m in members}


def test_order_invariants_hold_everywhere(field_fixtures):
    for fx in field_fixtures:
        for name in fx.ideals:
            ideal = fx.ideal(name)
            for i in range(len(fx.structures())):
                algebra = fx.algebra(i)
                order = associated_order(algebra, ideal)
                lattice = order.lattice
                assert lattice.contains(list(algebra.identity_coords))
                basis = basis_vectors(lattice)
                for a in basis:
                    for b in basis:
                        assert lattice_contains(
                            lattice, multiply_coords(algebra, a, b))
                for mat in order.ideal_action_matrices:
                    assert all(isinstance(v, int) for v in mat)


def test_integer_order_is_the_fraction_order(field_fixtures):
    for fx in field_fixtures:
        for name in sorted(fx.ideals):
            ideal = fx.ideal(name)
            for i in range(len(fx.structures())):
                algebra = fx.algebra(i)
                assert associated_order(algebra, ideal) == \
                    fraction_associated_order(algebra, ideal)


# --- freeness search

def test_tame_quadratic_is_free_with_verified_witness(qzeta3):
    algebra = _classical_algebra(qzeta3)
    ideal = qzeta3.ideal("OL")
    order = associated_order(algebra, ideal)
    result = freeness_search(order, ideal, 3)
    assert result.free
    mat = witness_matrix(order, result.witness_ideal_coords)
    assert abs(linalg.int_det(mat)) == 1
    # the subfield coordinates: the ideal's integer rows combined by the
    # witness, over the lattice denominator, integers throughout
    den, ints = result.witness_subfield_coords
    assert den == ideal.lattice.denominator
    assert list(ints) == linalg.mat_vec(linalg.transpose(ideal.lattice.rows),
                                        list(result.witness_ideal_coords))
    assert all(type(x) is int for x in ints)


def test_zero_bound_is_unknown(qzeta3):
    algebra = _classical_algebra(qzeta3)
    ideal = qzeta3.ideal("OL")
    order = associated_order(algebra, ideal)
    assert freeness_search(order, ideal, 0) == FreenessResult("UNKNOWN")


def test_witness_is_lexicographically_smallest(qzeta3):
    algebra = _classical_algebra(qzeta3)
    ideal = qzeta3.ideal("OL")
    order = associated_order(algebra, ideal)
    result = freeness_search(order, ideal, 2)
    v = result.witness_ideal_coords
    import itertools
    for earlier in itertools.product(range(-2, 3), repeat=2):
        if earlier == v:
            break
        if any(earlier):
            assert not is_free_witness(order, list(earlier))


def test_ideal_stability_is_checked_over_the_integers(s3sextic, monkeypatch):
    # the rational check ran 36 Fraction mat_vec per s3sextic ideal; the
    # fixture keeps its integral basis as the ring, in integer form (d, Mz)
    ring = _ring(s3sextic)
    rational = []
    mat_vec = linalg.mat_vec

    def counting(a, v):
        if any(isinstance(x, Fraction) for x in v) or \
                any(isinstance(x, Fraction) for row in a for x in row):
            rational.append(v)
        return mat_vec(a, v)
    monkeypatch.setattr(linalg, "mat_vec", counting)
    for name, ideal in sorted(s3sextic.ideals.items()):
        assert FractionalIdeal.build(name, ideal.lattice, ring) == ideal
    assert rational == []
    # halving one basis vector leaves a lattice the integers do not fix
    rows = basis_vectors(ideal.lattice)
    rows[0] = [c / 2 for c in rows[0]]
    with pytest.raises(StructureError,
                       match="^not stable under integral-basis element 1$"):
        FractionalIdeal.build("half", rational_lattice(rows), ring)


def test_planted_generator_is_rediscovered(qzeta3):
    # the sublattice spanned by 2 + t and 1 - t is stable under the integers
    # and is free over the order with the planted generator 2 + t
    algebra = _classical_algebra(qzeta3)
    planted = rational_lattice([[F(2), F(1)], [F(1), F(-1)]])
    ideal = FractionalIdeal.build("planted", planted, _ring(qzeta3))
    order = associated_order(algebra, ideal)
    result = freeness_search(order, ideal, 3)
    assert result.free
    # the planted generator has ideal coordinates inside the box and passes
    from hopfgalois import linalg
    w = [[v[i] for v in basis_vectors(planted)] for i in range(2)]
    coords = linalg.mat_vec(fraction_inverse(w), [F(2), F(1)])
    assert all(c.denominator == 1 for c in coords)
    assert is_free_witness(order, [int(c) for c in coords])
    # the two-sided certificate accepts the planted data as well
    cert = freeness_certificate(algebra, algebra, ideal, 3)
    assert cert.verdict_main.free and cert.verdict_partner.free
    assert cert.consistent


def test_biquadratic_default_bound_is_unknown_but_six_finds_it(v4biquad):
    algebra = _classical_algebra(v4biquad)
    ideal = v4biquad.ideal("OL")
    order = associated_order(algebra, ideal)
    assert freeness_search(order, ideal, 3).status == "UNKNOWN"
    result = freeness_search(order, ideal, 6)
    assert result.free


def test_norm_form_is_the_witness_determinant(field_fixtures):
    rng = random.Random(3)
    for fx in field_fixtures:
        for name in sorted(fx.ideals):
            ideal = fx.ideal(name)
            for i in range(len(fx.structures())):
                order = associated_order(fx.algebra(i), ideal)
                norm = norm_form(order)
                m = len(order.ideal_action_matrices)
                for _ in range(5):
                    v = [rng.randint(-4, 4) for _ in range(m)]
                    assert evaluate(norm, v, 1) == linalg.int_det(
                        witness_matrix(order, v))


def test_action_matrices_beyond_64_bits_stay_exact():
    # an entry past 2^63 keeps its matrix a tuple; the witness matrix and
    # the norm form read both layouts alike
    big = 3 ** 41
    flat = [integral._flat_matrix(rows) for rows in
            ([[1, 0], [0, 1]], [[0, big], [1, 0]])]
    assert isinstance(flat[0], array) and flat[1] == (0, big, 1, 0)
    lattice = rational_lattice([[F(1), F(0)], [F(0), F(1)]])
    order = integral.AssociatedOrder(lattice, tuple(flat))
    poly = norm_form(order)
    for v in itertools.product(range(-2, 3), repeat=2):
        assert evaluate(poly, list(v), 1) == \
            linalg.int_det(witness_matrix(order, list(v)))


def test_unit_points_scan_the_half_box_of_the_full_scan():
    rng = random.Random(11)
    forms = []
    for _ in range(60):
        nvars, degree = rng.randint(1, 4), rng.randint(1, 4)
        monomials = [tuple(e.count(k) for k in range(nvars)) for e in
                     itertools.combinations_with_replacement(range(nvars), degree)]
        chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
        forms.append(IntPolynomial(nvars, {e: rng.choice([-2, -1, 1, 2, 3])
                                           for e in chosen}))
    # planted: y2^d plus twice a positive form in the earlier variables, so
    # the only hit of the half box is (0, 0, -1), behind a zero prefix
    for degree in (2, 4):
        forms.append(IntPolynomial(3, {(0, 0, degree): 1, (degree, 0, 0): 2,
                                       (0, degree, 0): 2}))
    total = 0
    for poly in forms:
        for bound in (1, 2, 3):
            hits = list(integral._unit_points(poly, bound))
            assert hits == half_box_hits(poly, bound)
            total += len(hits)
    assert list(integral._unit_points(forms[-1], 3)) == [((0, 0, -1), 1)]
    assert total > 100
    # a constant form hits every point it is evaluated at: the half box,
    # without the zero vector
    for nvars, bound in ((1, 3), (3, 2)):
        one = IntPolynomial(nvars, {(0,) * nvars: 1})
        hits = list(integral._unit_points(one, bound))
        assert hits == half_box_hits(one, bound)
        assert len(hits) == ((2 * bound + 1) ** nvars - 1) // 2


def _random_forms(rng, nvars, count):
    forms = []
    for _ in range(count):
        degree = rng.randint(0, 4)
        monomials = [tuple(e.count(k) for k in range(nvars)) for e in
                     itertools.combinations_with_replacement(range(nvars), degree)]
        chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
        forms.append(IntPolynomial(nvars, {e: rng.choice([-3, -2, -1, 1, 2])
                                           for e in chosen}))
    return forms


def _assert_half_box_hits(poly, bounds):
    for bound in bounds:
        assert list(integral._unit_points(poly, bound)) == half_box_hits(poly, bound)


def test_packed_scan_without_head_variables():
    # m = 1 packs its one variable at every bound; m = 2 packs both up to
    # bound 7 and one from bound 8
    rng = random.Random(12)
    for nvars in (1, 2):
        for poly in _random_forms(rng, nvars, 20):
            _assert_half_box_hits(poly, (1, 2, 3, 4, 5, 7, 8, 32))


def test_packed_scan_of_zero_and_constant_forms():
    for nvars in (1, 2, 3):
        zero = IntPolynomial(nvars)
        for bound in (1, 4, 32):
            assert list(integral._unit_points(zero, bound)) == []
        for c in (-2, -1, 1, 2):
            _assert_half_box_hits(IntPolynomial(nvars, {(0,) * nvars: c}), (1, 2, 4))


def test_packed_scan_above_the_slot_cap_packs_one_variable():
    # the first bound whose two-variable box exceeds the slot cap packs one
    # variable, the bound before it two
    bound = next(b for b in itertools.count(1)
                 if (2 * b + 1) ** 2 > integral._PACKED_SLOTS)
    rng = random.Random(13)
    for poly in _random_forms(rng, 3, 8):
        _assert_half_box_hits(poly, (bound - 1, bound))
    for poly in _random_forms(rng, 4, 2):
        _assert_half_box_hits(poly, (bound,))


def test_packed_scan_at_the_edge_of_the_slot_width():
    # sum |c| bound^deg is 2^j - 1 and attained: a slot one bit narrower
    # carries into the next slot when the form takes its largest value
    cases = [(IntPolynomial(1, {(1,): -1}), 1),
             (IntPolynomial(2, {(0, 1): -1}), 3),
             (IntPolynomial(2, {(0, 1): -1}), 7),
             (IntPolynomial(2, {(3, 0): -1, (2, 1): -2}), 1),
             (IntPolynomial(3, {(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): 1}), 1),
             (IntPolynomial(3, {(1, 0, 2): -1, (1, 1, 1): 6}), 1),
             (IntPolynomial(3, {(0, 0, 1): -8, (0, 1, 0): -4, (1, 0, 0): -2,
                                (0, 0, 0): -1}), 1)]
    for poly, bound in cases:
        extreme = sum(map(abs, poly.terms.values())) * bound ** max(
            map(sum, poly.terms))
        assert extreme & (extreme + 1) == 0
        assert extreme in {abs(evaluate(poly, v, 1)) for v in itertools.product(
            range(-bound, bound + 1), repeat=poly.nvars)}
        _assert_half_box_hits(poly, (bound,))


def test_packed_scan_with_zero_and_two_next_to_a_unit():
    # slot values run through consecutive integers, so 0 and +-2 sit next to
    # each +-1: in the zero-slot test a hit's slot borrows from the slot
    # above it, which is flagged too when it holds 0 or 2
    forms = []
    for nvars in (2, 3):
        last = (0,) * (nvars - 1) + (1,)
        before = (0,) * (nvars - 2) + (1, 0)
        for c in (-2, -1, 0, 1, 2):
            forms.append(IntPolynomial(nvars, {last: 1, (0,) * nvars: c}))
            forms.append(IntPolynomial(nvars, {last: 1, before: -1, (0,) * nvars: c}))
        forms.append(IntPolynomial(nvars, {tuple(2 * e for e in last): 1,
                                           (0,) * nvars: -1}))
    for poly in forms:
        _assert_half_box_hits(poly, (1, 2, 3, 4))


def test_packed_scan_at_a_large_bound(qi, c4quartic):
    # qi at bound 120 packs one variable, 241 slots, c4quartic at bound 6
    # two; packing qi's whole 241^2 box into one integer took seconds
    for fx, bound in ((qi, 120), (c4quartic, 6)):
        for i in range(len(fx.structures())):
            poly = norm_form(associated_order(fx.algebra(i), fx.ideal("OL")))
            start = time.perf_counter()
            hits = list(integral._unit_points(poly, bound))
            assert time.perf_counter() - start < 2.0
            assert hits == half_box_hits(poly, bound)
            assert hits


def test_packed_scan_decodes_a_large_block_in_linear_time():
    # m = 1 packs the whole line into one block of 200,001 slots; decoding
    # it slot by slot with shifts of the block took 10 s
    start = time.perf_counter()
    hits = list(integral._unit_points(IntPolynomial(1, {(2,): 1, (0,): -2}),
                                      100000))
    assert time.perf_counter() - start < 5.0
    assert hits == [((-1,), -1)]


def _planted_forms(rng, nvars, count):
    """Forms with residue structure mod 2 and 3, for random P and Q:
    q P + y0 y1 Q and q P + (y0 + y1) Q for q = 2, 3, 3 P + y0^2 Q and
    3 P + (y0^2 + y0) Q, and the constants 2, 3, 6, 1, -1.  The classes
    where y0 + y1 or y0^2 + y0 vanishes are not closed under v -> -v."""
    def y(*exps):
        return exps + (0,) * (nvars - len(exps))

    def plant(q, p, factor, r):
        terms = {e: q * c for e, c in p.terms.items()}
        for f, a in factor.items():
            for e, c in r.terms.items():
                e = tuple(map(sum, zip(e, f)))
                terms[e] = terms.get(e, 0) + a * c
        return IntPolynomial(nvars, terms)
    factors = [(q, factor) for q in (2, 3)
               for factor in ({y(1, 1): 1}, {y(1): 1, y(0, 1): 1})]
    factors += [(3, {y(2): 1}), (3, {y(2): 1, y(1): 1})]
    factors = [(q, f) for q, f in factors if all(len(e) == nvars for e in f)]
    forms = []
    for _ in range(count):
        for q, factor in factors:
            p, r = _random_forms(rng, nvars, 2)
            forms.append(plant(q, p, factor, r))
    return forms + [IntPolynomial(nvars, {y(): c}) for c in (2, 3, 6, 1, -1)]


def test_unit_points_skip_only_classes_without_a_unit():
    # the scan drops the head prefixes on whose class mod 2 or 3 the form
    # vanishes identically, for the q dividing m: m = 2 and 4 filter mod 2,
    # m = 3 mod 3 and m = 6 mod both; every hit of the full scan survives
    rng = random.Random(31)
    pruned = 0
    for nvars, bounds, count in ((2, (1, 2, 3, 4, 5), 6), (3, (1, 2, 3, 4, 5), 6),
                                 (4, (1, 2, 3), 5), (6, (1,), 4)):
        for poly in _planted_forms(rng, nvars, count) + _random_forms(
                rng, nvars, count):
            _assert_half_box_hits(poly, bounds)
            pruned += any(0 in live[-1] for q in (2, 3) if nvars % q == 0
                          for live in [integral._live_classes(poly, q, nvars)])
    assert pruned > 20


def test_live_classes_match_the_residues_over_f_q():
    # live[d][c] is 1 exactly when the form is nonzero mod q at some point
    # of F_q^m whose first d residues have the base-q code c
    rng = random.Random(32)
    for q in (2, 3):
        for nvars in range(1, 6):
            forms = _planted_forms(rng, nvars, 2) + _random_forms(rng, nvars, 6)
            # exponents up to 2q + 1 fold to 1 .. q - 1
            forms += [IntPolynomial(nvars, {(2 * q + 1,) + (0,) * (nvars - 1): 1,
                                            (q,) * nvars: -1})]
            for poly in forms:
                values = [evaluate(poly, point, 1) % q for point in
                          itertools.product(range(q), repeat=nvars)]
                live = integral._live_classes(poly, q, nvars)
                for d in range(nvars + 1):
                    block = q ** (nvars - d)
                    assert list(live[d]) == [
                        int(any(values[c * block:(c + 1) * block]))
                        for c in range(q ** d)], (poly, q, d)


def test_unit_points_of_an_even_form_scan_nothing():
    # an even form in 6 variables, dense as a norm form is, is never +-1:
    # the scan returns after its residue tables, in about a millisecond,
    # where packing and scanning the 15^6 box took 0.37-0.56 s
    rng = random.Random(33)
    monomials = [tuple(e.count(k) for k in range(6)) for e in
                 itertools.combinations_with_replacement(range(6), 6)]
    poly = IntPolynomial(6, {e: rng.choice([-6, -4, -2, 2, 4, 6])
                             for e in monomials})
    start = time.perf_counter()
    assert list(integral._unit_points(poly, 7)) == []
    assert time.perf_counter() - start < 0.05


def _assert_first_witness_is_the_naive_one(order, ideal, bound):
    expected = first_free_witness(order, bound)
    result = freeness_search(order, ideal, bound)
    assert result.witness_ideal_coords == expected
    assert result.status == ("UNKNOWN" if expected is None else "FREE")
    return result.status


def test_first_witness_matches_the_naive_scan_at_bound_two(field_fixtures):
    for fx in field_fixtures:
        cases = [(i, name) for i in range(len(fx.structures()))
                 for name in sorted(fx.ideals)]
        if fx.name == "s3sextic":
            # its ten boxes cost the naive scan about 8 s; the two
            # structures of the bound-3 test below stand for them
            cases = [(0, "OE"), (1, "OE")]
        for i, name in cases:
            ideal = fx.ideal(name)
            _assert_first_witness_is_the_naive_one(
                associated_order(fx.algebra(i), ideal), ideal, 2)


@pytest.mark.parametrize("index, status", [(1, "FREE"), (0, "UNKNOWN")])
def test_sextic_first_witness_matches_the_naive_scan_at_bound_three(
        s3sextic, index, status):
    ideal = s3sextic.ideal("OE")
    order = associated_order(s3sextic.algebra(index), ideal)
    assert _assert_first_witness_is_the_naive_one(order, ideal, 3) == status


def _classical_order(fx, ideal_name):
    ideal = fx.ideal(ideal_name)
    return associated_order(_classical_algebra(fx), ideal), ideal


def test_negated_norm_form_is_caught_at_the_hit(qzeta3, monkeypatch):
    # same hits, opposite values: the integer determinant disagrees
    order, ideal = _classical_order(qzeta3, "OL")
    honest = norm_form(order)
    monkeypatch.setattr(integral, "norm_form", lambda order: -honest)
    with pytest.raises(ConsistencyError, match="norm form disagrees"):
        freeness_search(order, ideal, 3)


def test_constant_norm_form_is_caught_at_the_hit(qzeta3, monkeypatch):
    # every candidate is a hit; the first, (-3, -3), has a determinant
    # divisible by 9
    order, ideal = _classical_order(qzeta3, "OL")
    monkeypatch.setattr(integral, "norm_form",
                        lambda order: IntPolynomial(2, {(0, 0): 1}))
    with pytest.raises(ConsistencyError, match="norm form disagrees"):
        freeness_search(order, ideal, 3)


def test_wrong_hermite_form_is_caught_at_the_hit(qzeta3, monkeypatch):
    order, ideal = _classical_order(qzeta3, "OL")
    monkeypatch.setattr(linalg, "hnf", lambda mat: [[2, 0], [0, 1]])
    with pytest.raises(ConsistencyError, match="lattice equality"):
        freeness_search(order, ideal, 3)


def test_box_cap_admits_the_tested_boxes_and_refuses_larger_ones(
        s3sextic, v4biquad):
    assert FREENESS_BOX_BOUND == 7 ** 8
    for fx, bound in ((s3sextic, 3), (v4biquad, 6)):
        order, _ = _classical_order(fx, "OL")
        m = len(order.ideal_action_matrices)
        assert (2 * bound + 1) ** m <= FREENESS_BOX_BOUND
    order, ideal = _classical_order(s3sextic, "OE")
    assert 13 ** 6 <= FREENESS_BOX_BOUND < 15 ** 6  # bound 6 fits, 7 does not
    with pytest.raises(CapabilityError, match=str(FREENESS_BOX_BOUND)):
        freeness_search(order, ideal, 7)
    assert freeness_search(order, ideal, -1) == FreenessResult("UNKNOWN")


# --- transfer

def test_transfer_of_identity_is_identity(s3sextic):
    i = 1
    j = _opposite_index(s3sextic, i)
    a1, a2 = s3sextic.algebra(i), s3sextic.algebra(j)
    ideal = s3sextic.ideal("OE")
    order = associated_order(a1, ideal)
    result = freeness_search(order, ideal, 3)
    assert result.free
    x = _witness_element(a1.subfield, result)
    z = transfer_element(a1, a2, list(a1.identity_coords), x)
    assert z == list(a2.identity_coords)


def test_transfer_is_linear(s3sextic):
    i = 1
    j = _opposite_index(s3sextic, i)
    a1, a2 = s3sextic.algebra(i), s3sextic.algebra(j)
    ideal = s3sextic.ideal("OE")
    order = associated_order(a1, ideal)
    result = freeness_search(order, ideal, 3)
    x = _witness_element(a1.subfield, result)
    a = basis_vectors(order.lattice)[2]
    z = transfer_element(a1, a2, a, x)
    scaled = transfer_element(a1, a2, [F(5, 3) * c for c in a], x)
    assert scaled == [F(5, 3) * c for c in z]


def test_transfer_requires_a_generator(s3sextic):
    i = 1
    j = _opposite_index(s3sextic, i)
    a1, a2 = s3sextic.algebra(i), s3sextic.algebra(j)
    with pytest.raises(DomainError):
        transfer_element(a1, a2, list(a1.identity_coords),
                         s3sextic.context.field.one())


def test_transferred_lattice_is_the_partner_order(s3sextic):
    i = 1
    j = _opposite_index(s3sextic, i)
    a1, a2 = s3sextic.algebra(i), s3sextic.algebra(j)
    ideal = s3sextic.ideal("OE")
    order1 = associated_order(a1, ideal)
    order2 = associated_order(a2, ideal)
    result = freeness_search(order1, ideal, 3)
    assert result.free
    x = _witness_element(a1.subfield, result)
    rows = [transfer_element(a1, a2, a, x)
            for a in basis_vectors(order1.lattice)]
    assert rational_lattice(rows) == order2.lattice


# --- certificates

def test_certificate_on_the_zeta16_commuting_pairs():
    # the theorem11 certificate at m = 8: each of zeta16's four distinct
    # commuting pairs of opposite structures is FREE on O_L on both sides at
    # bound 1, and the witness transfer, the order identity and the
    # transport all hold
    fx = parse(Path(__file__).parent / "data" / "zeta16.hgx")
    opposites = fx.opposite_indices()
    for i, j in [(2, 4), (3, 5), (12, 14), (13, 15)]:
        assert opposites[i] == j and opposites[j] == i
        cert = fx.certificate(i, "OL", 1)
        assert cert.verdict_main.free and cert.verdict_partner.free, (i, j)
        assert cert.witness_transfers is True, (i, j)
        assert cert.transferred_lattice_matches is True, (i, j)
        assert cert.commuting_transport_holds is True, (i, j)


def test_certificate_on_the_sextic_classical_pair(s3sextic):
    algebra = _classical_algebra(s3sextic)
    index = next(i for i in range(len(s3sextic.structures()))
                 if s3sextic.algebra(i) is algebra)
    partner = s3sextic.algebra(_opposite_index(s3sextic, index))
    cert = freeness_certificate(algebra, partner, s3sextic.ideal("OE"), 3)
    assert cert.verdict_main.free and cert.verdict_partner.free
    assert cert.witness_transfers
    assert cert.transferred_lattice_matches
    assert cert.commuting_transport_holds
    assert cert.consistent
    # the main witness is itself a witness on the partner side
    order_partner = associated_order(partner, s3sextic.ideal("OE"))
    assert is_free_witness(order_partner,
                           list(cert.verdict_main.witness_ideal_coords))


def test_certificate_tests_each_witness_once(s3sextic, monkeypatch):
    from hopfgalois import integral
    calls = []
    original = integral.generates

    def generates(algebra, sample, *orbit):
        calls.append((algebra, sample))
        return original(algebra, sample, *orbit)
    monkeypatch.setattr(integral, "generates", generates)
    algebra = _classical_algebra(s3sextic)
    index = next(i for i in range(len(s3sextic.structures()))
                 if s3sextic.algebra(i) is algebra)
    partner = s3sextic.algebra(_opposite_index(s3sextic, index))
    solved = []
    original_coords = Subfield.coords

    def coords(subfield, x):
        solved.append(x)
        return original_coords(subfield, x)
    monkeypatch.setattr(Subfield, "coords", coords)
    orbits = []
    original_orbit = DescendedAlgebra.orbit

    def orbit(algebra, x_coords):
        orbits.append(algebra)
        return original_orbit(algebra, x_coords)
    monkeypatch.setattr(DescendedAlgebra, "orbit", orbit)
    cert = freeness_certificate(algebra, partner, s3sextic.ideal("OE"), 3)
    assert cert.consistent and cert.commuting_transport_holds
    # one generator test per side's witness, on the commuting side
    assert [a for a, _ in calls] == [partner, algebra]
    # and one orbit, which the generator test and the solver share (two
    # per side when each built its own)
    assert orbits == [partner, algebra]
    # the witnesses' subfield coordinates come from the search, so none is
    # solved for again (8 solves when each step solved its own)
    assert solved == []


def test_self_opposite_certificate_computes_one_side(qzeta3, monkeypatch):
    from hopfgalois import integral
    counts = {"associated_order": 0, "freeness_search": 0, "generates": 0}

    def counting(name):
        original = getattr(integral, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(integral, name, wrapper)
    for name in counts:
        counting(name)
    algebra = _classical_algebra(qzeta3)
    cert = freeness_certificate(algebra, algebra, qzeta3.ideal("OL"), 3)
    assert cert.verdict_main.free and cert.verdict_main == cert.verdict_partner
    assert cert.witness_transfers and cert.transferred_lattice_matches
    assert cert.commuting_transport_holds
    assert counts == {"associated_order": 1, "freeness_search": 1,
                      "generates": 1}


def test_orders_and_transport_run_on_the_integer_forms(s3sextic, monkeypatch):
    # the closure check and the transport check read the integer structure
    # constants and action matrices: associated_order runs no Fraction
    # mat_vec and tests one rational vector (the unit) for membership, and a
    # certificate runs none either: the witness coordinates are read off the
    # ideal's integer rows, and the transfers solve integer images.  On the
    # rational forms each order tested 37 vectors (its 36 products through
    # multiply_coords), the transport check ran 156 Fraction mat_vec, and
    # each side built the partner's orbit of the witness twice on Fraction
    # coordinates (12 each); later the witness coordinates and the transfer
    # solves still ran 2 and 12
    import sys
    algebras = [s3sextic.algebra(i) for i in range(len(s3sextic.structures()))]
    ideals = [s3sextic.ideal(name) for name in sorted(s3sextic.ideals)]
    callers = []
    mat_vec = linalg.mat_vec

    def counting(a, v):
        if any(isinstance(x, Fraction) for x in v) or \
                any(isinstance(x, Fraction) for row in a for x in row):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
        return mat_vec(a, v)
    monkeypatch.setattr(linalg, "mat_vec", counting)
    tested = []
    contains = Lattice.contains

    def membership(lattice, vector):
        tested.append(vector)
        return contains(lattice, vector)
    monkeypatch.setattr(Lattice, "contains", membership)
    for ideal in ideals:
        for algebra in algebras:
            associated_order(algebra, ideal)
    assert callers == []
    assert tested == [list(a.identity_coords) for a in algebras] * len(ideals)
    algebra = _classical_algebra(s3sextic)
    index = next(i for i in range(len(s3sextic.structures()))
                 if s3sextic.algebra(i) is algebra)
    partner = s3sextic.algebra(_opposite_index(s3sextic, index))
    cert = freeness_certificate(algebra, partner, s3sextic.ideal("OE"), 3)
    assert cert.consistent and cert.commuting_transport_holds
    assert callers == []


def test_certificate_trivial_for_commutative_structures(qzeta3):
    algebra = _classical_algebra(qzeta3)
    cert = freeness_certificate(algebra, algebra, qzeta3.ideal("OL"), 3)
    assert cert.verdict_main == cert.verdict_partner
    assert cert.consistent


def test_certificate_unknown_sides_are_consistent(v4biquad):
    algebra = _classical_algebra(v4biquad)
    cert = freeness_certificate(algebra, algebra, v4biquad.ideal("OL"), 2)
    assert cert.verdict_main.status == "UNKNOWN"
    assert cert.verdict_partner.status == "UNKNOWN"
    assert cert.consistent
