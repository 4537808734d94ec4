import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

from hopfgalois.cli import main
from hopfgalois.errors import CapabilityError, StructureError
from hopfgalois.fixtures import parse
from hopfgalois.perm import (FiniteGroup, Permutation, _candidates_over,
                             _close_tuples, build_coset_space, centralizer_bruteforce,
                             enumerate_regular_normalized, metacyclic_group,
                             opposite, right_translation_subgroup)

from .oracles import (centralizer_by_whole_products, closure_of_pair,
                      conjugacy_classes, is_isomorphic, is_normalized_by,
                      is_regular, normal_subgroups_by_filter,
                      power_free_candidates_by_powers,
                      regular_normalized_by_two_sided_closure,
                      regular_normalized_oracle)


def s3():
    return FiniteGroup.generated_by([Permutation([1, 2, 0]), Permutation([0, 2, 1])])


def cyclic(n):
    return FiniteGroup.generated_by([Permutation([(i + 1) % n for i in range(n)])])


def klein():
    return FiniteGroup.generated_by([Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])


# --- Permutation basics

def test_permutation_composition_convention():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert (p * q).images == tuple(p(q(i)) for i in range(3))


def test_permutation_inverse_and_order():
    p = Permutation([1, 2, 0])
    assert (p * p.inverse()).is_identity()
    assert p.order() == 3
    assert Permutation([1, 0, 3, 2]).order() == 2


def test_permutation_rejects_non_bijection():
    with pytest.raises(StructureError):
        Permutation([0, 0, 1])


def test_permutations_of_different_degrees_do_not_compose():
    with pytest.raises(StructureError, match="different degrees"):
        Permutation([1, 0]) * Permutation([0, 1, 2])
    with pytest.raises(StructureError, match="different degrees"):
        Permutation([0, 1, 2]) * Permutation([1, 0])


@pytest.mark.parametrize("images", [[1.0, 0], [True, False]])
def test_permutation_takes_int_images_only(images):
    with pytest.raises(StructureError, match="not a bijection"):
        Permutation(images)


def test_group_rejects_non_closed_sets():
    # the message names the first missing product, in element order
    with pytest.raises(StructureError, match=r"Permutation\(\[1, 2, 0\]\) \* "
                                             r"Permutation\(\[1, 2, 0\]\) is missing"):
        FiniteGroup([Permutation([0, 1, 2]), Permutation([1, 2, 0])])


def test_closure_by_generators_matches_the_closure_under_all_products():
    # one product per element and generator reaches the set that closing
    # under every pairwise product reaches.  `limit` counts what the
    # products add: None exactly when they take the closure past it, so
    # generators that are the whole group are never refused
    rng = random.Random(5)
    for degree in range(1, 7):
        perms = list(itertools.permutations(range(degree)))
        for _ in range(25):
            a, b = rng.choice(perms), rng.choice(perms)
            closure = closure_of_pair(a, b, degree)
            assert _close_tuples([a, b], degree) == closure
            whole = closure == {tuple(range(degree)), a, b}
            for limit in range(1, len(closure) + 1):
                expected = closure if whole or limit == len(closure) else None
                assert _close_tuples([a, b], degree, limit) == expected
    assert _close_tuples([(1, 0)], 2, 1) == {(0, 1), (1, 0)}
    with pytest.raises(StructureError, match="exceeds the limit of 5"):
        FiniteGroup.generated_by(s3().elements[1:3], limit=5)


# --- coset spaces

def test_coset_space_s3_mod_transposition():
    group = s3()
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    assert space.size == 3
    assert space.base_point == 0
    # representatives are minimal element indices and partition the group
    assert sorted(space.coset_of) == sorted(list(range(3)) * 2)


def test_coset_space_galois_case_is_the_group_itself():
    group = s3()
    space = build_coset_space(group, FiniteGroup.trivial(3))
    assert space.size == group.order()
    assert list(space.coset_of) == list(range(group.order()))


def test_coset_space_metacyclic_index():
    group, s, t = metacyclic_group(7, 3, 2)
    space = build_coset_space(group, FiniteGroup.generated_by([t]))
    assert space.size == 7


def test_coset_representatives_absorb_the_stabilizer(all_fixtures):
    # coset_of[rep * s] = c: applying any element of a coset agrees with
    # applying its representative on the fixed subfield
    for fx in all_fixtures:
        space = fx.coset_space()
        group = space.group
        for c, rep in enumerate(space.representatives):
            for s in space.stabilizer.elements:
                assert space.coset_of[group.mul(rep, group.index_of(s))] == c, \
                    (fx.name, c, s)


def test_coset_space_rejects_non_member_stabilizer():
    group = cyclic(4)
    foreign = FiniteGroup.generated_by([Permutation([1, 0, 2, 3])])
    with pytest.raises(StructureError, match="does not belong"):
        build_coset_space(group, foreign)


# --- translation embedding

def test_translations_are_the_regular_representation_in_galois_case():
    group = cyclic(4)
    space = build_coset_space(group, FiniteGroup.trivial(4))
    lam = space.translations
    image = FiniteGroup(lam)
    assert image.order() == 4
    orbit = {lam[i](space.base_point) for i in range(4)}
    assert orbit == {0, 1, 2, 3}
    assert sum(p.is_identity() for p in lam) == 1


def test_translation_image_abelian_case_equals_right_translations():
    group = cyclic(4)
    space = build_coset_space(group, FiniteGroup.trivial(4))
    rho = right_translation_subgroup(space)
    assert set(space.translations) == set(rho.elements)


def test_translations_reject_representatives_permuted_against_their_labels(
        metacyclic21):
    # rotating the representatives against the coset_of labels makes
    # lambda(e) a 7-cycle, so lambda(g e) = lambda(g) lambda(e) fails for
    # every generator g
    space = metacyclic21.coset_space()
    reps = space.representatives
    planted = dataclasses.replace(space, representatives=reps[1:] + reps[:1])
    with pytest.raises(StructureError,
                       match="^coset translation is not a homomorphism$"):
        planted.translations


def test_translation_image_for_cubic_shape_is_full_s3():
    group = s3()
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    assert FiniteGroup(space.translations).order() == 6  # faithful: all of Sym(3 points)


# --- regularity

def test_point_map_is_the_regularity_check():
    c3 = FiniteGroup.generated_by([Permutation([1, 2, 0])])
    assert c3.point_map(0) == {0: Permutation([0, 1, 2]),
                               1: Permutation([1, 2, 0]),
                               2: Permutation([2, 0, 1])}
    with pytest.raises(StructureError, match="not simply transitive"):
        s3().point_map(0)
    with pytest.raises(StructureError, match="not transitive"):
        FiniteGroup.trivial(2).point_map(0)


def test_regular_representation_is_regular():
    group = cyclic(4)
    space = build_coset_space(group, FiniteGroup.trivial(4))
    rho = right_translation_subgroup(space)
    assert is_regular(rho.elements, space)


def test_a3_is_regular_on_three_points():
    group = s3()
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    a3 = [Permutation([0, 1, 2]), Permutation([1, 2, 0]), Permutation([2, 0, 1])]
    assert is_regular(a3, space)


def test_point_stabilizer_is_not_regular():
    group = s3()
    space = build_coset_space(group, FiniteGroup.trivial(3))
    stab = [p for p in group.elements if p(0) == 0]
    # 2 elements on 6 points: closed, but neither transitive nor of full size
    assert not is_regular(stab, space)


def test_is_regular_rejects_non_closed_input():
    group = s3()
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    with pytest.raises(StructureError):
        is_regular([Permutation([0, 1, 2]), Permutation([1, 2, 0]),
                    Permutation([0, 2, 1])], space)


# --- normalization

def test_left_and_right_translations_are_normalized():
    group = s3()
    space = build_coset_space(group, FiniteGroup.trivial(3))
    rho = right_translation_subgroup(space)
    assert is_normalized_by(rho, space)
    assert is_normalized_by(FiniteGroup(space.translations), space)


def test_conjugated_cyclic_subgroup_is_not_normalized():
    group = cyclic(4)
    space = build_coset_space(group, FiniteGroup.trivial(4))
    # a regular 4-cycle subgroup conjugate to lambda(G) but not invariant
    other = FiniteGroup(
        [Permutation([0, 1, 2, 3]), Permutation([1, 3, 0, 2]),
         Permutation([3, 2, 1, 0]), Permutation([2, 0, 3, 1])])
    assert not is_normalized_by(other, space)
    # brute-force conjugation confirms the verdict
    violated = False
    for g in space.translations:
        for eta in other.elements:
            if g * eta * g.inverse() not in set(other.elements):
                violated = True
    assert violated


# --- enumeration against the exhaustive oracle

@pytest.mark.parametrize("group_maker,stab_maker", [
    (lambda: cyclic(2), lambda g: FiniteGroup.trivial(2)),
    (lambda: cyclic(3), lambda g: FiniteGroup.trivial(3)),
    (lambda: cyclic(4), lambda g: FiniteGroup.trivial(4)),
    (lambda: klein(), lambda g: FiniteGroup.trivial(4)),
    (lambda: s3(), lambda g: FiniteGroup.generated_by([Permutation([0, 2, 1])])),
])
def test_enumeration_matches_exhaustive_subgroup_scan(group_maker, stab_maker):
    group = group_maker()
    space = build_coset_space(group, stab_maker(group))
    found = enumerate_regular_normalized(space)
    oracle = regular_normalized_oracle(space)
    assert {frozenset(n.elements) for n in found} == \
        {frozenset(s) for s in oracle}
    for n in found:
        assert is_regular(n.elements, space)
        assert is_normalized_by(n, space)


def test_enumeration_counts_on_small_fixtures():
    group = cyclic(4)
    space = build_coset_space(group, FiniteGroup.trivial(4))
    assert len(enumerate_regular_normalized(space)) == 2

    group = klein()
    space = build_coset_space(group, FiniteGroup.trivial(4))
    assert len(enumerate_regular_normalized(space)) == 4


def test_enumeration_cubic_shape_gives_single_cyclic_structure():
    group = s3()
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    found = enumerate_regular_normalized(space)
    assert len(found) == 1
    assert {p.images for p in found[0].elements} == \
        {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_enumeration_contains_translations_for_abelian_galois():
    group = cyclic(4)
    space = build_coset_space(group, FiniteGroup.trivial(4))
    found = enumerate_regular_normalized(space)
    lam_set = frozenset(space.translations)
    assert lam_set in {frozenset(n.elements) for n in found}


def test_enumeration_bound_is_enforced():
    group, s, t = metacyclic_group(11, 5, 4)  # 4^5 = 1024 = 1 mod 11
    space = build_coset_space(group, FiniteGroup.generated_by([t]))
    with pytest.raises(CapabilityError, match="bound 8"):
        enumerate_regular_normalized(space)


def _image_sets(structures):
    return sorted(tuple(sorted(p.images for p in n.elements)) for n in structures)


def _reference_spaces(all_fixtures):
    """Every bundled coset space, the test-data ones, and seeded split
    metacyclic groups: regular when r q <= 8, else on the r cosets of <t>."""
    data = Path(__file__).parent / "data"
    spaces = [(fx.name, fx.coset_space()) for fx in all_fixtures]
    spaces += [(name, parse(data / name).coset_space())
               for name in ("zeta16.hgx", "c5quintic.hgx")]
    params = [(r, q, d) for r in range(1, 9) for q in range(1, 9)
              for d in range(r) if pow(d, q, r) == 1 % r]
    for r, q, d in random.Random(32).sample(params, 12):
        group, _, t = metacyclic_group(r, q, d)
        stabilizer = (FiniteGroup.trivial(r * q) if r * q <= 8
                      else FiniteGroup.generated_by([t]))
        spaces.append((f"metacyclic({r},{q},{d})",
                       build_coset_space(group, stabilizer)))
    return spaces


def test_enumeration_matches_the_two_sided_closure_reference(all_fixtures):
    # the exhaustive oracle stops at degree 4; the reference closes each
    # candidate with the whole partial group on both sides and checks every
    # element for fixed points, where the search closes λ(G)-orbits with
    # _close_tuples and checks only that the base point's images differ
    sizes = set()
    for label, space in _reference_spaces(all_fixtures):
        assert _image_sets(enumerate_regular_normalized(space)) == \
            regular_normalized_by_two_sided_closure(space), label
        sizes.add(space.size)
    assert sizes == set(range(2, 9))


def test_enumeration_and_normal_subgroups_close_with_close_tuples(
        monkeypatch, metacyclic21):
    # one subgroup closure: enumeration (degree |X| = 7), the conjugacy
    # classes of normal_subgroups (table rows, degree |G| = 21) and
    # metacyclic_group (degree 21) all call _close_tuples
    from hopfgalois import perm
    closures = []

    def recorded(gens, degree, limit=None):
        closure = _close_tuples(gens, degree, limit)
        closures.append((degree, closure))
        return closure
    monkeypatch.setattr(perm, "_close_tuples", recorded)
    assert not hasattr(FiniteGroup, "_generated")
    found = enumerate_regular_normalized(metacyclic21.coset_space())
    assert {degree for degree, _ in closures} == {7}
    # each structure is the closure of one call
    assert {frozenset(n.elements) for n in found} <= \
        {frozenset(map(Permutation, c)) for _, c in closures if c is not None}
    closures.clear()
    group = FiniteGroup(metacyclic21.group.elements)
    group.normal_subgroups()
    assert [degree for degree, _ in closures] == \
        [21] * len(conjugacy_classes(group))
    closures.clear()
    assert metacyclic_group(7, 3, 2)[0] == metacyclic21.group
    assert [degree for degree, _ in closures] == [21]


# --- opposites

def test_opposite_of_right_translations_is_left_translations():
    group = s3()
    space = build_coset_space(group, FiniteGroup.trivial(3))
    rho = right_translation_subgroup(space)
    assert set(opposite(rho, space).elements) == set(space.translations)


def test_opposite_fixes_abelian_subgroups():
    group = s3()
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    [n] = enumerate_regular_normalized(space)
    assert opposite(n, space) == n


def test_opposite_suite_properties_on_sextic_shape(s3sextic):
    space = s3sextic.coset_space()
    structs = s3sextic.structures()
    assert len(structs) == 5
    universe = {frozenset(n.elements) for n in structs}
    for n in structs:
        opp = opposite(n, space)
        # the explicit construction equals the brute-force centralizer
        assert set(opp.elements) == set(centralizer_bruteforce(n, space))
        # involution, order, center, closure
        assert opposite(opp, space) == n
        assert len(opp.elements) == len(n.elements)
        assert set(n.elements) & set(opp.elements) == \
            set(n.center().elements)
        assert frozenset(opp.elements) in universe
        # self-opposite exactly for abelian subgroups
        assert (opp == n) == n.is_abelian()


def test_opposite_isomorphism_witness(s3sextic):
    space = s3sextic.coset_space()
    base = space.base_point
    for n in s3sextic.structures():
        table = n.point_map(base)
        mapping = {}
        for eta in n.elements:
            inv = eta.inverse()
            mapping[eta] = Permutation(
                table[g](inv(base)) for g in range(n.degree))
        assert set(mapping.values()) == set(opposite(n, space).elements)
        for a in n.elements:
            for b in n.elements:
                assert mapping[a * b] == mapping[a] * mapping[b]


# --- centralizer brute force

def test_centralizer_of_right_translations_in_sym6():
    group = s3()
    space = build_coset_space(group, FiniteGroup.trivial(3))
    rho = right_translation_subgroup(space)
    cent = centralizer_bruteforce(rho, space)
    assert len(cent) == 6
    assert set(cent) == set(space.translations)


def test_centralizer_matches_the_whole_product_scan(all_fixtures):
    # the pointwise early exit finds what comparing whole products finds, on
    # every structure up to size 8 (d4 and q8 have 30 and 22)
    for fx in all_fixtures:
        space = fx.coset_space()
        for i, n in enumerate(fx.structures()):
            assert centralizer_bruteforce(n, space) == \
                centralizer_by_whole_products(n, space), (fx.name, i)


@pytest.mark.parametrize("gens", [
    [[0, 1, 2, 3, 4, 5]],                       # trivial: all of Sym(6)
    [[1, 0, 2, 3, 4, 5]],                       # a transposition
    [[1, 2, 0, 4, 3, 5]],                       # (0 1 2)(3 4), a fixed point
    [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5]],   # intransitive V4
    [[0, 1, 2, 4, 5, 3], [0, 1, 2, 3, 5, 4]],   # S3 on three points
    [[5, 4, 3, 2, 1, 0]],                       # pins point 5 from point 0
])
def test_centralizer_off_the_regular_case_matches_the_whole_product_scan(gens):
    # the search drops an assignment only where an equation of N fails, so
    # it finds every commuting permutation when N is not regular too
    n = FiniteGroup.generated_by([Permutation(g) for g in gens])
    space = build_coset_space(cyclic(6), FiniteGroup.trivial(6))
    assert centralizer_bruteforce(n, space) == \
        centralizer_by_whole_products(n, space)


def test_centralizer_small_cases():
    group = s3()
    stab = FiniteGroup.generated_by([Permutation([0, 2, 1])])
    space = build_coset_space(group, stab)
    [a3] = enumerate_regular_normalized(space)
    assert set(centralizer_bruteforce(a3, space)) == set(a3.elements)

    group2 = cyclic(2)
    space2 = build_coset_space(group2, FiniteGroup.trivial(2))
    [c2] = enumerate_regular_normalized(space2)
    assert len(centralizer_bruteforce(c2, space2)) == 2


# --- group queries

def test_multiplication_table_matches_the_products(all_fixtures):
    s5 = FiniteGroup.generated_by([Permutation([1, 2, 3, 4, 0]),
                                   Permutation([1, 0, 2, 3, 4])])
    assert s5.order() == 120
    groups = [s5] + [g for fx in all_fixtures for g in (fx.group, *fx.structures())]
    for group in groups:
        elems = group.elements
        for i, p in enumerate(elems):
            for j, q in enumerate(elems):
                assert group.mul(i, j) == group.index_of(p * q)
            assert group.mul(i, group.inv(i)) == group.identity_index


def test_group_queries_metacyclic21():
    group, s, t = metacyclic_group(7, 3, 2)
    assert group.center().order() == 1
    assert not group.is_abelian()
    nontrivial = [h for h in group.normal_subgroups()
                  if 1 < h.order() < group.order()]
    assert len(nontrivial) == 1
    assert nontrivial[0].order() == 7
    s_closure = FiniteGroup.generated_by([s])
    assert set(nontrivial[0].elements) == set(s_closure.elements)


def test_group_queries_cyclic_center_is_whole_group():
    group = cyclic(4)
    assert group.center().order() == 4
    assert group.is_abelian()


def test_group_queries_s3():
    group = s3()
    assert group.center().order() == 1
    assert not group.is_abelian()
    nontrivial = [h for h in group.normal_subgroups() if 1 < h.order() < 6]
    assert len(nontrivial) == 1 and nontrivial[0].order() == 3


def _normal_subgroup_cases(all_fixtures):
    s4 = FiniteGroup(Permutation(p) for p in itertools.permutations(range(4)))
    groups = [("S4", s4)]
    for r, q, d in ((7, 3, 2), (5, 4, 2), (4, 2, 3), (9, 2, 8)):
        groups.append((f"metacyclic({r},{q},{d})", metacyclic_group(r, q, d)[0]))
    for fx in all_fixtures:
        groups.append((fx.name, fx.group))
        groups += [(f"{fx.name} structure {i}", n)
                   for i, n in enumerate(fx.structures())]
    return groups


def test_normal_subgroups_match_the_subgroup_filter(all_fixtures):
    for label, group in _normal_subgroup_cases(all_fixtures):
        got = [h.elements for h in group.normal_subgroups()]
        assert got == [h.elements for h in normal_subgroups_by_filter(group)], label


def test_group_queries_bound(tmp_path, capsys):
    big = FiniteGroup.generated_by(
        [Permutation([1, 2, 3, 4, 0] + list(range(5, 18))),
         Permutation([0, 1, 2, 3, 4] + [(i - 4) % 13 + 5 for i in range(5, 18)])])
    assert big.order() == 65
    with pytest.raises(CapabilityError, match="^group of order 65 exceeds "
                                              "the query bound 60$"):
        big.normal_subgroups()
    # the cap reaches the command line through the normal-orders assertion:
    # D31, order 62
    path = tmp_path / "d31.hgx"
    path.write_text(json.dumps({
        "name": "d31",
        "group": {"order": 62, "presentation": {
            "kind": "metacyclic", "r": 31, "q": 2, "d": 30,
            "generators": ["s", "t"]}},
        "subgroup": {"generators": []},
        "assertions": {"nontrivial_proper_normal_orders": {"value": [31]}}}),
        encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group of order 62 exceeds the query bound 60\n"


def test_isomorphism_search():
    assert is_isomorphic(s3(), FiniteGroup.generated_by(
        [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2]),
         Permutation([2, 3, 1, 0])])) is False
    regular_s3, s, t = metacyclic_group(3, 2, 2)
    assert is_isomorphic(s3(), regular_s3)
    assert not is_isomorphic(cyclic(6), regular_s3)
    assert is_isomorphic(cyclic(4),
                         FiniteGroup.generated_by([Permutation([1, 2, 3, 0])]))


# --- presentations

def test_metacyclic_presentation_relations_and_order():
    group, s, t = metacyclic_group(7, 3, 2)
    assert group.order() == 21
    assert s.order() == 7 and t.order() == 3
    sd = s * s
    assert t * s == sd * t


def test_metacyclic_rejects_inconsistent_parameters():
    with pytest.raises(StructureError, match="not 1 modulo"):
        metacyclic_group(7, 3, 3)  # 3^3 = 27 = 6 mod 7
    # the message names d as given, not reduced modulo r
    with pytest.raises(StructureError, match=r"10\^3 is not 1 modulo 7"):
        metacyclic_group(7, 3, 10)


def test_metacyclic_exponent_is_taken_modulo_r():
    # (-3)^3 = -27 = 1 mod 7: d = -3 presents the group d = 4 does
    assert metacyclic_group(7, 3, -3) == metacyclic_group(7, 3, 4)


@pytest.mark.parametrize("params", [(7.0, 3, 2), (7, True, 2), (7, 3, "2")])
def test_metacyclic_takes_int_parameters_only(params):
    with pytest.raises(StructureError, match="integer r, q, d"):
        metacyclic_group(*params)


def test_candidates_over_match_the_power_walk():
    for size in range(1, 9):
        walk = power_free_candidates_by_powers(size)
        for base, target in itertools.permutations(range(size), 2):
            assert _candidates_over(size, base, target) == \
                [c for c in walk if c[base] == target], (size, base, target)


def test_enumeration_builds_the_candidates_of_the_targets_it_reaches(
        monkeypatch, metacyclic21, d4):
    # metacyclic21's structures are generated over the base point's first
    # target, d4's over two of its seven
    from hopfgalois import perm
    built = []

    def recorded(size, base, target):
        built.append(target)
        return _candidates_over(size, base, target)
    monkeypatch.setattr(perm, "_candidates_over", recorded)
    for fx, targets in ((metacyclic21, [1]), (d4, [1, 2])):
        structures = fx.structures()
        built.clear()
        assert enumerate_regular_normalized(fx.coset_space()) == structures
        assert built == targets, fx.name
