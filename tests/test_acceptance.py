"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check here is exact (tolerance zero); the only non-exact quantities are
the runtime budgets, which are asserted against the criteria's stated limits.
"""

import json
import random
import time

import pytest

from hopfgalois.cli import main
from hopfgalois.descent import (is_generator, is_separable,
                                trace_form_nondegenerate, verify_commuting,
                                verify_hopf_galois)
from hopfgalois.integral import associated_order, freeness_certificate, is_free_witness
from hopfgalois.perm import (centralizer_bruteforce, enumerate_regular_normalized,
                             metacyclic_group, opposite,
                             right_translation_subgroup)
from hopfgalois.transition import (det_symbolic, signed_canonical_det,
                                   transition_matrix_of)

from .oracles import (det, evaluate, is_isomorphic, regular_normalized_oracle,
                      transition_matrix_values, unit_forms)


def _report(number, ok, text, budget, elapsed):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {text} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {text}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def _opposite_index(fx, i):
    structs = fx.structures()
    opp = opposite(structs[i], fx.coset_space())
    return next(j for j, n in enumerate(structs) if n == opp)


def test_criterion_1_opposite_construction_suite(field_fixtures):
    start = time.monotonic()
    ok = True
    for fx in field_fixtures:
        space = fx.coset_space()
        if space.size > 6:
            continue
        for n in fx.structures():
            opp = opposite(n, space)
            ok &= set(opp.elements) == set(centralizer_bruteforce(n, space))
            ok &= opposite(opp, space) == n
            ok &= len(opp.elements) == len(n.elements)
            ok &= set(n.elements) & set(opp.elements) == \
                set(n.center().elements)
            ok &= is_isomorphic(opp, n)
            ok &= (opp == n) == n.is_abelian()
    _report(1, ok, "opposite = centralizer, involution, order, center, "
            "isomorphism, abelian characterization", 60, time.monotonic() - start)


def test_criterion_2_enumeration_oracle(qi, qzeta3, c4quartic, v4biquad):
    start = time.monotonic()
    ok = True
    for fx in (qi, qzeta3, c4quartic, v4biquad):
        space = fx.coset_space()
        assert space.size <= 4
        found = {frozenset(n.elements) for n in fx.structures()}
        oracle = {frozenset(s) for s in regular_normalized_oracle(space)}
        ok &= found == oracle
    _report(2, ok, "search enumeration equals the exhaustive subgroup scan",
            30, time.monotonic() - start)


def test_criterion_3_determinant_identity(field_fixtures):
    start = time.monotonic()
    ok = True
    rng = random.Random(0)
    for fx in field_fixtures:
        space = fx.coset_space()
        if space.size > 6:
            continue
        structs = fx.structures()
        for n in structs:
            ok &= (signed_canonical_det(n, space)[0]
                   == signed_canonical_det(opposite(n, space), space)[0])
        ctx = fx.context
        sub = fx.subfield()
        for k in range(20):
            x = sub.random_element(rng)
            n = structs[k % len(structs)]
            poly = det_symbolic(transition_matrix_of(n, unit_forms(space.size)))
            values = [ctx.apply(space.representatives[c], x)
                      for c in range(space.size)]
            numeric = det(transition_matrix_values(ctx, space, n, x))
            ok &= evaluate(poly, values, ctx.field.one()) == numeric
    _report(3, ok, "canonical transition determinants agree with the opposite "
            "and specialize to the numeric determinant", 120,
            time.monotonic() - start)


def test_criterion_4_commuting_characterization(field_fixtures):
    start = time.monotonic()
    ok = True
    for fx in field_fixtures:
        count = len(fx.structures())
        for i in range(count):
            expected_j = _opposite_index(fx, i)
            for j in range(count):
                commute = verify_commuting(fx.algebra(i), fx.algebra(j))
                ok &= commute == (j == expected_j)
    _report(4, ok, "actions commute exactly for opposite pairs, in both "
            "directions", 120, time.monotonic() - start)


def test_criterion_5_generator_transfer(field_fixtures):
    start = time.monotonic()
    ok = True
    for fx in field_fixtures:
        rng = random.Random(0)
        sub = fx.subfield()
        count = len(fx.structures())
        pairing = {i: _opposite_index(fx, i) for i in range(count)}
        for _ in range(200):
            x = sub.random_element(rng)
            verdicts = {i: is_generator(fx.algebra(i), x) for i in range(count)}
            ok &= all(verdicts[i] == verdicts[j] for i, j in pairing.items())
    _report(5, ok, "normal-basis generation transfers across each commuting "
            "pair on 200 seeded samples per fixture (rank and determinant "
            "routes agree inside every test)", 120, time.monotonic() - start)


def test_criterion_6_hopf_galois_and_separability(field_fixtures):
    start = time.monotonic()
    ok = True
    for fx in field_fixtures:
        for i in range(len(fx.structures())):
            algebra = fx.algebra(i)
            ok &= verify_hopf_galois(algebra)
            ok &= is_separable(algebra)
    # the planted nilpotent control must fail the same test
    one = [[1, 0], [0, 1]]
    eps = [[0, 0], [1, 0]]
    ok &= not trace_form_nondegenerate([one, eps])
    _report(6, ok, "every descended structure is Hopf-Galois and separable; "
            "the nilpotent control is not", 60, time.monotonic() - start)


def test_criterion_7_freeness_certificate(s3sextic):
    start = time.monotonic()
    space = s3sextic.coset_space()
    rho = right_translation_subgroup(space)
    index = next(i for i, n in enumerate(s3sextic.structures()) if n == rho)
    partner = _opposite_index(s3sextic, index)
    ideal = s3sextic.ideal("OE")
    cert = freeness_certificate(
        s3sextic.algebra(index), s3sextic.algebra(partner), ideal, 3)
    both_free = cert.verdict_main.free and cert.verdict_partner.free
    if both_free:
        order_partner = associated_order(s3sextic.algebra(partner), ideal)
        transferred = is_free_witness(
            order_partner, list(cert.verdict_main.witness_ideal_coords))
        ok = (transferred and cert.witness_transfers
              and cert.transferred_lattice_matches
              and cert.commuting_transport_holds)
        text = ("both searches FREE at bound 3, the witness transfers, and the "
                "transferred elements span the partner's order exactly")
    else:
        # degraded form: no FREE/UNKNOWN asymmetry is tolerated
        ok = cert.verdict_main.free == cert.verdict_partner.free and cert.consistent
        text = "bounded searches agree (no witness found within the bound)"
    _report(7, ok, text, 600, time.monotonic() - start)


def test_criterion_8_metacyclic_group_facts(metacyclic21):
    start = time.monotonic()
    group = metacyclic21.group
    ok = group.center().order() == 1
    nontrivial = [h for h in group.normal_subgroups()
                  if 1 < h.order() < group.order()]
    ok &= len(nontrivial) == 1 and nontrivial[0].order() == 7
    _, s, t = metacyclic_group(7, 3, 2)
    from hopfgalois.perm import FiniteGroup
    s_closure = FiniteGroup.generated_by([s])
    ok &= set(nontrivial[0].elements) == set(s_closure.elements)
    _report(8, ok, "order-21 metacyclic group: trivial center and a unique "
            "nontrivial proper normal subgroup, of order 7, generated by the "
            "long generator", 5, time.monotonic() - start)


def test_criterion_9_deterministic_reports(capsys):
    start = time.monotonic()
    code1 = main(["suite", "qzeta3", "--json", "--seed", "3"])
    out1 = capsys.readouterr().out
    code2 = main(["suite", "qzeta3", "--json", "--seed", "3"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 and out1 == out2 and bool(json.loads(out1)["checks"])
    _report(9, ok, "identical suite runs produce byte-identical reports",
            60, time.monotonic() - start)
