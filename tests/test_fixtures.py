import json
import time

import pytest

from hopfgalois.errors import (CapabilityError, FixtureValidationError,
                               HopfGaloisError)
from hopfgalois.fixtures import BUNDLED, bundled_path, load_bundled, parse_text
from hopfgalois.perm import GROUP_ORDER_BOUND, FiniteGroup, Permutation

from .oracles import is_isomorphic


def test_every_bundled_fixture_validates(all_fixtures):
    names = {fx.name for fx in all_fixtures}
    assert names == set(BUNDLED)


def test_qi_shape(qi):
    assert qi.group.order() == 2
    assert qi.coset_space().size == 2
    assert qi.has_field


def test_s3sextic_group_is_symmetric_of_degree_three(s3sextic):
    assert s3sextic.group.order() == 6
    reference = FiniteGroup.generated_by(
        [Permutation([1, 2, 0]), Permutation([0, 2, 1])])
    assert is_isomorphic(s3sextic.group, reference)


def test_metacyclic_is_group_only(metacyclic21):
    assert not metacyclic21.has_field
    assert metacyclic21.group.order() == 21
    assert metacyclic21.coset_space().size == 7
    with pytest.raises(HopfGaloisError, match="has no field block"):
        metacyclic21.subfield()


def _base_descriptor():
    return {
        "name": "tiny",
        "group": {"order": 2, "generators": {"s": [1, 0]}},
        "subgroup": {"generators": []},
        "field": {"min_poly": [1, 0, 1], "automorphisms": {"s": ["0", "-1"]}},
        "integral_basis": [["1", "0"], ["0", "1"]],
        "ideals": {"OL": [["1", "0"], ["0", "1"]]},
    }


def test_inline_descriptor_parses():
    fx = parse_text(json.dumps(_base_descriptor()))
    assert fx.name == "tiny"
    assert fx.group.order() == 2


def test_syntax_error_reports_position():
    with pytest.raises(FixtureValidationError) as exc:
        parse_text("{ not json")
    assert "line 1" in exc.value.problems[0]


def test_non_closed_integral_basis_names_the_product():
    doc = _base_descriptor()
    doc["integral_basis"] = [["1", "0"], ["0", "1/2"]]
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert any("multiplicatively closed" in p for p in exc.value.problems)


def test_integral_basis_problems_keep_their_order():
    # c4quartic with integral-basis element 0 doubled to 2: 1 leaves the
    # span and validation goes on; the products are then checked pair by
    # pair, (i, j) in order, and the first one that leaves the span is named
    doc = json.loads(bundled_path("c4quartic").read_text(encoding="utf-8"))
    doc["integral_basis"][0] = ["2", "0", "0", "0"]
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert exc.value.problems == [
        "integral_basis: 1 is not an integer combination of the basis",
        "integral_basis: not multiplicatively closed; the product of "
        "elements 1 and 3 leaves the span"]


def test_non_subgroup_stabilizer_is_named():
    doc = _base_descriptor()
    doc["subgroup"] = {"generators": [[0, 1, 2]]}
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert any("not" in p for p in exc.value.problems)


def test_bad_automorphism_is_named():
    doc = _base_descriptor()
    doc["field"]["automorphisms"]["s"] = ["0", "-2"]
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert any("not a root" in p for p in exc.value.problems)


def test_reducible_polynomial_is_rejected():
    doc = _base_descriptor()
    doc["field"]["min_poly"] = [-1, 0, 1]
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert any("reducible" in p for p in exc.value.problems)


def test_multiple_failures_are_all_reported():
    doc = _base_descriptor()
    doc["integral_basis"] = [["1", "0"], ["0", "1/2"]]
    doc["assertions"] = {"bogus_key": {"value": 1}}
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert len(exc.value.problems) >= 2


def test_wrong_group_order_is_rejected():
    doc = _base_descriptor()
    doc["group"]["order"] = 3
    with pytest.raises(FixtureValidationError):
        parse_text(json.dumps(doc))


def test_presentation_with_wrong_order_is_rejected():
    doc = {
        "name": "bad",
        "group": {"order": 20,
                  "presentation": {"kind": "metacyclic", "r": 7, "q": 3,
                                   "d": 2, "generators": ["s", "t"]}},
        "subgroup": {"generators": []},
    }
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert any("order 21" in p for p in exc.value.problems)


def test_inconsistent_presentation_is_rejected():
    doc = {
        "name": "bad",
        "group": {"order": 21,
                  "presentation": {"kind": "metacyclic", "r": 7, "q": 3,
                                   "d": 3, "generators": ["s", "t"]}},
        "subgroup": {"generators": []},
    }
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert any("modulo" in p for p in exc.value.problems)


def _cyclic(order, form, declared=None):
    if form == "presentation":
        group = {"presentation": {"kind": "metacyclic", "r": order, "q": 1,
                                  "d": 1}}
    else:
        group = {"generators": {"s": list(range(1, order)) + [0]}}
    group["order"] = order if declared is None else declared
    return {"name": "cyclic", "group": group}


@pytest.mark.parametrize("form", ["presentation", "generators"])
def test_group_order_bound_admits_its_own_order(form):
    assert parse_text(json.dumps(_cyclic(GROUP_ORDER_BOUND, form))) \
        .group.order() == GROUP_ORDER_BOUND


@pytest.mark.parametrize("form, declared", [
    ("presentation", None), ("generators", None),
    # the declared order is in range, but q * r is not, nor the degree
    ("presentation", 20), ("generators", 20)])
def test_oversize_group_is_refused_before_it_is_built(form, declared):
    # building a group of order 400 takes seconds: its closure check alone
    # is 400^2 products
    doc = _cyclic(400, form, declared)
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match="group order bound"):
        parse_text(json.dumps(doc))
    assert time.perf_counter() - start < 0.5


def test_nontrivial_core_with_field_is_rejected():
    doc = {
        "name": "bad",
        "group": {"order": 2, "generators": {"s": [1, 0]}},
        "subgroup": {"generators": ["s"]},
        "field": {"min_poly": [1, 0, 1], "automorphisms": {"s": ["0", "-1"]}},
        "integral_basis": [["1", "0"]],
        "ideals": {},
    }
    with pytest.raises(FixtureValidationError) as exc:
        parse_text(json.dumps(doc))
    assert any("core" in p for p in exc.value.problems)


def test_word_subgroup_generators(metacyclic21):
    assert metacyclic21.stabilizer.order() == 3
    doc = {
        "name": "words",
        "group": {"order": 21,
                  "presentation": {"kind": "metacyclic", "r": 7, "q": 3,
                                   "d": 2, "generators": ["s", "t"]}},
        "subgroup": {"generators": ["s^2*t*s^-2"]},
    }
    fx = parse_text(json.dumps(doc))
    assert fx.stabilizer.order() == 3


def test_huge_word_exponent_is_reduced_modulo_the_element_order():
    # s has order 7 and 100000000000 = 7 * 14285714285 + 5: the word is s^5,
    # where multiplying out the power would not finish
    def stabilizer(word):
        doc = {
            "name": "words",
            "group": {"order": 21,
                      "presentation": {"kind": "metacyclic", "r": 7, "q": 3,
                                       "d": 2, "generators": ["s", "t"]}},
            "subgroup": {"generators": [word]},
        }
        return parse_text(json.dumps(doc)).stabilizer
    start = time.perf_counter()
    huge = stabilizer("s^100000000000*t*s^-100000000000")
    assert time.perf_counter() - start < 1
    reduced = stabilizer("s^5*t*s^2")
    assert set(huge.elements) == set(reduced.elements)
    assert huge.order() == 3


def test_unknown_ideal_name_raises(qi):
    from hopfgalois.errors import HopfGaloisError
    with pytest.raises(HopfGaloisError, match="no ideal named"):
        qi.ideal("missing")


def test_one_fixed_subfield_per_load(monkeypatch):
    """parse_text validates against the fixed subfield and hands that same
    subfield to the fixture."""
    from hopfgalois import fixtures
    fixed_subfield = fixtures.fixed_subfield
    built = []

    def counting(context, stabilizer):
        built.append(stabilizer)
        return fixed_subfield(context, stabilizer)
    monkeypatch.setattr(fixtures, "fixed_subfield", counting)
    for name in ("qi", "qzeta3", "c4quartic", "v4biquad", "qcbrt2", "s3sextic"):
        built.clear()
        fx = load_bundled(name)
        assert fx.subfield() is fx.subfield()
        for ideal in fx.ideals:
            fx.ideal(ideal)
        assert len(built) == 1, name
