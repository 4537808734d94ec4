"""Property test of the packed box scan: integral._unit_points finds exactly
the unit points of the half box that evaluating the form at every point
finds, on random forms whose slots may be wider than a machine word."""

import itertools

import pytest

from hopfgalois import integral
from hopfgalois.transition import IntPolynomial

from .oracles import half_box_hits

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the oracle evaluates every point of the box: keep it to a few thousand
_ORACLE_POINTS = 5000


@st.composite
def forms_and_bounds(draw):
    """(form, bound): a form of degree 1-6 in 1-5 variables, its
    coefficients anywhere from +-3 to +-2^70, whose last few variables may
    be absent, and a bound 1-9 whose box the oracle can walk; bounds from 8
    on pack one trailing variable, those below two."""
    nvars = draw(st.integers(1, 5))
    degree = draw(st.integers(1, 6))
    used = nvars - draw(st.integers(0, nvars - 1))
    monomials = [tuple(e.count(k) for k in range(nvars)) for e in
                 itertools.combinations_with_replacement(range(used), degree)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1,
                           max_size=6, unique=True))
    coeffs = draw(st.lists(st.one_of(st.integers(-3, 3),
                                     st.integers(-2 ** 70, 2 ** 70)).filter(bool),
                           min_size=len(chosen), max_size=len(chosen)))
    top = max(b for b in range(1, 10) if (2 * b + 1) ** nvars <= _ORACLE_POINTS)
    bound = top - draw(st.integers(0, top - 1))
    return IntPolynomial(nvars, dict(zip(chosen, coeffs))), bound


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(forms_and_bounds())
def test_unit_points_match_the_half_box_oracle(case):
    poly, bound = case
    assert list(integral._unit_points(poly, bound)) == half_box_hits(poly, bound)
