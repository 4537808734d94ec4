"""Property test of the batched mod-p form values: on random forms of one
degree and random integer points, transition.form_residues gives, column by
column, the values of transition.form_evaluator reduced mod p."""

import pytest

from hopfgalois.transition import (IntPolynomial, _monomials, form_evaluator,
                                   form_residues)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def cases(draw):
    """(forms, points, p): 0-4 forms of one degree 0-5 in 1-5 variables,
    each with any subset of the monomials (none: a zero form), coefficients
    up to 2^70; 1-8 points whose coordinates are often multiples of p."""
    p = draw(st.sampled_from((2, 3, 10007, 10009, 1000003)))
    nvars, degree = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    monomials = _monomials(nvars, degree)
    forms = draw(st.lists(st.builds(
        lambda exps, coeffs: IntPolynomial(nvars, dict(zip(exps, coeffs))),
        st.lists(st.sampled_from(monomials), unique=True),
        st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=len(monomials),
                 max_size=len(monomials))), max_size=4))
    coordinate = st.one_of(st.integers(-2 ** 40, 2 ** 40),
                           st.integers(-9, 9).map(lambda k: k * p))
    points = draw(st.lists(st.lists(coordinate, min_size=nvars,
                                    max_size=nvars), min_size=1, max_size=8))
    return forms, points, p


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(cases())
def test_form_residues_are_the_values_mod_p(case):
    forms, points, p = case
    evaluate = form_evaluator(forms)
    expected = [[v % p for v in column]
                for column in zip(*map(evaluate, points))]
    columns = [list(column) for column in zip(*points)]
    assert form_residues(forms, columns, p) == (expected if forms else [])
