"""Property tests on small metacyclic groups acting regularly on themselves:
the opposite of every Hopf-Galois structure is an involution and equals the
brute-force centralizer, and the normal subgroups come out as the subgroup
filter finds them."""

import pytest

from hopfgalois.perm import (FiniteGroup, build_coset_space,
                             centralizer_bruteforce, enumerate_regular_normalized,
                             metacyclic_group, opposite)

from .oracles import normal_subgroups_by_filter

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def presentations(draw):
    """(r, q, d) with r q <= 8 and d^q = 1 (mod r): a split metacyclic group
    of order r q, so its regular coset space fits the enumeration bound."""
    r = draw(st.integers(1, 8))
    q = draw(st.integers(1, 8 // r))
    d = draw(st.integers(0, r - 1).filter(lambda d: pow(d, q, r) == 1 % r))
    return r, q, d


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(presentations())
def test_opposites_and_normal_subgroups_on_metacyclic_groups(params):
    group, _, _ = metacyclic_group(*params)
    space = build_coset_space(group, FiniteGroup.trivial(group.order()))
    for n in enumerate_regular_normalized(space):
        opp = opposite(n, space)
        assert opposite(opp, space) == n
        assert opp.elements == centralizer_bruteforce(n, space)
        assert [h.elements for h in n.normal_subgroups()] == \
            [h.elements for h in normal_subgroups_by_filter(n)]
