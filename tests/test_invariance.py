"""Metamorphic properties: exact invariances of f and of the verification
verdicts under mirror, reversal, component rotation and component order.

Each property compares two computations on related diagrams, so it
checks the state sum and the colorability test without an oracle.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from vknots.bracket import f_polynomial
from vknots.diagram import crossing_change, make_diagram, random_diagram, reverse_all
from vknots.laurent import LaurentPoly
from vknots.verify import verify_diagram

PROPERTY = settings(max_examples=100, deadline=None)

diagrams = st.builds(
    lambda seed, c, n: random_diagram(random.Random(seed), c, n),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=3),
)


def _verdicts(d):
    record = verify_diagram(d)
    return record.colorable, record.alternating_equiv_ok, record.ok


def _mirror(d):
    for cid in range(1, d.crossing_count + 1):
        d = crossing_change(d, cid)
    return d


def _invert(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({-e: c for e, c in p.terms()})


@PROPERTY
@given(diagrams)
def test_mirror_inverts_f(d):
    m = _mirror(d)
    assert f_polynomial(m) == _invert(f_polynomial(d))
    assert _verdicts(m) == _verdicts(d)


@PROPERTY
@given(diagrams)
def test_reverse_all_keeps_f(d):
    r = reverse_all(d)
    assert f_polynomial(r) == f_polynomial(d)
    assert _verdicts(r) == _verdicts(d)


@PROPERTY
@given(diagrams, st.data())
def test_component_rotation_keeps_f(d, data):
    i = data.draw(st.integers(min_value=0, max_value=d.component_count - 1))
    comp = d.components[i]
    k = data.draw(st.integers(min_value=0, max_value=max(len(comp) - 1, 0)))
    comps = list(d.components)
    comps[i] = comp[k:] + comp[:k]
    rotated = make_diagram(comps)
    assert f_polynomial(rotated) == f_polynomial(d)
    assert _verdicts(rotated) == _verdicts(d)


@PROPERTY
@given(diagrams, st.data())
def test_component_order_keeps_f(d, data):
    order = data.draw(st.permutations(range(d.component_count)))
    reordered = make_diagram([d.components[i] for i in order])
    assert f_polynomial(reordered) == f_polynomial(d)
    assert _verdicts(reordered) == _verdicts(d)
