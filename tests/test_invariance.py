"""Metamorphic properties: exact invariances of f and of the verification
verdicts under mirror, reversal, component rotation, component order and
the generalized Reidemeister moves, and of the canonical form under the
presentation choices it quotients out.

Each property compares two computations on related diagrams, so it
checks the state sum and the colorability test without an oracle.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vknots.bracket import f_polynomial
from vknots.diagram import (
    MoveKind,
    applicable_kinds,
    apply_move,
    canonical_form,
    crossing_change,
    make_diagram,
    parse_gauss,
    random_diagram,
    reverse_all,
    serialize,
)
from vknots.laurent import LaurentPoly
from vknots.verify import verify_diagram

from conftest import VIRTUAL_TREFOIL_MIRROR

PROPERTY = settings(max_examples=100, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _diagrams(max_crossings):
    return st.builds(
        lambda seed, c, n: random_diagram(random.Random(seed), c, n),
        seeds,
        st.integers(min_value=0, max_value=max_crossings),
        st.integers(min_value=1, max_value=3),
    )


diagrams = _diagrams(7)


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
@example(parse_gauss(VIRTUAL_TREFOIL_MIRROR))
def test_reverse_all_keeps_f(d):
    r = reverse_all(d)
    # ids stay numbered by first appearance, so reversal is an involution
    assert parse_gauss(serialize(r)) == r
    assert reverse_all(r) == d
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


@PROPERTY
@given(diagrams, st.data())
def test_canonical_form_ignores_presentation(d, data):
    i = data.draw(st.integers(min_value=0, max_value=d.component_count - 1))
    comp = d.components[i]
    k = data.draw(st.integers(min_value=0, max_value=max(len(comp) - 1, 0)))
    comps = list(d.components)
    comps[i] = comp[k:] + comp[:k]
    order = data.draw(st.permutations(range(d.component_count)))
    rotated = make_diagram(comps)
    reordered = make_diagram([d.components[j] for j in order])
    key = canonical_form(d)
    assert canonical_form(rotated) == key
    assert canonical_form(reordered) == key
    assert canonical_form(parse_gauss(serialize(rotated))) == key


@PROPERTY
@given(_diagrams(6), seeds)
def test_moves_keep_f(d, seed):
    f = f_polynomial(d)
    for kind in applicable_kinds(d):
        moved = apply_move(d, MoveKind(kind), seed)
        assert f_polynomial(moved) == f, kind
        assert verify_diagram(moved).ok, kind
