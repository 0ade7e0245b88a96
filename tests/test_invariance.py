"""Metamorphic properties: exact invariances of f and of the verification
verdicts under mirror, reversal, component rotation, component order and
the generalized Reidemeister moves, and of the canonical form under the
presentation choices it quotients out.

Each property compares two computations on related diagrams, so it
checks the state sum and the colorability test without an oracle.  The
role-swap properties are the proof obligation of the per-signed-word f
memo: f depends only on the signed word, whatever passage of a crossing
is over.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vknots.ald import build_ald, is_alternating, make_alternating
from vknots.bracket import _open_histograms, bracket, f_polynomial
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
from vknots.verify import EnumSpec, enumerate_diagrams, verify_diagram

from conftest import VIRTUAL_TREFOIL_MIRROR, memo_free_verdict_parts, swap_roles

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


def _changed(d, crossings):
    for cid in crossings:
        d = crossing_change(d, cid)
    return d


def _mirror(d):
    return _changed(d, range(1, d.crossing_count + 1))


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


@PROPERTY
@given(diagrams, st.data())
def test_role_swaps_keep_open_histograms(d, data):
    # the A splice joins the same band pairs whichever strand is over, so
    # every open-crossing histogram, and with them f, depends on the
    # signed word alone
    swapped = data.draw(st.sets(st.integers(min_value=1, max_value=max(d.crossing_count, 1))))
    variant = swap_roles(d, swapped)
    g, h = build_ald(d), build_ald(variant)
    for x in range(d.crossing_count):
        assert _open_histograms(h, x) == _open_histograms(g, x)
    assert bracket(variant) == bracket(d)


@PROPERTY
@given(diagrams, st.data())
def test_role_swaps_keep_alternatability(d, data):
    # make_alternating reads crossing ids and roles only, and a role swap
    # at the crossings of T is a crossing change there from its point of
    # view: S works for d exactly when S ^ T works for the variant.  So
    # whether any S works depends on the word alone; signs it does not
    # read at all, so verify_diagram keeps the verdict per unsigned word
    swapped = data.draw(st.sets(st.integers(min_value=1, max_value=max(d.crossing_count, 1))))
    variant = swap_roles(d, swapped)
    assert (make_alternating(variant) is None) == (make_alternating(d) is None)
    changes = make_alternating(d)
    if changes is not None:
        assert is_alternating(_changed(variant, changes ^ (swapped & set(range(1, d.crossing_count + 1)))))


def test_records_match_memo_free_f():
    # the acceptance ranges in enumeration order, where the memo serves
    # all role variants of a signed word from its first state sum, with
    # the congruence class, f(1) verdict and index spectrum of that sum,
    # the unsigned word's alternatability verdict and the flat class's
    # colorability verdict; the equivalence verdict of the oracle traces
    # every diagram's own colouring
    ranges = [
        enumerate_diagrams(EnumSpec(4, max_components=1)),
        (d for d in enumerate_diagrams(EnumSpec(3, max_components=2)) if d.component_count == 2),
    ]
    for stream in ranges:
        for d in stream:
            record = verify_diagram(d)
            parts = (record.f, record.congruence, record.unit_eval_ok, record.index_spectrum, record.alternating_equiv_ok)
            assert parts == memo_free_verdict_parts(d), serialize(d)
            assert record.index_ok == (not record.colorable or len(record.index_spectrum) == 1)
