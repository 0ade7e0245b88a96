import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots.diagram import (
    BadDegree,
    DanglingCrossing,
    DiagramError,
    MalformedToken,
    OpenStrand,
    Passage,
    SignMismatch,
    UnknownCrossing,
    canonical_form,
    crossing_change,
    parse_gauss,
    parse_pd,
    random_diagram,
    serialize,
    splice_context,
    splice_disoriented,
    splice_oriented,
    writhe,
)

from conftest import HOPF, KINK_PLUS, TREFOIL_MIRROR, VIRTUAL_TREFOIL_MIRROR


# ---------------------------------------------------------------------------
# parsing

def test_parse_trefoil(trefoil_mirror):
    assert trefoil_mirror.crossing_count == 3
    assert trefoil_mirror.component_count == 1


def test_parse_virtual_trefoil(virtual_trefoil_mirror):
    assert virtual_trefoil_mirror.crossing_count == 2
    assert virtual_trefoil_mirror.component_count == 1


def test_parse_normalizes_ids():
    d = parse_gauss("O7+U9+O5+U7+O9+U5+")
    assert d == parse_gauss(TREFOIL_MIRROR)


def test_parse_errors():
    with pytest.raises(SignMismatch):
        parse_gauss("O1+U2+O1-U2+")
    with pytest.raises(DanglingCrossing):
        parse_gauss("O1+U1+O2+")
    with pytest.raises(DanglingCrossing):
        parse_gauss("O1+O1+")
    with pytest.raises(MalformedToken):
        parse_gauss("O1+Q2+")
    with pytest.raises(MalformedToken):
        parse_gauss("O1+U1")


def test_parse_free_loops_and_comments():
    d = parse_gauss("# a diagram\nO1+U1+\n()")
    assert d.component_count == 2
    assert d.crossing_count == 1
    assert parse_gauss("()").crossing_count == 0
    assert parse_gauss("").component_count == 0


def test_serialize_round_trip(trefoil, unknot, hopf):
    for d in (trefoil, unknot, hopf):
        assert parse_gauss(serialize(d)) == d
    assert serialize(parse_gauss("()")) == "()"
    assert serialize(parse_gauss("")) == ""


def test_serialize_round_trip_random():
    rng = random.Random(7)
    for _ in range(1000):
        d = random_diagram(rng, rng.randrange(0, 7), components=rng.randrange(1, 4))
        assert parse_gauss(serialize(d)) == d


def test_parser_fuzz_never_malformed():
    rng = random.Random(99)
    alphabet = "OU123+-()# \n"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        try:
            d = parse_gauss(text)
        except (MalformedToken, DanglingCrossing, SignMismatch):
            continue
        # accepted: invariants must hold
        seen = {}
        for comp in d.components:
            for p in comp:
                seen.setdefault(p.crossing, []).append(p)
        for k, ps in seen.items():
            assert len(ps) == 2
            assert ps[0].over != ps[1].over
            assert ps[0].sign == ps[1].sign


# parser properties: bounded examples, so tier-1 keeps its time margin
PARSER_PROPERTY = settings(max_examples=300, deadline=None)

diagrams = st.builds(
    lambda seed, c, n: random_diagram(random.Random(seed), c, n),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=3),
)


def _edit(text: str, edits: list) -> str:
    """Apply (position, replacement, deleted length) edits to text."""
    for pos, insert, drop in edits:
        pos %= len(text) + 1
        text = text[:pos] + insert + text[pos + drop:]
    return text


_EDITS = st.lists(
    st.tuples(st.integers(0, 200), st.text("OUXV[],+-()#0123456789 \n", max_size=3), st.integers(0, 3)),
    min_size=1,
    max_size=4,
)
_PD_RECORDS = st.lists(
    st.tuples(
        st.sampled_from("XV"),
        st.lists(st.integers(0, 9), min_size=4, max_size=4),
        st.sampled_from(["+", "-", ""]),
    ),
    max_size=6,
).map(lambda recs: " ".join(f"{k}[{','.join(map(str, ls))}]{s}" for k, ls, s in recs))


def _parses_or_diagram_error(parse, text: str) -> None:
    try:
        parse(text)
    except DiagramError:
        pass


@PARSER_PROPERTY
@given(diagrams)
def test_parse_gauss_inverts_serialize(d):
    assert parse_gauss(serialize(d)) == d


@PARSER_PROPERTY
@given(st.one_of(
    st.text("OU0123456789+-()# \n\t", max_size=40),
    st.builds(lambda d, edits: _edit(serialize(d), edits), diagrams, _EDITS),
))
def test_malformed_gauss_raises_diagram_error_only(text):
    _parses_or_diagram_error(parse_gauss, text)


@PARSER_PROPERTY
@given(st.one_of(
    st.text("XV[],+-0123456789 \n#", max_size=60),
    _PD_RECORDS,
    st.builds(_edit, _PD_RECORDS, _EDITS),
))
def test_malformed_pd_raises_diagram_error_only(text):
    _parses_or_diagram_error(parse_pd, text)


# ---------------------------------------------------------------------------
# PD parsing

def test_pd_trefoil_matches_gauss():
    d = parse_pd("X[3,1,4,6]+ X[1,5,2,4]+ X[5,3,6,2]+")
    assert canonical_form(d) == canonical_form(parse_gauss(TREFOIL_MIRROR))


def test_pd_virtual_crossings_vanish():
    d = parse_pd("V[1,2,2,1]")
    assert d.crossing_count == 0
    assert d.component_count == 1
    # opposite-slot labels describe two loops kissing at a virtual crossing
    d2 = parse_pd("V[1,2,1,2]")
    assert d2.crossing_count == 0
    assert d2.component_count == 2


def test_pd_hopf():
    d = parse_pd("X[4,2,3,1]+ X[2,4,1,3]+")
    assert (d.component_count, d.crossing_count) == (2, 2)
    assert canonical_form(d) == canonical_form(parse_gauss(HOPF))


def test_pd_errors():
    with pytest.raises(BadDegree):
        parse_pd("X[1,2,3,1]+ X[2,3,4,4]+ V[1,5,5,6]")
    with pytest.raises(MalformedToken):
        parse_pd("X[1,2,3,4]")
    with pytest.raises(MalformedToken):
        parse_pd("V[1,2,3,4]+")
    # every label occurs twice, but label 1 joins two under-in ports
    with pytest.raises(OpenStrand):
        parse_pd("X[1,2,3,4]+ X[1,4,3,2]+")


# ---------------------------------------------------------------------------
# writhe, crossing change

def test_writhe(trefoil_mirror, virtual_trefoil_mirror, unknot):
    assert writhe(trefoil_mirror) == 3
    assert writhe(virtual_trefoil_mirror) == 2
    assert writhe(unknot) == 0


def test_crossing_change_involution(trefoil_mirror):
    d = crossing_change(trefoil_mirror, 2)
    assert writhe(d) == 1
    assert d.crossing_count == 3
    assert crossing_change(d, 2) == trefoil_mirror


def test_crossing_change_unknown(unknot, trefoil_mirror):
    with pytest.raises(UnknownCrossing):
        crossing_change(unknot, 1)
    with pytest.raises(UnknownCrossing):
        crossing_change(trefoil_mirror, 4)


# ---------------------------------------------------------------------------
# splices

def test_splice_oriented_trefoil(trefoil_mirror):
    d0 = splice_oriented(trefoil_mirror, 1)
    assert d0.component_count == 2
    assert d0.crossing_count == 2
    assert canonical_form(d0) == canonical_form(parse_gauss(HOPF))


def test_splice_oriented_kink():
    d0 = splice_oriented(parse_gauss(KINK_PLUS), 1)
    assert d0.component_count == 2
    assert d0.crossing_count == 0


def test_splice_disoriented_kink():
    dinf = splice_disoriented(parse_gauss(KINK_PLUS), 1)
    assert dinf.component_count == 1
    assert dinf.crossing_count == 0


def test_splice_disoriented_virtual_trefoil(virtual_trefoil_mirror):
    dinf = splice_disoriented(virtual_trefoil_mirror, 1)
    assert dinf.crossing_count == 1
    assert dinf.component_count == 1


def test_splice_component_count_change():
    rng = random.Random(3)
    for _ in range(300):
        d = random_diagram(rng, rng.randrange(1, 6), components=rng.randrange(1, 3))
        cid = rng.randrange(1, d.crossing_count + 1)
        d0 = splice_oriented(d, cid)
        assert abs(d0.component_count - d.component_count) == 1
        assert d0.crossing_count == d.crossing_count - 1
        dinf = splice_disoriented(d, cid, rng.choice(("first", "second")))
        assert dinf.crossing_count == d.crossing_count - 1


def test_splice_context_kink():
    ctx = splice_context(parse_gauss(KINK_PLUS), 1)
    assert (ctx.k, ctx.l) == (0, 0)
    assert not ctx.unchanged and not ctx.flipped


def test_splice_context_trefoil(trefoil_mirror):
    ctx = splice_context(trefoil_mirror, 1)
    assert ctx.k + ctx.l == 2  # writhe = k + l + sign
    assert ctx.sign == 1
    assert writhe(trefoil_mirror) == ctx.k + ctx.l + ctx.sign


def test_splice_context_per_choice_invariants():
    # k and l are data of the chosen arc reversal; k + l is not, and the
    # disoriented writhe is k - l for the matching choice
    rng = random.Random(11)
    for _ in range(200):
        d = random_diagram(rng, rng.randrange(1, 6), components=rng.randrange(1, 3))
        cid = rng.randrange(1, d.crossing_count + 1)
        a = splice_context(d, cid, "first")
        b = splice_context(d, cid, "second")
        assert a.k + a.l == b.k + b.l == writhe(d) - a.sign
        assert writhe(splice_oriented(d, cid)) == writhe(d) - a.sign
        assert writhe(splice_disoriented(d, cid, "first")) == a.k - a.l
        assert writhe(splice_disoriented(d, cid, "second")) == b.k - b.l


def test_splice_disoriented_choices_same_unoriented_diagram():
    # the two re-orientations share the bracket; their f-polynomials differ
    # by the writhe normalization (-A^3)^(2(l2 - l1))
    from vknots.bracket import bracket, f_polynomial
    from vknots.laurent import monomial_pow

    rng = random.Random(29)
    for _ in range(60):
        d = random_diagram(rng, rng.randrange(1, 5), components=rng.randrange(1, 3))
        cid = rng.randrange(1, d.crossing_count + 1)
        a = splice_context(d, cid, "first")
        b = splice_context(d, cid, "second")
        d1 = splice_disoriented(d, cid, "first")
        d2 = splice_disoriented(d, cid, "second")
        assert bracket(d1) == bracket(d2)
        f1, f2 = f_polynomial(d1), f_polynomial(d2)
        assert monomial_pow(-1, 3, -2 * a.l) * f1 == monomial_pow(-1, 3, -2 * b.l) * f2


def test_splice_unknown_crossing(trefoil_mirror):
    with pytest.raises(UnknownCrossing):
        splice_oriented(trefoil_mirror, 9)
    with pytest.raises(UnknownCrossing):
        splice_disoriented(trefoil_mirror, 0)


def test_repeated_splicing_terminates(trefoil_mirror):
    d = trefoil_mirror
    while d.crossing_count:
        d = splice_oriented(d, 1)
    assert d.crossing_count == 0
    assert d.component_count >= 1


# ---------------------------------------------------------------------------
# canonical form

def test_canonical_form_invariance(trefoil_mirror):
    rotated = parse_gauss("U1+O2+U3+O1+U2+O3+")  # same cycle, shifted start
    assert canonical_form(rotated) == canonical_form(trefoil_mirror)
    relabeled = parse_gauss("O2+U3+O1+U2+O3+U1+")
    assert canonical_form(relabeled) == canonical_form(trefoil_mirror)


def test_canonical_form_distinguishes(trefoil, trefoil_mirror):
    assert canonical_form(trefoil) != canonical_form(trefoil_mirror)


def test_passage_token():
    assert Passage(3, True, -1).token() == "O3-"
