import importlib
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from vknots.ald import boundary_regions, build_ald
from vknots.bracket import (
    IncompleteChoices,
    State,
    TooManyCrossings,
    _open_histograms,
    _state_histogram,
    bracket,
    bracket_parallel,
    f_polynomial,
    finite_type_coefficients,
    finite_type_recursion_check,
    index_spectrum,
    skein_identity_check,
    splice_state,
    state_contribution,
    state_index,
)
from vknots.diagram import (
    UnknownCrossing,
    crossing_change,
    make_diagram,
    parse_gauss,
    random_diagram,
    splice_context,
    splice_disoriented,
    splice_oriented,
)
from vknots.laurent import LOOP_FACTOR, LaurentPoly
from vknots.verify import verify_diagram

from conftest import KINK_PLUS, TREFOIL, VIRTUAL_TREFOIL, contraction_histograms

B = importlib.import_module("vknots.bracket")  # the package's ``bracket`` is the function

F_TREFOIL = LaurentPoly({4: 1, 12: 1, 16: -1})
F_VIRTUAL_TREFOIL = LaurentPoly({4: 1, 6: 1, 10: -1})
F_FIGURE_EIGHT = LaurentPoly({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1})
# kinks (an arc from the crossing back to itself) at the crossing a state
# sum leaves open, with and without free loops
KINK_CASES = ("O1+U1+", "O1-U1-", "O1+U1+O2-U2-", "O1-U1-\n()", "O1+U1+O2-U2-\n()\n()")
# inputs whose states have up to six loops, so loop-factor powers up to the fifth
MANY_LOOPS = ("()\n()\n()\n()", "O1+U1+O2-U2-\n()\n()\n()", "O1+U2+\nO2+U1+\n()\n()")


# ---------------------------------------------------------------------------
# states

def test_splice_state_empty_diagram(unknot):
    s = splice_state(unknot, {})
    assert (s.loop_count, s.splice_exponent) == (1, 0)


def test_state_contribution_empty_diagram():
    # the empty diagram's one state has no loops; its term is the unit, as
    # its bracket is
    s = splice_state(make_diagram([]), {})
    assert s.loop_count == 0
    assert state_contribution(s) == LaurentPoly.one() == bracket(make_diagram([]))


def test_splice_state_trefoil_all_a(trefoil_mirror):
    s = splice_state(trefoil_mirror, {1: "A", 2: "A", 3: "A"})
    assert s.loop_count == 2
    assert s.splice_exponent == 3


def test_splice_state_incomplete(trefoil_mirror):
    with pytest.raises(IncompleteChoices):
        splice_state(trefoil_mirror, {1: "A"})
    with pytest.raises(IncompleteChoices):
        splice_state(trefoil_mirror, {1: "A", 2: "B", 3: "Q"})


def test_single_toggle_changes_loops_by_at_most_one():
    rng = random.Random(6)
    for _ in range(50):
        d = random_diagram(rng, rng.randrange(1, 6), components=rng.randrange(1, 3))
        c = d.crossing_count
        choices = {i + 1: rng.choice("AB") for i in range(c)}
        s = splice_state(d, choices)
        for cid in range(1, c + 1):
            other = dict(choices)
            other[cid] = "B" if choices[cid] == "A" else "A"
            s2 = splice_state(d, other)
            assert abs(s2.loop_count - s.loop_count) <= 1


def test_loop_counts_match_region_tracing():
    """splice_state counts a state's loops as half the boundary walks of
    the spliced ribbon surface, so this is not an independent route (the
    union-find comparison is ``test_bracket_matches_state_sum``).  It
    checks that the walk count is even, each loop carrying two boundary
    circles, and that the loop count lies in 1..c + n."""
    rng = random.Random(12)
    diagrams = [parse_gauss(TREFOIL), parse_gauss(VIRTUAL_TREFOIL)] + [
        random_diagram(rng, rng.randrange(1, 5), components=rng.randrange(1, 3))
        for _ in range(20)
    ]
    for d in diagrams:
        g = build_ald(d)
        for bits in itertools.product("AB", repeat=d.crossing_count):
            choices = {i + 1: b for i, b in enumerate(bits)}
            s = splice_state(d, choices)
            assert 1 <= s.loop_count <= d.crossing_count + d.component_count
            regions = boundary_regions(g, splices=choices)
            assert regions.region_count == 2 * s.loop_count


def test_state_index():
    assert state_index(State(("A",), 1, 0)) == 0
    assert state_index(State(("A",) * 3, 2, 3)) == 1
    assert state_index(State(("A",) * 3, 3, -2)) == 2


def test_state_index_matches_contribution_exponents():
    rng = random.Random(13)
    for _ in range(200):
        s = State((), rng.randrange(1, 6), rng.randrange(-6, 7))
        poly = state_contribution(s)
        residues = {e % 4 for e in poly.exponent_set()}
        assert residues == {state_index(s)}


def test_state_index_agrees_with_contribution_and_spectrum():
    # state_index and index_spectrum read one rule at every state, the one
    # state of the empty diagram (no loops) included
    rng = random.Random(41)
    diagrams = [make_diagram([]), parse_gauss("()"), parse_gauss(KINK_PLUS)]
    diagrams += [random_diagram(rng, rng.randrange(0, 5), components=rng.randrange(1, 4)) for _ in range(30)]
    for d in diagrams:
        spectrum = index_spectrum(d)
        for bits in itertools.product("AB", repeat=d.crossing_count):
            s = splice_state(d, {i + 1: b for i, b in enumerate(bits)})
            assert {e % 4 for e in state_contribution(s).exponent_set()} == {state_index(s)}
            assert state_index(s) in spectrum


# ---------------------------------------------------------------------------
# bracket and f

def test_bracket_unknot(unknot):
    assert bracket(unknot) == LaurentPoly.one()


def test_bracket_two_free_loops():
    assert bracket(parse_gauss("()\n()")) == LOOP_FACTOR


def test_bracket_free_unlink_f():
    for n in range(1, 5):
        d = parse_gauss("\n".join("()" for _ in range(n)))
        assert f_polynomial(d) == LOOP_FACTOR ** (n - 1)


def test_bracket_kink():
    assert bracket(parse_gauss(KINK_PLUS)) == LaurentPoly({3: -1})
    assert bracket(parse_gauss("O1-U1-")) == LaurentPoly({-3: -1})


def test_f_reference_values(trefoil, virtual_trefoil, figure_eight):
    assert f_polynomial(trefoil) == F_TREFOIL
    assert f_polynomial(virtual_trefoil) == F_VIRTUAL_TREFOIL
    assert f_polynomial(figure_eight) == F_FIGURE_EIGHT


def test_f_mirror_values(trefoil_mirror, virtual_trefoil_mirror):
    # the all-positive codes carry the A -> 1/A mirrors
    assert f_polynomial(trefoil_mirror) == LaurentPoly({-4: 1, -12: 1, -16: -1})
    assert f_polynomial(virtual_trefoil_mirror) == LaurentPoly({-4: 1, -6: 1, -10: -1})


def test_f_hopf(hopf):
    assert f_polynomial(hopf) == LaurentPoly({-2: -1, -10: -1})
    assert f_polynomial(hopf).congruence_class_mod4() == 2


def test_bracket_matches_state_sum():
    """Double-entry: the histogram bracket equals the termwise sum of
    state contributions computed through the public state API, whose
    boundary-walk loop counts share no code with the union-find.  The
    many-loop inputs check the closed-form powers of the loop factor in the
    bracket against the ``LOOP_FACTOR **`` of ``state_contribution``."""
    rng = random.Random(14)
    diagrams = [parse_gauss(code) for code in (TREFOIL, VIRTUAL_TREFOIL) + KINK_CASES + MANY_LOOPS] + [
        random_diagram(rng, rng.randrange(0, 6), components=rng.randrange(1, 3))
        for _ in range(20)
    ]
    for d in diagrams:
        total = LaurentPoly.zero()
        for bits in itertools.product("AB", repeat=d.crossing_count):
            s = splice_state(d, {i + 1: b for i, b in enumerate(bits)})
            total = total + state_contribution(s)
        assert bracket(d) == total


def test_bracket_matches_region_oracle():
    """The union-find state sum equals an oracle that counts each state's
    loops as half the boundary regions of the spliced ribbon graph."""
    rng = random.Random(15)
    for _ in range(20):
        d = random_diagram(rng, rng.randrange(0, 9), components=rng.randrange(1, 3))
        c = d.crossing_count
        g = build_ald(d)
        total = LaurentPoly.zero()
        for bits in itertools.product("AB", repeat=c):
            choices = {i + 1: b for i, b in enumerate(bits)}
            loops = boundary_regions(g, splices=choices).region_count // 2
            total = total + LaurentPoly.monomial(1, c - 2 * bits.count("B")) * LOOP_FACTOR ** (loops - 1)
        assert bracket(d) == total


def test_open_histograms_match_walk_oracle():
    """Oracle for the depth-first state sum at every open crossing, not
    only the last one that ``bracket`` leaves open: each state's loops are
    counted by ``splice_state`` on the boundary walk, which shares no
    union-find code, and the 2^c states are split by the choice at the
    open crossing into its A and its B histogram, keyed by the B splices
    among the others."""
    rng = random.Random(23)
    diagrams = [parse_gauss(code) for code in KINK_CASES + ("O1+U1+\n()", TREFOIL, VIRTUAL_TREFOIL)] + [
        random_diagram(rng, rng.randrange(1, 9), components=rng.randrange(1, 4))
        for _ in range(100)
    ]
    checked = 0
    for d in diagrams:
        c = d.crossing_count
        states = [
            splice_state(d, {i + 1: b for i, b in enumerate(bits)})
            for bits in itertools.product("AB", repeat=c)
        ]
        g = build_ald(d)
        for x in range(1, c + 1):
            expected = ({}, {})
            for s in states:
                side = s.choices[x - 1] == "B"
                key = (s.choices.count("B") - side, s.loop_count)
                expected[side][key] = expected[side].get(key, 0) + 1
            assert _open_histograms(g, x - 1) == expected
            checked += 1
    assert checked > 400


def test_histograms_match_contraction_oracle_above_eight_crossings():
    """Above c = 8, where enumerating states is too slow to be an oracle,
    the full histogram and the open ones at every crossing equal those of
    a frontier contraction, which shares the splice rows but no summation
    code with the depth-first walk.  Some diagrams carry a crossing-free
    component."""
    rng = random.Random(29)
    diagrams = [random_diagram(rng, rng.randrange(9, 15), components=rng.randrange(1, 4)) for _ in range(18)]
    diagrams += [
        make_diagram(random_diagram(rng, c, components=2).components + ((),)) for c in (9, 12)
    ]
    assert sum(not comp for d in diagrams for comp in d.components) >= 2
    for d in diagrams:
        g = build_ald(d)
        assert _state_histogram(g) == contraction_histograms(g), str(d)
        for x in range(g.vertex_count):
            assert _open_histograms(g, x) == contraction_histograms(g, x), (str(d), x)


def test_bracket_skein_relation_at_every_crossing():
    """<D> = A <D_A> + A^-1 <D_B>, with the A and B splices taken from the
    diagram-level splices rather than from the ribbon graph's slot pairs:
    the A splice is the oriented one at a positive crossing and the
    disoriented one at a negative crossing."""
    rng = random.Random(19)
    a, a_inv = LaurentPoly.monomial(1, 1), LaurentPoly.monomial(1, -1)
    for _ in range(60):
        d = random_diagram(rng, rng.randrange(1, 7), components=rng.randrange(1, 3))
        signs = d.signs()
        for cid in range(1, d.crossing_count + 1):
            oriented, disoriented = splice_oriented(d, cid), splice_disoriented(d, cid)
            d_a, d_b = (oriented, disoriented) if signs[cid] > 0 else (disoriented, oriented)
            assert bracket(d) == a * bracket(d_a) + a_inv * bracket(d_b)


def test_too_many_crossings():
    rng = random.Random(16)
    d = random_diagram(rng, 7, components=1)
    with pytest.raises(TooManyCrossings):
        bracket(d, max_crossings=6)
    with pytest.raises(TooManyCrossings):
        f_polynomial(d, max_crossings=6)
    # the skein checks sum over the other crossings, but the limit is on d
    with pytest.raises(TooManyCrossings):
        skein_identity_check(d, 1, max_crossings=6)
    with pytest.raises(TooManyCrossings):
        finite_type_recursion_check(d, 1, order=1, max_crossings=6)
    assert skein_identity_check(d, 1, max_crossings=7).holds
    assert finite_type_recursion_check(d, 1, order=1, max_crossings=7).difference_identity_holds


def test_negative_limit_rejected():
    # a negative size limit is a bad argument, not a diagram over the
    # limit; limit 0 still takes the empty diagram
    empty, kink = parse_gauss("()"), parse_gauss(KINK_PLUS)
    whole = {
        "bracket": bracket,
        "bracket_parallel": bracket_parallel,
        "f_polynomial": f_polynomial,
        "index_spectrum": index_spectrum,
        "verify_diagram": verify_diagram,
    }
    at_crossing = {
        "skein_identity_check": skein_identity_check,
        "finite_type_recursion_check": lambda d, c, max_crossings: finite_type_recursion_check(
            d, c, order=1, max_crossings=max_crossings
        ),
    }
    for name, fn in whole.items():
        for d in (empty, kink):
            with pytest.raises(ValueError, match="max_crossings"):
                fn(d, max_crossings=-1)
        assert fn(empty, max_crossings=0) == fn(empty), name
        with pytest.raises(TooManyCrossings):
            fn(kink, max_crossings=0)
    for name, fn in at_crossing.items():
        with pytest.raises(ValueError, match="max_crossings"):
            fn(kink, 1, max_crossings=-1)
        with pytest.raises(TooManyCrossings):
            fn(kink, 1, max_crossings=0)
        assert fn(kink, 1, max_crossings=1) == fn(kink, 1, max_crossings=None), name


def test_skein_checks_raise_in_one_order():
    # both checks test the limit before the crossing: an unknown crossing
    # under a negative or exceeded limit is a limit error
    kink = parse_gauss(KINK_PLUS)
    checks = (
        skein_identity_check,
        lambda d, c, max_crossings: finite_type_recursion_check(d, c, order=1, max_crossings=max_crossings),
    )
    for check in checks:
        with pytest.raises(ValueError, match="max_crossings"):
            check(kink, 9, max_crossings=-1)
        with pytest.raises(TooManyCrossings):
            check(kink, 9, max_crossings=0)
        with pytest.raises(UnknownCrossing):
            check(kink, 9, max_crossings=None)


def test_recursion_rejects_negative_order_before_state_sum():
    # the order is checked first: over the size limit, a negative order is
    # still a ValueError, not TooManyCrossings
    d = random_diagram(random.Random(16), 7, components=1)
    with pytest.raises(ValueError):
        finite_type_recursion_check(d, 1, order=-1, max_crossings=6)
    with pytest.raises(ValueError):
        finite_type_recursion_check(d, 1, order=-1)


@pytest.mark.parametrize("order", [1.5, 2.0, "3", None])
def test_non_int_order_rejected_before_state_sum(monkeypatch, order):
    """An order that is not an int is a TypeError, raised before any state
    sum and before the size check; a bool or another index type is taken."""

    def no_state_sum(*args):
        raise AssertionError("state sum run for a bad order")

    monkeypatch.setattr(B, "_open_histograms", no_state_sum)
    d = random_diagram(random.Random(16), 7, components=1)
    for max_crossings in (None, 6):
        with pytest.raises(TypeError, match="order"):
            finite_type_recursion_check(d, 1, order=order, max_crossings=max_crossings)
    with pytest.raises(TypeError, match="order"):
        finite_type_coefficients(F_TREFOIL, order)
    assert finite_type_coefficients(F_TREFOIL, True) == finite_type_coefficients(F_TREFOIL, 1)


def test_bracket_parallel_deterministic(trefoil):
    expected = bracket(trefoil)
    for workers in (1, 2, 8):
        assert bracket_parallel(trefoil, workers=workers) == expected


def test_bracket_parallel_matches_serial_random():
    rng = random.Random(17)
    for _ in range(10):
        d = random_diagram(rng, rng.randrange(0, 11), components=rng.randrange(1, 3))
        expected = bracket(d)
        for workers in (1, 3, 8):
            assert bracket_parallel(d, workers=workers) == expected


# ---------------------------------------------------------------------------
# index spectrum

def test_index_spectrum(trefoil, trefoil_mirror, virtual_trefoil, unknot):
    assert index_spectrum(unknot) == {0}
    assert len(index_spectrum(trefoil)) == 1
    assert len(index_spectrum(trefoil_mirror)) == 1
    assert len(index_spectrum(virtual_trefoil)) >= 2
    assert index_spectrum(virtual_trefoil) == {0, 2}


# ---------------------------------------------------------------------------
# skein identity

def test_skein_identity_kink():
    report = skein_identity_check(parse_gauss(KINK_PLUS), 1)
    assert report.holds
    assert (report.k, report.l) == (0, 0)
    assert report.f == LaurentPoly.one()
    assert report.f_oriented == LOOP_FACTOR


def test_skein_identity_trefoil_all_crossings(trefoil, trefoil_mirror):
    for d in (trefoil, trefoil_mirror):
        for cid in (1, 2, 3):
            report = skein_identity_check(d, cid)
            assert report.holds
            assert abs(report.l) == 2


def test_skein_identity_virtual_trefoil(virtual_trefoil_mirror):
    report = skein_identity_check(virtual_trefoil_mirror, 1)
    assert report.holds
    assert report.l == 1  # nonzero: the (-A^3)^(-2l) factor is exercised


def test_skein_identity_random():
    rng = random.Random(18)
    nonzero_l = 0
    for _ in range(100):
        d = random_diagram(rng, rng.randrange(1, 6), components=rng.randrange(1, 3))
        cid = rng.randrange(1, d.crossing_count + 1)
        report = skein_identity_check(d, cid)
        assert report.holds
        nonzero_l += report.l != 0
    assert nonzero_l >= 10


def _open_crossing_cases():
    rng = random.Random(22)
    return [parse_gauss(code) for code in KINK_CASES + ("O1+U1+\n()", "()\n()")] + [
        random_diagram(rng, rng.randrange(0, 9), components=rng.randrange(1, 4))
        for _ in range(200)
    ]


def test_skein_checks_match_separate_state_sums():
    """Oracle for the open-crossing state sum of the skein checks: at every
    crossing, each f of the skein report equals f_polynomial of the
    diagram-level diagram it stands for, and the difference identity of
    the recursion report holds for f_polynomial of the crossing change."""
    a2 = LaurentPoly({2: 1, -2: -1})
    a4 = LaurentPoly({4: 1, -4: -1})
    checked = 0
    for d in _open_crossing_cases():
        f = f_polynomial(d)
        signs = d.signs()
        for cid in range(1, d.crossing_count + 1):
            report = skein_identity_check(d, cid)
            f0 = f_polynomial(splice_oriented(d, cid))
            finf = f_polynomial(splice_disoriented(d, cid))
            assert (report.f, report.f_oriented, report.f_disoriented) == (f, f0, finf)
            rec = finite_type_recursion_check(d, cid, order=0)
            assert rec.difference_identity_holds
            assert rec.l == splice_context(d, cid).l
            changed = f_polynomial(crossing_change(d, cid))
            diff = f - changed if signs[cid] > 0 else changed - f
            tail = LaurentPoly({-6 * rec.l: 1}) * a4 * finf  # (-A^3)^(-2l) = A^(-6l)
            assert diff == a2 * f0 + tail
            checked += 1
    assert checked > 800


def test_skein_report_json(virtual_trefoil_mirror):
    blob = skein_identity_check(virtual_trefoil_mirror, 1).to_json()
    assert blob["holds"] is True
    assert blob["l"] == 1
    assert LaurentPoly.from_pairs(blob["f"]) == f_polynomial(virtual_trefoil_mirror)


# ---------------------------------------------------------------------------
# finite-type coefficients

def test_finite_type_constant():
    series = finite_type_coefficients(LaurentPoly.one(), 4)
    assert series.coefficients == (1, 0, 0, 0, 0)


def test_finite_type_single_power():
    for j in (-5, -1, 0, 3, 7):
        series = finite_type_coefficients(LaurentPoly.monomial(1, j), 3)
        assert series[0] == 1
        assert series[1] == j
        assert series[2] == Fraction(j * j, 2)
        assert series[3] == Fraction(j**3, 6)


def test_finite_type_v0_is_f_at_one(trefoil, hopf):
    for d, n in ((trefoil, 1), (hopf, 2)):
        series = finite_type_coefficients(f_polynomial(d), 2)
        assert series[0] == (-2) ** (n - 1)


def test_recursion_check_kink():
    report = finite_type_recursion_check(parse_gauss(KINK_PLUS), 1, order=3)
    assert report.difference_identity_holds
    assert report.l == 0
    # both conventions coincide at l = 0
    assert report.identified_convention == "both"


def test_recursion_check_trefoil(trefoil):
    for cid in (1, 2, 3):
        report = finite_type_recursion_check(trefoil, cid, order=5)
        assert report.difference_identity_holds
        assert report.l == -2
        assert all(report.series_match_l)
        assert report.identified_convention == "as-defined"


def test_recursion_check_virtual_trefoil(virtual_trefoil_mirror):
    report = finite_type_recursion_check(virtual_trefoil_mirror, 1, order=5)
    assert report.difference_identity_holds
    assert report.l == 1
    assert all(report.series_match_l)
    assert not all(report.series_match_negated_l)
    assert report.identified_convention == "as-defined"


def _series_rows_reference(diff, f0, finf, l, order):
    """The series rows of a recursion report by the rational formula of
    ``RecursionReport``: v_n(diff) against sum_{m=1..n} 2^m/m! [(1-(-1)^m)
    v_{n-m}(f0) + ((2-3l)^m - (-2-3l)^m) v_{n-m}(finf)], with each v_k a
    Fraction."""

    def v(p):
        return [Fraction(sum(c * e**k for e, c in p.terms()), factorial(k)) for k in range(order + 1)]

    v_diff, v0, vinf = v(diff), v(f0), v(finf)
    rows = []
    for n in range(order + 1):
        rhs = Fraction(0)
        for m in range(1, n + 1):
            k = n - m
            rhs += Fraction(2**m, factorial(m)) * (
                (1 - (-1) ** m) * v0[k] + ((2 - 3 * l) ** m - (-2 - 3 * l) ** m) * vinf[k]
            )
        rows.append(v_diff[n] == rhs)
    return tuple(rows)


def test_recursion_rows_match_rational_reference():
    """Oracle for the integer row comparison of the recursion check: the
    full row tuples under both conventions equal the Fraction formula's, at
    every crossing of seeded diagrams, with f, f0 and finf from the skein
    report and f of the crossing change from its own state sum."""
    rng = random.Random(21)
    reports = mixed = 0
    for _ in range(60):
        d = random_diagram(rng, rng.randrange(1, 8), components=rng.randrange(1, 4))
        signs = d.signs()
        for cid in range(1, d.crossing_count + 1):
            skein = skein_identity_check(d, cid)
            changed = f_polynomial(crossing_change(d, cid))
            diff = skein.f - changed if signs[cid] > 0 else changed - skein.f
            for order in (0, 1, 3, 6):
                report = finite_type_recursion_check(d, cid, order=order)
                args = (diff, skein.f_oriented, skein.f_disoriented)
                assert report.series_match_l == _series_rows_reference(*args, report.l, order)
                assert report.series_match_negated_l == _series_rows_reference(*args, -report.l, order)
                reports += 1
                mixed += len(set(report.series_match_negated_l)) > 1
    # a wrong binomial or sign shows in the rows that hold for one
    # convention and not the other
    assert reports > 600 and mixed > reports // 4
