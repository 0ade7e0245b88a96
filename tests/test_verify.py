import math
import random

import pytest

from vknots.ald import checkerboard_colorable, is_alternating, make_alternating
from vknots.bracket import f_polynomial
from vknots.diagram import make_diagram, parse_gauss, random_diagram, serialize
from vknots.laurent import LaurentPoly
from vknots.verify import (
    EnumSpec,
    SpecTooLarge,
    enumerate_diagrams,
    find_nonalternating_form_witness,
    fuzz_invariance,
    sweep,
    verify_diagram,
    verify_index_spectrum,
)

from conftest import TREFOIL, VIRTUAL_TREFOIL_MIRROR


def knot_count(c: int) -> int:
    # pairings of 2c linear positions x role choice per pair x signs
    return math.factorial(2 * c) // math.factorial(c) * 2**c if c else 1


def test_enumeration_counts_knots():
    for c in range(0, 4):
        spec = EnumSpec(max_crossings=c, max_components=1)
        expected = sum(knot_count(k) for k in range(c + 1))
        assert sum(1 for _ in enumerate_diagrams(spec)) == expected


def test_enumeration_counts_two_components():
    # compositions of the 2c positions into 2 ordered lines x fill count
    total = 0
    for c in range(0, 3):
        for n in (1, 2):
            total += math.comb(2 * c + n - 1, n - 1) * knot_count(c)
    assert sum(1 for _ in enumerate_diagrams(EnumSpec(2, max_components=2))) == total


def test_enumeration_c0():
    diagrams = list(enumerate_diagrams(EnumSpec(0, max_components=1)))
    assert len(diagrams) == 1
    assert diagrams[0].component_count == 1
    assert diagrams[0].crossing_count == 0


def test_enumeration_unique():
    seen = set()
    for d in enumerate_diagrams(EnumSpec(2, max_components=2)):
        key = serialize(d)
        assert key not in seen
        seen.add(key)


def test_dedupe_is_orbit_transversal():
    from vknots.diagram import canonical_form

    full = list(enumerate_diagrams(EnumSpec(2, max_components=1)))
    deduped = list(enumerate_diagrams(EnumSpec(2, max_components=1, dedupe="cyclic-relabel")))
    orbits = {}
    for d in full:
        orbits.setdefault(canonical_form(d), []).append(d)
    assert len(deduped) == len(orbits)
    # representatives cover every orbit, and f is constant on each orbit
    assert {canonical_form(d) for d in deduped} == set(orbits)
    for members in orbits.values():
        fs = {f_polynomial(d) for d in members}
        assert len(fs) == 1


def test_dedupe_trefoil_once():
    reps = [
        d
        for d in enumerate_diagrams(EnumSpec(3, max_components=1, dedupe="cyclic-relabel"))
        if f_polynomial(d) == LaurentPoly({4: 1, 12: 1, 16: -1})
        and len(f_polynomial(d).exponent_set()) == 3
    ]
    from vknots.diagram import canonical_form

    assert canonical_form(parse_gauss(TREFOIL)) in {canonical_form(d) for d in reps}
    assert len({canonical_form(d) for d in reps}) == len(reps)


def test_spec_validation():
    with pytest.raises(SpecTooLarge):
        list(enumerate_diagrams(EnumSpec(7, max_components=1)))
    with pytest.raises(SpecTooLarge):
        list(enumerate_diagrams(EnumSpec(2, max_components=0)))
    with pytest.raises(SpecTooLarge):
        list(enumerate_diagrams(EnumSpec(2, dedupe="bogus")))


def test_verify_diagram_trefoil(trefoil):
    record = verify_diagram(trefoil)
    assert record.colorable
    assert record.congruence == 0
    assert record.ok


def test_verify_diagram_virtual_trefoil(virtual_trefoil_mirror):
    record = verify_diagram(virtual_trefoil_mirror)
    assert not record.colorable
    assert record.congruence == "mixed"
    assert record.ok  # vacuous congruence, equivalence and f(1) still hold


def test_verify_diagram_unlink():
    record = verify_diagram(parse_gauss("()\n()"))
    assert record.colorable
    assert record.congruence == 2
    assert record.f.evaluate_at_one() == -2
    assert record.ok


def test_verify_diagram_matches_standalone_checks():
    """verify_diagram shares one ribbon graph between the state sum and the
    colorability check; its record must equal what the standalone public
    functions, each building its own graph, return."""
    rng = random.Random(23)
    diagrams = [make_diagram([]), parse_gauss("()"), parse_gauss("()\n()\n()"), parse_gauss("O1+U1+\n()")]
    diagrams += [
        random_diagram(rng, rng.randrange(0, 9), components=rng.randrange(1, 4))
        for _ in range(200)
    ]
    for d in diagrams:
        record = verify_diagram(d)
        coloring = checkerboard_colorable(d)
        assert record.f == f_polynomial(d)
        assert (record.coloring is None) == (coloring is None)
        if coloring is not None:
            assert record.coloring.to_json() == coloring.to_json()
        assert record.alternating == is_alternating(d)
        assert record.alternating_equiv_ok == ((make_alternating(d) is not None) == (coloring is not None))


def test_verify_index_spectrum(trefoil, virtual_trefoil_mirror):
    spectrum, colorable, ok = verify_index_spectrum(trefoil)
    assert (len(spectrum), colorable, ok) == (1, True, True)
    # not colorable: the verdict holds whatever the spectrum
    assert verify_index_spectrum(virtual_trefoil_mirror) == ([0, 2], False, True)


def test_sweep_small_ranges():
    s = sweep(EnumSpec(3, max_components=1))
    assert s.ok and s.total == sum(knot_count(k) for k in range(4))
    s = sweep(EnumSpec(2, max_components=2))
    assert s.ok
    blob = s.to_json()
    assert blob["ok"] is True and blob["failures"] == []


def test_witness_absent_small():
    assert find_nonalternating_form_witness(EnumSpec(0, max_components=1)) is None
    assert find_nonalternating_form_witness(EnumSpec(3, max_components=1)) is None


def test_witness_found_at_five():
    d = find_nonalternating_form_witness(
        EnumSpec(5, max_components=1, dedupe="cyclic-relabel")
    )
    assert d is not None
    from vknots.ald import checkerboard_colorable, is_alternating

    assert is_alternating(d)
    assert checkerboard_colorable(d) is not None
    assert not f_polynomial(d).is_alternating_form()


def test_fuzz_invariance_clean():
    report = fuzz_invariance(seed=42, trials=60, max_moves=4)
    assert report.ok
    assert report.trials == 60
    assert report.moves_applied > 0
    blob = report.to_json()
    assert blob["ok"] is True


def test_fuzz_zero_trials():
    report = fuzz_invariance(seed=1, trials=0)
    assert report.ok and report.trials == 0 and report.moves_applied == 0
