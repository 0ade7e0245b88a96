import hashlib
import json
import math
import random
import sys
import threading
from itertools import groupby

import pytest

from vknots.ald import _checkerboard_coloring, build_ald, checkerboard_colorable, is_alternating, make_alternating
from vknots.bracket import TooManyCrossings, f_polynomial, index_spectrum
from vknots.diagram import crossing_change, make_diagram, parse_gauss, random_diagram, serialize
from vknots.laurent import LaurentPoly
from vknots import verify as verify_module
from vknots.verify import (
    EmptyDiagram,
    EnumSpec,
    SpecTooLarge,
    enumerate_diagrams,
    find_nonalternating_form_witness,
    fuzz_invariance,
    sweep,
    verify_diagram,
)

from conftest import TREFOIL, VIRTUAL_TREFOIL_MIRROR, memo_free_f, memo_free_verdict_parts, swap_roles


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


def _word(d):
    # the signed word: each component's (crossing, sign) sequence, roles dropped
    return tuple(tuple((p.crossing, p.sign) for p in comp) for comp in d.components)


def _unsigned_word(d):
    # the unsigned word: each component's crossing sequence, signs and roles dropped
    return tuple(tuple(p.crossing for p in comp) for comp in d.components)


# sha256 of the sorted serialized codes, "\n\n"-joined, that these specs
# yielded when each signed word's diagrams were still spread over the walk
ENUMERATION_DIGESTS = {
    EnumSpec(4, max_components=1): "012d1753cab97d2899753f56f93f2b029e1ea98c1b49e27bd6bd09408ea636a2",
    EnumSpec(3, max_components=2): "e658059d02eb51396107a7027231e68db97b0d388bcde293a7dd2bbfa13bd8db",
    EnumSpec(4, max_components=1, dedupe="cyclic-relabel"):
        "6777fbd06730540312ef10914917ddef9489de063f41ece0e228ca9a9b8af860",
    EnumSpec(4, max_components=2, alternating_only=True):
        "2304260be10cac5969df4124773f91a3ee0b811cc416700f4e210eb1c5623b9d",
}


@pytest.mark.parametrize("spec", list(ENUMERATION_DIGESTS), ids=["4-1", "3-2", "4-1-relabel", "4-2-alternating"])
def test_enumeration_contract(spec):
    """The yielded set is pinned, and each unsigned word's diagrams, and
    within them each signed word's, form one consecutive run: the order
    verify_diagram's memo (unsigned words) and sweep's state-sum count
    (signed words) rely on."""
    codes = []
    finished = set()
    current = None
    finished_unsigned = set()
    current_unsigned = None
    for d in enumerate_diagrams(spec):
        codes.append(serialize(d))
        word = _word(d)
        if word != current:
            assert word not in finished, serialize(d)
            finished.add(current)
            current = word
        unsigned = _unsigned_word(d)
        if unsigned != current_unsigned:
            assert unsigned not in finished_unsigned, serialize(d)
            finished_unsigned.add(current_unsigned)
            current_unsigned = unsigned
    assert len(set(codes)) == len(codes)
    digest = hashlib.sha256("\n\n".join(sorted(codes)).encode()).hexdigest()
    assert digest == ENUMERATION_DIGESTS[spec]


@pytest.mark.parametrize("spec", list(ENUMERATION_DIGESTS), ids=["4-1", "3-2", "4-1-relabel", "4-2-alternating"])
def test_enumeration_yields_valid_diagrams(spec):
    """enumerate_diagrams wraps the components it builds without passing
    them through make_diagram: each must already be what make_diagram
    returns, renumbered, valid, and made of the shared passage tuples."""
    for d in enumerate_diagrams(spec):
        checked = make_diagram(d.components)
        assert checked == d, serialize(d)
        assert all(
            p is q for comp_d, comp_c in zip(d.components, checked.components) for p, q in zip(comp_d, comp_c)
        ), serialize(d)


def test_alternating_enumeration_is_filtered_full_enumeration():
    alternating = set(enumerate_diagrams(EnumSpec(4, max_components=2, alternating_only=True)))
    full = {d for d in enumerate_diagrams(EnumSpec(4, max_components=2)) if is_alternating(d)}
    assert alternating == full


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
    diagrams = [parse_gauss("()"), parse_gauss("()\n()\n()"), parse_gauss("O1+U1+\n()")]
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
    # a diagram without components is not a link
    with pytest.raises(EmptyDiagram):
        verify_diagram(make_diagram([]))


# sha256 of the sorted per-diagram blobs of test_kernel_outputs_pinned,
# as the kernels computed them in the enumeration order that kept only
# each signed word's diagrams together
KERNEL_DIGEST = "0013f65cc7f017cc95cf56d3924804831e63563144c0a4ae66658388312048f4"


def test_kernel_outputs_pinned():
    """verify_diagram's record and coloring, make_alternating's change set
    and build_ald's graph, byte for byte, over whole enumeration streams:
    the region tracing, 2-colouring and union-find orders they depend on
    are pinned, not only the verdicts.  The blobs are sorted before they
    are hashed, so the pin does not depend on the enumeration order."""
    blobs = []
    for spec in (EnumSpec(4, max_components=1), EnumSpec(3, max_components=2)):
        for d in enumerate_diagrams(spec):
            record = verify_diagram(d)
            changes = make_alternating(d)
            blob = [
                record.to_json(),
                None if record.coloring is None else record.coloring.to_json(),
                None if changes is None else sorted(changes),
                repr(build_ald(d)),
            ]
            blobs.append(json.dumps(blob, separators=(",", ":")).encode())
    blobs.sort()
    assert hashlib.sha256(b"\n".join(blobs)).hexdigest() == KERNEL_DIGEST


def test_f_memo_edges(monkeypatch):
    """verify_diagram memoizes f and the index spectrum per signed word, in
    a table of the current unsigned word only: a diagram whose signed
    word was summed since the memo took its unsigned word, such as a role
    variant, gets that sum's objects, any other diagram fresh ones.  The
    alternatability verdict is kept per unsigned word, so sign and role
    variants reuse it, and the colorability verdict per flat class, the
    diagrams related by crossing changes, in another table of the current
    unsigned word."""
    alternatability_runs = []
    sums = []
    graphs = []
    traces = []
    keys = []

    def counted_make_alternating(diagram):
        alternatability_runs.append(diagram)
        return make_alternating(diagram)

    def counted_state_histogram(g):
        sums.append(g)
        return state_histogram(g)

    def counted_build_ald(diagram):
        graphs.append(diagram)
        return build_ald(diagram)

    def counted_coloring(g):
        traces.append(g)
        return _checkerboard_coloring(g)

    def counted_flat_class(diagram):
        keys.append(diagram)
        return flat_class(diagram)

    flat_class = verify_module._flat_class
    state_histogram = verify_module._state_histogram
    monkeypatch.setattr(verify_module, "make_alternating", counted_make_alternating)
    monkeypatch.setattr(verify_module, "_state_histogram", counted_state_histogram)
    monkeypatch.setattr(verify_module, "build_ald", counted_build_ald)
    monkeypatch.setattr(verify_module, "_checkerboard_coloring", counted_coloring)
    monkeypatch.setattr(verify_module, "_flat_class", counted_flat_class)
    d = parse_gauss("O1+U2-O3+\nU1+U3+O2-")
    record = verify_diagram(d)
    first = record.f
    assert alternatability_runs == [d]
    variant = swap_roles(d, {1, 3})
    reused = verify_diagram(variant)
    assert reused.f is first
    assert reused.index_spectrum is record.index_spectrum
    # the verdict parts that depend on f alone come with it
    assert (reused.congruence, reused.unit_eval_ok) == (record.congruence, record.unit_eval_ok)
    # so does the alternatability verdict, which roles do not change; the
    # variant is of another flat class, so its colouring is traced from
    # its own ribbon graph
    assert alternatability_runs == [d]
    assert graphs[-1] is variant and len(traces) == 2
    assert reused.alternating_equiv_ok == ((make_alternating(variant) is not None) == reused.colorable)
    assert reused.colorable == (checkerboard_colorable(variant) is not None)
    # f_polynomial keeps no memo: it sums the variant itself
    f_variant = f_polynomial(variant)
    assert f_variant is not first and f_variant == first
    others = [
        # one sign changed, roles kept: d's unsigned word
        parse_gauss("O1-U2-O3+\nU1-U3+O2-"),
        # a free loop added
        parse_gauss("O1+U2-O3+\nU1+U3+O2-\n()"),
        # the components reordered, which renumbering by first appearance
        # turns into a sign and role variant of d's unsigned word
        parse_gauss("U1+U3+O2-\nO1+U2-O3+"),
        # another word, with another spectrum
        parse_gauss(TREFOIL),
    ]
    for other, same_unsigned_word in zip(others, (True, False, True, False)):
        rec_d = verify_diagram(d)
        alternatability_runs.clear()
        rec_other = verify_diagram(other)
        # a diagram of d's unsigned word gets its alternatability verdict,
        # every other diagram its own
        assert alternatability_runs == ([] if same_unsigned_word else [other])
        assert (_unsigned_word(other) == _unsigned_word(d)) == same_unsigned_word
        assert rec_other.alternating_equiv_ok == (
            (make_alternating(other) is not None) == (checkerboard_colorable(other) is not None)
        )
        assert rec_other.f is not rec_d.f
        assert rec_other.f == memo_free_f(other)
        assert rec_other.index_spectrum is not rec_d.index_spectrum
        assert rec_other.index_spectrum == tuple(sorted(index_spectrum(other)))
        if same_unsigned_word:
            # d's signed word is still in the table: back at d, no state
            # sum runs and d gets its earlier objects
            sums.clear()
            rec_back = verify_diagram(d)
            assert sums == [] and rec_back.f is rec_d.f and rec_back.index_spectrum is rec_d.index_spectrum
    # the size limit is checked before the memo is read
    verify_diagram(d)
    with pytest.raises(TooManyCrossings):
        verify_diagram(variant, max_crossings=2)
    with pytest.raises(TooManyCrossings):
        f_polynomial(variant, max_crossings=2)

    # a crossing change keeps the flat class: a class found not colorable
    # is not traced again, and a state-summed signed word whose class is
    # known builds no ribbon graph at all
    v = parse_gauss(VIRTUAL_TREFOIL_MIRROR)
    v_roles = swap_roles(v, {2})
    changed = crossing_change(v, 1)
    changed_roles = swap_roles(changed, {2})
    for diagram in (v, v_roles):
        verify_diagram(diagram)
    alternatability_runs.clear()
    graphs.clear()
    traces.clear()
    rec_changed = verify_diagram(changed)  # a new signed word: its own state sum
    assert graphs == [changed] and traces == []
    rec_changed_roles = verify_diagram(changed_roles)
    assert graphs == [changed] and traces == [] and alternatability_runs == []
    for diagram, rec in ((changed, rec_changed), (changed_roles, rec_changed_roles)):
        assert checkerboard_colorable(diagram) is None and not rec.colorable and rec.ok
        assert rec.f == memo_free_f(diagram)
    # a colorable class is reused too, but each of its diagrams gets the
    # witness of its own ribbon graph
    t = parse_gauss(TREFOIL)
    rec_t = verify_diagram(t)
    alternatability_runs.clear()
    graphs.clear()
    traces.clear()
    t_changed = crossing_change(t, 2)
    rec_t_changed = verify_diagram(t_changed)
    assert alternatability_runs == [] and graphs == [t_changed] and len(traces) == 1
    assert rec_t_changed.coloring is not rec_t.coloring
    assert rec_t_changed.coloring.to_json() == checkerboard_colorable(t_changed).to_json()
    assert rec_t_changed.ok and rec_t_changed.alternating_equiv_ok
    # a new unsigned word gets fresh verdicts in a fresh table
    traces.clear()
    assert not verify_diagram(v).colorable
    assert alternatability_runs == [v] and len(traces) == 1
    assert len(verify_module._word[2]) == 1
    assert len(verify_module._word[3]) == 1
    # both limits are checked on a memo hit before any table is read
    verify_diagram(changed)
    keys.clear()
    with pytest.raises(TooManyCrossings):
        verify_diagram(changed_roles, max_crossings=1)
    with pytest.raises(ValueError):
        verify_diagram(changed_roles, max_crossings=-1)
    assert keys == []


def _count_calls(monkeypatch, *names):
    """Patch the named functions of verify into counters; returns the
    counts by name."""
    counts = dict.fromkeys(names, 0)

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(verify_module, name, counted(name, getattr(verify_module, name)))
    return counts


def test_records_do_not_depend_on_order(monkeypatch):
    """Every record of the acceptance streams equals the record of the same
    diagram verified in a seeded shuffled order, where consecutive
    diagrams seldom share a signed word, an unsigned word or a flat class,
    so nearly every call misses every memo.  On the (4,1) stream, an order
    that shuffles the diagrams within each unsigned word's run, and keeps
    the runs in order, gives the same records from as many state sums and
    ``make_alternating`` runs as the enumeration order: the memo holds
    every signed word of its unsigned word, not only the last one."""
    for spec in (EnumSpec(4, max_components=1), EnumSpec(3, max_components=2)):
        diagrams = list(enumerate_diagrams(spec))
        in_order = [verify_diagram(d) for d in diagrams]
        order = list(range(len(diagrams)))
        random.Random(11).shuffle(order)
        shuffled = {i: verify_diagram(diagrams[i]) for i in order}
        for i, record in enumerate(in_order):
            assert shuffled[i] == record, serialize(diagrams[i])
        if spec.max_components == 1:
            knots, knot_records = diagrams, in_order

    counts = _count_calls(monkeypatch, "make_alternating", "_state_histogram")
    rng = random.Random(11)
    for _, run in groupby(range(len(knots)), key=lambda i: _unsigned_word(knots[i])):
        run = list(run)
        rng.shuffle(run)
        for i in run:
            assert verify_diagram(knots[i]) == knot_records[i], serialize(knots[i])
    assert counts == {"make_alternating": 125, "_state_histogram": 1815}


def test_sweep_level_counts(monkeypatch):
    """One c <= 4 knot pass runs make_alternating once per unsigned word,
    a state sum once per signed word, a colorability trace once per flat
    class plus once per further colorable diagram, and builds a ribbon
    graph only for those: an order that splits an unsigned word, or a
    memo that stops serving, changes these counts."""
    counts = _count_calls(monkeypatch, "make_alternating", "_state_histogram", "_checkerboard_coloring", "build_ald")
    summary = sweep(EnumSpec(4, max_components=1))
    assert (summary.total, summary.colorable, summary.alternating, summary.state_sums) == (27893, 6565, 885, 1815)
    assert counts == {
        "make_alternating": 125,
        "_state_histogram": 1815,
        "_checkerboard_coloring": 7937,
        "build_ald": 9218,
    }


def test_f_memo_under_threads():
    # the memo entry, (unsigned word, alternatability, flat-class table,
    # signed-word table) per unsigned word, is replaced whole, and its
    # tables only ever gain true entries of its own word, each written by
    # one assignment: the colorability verdicts of its flat classes and
    # the (f, congruence, f(1) verdict, index spectrum) of its signed
    # words.  So threads racing on it, more of them than cores, each get
    # their own diagram's f, verdict parts and spectrum
    rng = random.Random(5)
    diagrams = [random_diagram(rng, rng.randrange(0, 6), components=rng.randrange(1, 3)) for _ in range(12)]
    diagrams += [swap_roles(d, {1}) for d in diagrams if d.crossing_count]
    diagrams += [crossing_change(d, 1) for d in diagrams if d.crossing_count]
    expected = [memo_free_verdict_parts(d) for d in diagrams]
    wrong = []

    def work(seed):
        r = random.Random(seed)
        for _ in range(2000):
            i = r.randrange(len(diagrams))
            record = verify_diagram(diagrams[i])
            parts = (record.f, record.congruence, record.unit_eval_ok, record.index_spectrum, record.alternating_equiv_ok)
            if parts != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_verify_index_spectrum(trefoil, virtual_trefoil_mirror):
    record = verify_diagram(trefoil)
    assert (len(record.index_spectrum), record.colorable, record.index_ok) == (1, True, True)
    # not colorable: the verdict holds whatever the spectrum
    record = verify_diagram(virtual_trefoil_mirror)
    assert (record.index_spectrum, record.colorable, record.index_ok) == ((0, 2), False, True)
    # a diagram without components is not a link: no verdict, passing or not
    with pytest.raises(EmptyDiagram):
        verify_diagram(make_diagram([]))


def test_sweep_small_ranges():
    s = sweep(EnumSpec(3, max_components=1))
    assert s.ok and s.total == sum(knot_count(k) for k in range(4))
    # one state sum per signed word: (2c)!/c! knot words with c crossings
    assert s.state_sums == 135
    s = sweep(EnumSpec(2, max_components=2))
    assert s.ok
    blob = s.to_json()
    assert blob["ok"] is True and blob["failures"] == []
    s = sweep(EnumSpec(3, max_components=2))
    assert s.ok and s.state_sums == 1042
    assert s.to_json()["state_sums"] == 1042


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


def test_fuzz_rejects_negative_counts():
    # an empty run is not a passing one: negative counts are an error, as
    # a negative order is for the finite-type recursion
    with pytest.raises(ValueError):
        fuzz_invariance(seed=1, trials=-3)
    with pytest.raises(ValueError):
        fuzz_invariance(seed=1, trials=2, max_moves=-1)
