import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vknots
from vknots.ald import (
    IncompleteChoices,
    NotAlternating,
    _checkerboard_coloring,
    boundary_regions,
    build_ald,
    checkerboard_colorable,
    coloring_from_alternating,
    euler_summary,
    induced_state_coloring,
    is_alternating,
    make_alternating,
)
from vknots.diagram import (
    crossing_change,
    parse_gauss,
    parse_pd,
    random_diagram,
    reverse_all,
)
from vknots.verify import EnumSpec, enumerate_diagrams

from conftest import oracle_two_coloring, oracle_walks


def test_build_ald_counts(trefoil_mirror, virtual_trefoil_mirror, unknot):
    g = build_ald(trefoil_mirror)
    assert (g.vertex_count, g.edge_count, g.free_loops) == (3, 6, 0)
    g = build_ald(virtual_trefoil_mirror)
    assert (g.vertex_count, g.edge_count) == (2, 4)
    g = build_ald(unknot)
    assert (g.vertex_count, g.free_loops) == (0, 1)


def test_boundary_regions_counts(trefoil_mirror, virtual_trefoil_mirror, unknot):
    assert boundary_regions(build_ald(trefoil_mirror)).region_count == 5
    assert boundary_regions(build_ald(virtual_trefoil_mirror)).region_count == 2
    assert boundary_regions(build_ald(unknot)).region_count == 2


def test_boundary_walk_total_length():
    rng = random.Random(2)
    for _ in range(100):
        d = random_diagram(rng, rng.randrange(0, 6), components=rng.randrange(1, 3))
        g = build_ald(d)
        regions = boundary_regions(g)
        total = sum(len(r) for r in regions.regions)
        assert total == 2 * g.edge_count + 2 * g.free_loops


def test_each_edge_one_constraint():
    rng = random.Random(4)
    for _ in range(50):
        d = random_diagram(rng, rng.randrange(0, 6), components=rng.randrange(1, 3))
        g = build_ald(d)
        regions = boundary_regions(g)
        assert len(regions.constraints) == g.edge_count + g.free_loops


def test_euler_characteristic(trefoil_mirror, virtual_trefoil_mirror):
    assert euler_summary(trefoil_mirror)["euler_closed"] == 2  # planar
    assert euler_summary(virtual_trefoil_mirror)["euler_closed"] == 0  # genus 1


def test_colorable(trefoil, trefoil_mirror, unknot, figure_eight, hopf):
    for d in (trefoil, trefoil_mirror, unknot, figure_eight, hopf):
        col = checkerboard_colorable(d)
        assert col is not None
        assert col.is_valid()


def test_not_colorable(virtual_trefoil, virtual_trefoil_mirror):
    assert checkerboard_colorable(virtual_trefoil) is None
    assert checkerboard_colorable(virtual_trefoil_mirror) is None


def test_virtual_hopf_not_colorable():
    assert checkerboard_colorable(parse_gauss("O1+\nU1+")) is None


def test_classical_pd_inputs_always_colorable():
    pds = [
        "X[3,1,4,6]+ X[1,5,2,4]+ X[5,3,6,2]+",                    # trefoil
        "X[4,2,5,1]+ X[8,6,1,5]+ X[6,3,7,4]- X[2,7,3,8]-",        # figure eight
        "X[4,2,3,1]+ X[2,4,1,3]+",                                # Hopf link
    ]
    for pd in pds:
        assert checkerboard_colorable(parse_pd(pd)) is not None


def _check_coloring_against_oracle(d):
    # the colouring decided on flat lists agrees with a breadth-first
    # 2-colouring of the materialised constraints, and its regions are
    # boundary_regions' regions, whose walks the oracle reads off directly
    g = build_ald(d)
    regions = boundary_regions(g)
    walks = oracle_walks(g)
    assert regions.regions[:len(walks)] == tuple(walks)
    expected = oracle_two_coloring(regions)
    coloring = _checkerboard_coloring(g)
    assert (coloring is None) == (expected is None)
    if coloring is not None:
        assert coloring.regions == regions
        assert list(coloring.colors) == expected


def test_coloring_matches_oracle_on_streams():
    for spec in (EnumSpec(4, max_components=1), EnumSpec(3, max_components=2)):
        for d in enumerate_diagrams(spec):
            _check_coloring_against_oracle(d)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=3),
)
@example(0, 0, 3)  # free loops alone
@example(5, 3, 3)  # crossings and a free loop, colourable
@example(11, 3, 3)  # crossings and a free loop, not colourable
def test_coloring_matches_oracle_random(seed, crossings, components):
    d = random_diagram(random.Random(seed), crossings, components)
    _check_coloring_against_oracle(d)


def test_is_alternating(trefoil_mirror, virtual_trefoil_mirror, unknot):
    assert is_alternating(trefoil_mirror)
    assert not is_alternating(virtual_trefoil_mirror)
    assert is_alternating(unknot)
    assert not is_alternating(parse_gauss("O1+\nU1+"))  # one passage per loop


def test_make_alternating(trefoil_mirror, virtual_trefoil_mirror):
    assert make_alternating(trefoil_mirror) == frozenset()
    assert make_alternating(virtual_trefoil_mirror) is None
    d = crossing_change(trefoil_mirror, 2)
    changes = make_alternating(d)
    assert changes is not None
    fixed = d
    for cid in changes:
        fixed = crossing_change(fixed, cid)
    assert is_alternating(fixed)


def test_make_alternating_iff_colorable_exhaustive():
    for spec in (EnumSpec(max_crossings=3, max_components=1),
                 EnumSpec(max_crossings=2, max_components=2)):
        for d in enumerate_diagrams(spec):
            assert (make_alternating(d) is not None) == (
                checkerboard_colorable(d) is not None
            )


def test_coloring_from_alternating(trefoil_mirror, figure_eight, unknot):
    for d in (trefoil_mirror, figure_eight, unknot):
        col = coloring_from_alternating(d)
        assert col.is_valid()


def test_coloring_from_alternating_rejects(virtual_trefoil_mirror):
    with pytest.raises(NotAlternating):
        coloring_from_alternating(virtual_trefoil_mirror)


def test_coloring_from_alternating_exhaustive():
    # every alternating code in range gets a valid canonical coloring
    spec = EnumSpec(max_crossings=4, max_components=1, alternating_only=True)
    count = 0
    for d in enumerate_diagrams(spec):
        col = coloring_from_alternating(d)
        assert col.is_valid()
        count += 1
    assert count > 50


def test_induced_state_coloring_trefoil(trefoil_mirror):
    col = checkerboard_colorable(trefoil_mirror)
    for bits in itertools.product("AB", repeat=3):
        choices = {i + 1: b for i, b in enumerate(bits)}
        induced = induced_state_coloring(trefoil_mirror, col, choices)
        assert induced.is_valid()


def test_induced_state_coloring_free_loop():
    d = parse_gauss("()")
    col = checkerboard_colorable(d)
    induced = induced_state_coloring(d, col, {})
    assert induced.colors == col.colors


def test_induced_state_coloring_exhaustive():
    spec = EnumSpec(max_crossings=3, max_components=1)
    for d in enumerate_diagrams(spec):
        col = checkerboard_colorable(d)
        if col is None:
            continue
        c = d.crossing_count
        for bits in itertools.product("AB", repeat=c):
            induced = induced_state_coloring(d, col, {i + 1: b for i, b in enumerate(bits)})
            assert induced.is_valid()


@pytest.mark.parametrize(
    "splices", [{0: "A"}, {4: "B"}, {1: "Q"}], ids=["key-0", "key-c+1", "value-Q"]
)
def test_boundary_regions_rejects_bad_splices(trefoil_mirror, splices):
    with pytest.raises(IncompleteChoices):
        boundary_regions(build_ald(trefoil_mirror), splices=splices)


def test_induced_state_coloring_rejects_bad_choice(trefoil_mirror):
    col = checkerboard_colorable(trefoil_mirror)
    with pytest.raises(IncompleteChoices):
        induced_state_coloring(trefoil_mirror, col, {1: "A", 2: "B", 3: "Q"})
    # one class, importable from ald, bracket and the package
    from vknots.bracket import IncompleteChoices as from_bracket

    assert vknots.IncompleteChoices is from_bracket is IncompleteChoices


def test_reversal_preserves_regions_and_colorability():
    rng = random.Random(8)
    for _ in range(100):
        d = random_diagram(rng, rng.randrange(0, 6), components=rng.randrange(1, 3))
        r = reverse_all(d)
        assert boundary_regions(build_ald(d)).region_count == boundary_regions(
            build_ald(r)
        ).region_count
        assert (checkerboard_colorable(d) is None) == (checkerboard_colorable(r) is None)


def test_crossing_change_preserves_surface():
    # over/under data does not enter the ribbon structure
    rng = random.Random(9)
    for _ in range(100):
        d = random_diagram(rng, rng.randrange(1, 6), components=rng.randrange(1, 3))
        cid = rng.randrange(1, d.crossing_count + 1)
        d2 = crossing_change(d, cid)
        assert boundary_regions(build_ald(d)).region_count == boundary_regions(
            build_ald(d2)
        ).region_count
        assert (checkerboard_colorable(d) is None) == (checkerboard_colorable(d2) is None)


def _rotated(g, vertex, step):
    """g with the four slots of one vertex rotated by ``step``: the dart in
    slot s there moves to slot s + step, every band keeps its index."""
    base = 4 * (vertex - 1)

    def move(dart):
        return base + (dart - base + step) % 4 if base <= dart < base + 4 else dart

    n = len(g.alpha)
    alpha = [0] * n
    band_of = [0] * n
    for dart in range(n):
        alpha[move(dart)] = move(g.alpha[dart])
        band_of[move(dart)] = g.band_of_dart[dart]
    return type(g)(
        vertex_count=g.vertex_count,
        alpha=tuple(alpha),
        edges=tuple((move(t), move(h)) for t, h in g.edges),
        band_of_dart=tuple(band_of),
        free_loops=g.free_loops,
    )


def test_crossing_change_rotates_one_vertex():
    """A crossing change at x rotates vertex x's slots by one, -1 at a
    positive crossing and +1 at a negative one, and changes nothing else:
    the ribbon surface, and so colorability, is the same on a whole flat
    class, which is what lets verify_diagram trace one diagram per class."""
    rng = random.Random(22)
    for _ in range(150):
        d = random_diagram(rng, rng.randrange(0, 9), components=rng.randrange(1, 4))
        g = build_ald(d)
        signs = d.signs()
        for x in range(1, d.crossing_count + 1):
            assert build_ald(crossing_change(d, x)) == _rotated(g, x, -signs[x]), (str(d), x)


def test_coloring_json(trefoil_mirror):
    col = checkerboard_colorable(trefoil_mirror)
    blob = col.to_json()
    assert len(blob) == col.regions.region_count
    assert all(entry["color"] in ("black", "white") for entry in blob)
