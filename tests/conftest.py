from collections import deque

import pytest
from hypothesis import settings

from vknots import LaurentPoly, Passage, bracket, index_spectrum, make_diagram, parse_gauss, writhe
from vknots.ald import BLACK, WHITE, checkerboard_colorable, make_alternating
from vknots.bracket import _splice_rows

# Every run draws the same property examples, so a property failure
# reproduces from a plain rerun.  Example counts and deadlines are those
# of hypothesis's defaults and of each test's own settings.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# Canonical small codes.  The left-handed (all-negative) trefoil variants
# carry the frozen reference polynomials A^4+A^12-A^16 and A^4+A^6-A^10;
# the all-positive codes give the A -> 1/A mirrors of those.
TREFOIL = "O1-U2-O3-U1-O2-U3-"
TREFOIL_MIRROR = "O1+U2+O3+U1+O2+U3+"
VIRTUAL_TREFOIL = "O1-O2-U1-U2-"
VIRTUAL_TREFOIL_MIRROR = "O1+O2+U1+U2+"
KINK_PLUS = "O1+U1+"
FIGURE_EIGHT = "O1+U2+O3-U4-O2+U1+O4-U3-"
UNKNOT = "()"
HOPF = "O1+U2+\nO2+U1+"


def swap_roles(d, crossings):
    """d with the over and under passages of the given crossings swapped
    and every sign kept: the same signed word, other roles."""
    return make_diagram(
        [[Passage(p.crossing, p.over != (p.crossing in crossings), p.sign) for p in comp] for comp in d.components]
    )


def memo_free_f(d) -> LaurentPoly:
    """f = (-1)^w A^(-3w) <d> from the public bracket, which keeps no memo."""
    w = writhe(d)
    f = bracket(d).shift(-3 * w)
    return -f if w & 1 else f


def memo_free_verdict_parts(d) -> tuple:
    """(f, its congruence class, whether f(1) = (-2)^(n-1), the sorted
    index spectrum, the alternating-equivalence verdict) from memo_free_f,
    the public index_spectrum, make_alternating and checkerboard_colorable,
    which keep no memo: what verify_diagram's memo serves for a signed
    word."""
    f = memo_free_f(d)
    unit_eval_ok = f.evaluate_at_one() == (-2) ** (d.component_count - 1)
    equiv_ok = (make_alternating(d) is not None) == (checkerboard_colorable(d) is not None)
    return f, f.congruence_class_mod4(), unit_eval_ok, tuple(sorted(index_spectrum(d))), equiv_ok


def oracle_walks(g) -> list[tuple[tuple[int, int], ...]]:
    """The boundary walks of the unspliced ribbon surface, read off the
    walk rule directly: from a dart, cross its band, then turn to the next
    slot of the far vertex.  Each walk starts at its lowest dart, walks are
    numbered in order of that dart, and a dart is written (band, 0 for
    the band's tail or 1 for its head)."""
    seen: set[int] = set()
    walks = []
    for start in range(4 * g.vertex_count):
        if start in seen:
            continue
        walk = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            band = g.band_of_dart[dart]
            walk.append((band, g.edges[band].index(dart)))
            far = g.alpha[dart]
            dart = far - far % 4 + (far + 1) % 4
        walks.append(tuple(walk))
    return walks


def oracle_two_coloring(regions) -> list[str] | None:
    """A plain breadth-first 2-colouring of a RegionSet's constraint
    graph, the lowest region of each piece black; None when some piece is
    not bipartite.  A checkerboard colouring, where one exists, is this
    one."""
    adj: list[list[int]] = [[] for _ in regions.regions]
    for a, b in regions.constraints:
        adj[a].append(b)
        adj[b].append(a)
    colors: list[str | None] = [None] * len(adj)
    for root in range(len(adj)):
        if colors[root] is not None:
            continue
        colors[root] = BLACK
        queue = deque([root])
        while queue:
            r = queue.popleft()
            other = WHITE if colors[r] == BLACK else BLACK
            for s in adj[r]:
                if colors[s] is None:
                    colors[s] = other
                    queue.append(s)
                elif colors[s] != other:
                    return None
    return colors


def contraction_histograms(g, open_x=None):
    """The (#B, loops) -> count histogram over all states of g, or with
    crossing open_x + 1 left open the pair of its A and its B histogram,
    summed by a frontier contraction that shares no code with ``_walk``.

    Crossings are added one at a time, each next the one that shares the
    most bands with those already added, the open crossing last.  A
    partial state is keyed by a tuple over bands: the partner of each open
    band (one end added, the other not), that is the open band at the far
    end of the path through added crossings, or -1.  Each key holds one
    packed int whose field at bit (#B * L + loops) * W counts its states,
    with L = arcs + free + 1 and W = c + 1 bits, room for 2^c.  A splice
    pair joins two band ends at the added crossing: when each is the
    other's path end, a loop closes, and otherwise their far ends become
    partners."""
    rows = _splice_rows(g)
    c, n, free = g.vertex_count, g.edge_count, g.free_loops
    width, loop_span = c + 1, n + free + 1
    # the vertex of each band's tail and head
    ends = [(t // 4, h // 4) for t, h in g.edges]
    bands_at = [set(g.band_of_dart[4 * v:4 * v + 4]) for v in range(c)]
    order, done = [], set()
    rest = [v for v in range(c) if v != open_x]
    while rest:
        v = max(rest, key=lambda v: len(bands_at[v] & done))
        rest.remove(v)
        order.append(v)
        done |= bands_at[v]
    if open_x is not None:
        order.append(open_x)
    added = [False] * c
    states = {(-1,) * n: 1 << free * width}
    for v in order:
        def far_end(band):
            # the end of an open band at a vertex not yet added
            return (band, 1 if added[ends[band][0]] else 0)

        sides = []
        for splice, pairs in enumerate(rows[v]):
            nxt: dict[tuple[int, ...], int] = {}
            for key, packed in states.items():
                mate: dict[tuple[int, int], tuple[int, int]] = {}

                def mate_of(t):
                    if t in mate:
                        return mate[t]
                    band, e = t
                    if key[band] >= 0:
                        return far_end(key[band])
                    return (band, 1 - e)

                free_at_v = {b: [e for e in (0, 1) if ends[b][e] == v] for b in bands_at[v]}
                closed = 0
                for a, b in pairs:
                    p, q = (a, free_at_v[a].pop()), (b, free_at_v[b].pop())
                    mp, mq = mate_of(p), mate_of(q)
                    if mp == q:
                        closed += 1
                    else:
                        mate[mp], mate[mq] = mq, mp
                new = list(key)
                for b in bands_at[v]:
                    new[b] = -1
                for (band, e), (other, _) in mate.items():
                    if ends[band][e] != v and not added[ends[band][e]]:
                        new[band] = other
                shift = (closed + (splice if v != open_x else 0) * loop_span) * width
                new_key = tuple(new)
                nxt[new_key] = nxt.get(new_key, 0) + (packed << shift)
            sides.append(nxt)
        added[v] = True
        states = {}
        for side in sides:
            for key, packed in side.items():
                states[key] = states.get(key, 0) + packed

    def unpack(packed):
        hist, field, mask = {}, 0, (1 << width) - 1
        while packed:
            if packed & mask:
                hist[divmod(field, loop_span)] = packed & mask
            packed >>= width
            field += 1
        return hist

    if open_x is not None:
        return tuple(unpack(sum(side.values())) for side in sides)
    return unpack(sum(states.values()))


@pytest.fixture
def trefoil():
    return parse_gauss(TREFOIL)


@pytest.fixture
def trefoil_mirror():
    return parse_gauss(TREFOIL_MIRROR)


@pytest.fixture
def virtual_trefoil():
    return parse_gauss(VIRTUAL_TREFOIL)


@pytest.fixture
def virtual_trefoil_mirror():
    return parse_gauss(VIRTUAL_TREFOIL_MIRROR)


@pytest.fixture
def figure_eight():
    return parse_gauss(FIGURE_EIGHT)


@pytest.fixture
def unknot():
    return parse_gauss(UNKNOT)


@pytest.fixture
def hopf():
    return parse_gauss(HOPF)
