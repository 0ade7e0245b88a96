from collections import deque

import pytest
from hypothesis import settings

from vknots import LaurentPoly, Passage, bracket, index_spectrum, make_diagram, parse_gauss, writhe
from vknots.ald import BLACK, WHITE, checkerboard_colorable, make_alternating

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
