"""The abstract link diagram of a Gauss code, as a ribbon graph.

Every crossing becomes a 4-valent vertex carrying a counterclockwise
rotation of its four strand ends; every arc of the diagram becomes a
band.  Thickening vertices to disks and arcs to bands yields a compact
oriented surface whose boundary circles are exactly the complementary
regions of the diagram on that surface.  Checkerboard colorability is
then 2-colorability of the region adjacency graph.

Rotation convention (counterclockwise slot order per crossing):

    sign +1:  over-in, under-in, over-out, under-out
    sign -1:  over-in, under-out, over-out, under-in

In this slot order the A-splice always joins slots (0,3) and (1,2) and
the B-splice joins (0,1) and (2,3), for either sign.  ``A_PAIRS`` and
``B_PAIRS`` are the package's one statement of that splice convention:
the bracket state sum reads its splices from them too.  ``ORIENTED_SPLICE``
names the one of the two that reconnects the strands coherently with
their orientation, derived from the slot rule: A at a positive crossing,
B at a negative one.  A splice replaces the vertex 4-cycle of the
rotation by the two transpositions of its pairing, which is how induced
state regions are traced below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .diagram import Diagram, DiagramError

BLACK = "black"
WHITE = "white"


class NotAlternating(DiagramError):
    pass


class ColorConflict(DiagramError):
    """A splice clashed with a region coloring.  This signals a bug in the
    caller or in region tracing, never a property of a valid input."""


@dataclass(frozen=True)
class RibbonGraph:
    """Ribbon graph with one 4-valent vertex per crossing.

    Darts are numbered 4*v + slot.  ``alpha`` pairs the two darts of each
    band (one band per diagram arc); ``edges`` lists the bands as (tail,
    head) dart pairs in arc order, and ``band_of_dart`` maps each dart to
    the index of its band in ``edges``, so the bands at vertex v are
    ``band_of_dart[4*v:4*v + 4]`` in slot order.  Components of the
    diagram without any passage become free loops: annuli that carry two
    regions and one adjacency constraint each.
    """

    vertex_count: int
    alpha: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    band_of_dart: tuple[int, ...]
    free_loops: int

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class RegionSet:
    """Boundary regions of a ribbon graph.

    Each region is a cyclic tuple of (edge index, side) pairs; free-loop
    regions are single-entry cycles on pseudo edges numbered after the
    real ones.  ``constraints`` joins the two regions meeting across each
    edge (including one constraint per free loop).
    """

    regions: tuple[tuple[tuple[int, int], ...], ...]
    constraints: tuple[tuple[int, int], ...]
    region_of_dart: tuple[int, ...]

    @property
    def region_count(self) -> int:
        return len(self.regions)


@dataclass(frozen=True)
class Coloring:
    """A checkerboard coloring: one color per region, adjacent regions
    always distinct."""

    regions: RegionSet
    colors: tuple[str, ...]

    def is_valid(self) -> bool:
        return all(
            self.colors[a] != self.colors[b] for a, b in self.regions.constraints
        ) and all(c in (BLACK, WHITE) for c in self.colors)

    def to_json(self) -> list[dict]:
        return [
            {"region": [[e, s] for e, s in cycle], "color": self.colors[i]}
            for i, cycle in enumerate(self.regions.regions)
        ]


def _slot(over: bool, outgoing: bool, sign: int) -> int:
    if over:
        return 2 if outgoing else 0
    if sign > 0:
        return 3 if outgoing else 1
    return 1 if outgoing else 3


def build_ald(d: Diagram) -> RibbonGraph:
    """The ribbon graph of the diagram under the rotation convention above."""
    c = d.crossing_count
    alpha = [-1] * (4 * c)
    band_of = [-1] * (4 * c)
    edges: list[tuple[int, int]] = []
    free = 0
    for comp in d.components:
        m = len(comp)
        if m == 0:
            free += 1
            continue
        for j in range(m):
            p = comp[j]
            q = comp[(j + 1) % m]
            tail = 4 * (p.crossing - 1) + _slot(p.over, True, p.sign)
            head = 4 * (q.crossing - 1) + _slot(q.over, False, q.sign)
            alpha[tail] = head
            alpha[head] = tail
            band_of[tail] = band_of[head] = len(edges)
            edges.append((tail, head))
    return RibbonGraph(
        vertex_count=c,
        alpha=tuple(alpha),
        edges=tuple(edges),
        band_of_dart=tuple(band_of),
        free_loops=free,
    )


# the slot pairs each splice joins, for either crossing sign
A_PAIRS = ((0, 3), (1, 2))
B_PAIRS = ((0, 1), (2, 3))


def _partners(pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The successor map of a splice, slot to slot: the two transpositions
    of its pairs, which replace the vertex rotation (the 4-cycle s -> s+1)."""
    partner = [0] * 4
    for s, t in pairs:
        partner[s], partner[t] = t, s
    return tuple(partner)


_ROTATION = (1, 2, 3, 0)
_A_PAIRING = _partners(A_PAIRS)
_B_PAIRING = _partners(B_PAIRS)


def _oriented_pairs(sign: int) -> set[frozenset[int]]:
    """The slot pairs of the oriented splice: each incoming strand end
    joins the outgoing end of the other strand."""
    return {
        frozenset((_slot(over, False, sign), _slot(not over, True, sign)))
        for over in (True, False)
    }


# the splice, "A" or "B", that is the oriented one at a crossing of each sign
ORIENTED_SPLICE = {
    sign: "A" if _oriented_pairs(sign) == {frozenset(p) for p in A_PAIRS} else "B"
    for sign in (1, -1)
}


def boundary_regions(g: RibbonGraph, splices: Optional[Mapping[int, str]] = None) -> RegionSet:
    """Trace the boundary walks of the ribbon surface.

    Walk rule: follow a band to its far end, then turn to the next slot of
    the vertex rotation (or across the splice pairing for crossings listed
    in ``splices``, mapping crossing id to "A" or "B").  Each dart lies on
    exactly one walk; the two darts of an edge give its two sides.
    """
    n = 4 * g.vertex_count
    alpha, band_of, edges = g.alpha, g.band_of_dart, g.edges
    steps = [
        _ROTATION if not splices or v + 1 not in splices
        else _A_PAIRING if splices[v + 1] == "A" else _B_PAIRING
        for v in range(g.vertex_count)
    ]
    # turn[dart]: the dart a walk leaves by after arriving at ``dart``
    turn = [4 * v + t for v, step in enumerate(steps) for t in step]

    region_of = [-1] * n
    regions: list[tuple[tuple[int, int], ...]] = []
    for start in range(n):
        if region_of[start] != -1:
            continue
        cycle = []
        dart = start
        while region_of[dart] == -1:
            region_of[dart] = len(regions)
            ei = band_of[dart]
            cycle.append((ei, 0 if edges[ei][0] == dart else 1))
            dart = turn[alpha[dart]]
        regions.append(tuple(cycle))
    constraints = [(region_of[t], region_of[h]) for t, h in edges]
    # free loops: an annulus each, two one-sided regions on a pseudo edge
    for k in range(g.free_loops):
        pseudo = g.edge_count + k
        a = len(regions)
        regions.append(((pseudo, 0),))
        regions.append(((pseudo, 1),))
        constraints.append((a, a + 1))
    return RegionSet(
        regions=tuple(regions),
        constraints=tuple(constraints),
        region_of_dart=tuple(region_of),
    )


def _two_color(regions: RegionSet) -> Optional[list[str]]:
    """2-color the constraint graph, first-discovered region in each piece
    black.  None when some piece is not bipartite."""
    adj: dict[int, list[int]] = {i: [] for i in range(regions.region_count)}
    for a, b in regions.constraints:
        if a == b:
            return None
        adj[a].append(b)
        adj[b].append(a)
    colors: list[Optional[str]] = [None] * regions.region_count
    for root in range(regions.region_count):
        if colors[root] is not None:
            continue
        colors[root] = BLACK
        stack = [root]
        while stack:
            r = stack.pop()
            want = WHITE if colors[r] == BLACK else BLACK
            for s in adj[r]:
                if colors[s] is None:
                    colors[s] = want
                    stack.append(s)
                elif colors[s] != want:
                    return None
    return colors  # type: ignore[return-value]


def checkerboard_colorable(d: Diagram) -> Optional[Coloring]:
    """A checkerboard coloring of the associated abstract link diagram,
    or None when no such coloring exists."""
    return _checkerboard_coloring(build_ald(d))


def _checkerboard_coloring(g: RibbonGraph) -> Optional[Coloring]:
    # the body of checkerboard_colorable, for callers that already hold
    # the ribbon graph
    regions = boundary_regions(g)
    colors = _two_color(regions)
    if colors is None:
        return None
    coloring = Coloring(regions=regions, colors=tuple(colors))
    assert coloring.is_valid()
    return coloring


def is_alternating(d: Diagram) -> bool:
    """Whether over and under passages strictly alternate along every
    component.  Crossing-free components are vacuously alternating."""
    for comp in d.components:
        m = len(comp)
        for j in range(m):
            if comp[j].over == comp[(j + 1) % m].over:
                return False
    return True


class _ParityDSU:
    """Union-find where each element carries a parity relative to its root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n

    def find(self, x: int) -> tuple[int, int]:
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        p = 0
        for y in reversed(path):
            p ^= self.parity[y]
            self.parent[y] = x
            self.parity[y] = p
        return x, 0 if not path else self.parity[path[0]]

    def union(self, x: int, y: int, rel: int) -> bool:
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == rel
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ rel
        return True


def make_alternating(d: Diagram) -> Optional[frozenset[int]]:
    """A set of crossings whose change makes the diagram alternating, or
    None when no crossing changes can.  An already-alternating diagram
    yields the empty set."""
    c = d.crossing_count
    dsu = _ParityDSU(c + 1)
    for comp in d.components:
        m = len(comp)
        for j in range(m):
            p, q = comp[j], comp[(j + 1) % m]
            rel = 1 ^ (p.over ^ q.over)
            if p.crossing == q.crossing:
                if rel == 1:
                    return None
                continue
            if not dsu.union(p.crossing, q.crossing, rel):
                return None
    changes = set()
    for cid in range(1, c + 1):
        root, parity = dsu.find(cid)
        if parity:
            changes.add(cid)
    return frozenset(changes)


def _corner_region(g: RibbonGraph, regions: RegionSet, vertex: int, slot: int) -> int:
    """The region sweeping the corner between slots (slot, slot+1) of a
    vertex: it is the walk arriving along the band at ``slot``."""
    return regions.region_of_dart[g.alpha[4 * vertex + slot]]


def coloring_from_alternating(d: Diagram) -> Coloring:
    """The canonical coloring of an alternating diagram: at every crossing
    the corners between rotation slots (0,1) and (2,3) are black, the other
    two white.  Raises NotAlternating when the diagram is not alternating.
    """
    if not is_alternating(d):
        raise NotAlternating("diagram has a non-alternating component")
    g = build_ald(d)
    regions = boundary_regions(g)
    colors: list[Optional[str]] = [None] * regions.region_count
    for v in range(g.vertex_count):
        for slot in range(4):
            color = BLACK if slot in (0, 2) else WHITE
            r = _corner_region(g, regions, v, slot)
            if colors[r] is None:
                colors[r] = color
            elif colors[r] != color:
                raise ColorConflict(
                    f"corner rule clashes at vertex {v + 1}, slot {slot}"
                )
    # pieces without crossings: free-loop annuli, colored deterministically
    for a, b in regions.constraints:
        if colors[a] is None and colors[b] is None:
            colors[a], colors[b] = BLACK, WHITE
    for i, col in enumerate(colors):
        if col is None:
            colors[i] = BLACK
    coloring = Coloring(regions=regions, colors=tuple(colors))
    if not coloring.is_valid():
        raise ColorConflict("corner rule did not extend to a proper coloring")
    return coloring


def induced_state_coloring(d: Diagram, coloring: Coloring, choices: Mapping[int, str]) -> Coloring:
    """Push a coloring through a full splice assignment.

    The spliced surface's regions are traced with the vertex rotations
    replaced by the splice pairings; every new region inherits the common
    color of the old regions it swallows.  For a valid input coloring the
    inherited colors always agree; disagreement raises ColorConflict and
    indicates a bug, not bad data.
    """
    g = build_ald(d)
    if set(choices) != set(range(1, g.vertex_count + 1)):
        raise ColorConflict("choices must cover exactly the crossings of the diagram")
    old = coloring.regions
    new = boundary_regions(g, splices=choices)
    colors: list[Optional[str]] = [None] * new.region_count
    for dart in range(4 * g.vertex_count):
        r_new = new.region_of_dart[dart]
        r_old = old.region_of_dart[dart]
        inherited = coloring.colors[r_old]
        if colors[r_new] is None:
            colors[r_new] = inherited
        elif colors[r_new] != inherited:
            raise ColorConflict(
                f"splice merged regions of different colors at dart {dart}"
            )
    # free-loop regions of the original diagram keep their colors; they sit
    # at the same indices past the traced ones in both region sets
    for k in range(2 * g.free_loops):
        i_new = new.region_count - 2 * g.free_loops + k
        i_old = old.region_count - 2 * g.free_loops + k
        colors[i_new] = coloring.colors[i_old]
    result = Coloring(regions=new, colors=tuple(colors))
    if not result.is_valid():
        raise ColorConflict("induced assignment is not a proper coloring")
    return result


def euler_summary(d: Diagram) -> dict[str, int]:
    """Diagnostic counts of the thickened surface: vertices, edges,
    boundary regions and the genus of the closed-up surface."""
    g = build_ald(d)
    regions = boundary_regions(g)
    v, e = g.vertex_count, g.edge_count
    b = regions.region_count - 2 * g.free_loops
    # per connected piece with vertices: chi(closed) = V - E + B = 2 - 2g
    return {
        "vertices": v,
        "edges": e,
        "boundary_regions": b,
        "free_loops": g.free_loops,
        "euler_closed": v - e + b,
    }
