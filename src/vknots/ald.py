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
B at a negative one.

Regions follow one walk rule, in ``_trace``: along a band to its far
end, then out by the next slot of the rotation there or, at a spliced
vertex, by the slot the splice pairs with the one arrived at.  ``_trace``
labels every dart with its walk on flat lists and records where each
walk starts, which is all that counting walks needs; ``_materialise``
turns that into a ``RegionSet`` of (edge, side) cycles.  The
colorability check 2-colors the walks' constraint graph on those lists
first and builds the ``RegionSet`` and ``Coloring`` only for a colorable
diagram, so most diagrams, which are not colorable, never build one.
Every splice assignment passes the one check ``_check_splices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .diagram import Diagram, DiagramError

BLACK = "black"
WHITE = "white"
_COLORS = {BLACK, WHITE}


class NotAlternating(DiagramError):
    pass


class IncompleteChoices(DiagramError):
    """A splice assignment names a crossing the diagram lacks, leaves out
    one that a full state needs, or splices other than "A" or "B"."""


class ColorConflict(DiagramError):
    """A splice clashed with a region coloring.  This signals a bug in the
    caller or in region tracing, never a property of a valid input."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Coloring:
    """A checkerboard coloring: one color per region, adjacent regions
    always distinct."""

    regions: RegionSet
    colors: tuple[str, ...]

    def is_valid(self) -> bool:
        colors = self.colors
        return all(colors[a] != colors[b] for a, b in self.regions.constraints) and set(colors) <= _COLORS

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


# The darts of a passage at its crossing, less 4 * crossing: (incoming,
# outgoing) strand end, indexed [over][sign].  Sign -1 reads the last entry.
_ENDS = tuple(
    (None,) + tuple((_slot(over, False, sign) - 4, _slot(over, True, sign) - 4) for sign in (1, -1))
    for over in (False, True)
)


def build_ald(d: Diagram) -> RibbonGraph:
    """The ribbon graph of the diagram under the rotation convention above."""
    c = d.crossing_count
    alpha = [-1] * (4 * c)
    band_of = [-1] * (4 * c)
    edges: list[tuple[int, int]] = []
    free = 0
    for comp in d.components:
        if not comp:
            free += 1
            continue
        # band j runs from the outgoing end of passage j to the incoming
        # end of passage j + 1; the last closes the component at its head
        x, over, sign = comp[0]
        first, tail = _ENDS[over][sign]
        first += 4 * x
        tail += 4 * x
        for x, over, sign in comp[1:]:
            into, out = _ENDS[over][sign]
            head = 4 * x + into
            alpha[tail] = head
            alpha[head] = tail
            band_of[tail] = band_of[head] = len(edges)
            edges.append((tail, head))
            tail = 4 * x + out
        alpha[tail] = first
        alpha[first] = tail
        band_of[tail] = band_of[first] = len(edges)
        edges.append((tail, first))
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


_NEXT_SLOT = (1, 1, 1, -3)  # dart + this: the next slot of the rotation s -> s+1
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


def _check_splices(c: int, splices: Mapping[int, str], full: bool) -> None:
    """Raise IncompleteChoices unless ``splices`` maps crossings among
    1..c (all of them when ``full``) to "A" or "B"."""
    if (full and len(splices) != c) or not all(isinstance(x, int) and 0 < x <= c for x in splices):
        raise IncompleteChoices(f"choices must {'cover' if full else 'lie among'} crossings 1..{c}")
    for v in splices.values():
        if v not in ("A", "B"):
            raise IncompleteChoices(f"bad splice choice {v!r}")


def _trace(g: RibbonGraph, splices: Optional[Mapping[int, str]]) -> tuple[list[int], list[int], list[int]]:
    """The boundary walks of the ribbon surface, as flat lists: the
    successor of each dart on its walk, the walk of each dart, and the
    first dart of each walk, walks numbered by their first dart.
    ``splices`` has passed ``_check_splices``."""
    alpha = g.alpha
    # succ[dart]: the dart a walk leaves by after the band from ``dart``,
    # the next slot of the far vertex; at spliced crossing x the walk
    # arriving at slot s, from dart alpha[4(x-1) + s], leaves by pairing[s]
    succ = [a + _NEXT_SLOT[a & 3] for a in alpha]
    for x, choice in (splices or {}).items():
        base = 4 * (x - 1)
        pairing = _A_PAIRING if choice == "A" else _B_PAIRING
        for s in range(4):
            succ[alpha[base + s]] = base + pairing[s]
    n = len(alpha)
    region_of = [-1] * n
    starts: list[int] = []
    for start in range(n):
        if region_of[start] != -1:
            continue
        r = len(starts)
        starts.append(start)
        dart = start
        while region_of[dart] == -1:
            region_of[dart] = r
            dart = succ[dart]
    return succ, region_of, starts


def _materialise(g: RibbonGraph, succ: list[int], region_of: list[int], starts: list[int]) -> RegionSet:
    """The RegionSet of walks traced by ``_trace``: their (edge, side)
    cycles, one constraint per band, and the free loops."""
    edges = g.edges
    # side[dart]: the (edge index, side) entry of dart in its region, side
    # 0 for the tail of its band and 1 for the head
    side: list[Optional[tuple[int, int]]] = [None] * len(succ)
    for ei, (t, h) in enumerate(edges):
        side[t] = (ei, 0)
        side[h] = (ei, 1)
    regions = []
    for start in starts:
        cycle = [side[start]]
        dart = succ[start]
        while dart != start:
            cycle.append(side[dart])
            dart = succ[dart]
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


def boundary_regions(g: RibbonGraph, splices: Optional[Mapping[int, str]] = None) -> RegionSet:
    """Trace the boundary walks of the ribbon surface.

    Walk rule: follow a band to its far end, then turn to the next slot of
    the vertex rotation (or across the splice pairing for crossings listed
    in ``splices``, mapping crossing id to "A" or "B").  Each dart lies on
    exactly one walk; the two darts of an edge give its two sides.  A
    splice key outside 1..c or a value other than "A" or "B" raises
    IncompleteChoices.
    """
    if splices:
        _check_splices(g.vertex_count, splices, full=False)
    return _materialise(g, *_trace(g, splices))


def checkerboard_colorable(d: Diagram) -> Optional[Coloring]:
    """A checkerboard coloring of the associated abstract link diagram,
    or None when no such coloring exists."""
    return _checkerboard_coloring(build_ald(d))


def _checkerboard_coloring(g: RibbonGraph) -> Optional[Coloring]:
    # the body of checkerboard_colorable, for callers that already hold
    # the ribbon graph.  The constraint graph of the traced walks, one
    # edge per band, is 2-coloured on plain lists, the first region of
    # each piece black (0); the RegionSet is built only when that succeeds.
    succ, region_of, starts = _trace(g, None)
    count = len(starts)
    adj: list[list[int]] = [[] for _ in range(count)]
    for t, h in g.edges:
        a, b = region_of[t], region_of[h]
        if a == b:
            return None
        adj[a].append(b)
        adj[b].append(a)
    color = [-1] * count
    for root in range(count):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            r = stack.pop()
            want = 1 - color[r]
            for s in adj[r]:
                if color[s] == -1:
                    color[s] = want
                    stack.append(s)
                elif color[s] != want:
                    return None
    # each free loop is a piece of its own: two regions, the first black.
    # The list, unlike a generator, gives tuple() its length: a tuple
    # resized after the fact moves memory into the free lists of smaller
    # tuples, and a sweep's peak RSS grew by about 0.3 MB that way.
    colors = tuple([WHITE if c else BLACK for c in color]) + (BLACK, WHITE) * g.free_loops
    coloring = Coloring(regions=_materialise(g, succ, region_of, starts), colors=colors)
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


def _parity_root(parent: list[int], parity: list[int], x: int) -> tuple[int, int]:
    """The root of crossing x in the union-find of ``make_alternating``,
    and 1 when exactly one of x and its root is changed; the find halves
    the path from x."""
    flip = 0
    while parent[x] != x:
        up = parent[x]
        parity[x] ^= parity[up]
        flip ^= parity[x]
        parent[x] = x = parent[up]
    return x, flip


def make_alternating(d: Diagram) -> Optional[frozenset[int]]:
    """A set of crossings whose change makes the diagram alternating, or
    None when no crossing changes can.  An already-alternating diagram
    yields the empty set."""
    c = d.crossing_count
    # a union-find over the crossings: parity[x] is 1 when exactly one of
    # x and parent[x] is changed, and roots are not changed.  A union
    # hangs the root of its second crossing under that of its first.
    parent = list(range(c + 1))
    parity = [0] * (c + 1)
    for comp in d.components:
        for (x, x_over, _), (y, y_over, _) in zip(comp, comp[1:] + comp[:1]):
            # consecutive passages of one role alternate once exactly one
            # of their crossings is changed (``rel``); of two roles, once
            # neither or both are
            rel = x_over == y_over
            if x == y:
                if rel:
                    return None
                continue
            x, flip_x = _parity_root(parent, parity, x)
            y, flip_y = _parity_root(parent, parity, y)
            rel ^= flip_x ^ flip_y
            if x == y:
                if rel:
                    return None
            else:
                parent[y] = x
                parity[y] = rel
    return frozenset(cid for cid in range(1, c + 1) if _parity_root(parent, parity, cid)[1])


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
    # every traced region sweeps some corner; the free-loop annuli that
    # follow them are colored as by _checkerboard_coloring
    colors: list[Optional[str]] = [None] * (regions.region_count - 2 * g.free_loops)
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
    coloring = Coloring(regions=regions, colors=tuple(colors) + (BLACK, WHITE) * g.free_loops)
    if not coloring.is_valid():
        raise ColorConflict("corner rule did not extend to a proper coloring")
    return coloring


def induced_state_coloring(d: Diagram, coloring: Coloring, choices: Mapping[int, str]) -> Coloring:
    """Push a coloring through a full splice assignment.

    The spliced surface's regions are traced with the vertex rotations
    replaced by the splice pairings; every new region inherits the common
    color of the old regions it swallows.  For a valid input coloring the
    inherited colors always agree; disagreement raises ColorConflict and
    indicates a bug, not bad data.  Choices that are not a full splice
    assignment raise IncompleteChoices.
    """
    _check_splices(d.crossing_count, choices, full=True)
    g = build_ald(d)
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
    v, e = g.vertex_count, g.edge_count
    b = len(_trace(g, None)[2])
    # per connected piece with vertices: chi(closed) = V - E + B = 2 - 2g
    return {
        "vertices": v,
        "edges": e,
        "boundary_regions": b,
        "free_loops": g.free_loops,
        "euler_closed": v - e + b,
    }


__all__ = [
    "ColorConflict",
    "Coloring",
    "IncompleteChoices",
    "NotAlternating",
    "RegionSet",
    "RibbonGraph",
    "boundary_regions",
    "build_ald",
    "checkerboard_colorable",
    "coloring_from_alternating",
    "euler_summary",
    "induced_state_coloring",
    "is_alternating",
    "make_alternating",
]
