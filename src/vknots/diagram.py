"""Virtual link diagrams as signed Gauss codes.

A diagram is an ordered collection of components, each a cyclic sequence
of crossing passages.  Every classical crossing appears exactly twice,
once as the over strand and once as the under strand, with one sign
recorded at both passages.  Virtual crossings are not stored at all: a
signed Gauss code determines a virtual link diagram up to the purely
virtual moves, which is exactly the quotient all the invariants in this
package factor through.

Sign convention: sign +1 means the under strand crosses from right to
left when viewed along the over strand's orientation.  The convention is
pinned operationally by the one-crossing kink "O1+U1+", whose bracket
must equal -A^3 so that the normalized bracket is invariant under
first Reidemeister moves.

Text format (one diagram):
    - one line per component, ``#`` lines are comments
    - a component is a sequence of tokens ``O<id><sign>`` / ``U<id><sign>``
      with sign ``+`` or ``-``, e.g. ``O1+U2+O3+U1+O2+U3+``
    - ``()`` (or a blank interior line) denotes a crossing-free component
Crossing ids may be arbitrary positive integers; they are renumbered
1..c in order of first appearance.  An id (or PD edge label) longer than
``int()`` converts is a MalformedToken.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from typing import Iterable, NamedTuple, Optional, Sequence


# ---------------------------------------------------------------------------
# errors

class DiagramError(Exception):
    """Base class for all diagram-level errors."""


class MalformedToken(DiagramError):
    pass


class DanglingCrossing(DiagramError):
    pass


class SignMismatch(DiagramError):
    pass


class OpenStrand(DiagramError):
    pass


class BadDegree(DiagramError):
    pass


class UnknownCrossing(DiagramError):
    pass


class InapplicableMove(DiagramError):
    pass


# ---------------------------------------------------------------------------
# core data

class Passage(NamedTuple):
    crossing: int
    over: bool
    sign: int

    def token(self) -> str:
        return f"{'O' if self.over else 'U'}{self.crossing}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True, slots=True)
class Diagram:
    """An immutable virtual link diagram.

    ``components`` holds cyclic passage sequences; crossing ids are always
    exactly 1..crossing_count in order of first appearance.  All operations
    return new diagrams.
    """

    components: tuple[tuple[Passage, ...], ...]

    @property
    def crossing_count(self) -> int:
        return sum(map(len, self.components)) // 2

    @property
    def component_count(self) -> int:
        return len(self.components)

    def signs(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for comp in self.components:
            for p in comp:
                out[p.crossing] = p.sign
        return out

    def passage_positions(self, crossing: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """((comp, idx) of the over passage, (comp, idx) of the under passage)."""
        over = under = None
        for ci, comp in enumerate(self.components):
            for j, p in enumerate(comp):
                if p.crossing == crossing:
                    if p.over:
                        over = (ci, j)
                    else:
                        under = (ci, j)
        if over is None or under is None:
            raise UnknownCrossing(f"no crossing {crossing} in diagram")
        return over, under

    def __str__(self) -> str:
        return serialize(self)


@cache
def _passage(crossing: int, over: bool, sign: int) -> Passage:
    # one shared tuple per distinct passage: diagrams are immutable and
    # renumbered 1..c, so every diagram draws on the same few passages
    return Passage(crossing, over, sign)


def _normalize_ids(components: Iterable[Sequence[Passage]]) -> tuple[tuple[Passage, ...], ...]:
    # ``_encode`` numbers the ids; its (role, id, sign) triples become passages
    return tuple(
        tuple(_passage(x, not role, sign) for role, x, sign in comp) for comp in _encode(components)
    )


def _validate(components: tuple[tuple[Passage, ...], ...]) -> None:
    seen: dict[int, list[Passage]] = {}
    for comp in components:
        for p in comp:
            if p.crossing < 1:
                raise MalformedToken(f"crossing id {p.crossing} must be positive")
            if p.sign not in (1, -1):
                raise MalformedToken(f"bad sign {p.sign} at crossing {p.crossing}")
            prior = seen.setdefault(p.crossing, [])
            for q in prior:
                if q.sign != p.sign:
                    raise SignMismatch(f"crossing {p.crossing} recorded with both signs")
                if q.over == p.over:
                    raise DanglingCrossing(
                        f"crossing {p.crossing} appears twice as "
                        f"{'over' if p.over else 'under'}"
                    )
            if len(prior) >= 2:
                raise DanglingCrossing(f"crossing {p.crossing} appears more than twice")
            prior.append(p)
    for k, ps in seen.items():
        if len(ps) != 2:
            raise DanglingCrossing(f"crossing {k} appears only once")
    c = len(seen)
    if seen and (min(seen) != 1 or max(seen) != c):
        raise DanglingCrossing("crossing ids are not 1..c")


def make_diagram(components: Iterable[Sequence[Passage]]) -> Diagram:
    """Build a validated diagram, renumbering crossing ids by first appearance."""
    comps = _normalize_ids(components)
    _validate(comps)
    return Diagram(comps)


# ---------------------------------------------------------------------------
# parsing and serialization

_GAUSS_TOKEN = re.compile(r"\s*([OU])(\d+)([+-])")


def _number(digits: str) -> int:
    # int() refuses a digit run longer than the interpreter's conversion
    # limit (4 300 digits by default) with a bare ValueError
    try:
        return int(digits)
    except ValueError:
        raise MalformedToken(f"number of {len(digits)} digits is too long") from None


def parse_gauss(text: str) -> Diagram:
    """Parse the Gauss-code text format described in the module docstring."""
    lines = text.splitlines()
    # leading/trailing blank lines carry no meaning; interior blanks are
    # crossing-free components (serialize always emits the explicit marker)
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    components: list[list[Passage]] = []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if stripped == "" or stripped == "()":
            components.append([])
            continue
        comp: list[Passage] = []
        pos = 0
        while pos < len(stripped):
            m = _GAUSS_TOKEN.match(stripped, pos)
            if m is None:
                raise MalformedToken(f"bad token at {stripped[pos:pos + 12]!r}")
            role, num, sign = m.groups()
            cid = _number(num)
            if cid < 1:
                raise MalformedToken(f"crossing id must be positive in {m.group(0)!r}")
            comp.append(Passage(cid, role == "O", 1 if sign == "+" else -1))
            pos = m.end()
        components.append(comp)
    return make_diagram(components)


def serialize(d: Diagram) -> str:
    """Canonical text form; ``parse_gauss`` round-trips it exactly."""
    lines = []
    for comp in d.components:
        lines.append("".join(p.token() for p in comp) if comp else "()")
    return "\n".join(lines)


_PD_TOKEN = re.compile(r"\s*([XV])\[(\d+)\s*,(\d+)\s*,(\d+)\s*,(\d+)\]([+-]?)")


def parse_pd(text: str) -> Diagram:
    """Parse a PD text into a Gauss-code diagram.

    Records are ``X[a,b,c,d]<sign>`` for classical crossings and
    ``V[a,b,c,d]`` for virtual ones, over edge labels that each occur
    exactly twice.  The four labels are listed counterclockwise; ``a`` is
    the incoming under edge and ``c`` the outgoing under edge.  For sign
    ``+`` the over strand runs d -> b, for sign ``-`` it runs b -> d.
    Virtual records connect a-c and b-d and leave no passage behind.
    """
    records: list[tuple[str, tuple[int, int, int, int], int]] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        pos = 0
        while pos < len(line):
            m = _PD_TOKEN.match(line, pos)
            if m is None:
                raise MalformedToken(f"bad PD record at {line[pos:pos + 16]!r}")
            kind, a, b, c, dd, sign = m.groups()
            if kind == "X" and sign == "":
                raise MalformedToken(f"classical record {m.group(0)!r} needs a sign")
            if kind == "V" and sign != "":
                raise MalformedToken(f"virtual record {m.group(0)!r} must not carry a sign")
            records.append(
                (kind, (_number(a), _number(b), _number(c), _number(dd)), 1 if sign == "+" else -1)
            )
            pos = m.end()

    # ports are (record index, slot); label edges join the two occurrences
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ri, (_, labels, _) in enumerate(records):
        for slot, lab in enumerate(labels):
            occurrences.setdefault(lab, []).append((ri, slot))
    for lab, ports in occurrences.items():
        if len(ports) != 2:
            raise BadDegree(f"edge label {lab} used {len(ports)} times (expected 2)")

    def other_port(port: tuple[int, int]) -> tuple[int, int]:
        ri, slot = port
        lab = records[ri][1][slot]
        p, q = occurrences[lab]
        return q if p == port else p

    # through-path direction inside a record: X enters at slot a (under) or
    # at the over-in slot; V pass-throughs are direction free.  Each
    # traversal consumes both ports of the path it uses.
    def through(port: tuple[int, int]) -> tuple[tuple[int, int], Optional[Passage]]:
        ri, slot = port
        kind, _, sign = records[ri]
        cid = ri + 1
        if kind == "V":
            return (ri, (slot + 2) % 4), None
        over_in = 3 if sign > 0 else 1
        if slot == 0:
            return (ri, 2), Passage(cid, False, sign)
        if slot == over_in:
            return (ri, (over_in + 2) % 4), Passage(cid, True, sign)
        raise OpenStrand(
            f"record {ri} entered at an outgoing slot; edge labels do not "
            "form coherently oriented strands"
        )

    used: set[tuple[int, int]] = set()
    components: list[list[Passage]] = []

    def trace(start: tuple[int, int]) -> None:
        comp: list[Passage] = []
        port = start
        while True:
            if port in used:
                raise OpenStrand(f"strand through port {port} does not close up")
            exit_port, passage = through(port)
            used.add(port)
            used.add(exit_port)
            if passage is not None:
                comp.append(passage)
            port = other_port(exit_port)
            if port == start:
                break
        components.append(comp)

    for ri, (kind, _, sign) in enumerate(records):
        if kind != "X":
            continue
        for entry in (0, 3 if sign > 0 else 1):
            if (ri, entry) not in used:
                trace((ri, entry))
    for ri, (kind, _, _) in enumerate(records):
        if kind == "V":
            for entry in (0, 1, 2, 3):
                if (ri, entry) not in used:
                    trace((ri, entry))
    return make_diagram(components)


# ---------------------------------------------------------------------------
# elementary operations

def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(d.signs().values())


def crossing_change(d: Diagram, crossing: int) -> Diagram:
    """Swap over/under at both passages of one crossing and negate its sign."""
    d.passage_positions(crossing)  # raises UnknownCrossing
    comps = tuple(
        tuple(
            Passage(p.crossing, not p.over, -p.sign) if p.crossing == crossing else p
            for p in comp
        )
        for comp in d.components
    )
    return Diagram(comps)


def reverse_all(d: Diagram) -> Diagram:
    """Reverse the orientation of every component.  Signs are unchanged."""
    return make_diagram(comp[::-1] for comp in d.components)


def _splice_arcs(d: Diagram, crossing: int) -> tuple[list[Passage], list[Passage], list[tuple[Passage, ...]]]:
    """The two open arcs produced by cutting at a crossing.

    Returns (first, second, untouched components).  The first arc begins at
    the outgoing under strand of the crossing; the second begins at the
    outgoing over strand.
    """
    (oc, oi), (uc, uj) = d.passage_positions(crossing)
    rest = [comp for ci, comp in enumerate(d.components) if ci not in (oc, uc)]
    ucomp = d.components[uc]
    first = list(ucomp[uj + 1:] + ucomp[:uj])
    if oc == uc:
        # the over passage sits in the same onward reading; cut there
        cut = (oi - uj - 1) % len(ucomp)
        return first[:cut], first[cut + 1:], rest
    ocomp = d.components[oc]
    return first, list(ocomp[oi + 1:] + ocomp[:oi]), rest


def splice_oriented(d: Diagram, crossing: int) -> Diagram:
    """Remove one crossing, reconnecting the strands coherently with the
    orientation.  The component count changes by exactly one.
    """
    first, second, rest = _splice_arcs(d, crossing)
    # both passages on one component: the cut leaves every other one intact
    same_component = len(rest) == d.component_count - 1
    return make_diagram(rest + ([second, first] if same_component else [second + first]))


def _disoriented_cut(
    d: Diagram, crossing: int, reversed_arc: str
) -> tuple[list[Passage], list[Passage], list[tuple[Passage, ...]], frozenset[int]]:
    """The cut of the disoriented splice at a crossing.

    Returns (kept arc, reversed arc, untouched components, flipped), where
    ``flipped`` holds the crossings met exactly once by the reversed arc:
    the ones whose sign the reversal flips.
    """
    if reversed_arc not in ("first", "second"):
        raise ValueError("reversed_arc must be 'first' or 'second'")
    first, second, rest = _splice_arcs(d, crossing)
    keep, flip = (second, first) if reversed_arc == "first" else (first, second)
    counts: dict[int, int] = {}
    for p in flip:
        counts[p.crossing] = counts.get(p.crossing, 0) + 1
    return keep, flip, rest, frozenset(k for k, n in counts.items() if n == 1)


def splice_disoriented(d: Diagram, crossing: int, reversed_arc: str = "first") -> Diagram:
    """Remove one crossing with the orientation-incoherent reconnection.

    One of the two arcs produced by cutting at the crossing must be
    reversed to restore a consistent orientation; ``reversed_arc`` selects
    which ("first" starts at the outgoing under strand).  Crossings met
    exactly once by the reversed arc have their sign flipped.
    """
    keep, flip, rest, flipped = _disoriented_cut(d, crossing, reversed_arc)
    comps = [list(keep) + list(reversed(flip))] + list(rest)
    return make_diagram(
        [Passage(p.crossing, p.over, -p.sign if p.crossing in flipped else p.sign) for p in comp]
        for comp in comps
    )


@dataclass(frozen=True)
class SpliceContext:
    """Per-crossing data entering the skein recursion.

    ``unchanged`` holds the crossings whose sign survives the disoriented
    splice (both intersecting arcs on the same side of the cut), ``flipped``
    those whose sign flips (one arc on each side).  ``k`` and ``l`` are the
    corresponding signed counts, so writhe(d) = k + l + sign, the oriented
    splice has writhe k + l and the disoriented splice has writhe k - l.
    """

    crossing: int
    sign: int
    k: int
    l: int
    unchanged: frozenset[int]
    flipped: frozenset[int]


def splice_context(d: Diagram, crossing: int, reversed_arc: str = "first") -> SpliceContext:
    """Partition the other crossings by how the disoriented splice at
    ``crossing`` treats them, for the given arc choice.

    Crossings between the reversed arc and a third component make the
    partition (and k, l individually) depend on the choice; k + l and
    the combination (-A^3)^(-2l) f_inf do not.
    """
    flipped = _disoriented_cut(d, crossing, reversed_arc)[3]
    signs = d.signs()
    unchanged = frozenset(signs) - flipped - {crossing}
    return SpliceContext(
        crossing=crossing,
        sign=signs[crossing],
        k=sum(signs[c] for c in unchanged),
        l=sum(signs[c] for c in flipped),
        unchanged=unchanged,
        flipped=flipped,
    )


# ---------------------------------------------------------------------------
# Reidemeister moves

@dataclass(frozen=True)
class MoveKind:
    """A move together with an optional site.

    When ``site`` is None, :func:`apply_move` picks an admissible site at
    random (seeded).  Site layouts:

    R1-add:    (comp, gap, over_first, sign)
    R1-remove: (comp, pos)                      pair at pos, pos+1
    R2-add:    ((comp_o, gap_o), (comp_u, gap_u), parallel, sign)
    R2-remove: ((comp_o, pos_o), (comp_u, pos_u))
    R3:        ((comp1, pos1), (comp2, pos2), (comp3, pos3))
               positions of the three consecutive pairs
    """

    kind: str
    site: Optional[tuple] = None


R1_ADD = "R1-add"
R1_REMOVE = "R1-remove"
R2_ADD = "R2-add"
R2_REMOVE = "R2-remove"
R3 = "R3"

def _r3_admissible(key: tuple[bool, bool, bool], r: int, q: int, p: int) -> bool:
    """Whether signs (r, q, p) make an R3 triangle, for the pair orders
    ``key`` = (s1 meets r first, s2 meets p first, s3 meets p first).
    Strand 1 passes over both r and q, strand 2 is over at p and under at
    r, strand 3 is under at both p and q.  When every strand meets its
    crossings in the "first" order, the admissible signs are +-(1, 1, -1),
    one triple for each mirror image of the triangle; reversing the order
    in which one strand meets its two crossings negates both of their
    signs."""
    s1, s2, s3 = key
    return (r == q) == (s2 == s3) and (q == p) == (s1 != s2)


def _consecutive_pairs(d: Diagram) -> list[tuple[int, int, Passage, Passage]]:
    """All cyclically consecutive passage pairs as (comp, pos, first, second)."""
    out = []
    for ci, comp in enumerate(d.components):
        m = len(comp)
        if m < 2:
            continue
        for j in range(m):
            out.append((ci, j, comp[j], comp[(j + 1) % m]))
    return out


def _r1_remove_sites(d: Diagram) -> list[tuple]:
    return [
        (ci, j)
        for ci, j, p, q in _consecutive_pairs(d)
        if p.crossing == q.crossing and p.over != q.over
    ]


def _r2_remove_sites(d: Diagram) -> list[tuple]:
    overs: list[tuple[int, int, Passage, Passage]] = []
    unders: list[tuple[int, int, Passage, Passage]] = []
    for ci, j, p, q in _consecutive_pairs(d):
        if p.crossing == q.crossing:
            continue
        if p.over and q.over:
            overs.append((ci, j, p, q))
        elif not p.over and not q.over:
            unders.append((ci, j, p, q))
    sites = []
    for ci, j, p, q in overs:
        if p.sign != -q.sign:
            continue
        for ck, l, u, v in unders:
            if {u.crossing, v.crossing} != {p.crossing, q.crossing}:
                continue
            # same component: the two pairs must not share positions
            if ci == ck:
                m = len(d.components[ci])
                span = {j, (j + 1) % m, l, (l + 1) % m}
                if len(span) != 4:
                    continue
            sites.append(((ci, j), (ck, l)))
    return sites


def _r3_sites(d: Diagram) -> list[tuple]:
    pairs = _consecutive_pairs(d)
    overs = [t for t in pairs if t[2].over and t[3].over and t[2].crossing != t[3].crossing]
    mixed = [t for t in pairs if t[2].over != t[3].over and t[2].crossing != t[3].crossing]
    unders = [t for t in pairs if not t[2].over and not t[3].over and t[2].crossing != t[3].crossing]
    signs = d.signs()
    sites = []
    for c1, j1, a1, b1 in overs:
        rq = {a1.crossing, b1.crossing}
        for c2, j2, a2, b2 in mixed:
            # strand 2 is over at p and under at r, with r among strand 1's pair
            over2, under2 = (a2, b2) if a2.over else (b2, a2)
            r, p = under2.crossing, over2.crossing
            if r not in rq or p in rq:
                continue
            q = (rq - {r}).pop()
            for c3, j3, a3, b3 in unders:
                if {a3.crossing, b3.crossing} != {p, q}:
                    continue
                positions = {(c1, j1), (c1, (j1 + 1) % len(d.components[c1])),
                             (c2, j2), (c2, (j2 + 1) % len(d.components[c2])),
                             (c3, j3), (c3, (j3 + 1) % len(d.components[c3]))}
                if len(positions) != 6:
                    continue
                key = (a1.crossing == r, a2.crossing == p, a3.crossing == p)
                if _r3_admissible(key, signs[r], signs[q], signs[p]):
                    sites.append(((c1, j1), (c2, j2), (c3, j3)))
    return sites


def _insert(comp: Sequence[Passage], gap: int, items: Sequence[Passage]) -> list[Passage]:
    gap = gap % (len(comp) + 1) if comp else 0
    return list(comp[:gap]) + list(items) + list(comp[gap:])


def _add_site(d: Diagram, kind: str, site: object) -> tuple[list[tuple[int, int]], bool, int]:
    """The (component, gap) places, the flag and the sign of an R1-add
    site (comp, gap, over_first, sign) or an R2-add site ((comp_o, gap_o),
    (comp_u, gap_u), parallel, sign).  Raises InapplicableMove for any
    other shape, a place that is not two ints, a flag that is not a bool,
    a sign other than 1 or -1, and a component d does not have."""
    if isinstance(site, tuple) and len(site) == 4:
        *places, flag, sign = site
        if kind == R1_ADD:
            places = [tuple(places)]
        if (
            all(isinstance(p, tuple) and len(p) == 2 and all(type(v) is int for v in p) for p in places)
            and type(flag) is bool
            and type(sign) is int
            and sign in (1, -1)
        ):
            for ci, _ in places:
                if not 0 <= ci < len(d.components):
                    raise InapplicableMove(f"no component {ci}")
            return places, flag, sign
    raise InapplicableMove(f"malformed {kind} site {site!r}")


def _apply_r1_add(d: Diagram, site: tuple) -> Diagram:
    [(ci, gap)], over_first, sign = _add_site(d, R1_ADD, site)
    cid = d.crossing_count + 1
    pair = [Passage(cid, over_first, sign), Passage(cid, not over_first, sign)]
    comps = [list(c) for c in d.components]
    comps[ci] = _insert(comps[ci], gap, pair)
    return make_diagram(comps)


def _apply_r2_add(d: Diagram, site: tuple) -> Diagram:
    [(co, gap_o), (cu, gap_u)], parallel, sign = _add_site(d, R2_ADD, site)
    x = d.crossing_count + 1
    y = x + 1
    over_pair = [Passage(x, True, sign), Passage(y, True, -sign)]
    if parallel:
        under_pair = [Passage(x, False, sign), Passage(y, False, -sign)]
    else:
        under_pair = [Passage(y, False, -sign), Passage(x, False, sign)]
    comps = [list(c) for c in d.components]
    comps[co] = _insert(comps[co], gap_o, over_pair)
    if cu == co:
        gap_u = gap_u % (len(d.components[cu]) + 1) if d.components[cu] else 0
        if gap_u >= (gap_o % (len(d.components[co]) + 1) if d.components[co] else 0):
            gap_u += 2
    comps[cu] = _insert(comps[cu], gap_u, under_pair)
    return make_diagram(comps)


def _drop_pairs(d: Diagram, pairs: Iterable[tuple[int, int]]) -> Diagram:
    """d without the passages at positions pos and pos+1 of each (comp, pos)."""
    drop: dict[int, set[int]] = {}
    for ci, j in pairs:
        drop.setdefault(ci, set()).update({j, (j + 1) % len(d.components[ci])})
    return make_diagram(
        [p for k, p in enumerate(comp) if k not in drop.get(ci, ())]
        for ci, comp in enumerate(d.components)
    )


def _apply_r3(d: Diagram, site: tuple) -> Diagram:
    comps = [list(c) for c in d.components]
    for ci, j in site:
        m = len(comps[ci])
        j2 = (j + 1) % m
        comps[ci][j], comps[ci][j2] = comps[ci][j2], comps[ci][j]
    return make_diagram(comps)


# The moves: kind -> (finder of its admissible sites, or None where every
# site on a component is admissible; rewrite of a diagram at a site).  The
# order is that in which random_move lists the applicable kinds.
_MOVES = {
    R1_ADD: (None, _apply_r1_add),
    R2_ADD: (None, _apply_r2_add),
    R1_REMOVE: (_r1_remove_sites, lambda d, site: _drop_pairs(d, (site,))),
    R2_REMOVE: (_r2_remove_sites, _drop_pairs),
    R3: (_r3_sites, _apply_r3),
}


def _random_site(d: Diagram, kind: str, rng: random.Random) -> tuple:
    finder = _MOVES[kind][0]
    if finder is None:
        if not d.components:
            raise InapplicableMove(f"no admissible site for {kind}")
        if kind == R1_ADD:
            ci = rng.randrange(len(d.components))
            gap = rng.randrange(len(d.components[ci]) + 1)
            return (ci, gap, rng.random() < 0.5, rng.choice((1, -1)))
        co = rng.randrange(len(d.components))
        cu = rng.randrange(len(d.components))
        return (
            (co, rng.randrange(len(d.components[co]) + 1)),
            (cu, rng.randrange(len(d.components[cu]) + 1)),
            rng.random() < 0.5,
            rng.choice((1, -1)),
        )
    sites = finder(d)
    if not sites:
        raise InapplicableMove(f"no admissible site for {kind}")
    return sites[rng.randrange(len(sites))]


def apply_move(d: Diagram, move: MoveKind, rng_seed: Optional[int] = None) -> Diagram:
    """Apply a generalized Reidemeister move on the Gauss code.

    Purely virtual moves do not change the code at all, so only the
    classical R1/R2/R3 rewrites appear here.  A given site of a removal
    or an R3 move is checked against that kind's admissible sites; with
    no site, one is drawn at random (seeded by ``rng_seed``) from them.
    Raises InapplicableMove for an unknown kind, for a site that does not
    have the kind's layout, and when the requested site (or kind, if no
    site exists) does not admit the move.
    """
    if move.kind not in _MOVES:
        raise InapplicableMove(f"unknown move kind {move.kind!r}")
    finder, rewrite = _MOVES[move.kind]
    site = move.site
    if site is None:
        site = _random_site(d, move.kind, random.Random(rng_seed))
    elif finder is not None and site not in finder(d):
        raise InapplicableMove(f"no {move.kind} site at {site}")
    return rewrite(d, site)


def applicable_kinds(d: Diagram) -> list[str]:
    return [kind for kind, (finder, _) in _MOVES.items() if (finder(d) if finder else d.components)]


def random_move(d: Diagram, rng: random.Random) -> tuple[MoveKind, Diagram]:
    """Pick a uniformly random applicable move kind and site; returns both
    the move (with its concrete site) and the rewritten diagram.
    """
    kinds = applicable_kinds(d)
    if not kinds:
        raise InapplicableMove("no moves apply to the empty diagram")
    kind = kinds[rng.randrange(len(kinds))]
    site = _random_site(d, kind, rng)
    return MoveKind(kind, site), _MOVES[kind][1](d, site)


# ---------------------------------------------------------------------------
# canonical form and random generation

def _encode(comps: Iterable[Sequence[Passage]]) -> tuple:
    """Components as (role, id, sign) tuples, role 0 for over, with ids
    renumbered by first appearance: the one numbering of the package.  A
    diagram's own components encode to its canonical form exactly when it
    is its orbit's representative."""
    relabel: dict[int, int] = {}
    out = []
    for comp in comps:
        enc = []
        for p in comp:
            if p.crossing not in relabel:
                relabel[p.crossing] = len(relabel) + 1
            enc.append((0 if p.over else 1, relabel[p.crossing], p.sign))
        out.append(tuple(enc))
    return tuple(out)


def canonical_form(d: Diagram) -> tuple:
    """Lexicographically least encoding over component rotations, component
    order and crossing relabeling.  Two diagrams that differ only by those
    choices have equal canonical forms.
    """
    rotations = [[comp[r:] + comp[:r] for r in range(max(1, len(comp)))] for comp in d.components]
    return min(_encode(choice) for order in permutations(rotations) for choice in product(*order))


def random_diagram(rng: random.Random, crossings: int, components: int = 1) -> Diagram:
    """A random diagram with the exact crossing and component count
    (components beyond the passage-bearing ones come out crossing-free).
    """
    slots = [rng.randrange(components) for _ in range(2 * crossings)]
    comps: list[list[Passage]] = [[] for _ in range(components)]
    order = list(range(crossings)) * 2
    rng.shuffle(order)
    first_role: dict[int, bool] = {}
    signs = {k: rng.choice((1, -1)) for k in range(crossings)}
    for si, k in zip(slots, order):
        if k not in first_role:
            first_role[k] = rng.random() < 0.5
            comps[si].append(Passage(k + 1, first_role[k], signs[k]))
        else:
            comps[si].append(Passage(k + 1, not first_role[k], signs[k]))
    return make_diagram(comps)


__all__ = [
    "BadDegree",
    "DanglingCrossing",
    "Diagram",
    "DiagramError",
    "InapplicableMove",
    "MalformedToken",
    "MoveKind",
    "OpenStrand",
    "Passage",
    "SignMismatch",
    "SpliceContext",
    "UnknownCrossing",
    "apply_move",
    "canonical_form",
    "crossing_change",
    "make_diagram",
    "parse_gauss",
    "parse_pd",
    "random_diagram",
    "random_move",
    "reverse_all",
    "serialize",
    "splice_context",
    "splice_disoriented",
    "splice_oriented",
    "writhe",
]
