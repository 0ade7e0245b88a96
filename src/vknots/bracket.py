"""Kauffman bracket state sum, f-polynomial and skein machinery.

The bracket of a diagram with c crossings is the exact sum over all 2^c
splice assignments

    <D> = sum_S A^(#A - #B) (-A^2 - A^-2)^(loops(S) - 1)

and the f-polynomial is (-A^3)^(-writhe) <D>.  States are evaluated by
counting loops with a union-find over the diagram arcs and aggregated
into an exact (#B, loops) histogram of Python int counts.  The arcs are
the bands of the ribbon graph from :func:`vknots.ald.build_ald`, and each
crossing's row lists the arc pairs its A and its B splice join, read off
the rotation slots through ``A_PAIRS``/``B_PAIRS``.  The state loop
therefore has no sign test: the splice rule lives only in ``ald``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .ald import A_PAIRS, B_PAIRS, build_ald
from .diagram import (
    Diagram,
    DiagramError,
    SpliceContext,
    crossing_change,
    splice_context,
    splice_disoriented,
    splice_oriented,
    writhe,
)
from .laurent import LOOP_FACTOR, LaurentPoly, monomial_pow

DEFAULT_MAX_CROSSINGS = 24


class TooManyCrossings(DiagramError):
    pass


class IncompleteChoices(DiagramError):
    pass


class IdentityViolation(DiagramError):
    """A skein identity that is a theorem failed to hold: an implementation
    bug, never a property of the input."""


# ---------------------------------------------------------------------------
# states

@dataclass(frozen=True)
class State:
    """A full splice assignment with its loop count and exponent."""

    choices: tuple[str, ...]  # indexed by crossing id - 1
    loop_count: int
    splice_exponent: int


def _splice_rows(d: Diagram):
    """Arcs and per-crossing splice rows from one ribbon graph.

    Returns (n_arcs, free_loops, rows); ``rows[x]`` is the pair (A pairs,
    B pairs) of arc indices joined at crossing x + 1.
    """
    g = build_ald(d)
    arc_of = [0] * (4 * g.vertex_count)
    for ei, (tail, head) in enumerate(g.edges):
        arc_of[tail] = arc_of[head] = ei
    rows = [
        tuple(
            tuple((arc_of[4 * v + s], arc_of[4 * v + t]) for s, t in pairs)
            for pairs in (A_PAIRS, B_PAIRS)
        )
        for v in range(g.vertex_count)
    ]
    return g.edge_count, g.free_loops, rows


def _loops_for_mask(n_arcs: int, rows: Sequence[Sequence], mask: int) -> int:
    """Loop count among the arcs for the state encoded by mask (bit=1 is B)."""
    parent = list(range(n_arcs))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, row in enumerate(rows):
        for a, b in row[(mask >> x) & 1]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    return sum(1 for i in range(n_arcs) if parent[i] == i)


def splice_state(d: Diagram, choices: Mapping[int, str]) -> State:
    """Evaluate one splice assignment: loop count and A-minus-B exponent."""
    c = d.crossing_count
    if set(choices) != set(range(1, c + 1)):
        raise IncompleteChoices(f"choices must cover crossings 1..{c}")
    for v in choices.values():
        if v not in ("A", "B"):
            raise IncompleteChoices(f"bad splice choice {v!r}")
    n_arcs, free, rows = _splice_rows(d)
    mask = 0
    n_b = 0
    for cid, ch in choices.items():
        if ch == "B":
            mask |= 1 << (cid - 1)
            n_b += 1
    loops = _loops_for_mask(n_arcs, rows, mask) + free
    ordered = tuple(choices[i + 1] for i in range(c))
    return State(choices=ordered, loop_count=loops, splice_exponent=c - 2 * n_b)


def state_contribution(s: State) -> LaurentPoly:
    """I(S) = A^exponent (-A^2-A^-2)^(loops-1), the state's bracket term."""
    return LaurentPoly.monomial(1, s.splice_exponent) * (LOOP_FACTOR ** (s.loop_count - 1))


def state_index(s: State) -> int:
    """The residue mod 4 shared by every exponent of the state's bracket
    contribution: (exponent + 2 loops - 2) mod 4."""
    return (s.splice_exponent + 2 * s.loop_count - 2) % 4


# ---------------------------------------------------------------------------
# histogram evaluation

def _state_histogram(d: Diagram) -> dict[tuple[int, int], int]:
    """The (#B-splices, loop count) -> count histogram over all 2^c states,
    free loops included, with Python int counts so it is exact for every c."""
    n_arcs, free, rows = _splice_rows(d)
    hist: dict[tuple[int, int], int] = {}
    for mask in range(1 << d.crossing_count):
        key = (mask.bit_count(), _loops_for_mask(n_arcs, rows, mask) + free)
        hist[key] = hist.get(key, 0) + 1
    return hist


def _assemble(c: int, hist: Mapping[tuple[int, int], int]) -> LaurentPoly:
    max_loops = max(loops for _, loops in hist)
    if max_loops == 0:
        return LaurentPoly.one()  # the empty diagram: multiplicative unit
    powers = [LaurentPoly.one()]
    for _ in range(max_loops - 1):
        powers.append(powers[-1] * LOOP_FACTOR)
    acc: dict[int, int] = {}
    for (n_b, loops), count in hist.items():
        exponent = c - 2 * n_b
        for e, coeff in (powers[loops - 1]).terms():
            key = e + exponent
            acc[key] = acc.get(key, 0) + coeff * count
    return LaurentPoly(acc)


def _check_size(d: Diagram, max_crossings: Optional[int]) -> None:
    limit = DEFAULT_MAX_CROSSINGS if max_crossings is None else max_crossings
    if d.crossing_count > limit:
        raise TooManyCrossings(
            f"{d.crossing_count} crossings exceeds the limit {limit}"
        )


def _bracket(d: Diagram, max_crossings: Optional[int]) -> LaurentPoly:
    # the shared body of the public entry points, private so that a tracer
    # of public calls (perfbench) counts one state sum per entry
    _check_size(d, max_crossings)
    return _assemble(d.crossing_count, _state_histogram(d))


def bracket(d: Diagram, max_crossings: Optional[int] = None) -> LaurentPoly:
    """The Kauffman bracket, by exact state sum over all 2^c states."""
    return _bracket(d, max_crossings)


def bracket_parallel(
    d: Diagram,
    workers: Optional[int] = None,
    max_crossings: Optional[int] = None,
) -> LaurentPoly:
    """Same polynomial as :func:`bracket`, bit for bit, for every worker
    count; kept for callers that pass ``workers``.  ``workers`` is checked,
    but the state loop is pure Python, so threads would only take turns on
    the interpreter lock: one thread sums."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be positive")
    return _bracket(d, max_crossings)


def f_polynomial(d: Diagram, max_crossings: Optional[int] = None) -> LaurentPoly:
    """The normalized bracket (-A^3)^(-writhe) <D>, invariant under all
    generalized Reidemeister moves."""
    return monomial_pow(-1, 3, -writhe(d)) * bracket(d, max_crossings)


def index_spectrum(d: Diagram, max_crossings: Optional[int] = None) -> set[int]:
    """The set of state indices over all states of the diagram."""
    _check_size(d, max_crossings)
    c = d.crossing_count
    # the empty diagram's one state (no loops) counts as the unknot's
    return {
        (c - 2 * n_b + 2 * max(loops, 1) - 2) % 4
        for n_b, loops in _state_histogram(d)
    }


# ---------------------------------------------------------------------------
# skein identities

@dataclass(frozen=True)
class SkeinReport:
    """Both sides of the one-crossing splice identity

        f = -A^(-2s) f0 - (-A^3)^(-2l) A^(-4s) finf

    where s is the crossing sign and l the signed count of crossings whose
    sign the disoriented splice flips."""

    crossing: int
    sign: int
    k: int
    l: int
    f: LaurentPoly
    f_oriented: LaurentPoly
    f_disoriented: LaurentPoly
    rhs: LaurentPoly
    holds: bool

    def to_json(self) -> dict:
        return {
            "crossing": self.crossing,
            "sign": self.sign,
            "k": self.k,
            "l": self.l,
            "f": self.f.to_pairs(),
            "f_oriented": self.f_oriented.to_pairs(),
            "f_disoriented": self.f_disoriented.to_pairs(),
            "rhs": self.rhs.to_pairs(),
            "holds": self.holds,
        }


def _skein_rhs(sign: int, l: int, f0: LaurentPoly, finf: LaurentPoly) -> LaurentPoly:
    front = LaurentPoly.monomial(-1, -2 * sign)
    tail = monomial_pow(-1, 3, -2 * l) * LaurentPoly.monomial(-1, -4 * sign)
    return front * f0 + tail * finf


def skein_identity_check(d: Diagram, crossing: int, max_crossings: Optional[int] = None) -> SkeinReport:
    """Verify the splice identity at one crossing, exactly.

    The disoriented splice depends on which arc is reversed: k, l and the
    resulting writhe are per-choice data, but (-A^3)^(-2l) f_inf does not
    depend on the choice, so the identity must hold for both matched
    (l, f_inf) pairs.  A failure raises IdentityViolation since the
    identity holds for every diagram; the report carries the first-arc
    numbers.
    """
    f = f_polynomial(d, max_crossings)
    f0 = f_polynomial(splice_oriented(d, crossing), max_crossings)
    results = []
    for arc in ("first", "second"):
        ctx = splice_context(d, crossing, reversed_arc=arc)
        finf = f_polynomial(splice_disoriented(d, crossing, arc), max_crossings)
        results.append((ctx, finf, _skein_rhs(ctx.sign, ctx.l, f0, finf)))
    tail1 = monomial_pow(-1, 3, -2 * results[0][0].l) * results[0][1]
    tail2 = monomial_pow(-1, 3, -2 * results[1][0].l) * results[1][1]
    if tail1 != tail2:
        raise IdentityViolation(
            "(-A^3)^(-2l) f_inf differs between the two arc choices"
        )
    ctx, finf, rhs = results[0]
    report = SkeinReport(
        crossing=crossing,
        sign=ctx.sign,
        k=ctx.k,
        l=ctx.l,
        f=f,
        f_oriented=f0,
        f_disoriented=finf,
        rhs=rhs,
        holds=(f == rhs and f == results[1][2]),
    )
    if not report.holds:
        raise IdentityViolation(
            f"skein identity failed at crossing {crossing}: {f} != {rhs}"
        )
    return report


# ---------------------------------------------------------------------------
# finite-type coefficients

@dataclass(frozen=True)
class FiniteTypeSeries:
    """Taylor coefficients of p(e^x) at x = 0, as exact rationals."""

    coefficients: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]


def finite_type_coefficients(p: LaurentPoly, order: int) -> FiniteTypeSeries:
    """v_m = sum_j coeff(j) j^m / m! for m = 0..order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = []
    fact = 1
    for m in range(order + 1):
        if m:
            fact *= m
        total = sum(c * pow(e, m) for e, c in p.terms())
        coeffs.append(Fraction(total, fact))
    return FiniteTypeSeries(coefficients=tuple(coeffs))


@dataclass(frozen=True)
class RecursionReport:
    """Comparison of the crossing-switch difference against its series
    recursion, under both candidate sign conventions for l.

    ``difference_identity_holds`` covers the exact polynomial identity

        f(d+) - f(d-) = (A^2 - A^-2) f0 + (-A^3)^(-2l) (A^4 - A^-4) finf

    which follows by subtracting the two sign cases of the splice identity.
    The series rows state, order by order, whether

        v_n(diff) = sum_{k<n} 2^(n-k)/(n-k)! [ (1-(-1)^(n-k)) v_k(f0)
                     + ((2-3l')^(n-k) - (-2-3l')^(n-k)) v_k(finf) ]

    holds with l' = l and with l' = -l.
    """

    crossing: int
    l: int
    order: int
    difference_identity_holds: bool
    series_match_l: tuple[bool, ...]
    series_match_negated_l: tuple[bool, ...]

    @property
    def identified_convention(self) -> str:
        a = all(self.series_match_l)
        b = all(self.series_match_negated_l)
        if a and b:
            return "both"
        if a:
            return "as-defined"
        if b:
            return "negated"
        return "neither"

    def to_json(self) -> dict:
        return {
            "crossing": self.crossing,
            "l": self.l,
            "order": self.order,
            "difference_identity_holds": self.difference_identity_holds,
            "series_match_l": list(self.series_match_l),
            "series_match_negated_l": list(self.series_match_negated_l),
            "identified_convention": self.identified_convention,
        }


def finite_type_recursion_check(
    d: Diagram, crossing: int, order: int, max_crossings: Optional[int] = None
) -> RecursionReport:
    """Check the finite-type recursion for the crossing-switch difference
    at one crossing.  The exact difference identity is asserted (it is a
    theorem); the series formula is reported under both l conventions.
    """
    ctx = splice_context(d, crossing)
    l = ctx.l
    d_plus = d if ctx.sign > 0 else crossing_change(d, crossing)
    d_minus = crossing_change(d, crossing) if ctx.sign > 0 else d
    f_plus = f_polynomial(d_plus, max_crossings)
    f_minus = f_polynomial(d_minus, max_crossings)
    f0 = f_polynomial(splice_oriented(d, crossing), max_crossings)
    finf = f_polynomial(splice_disoriented(d, crossing), max_crossings)
    diff = f_plus - f_minus
    rhs = _skein_rhs(1, l, f0, finf) - _skein_rhs(-1, l, f0, finf)
    holds = diff == rhs
    if not holds:
        raise IdentityViolation(
            f"crossing-switch difference identity failed at crossing {crossing}"
        )
    v_diff = finite_type_coefficients(diff, order)
    v0 = finite_type_coefficients(f0, order)
    vinf = finite_type_coefficients(finf, order)

    def series_rhs(n: int, ell: int) -> Fraction:
        total = Fraction(0)
        fact = 1
        for m in range(1, n + 1):  # m = n - k
            fact *= m
            k = n - m
            term0 = (1 - (-1) ** m) * v0[k]
            terminf = ((2 - 3 * ell) ** m - (-2 - 3 * ell) ** m) * vinf[k]
            total += Fraction(2**m, fact) * (term0 + terminf)
        return total

    match_l = tuple(v_diff[n] == series_rhs(n, l) for n in range(order + 1))
    match_neg = tuple(v_diff[n] == series_rhs(n, -l) for n in range(order + 1))
    return RecursionReport(
        crossing=crossing,
        l=l,
        order=order,
        difference_identity_holds=holds,
        series_match_l=match_l,
        series_match_negated_l=match_neg,
    )


__all__ = [
    "DEFAULT_MAX_CROSSINGS",
    "FiniteTypeSeries",
    "IdentityViolation",
    "IncompleteChoices",
    "RecursionReport",
    "SkeinReport",
    "SpliceContext",
    "State",
    "TooManyCrossings",
    "bracket",
    "bracket_parallel",
    "f_polynomial",
    "finite_type_coefficients",
    "finite_type_recursion_check",
    "index_spectrum",
    "skein_identity_check",
    "splice_state",
    "state_contribution",
    "state_index",
]
