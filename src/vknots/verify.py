"""Exhaustive enumeration of small signed Gauss codes and the property
verification harness.

The harness machine-checks, over every enumerated diagram: the exponent
congruence of the f-polynomial for checkerboard-colorable diagrams
(exponents all 0 mod 4 for odd component counts, all 2 mod 4 for even),
the equivalence between colorability and being crossing-changeable to an
alternating diagram, and the evaluation f(1) = (-2)^(n-1).  Its record
also carries the state-index spectrum, with the verdict that a colorable
diagram has a single state index (``index_ok``, which ``vknots verify``
prints).  The harness can also search the enumeration for alternating
diagrams whose f-polynomial is not of alternating form, and fuzz move
invariance.

:func:`verify_diagram` computes each verdict once, at the level it
depends on, in one memo entry per unsigned word that the next unsigned
word replaces:

- Per signed word (component lengths, and the crossing id and sign at
  each position): one (#B, loops) state histogram, turned into f, its
  congruence class, the f(1) verdict and the index spectrum.  The
  histogram does not depend on which passage of a crossing is over (see
  :mod:`vknots.bracket`).  The four, f object included, are kept in a
  table of the current unsigned word's signed words, at most ``2^c`` of
  them, keyed by the sign at each position.
- Per unsigned word (the signed word without its signs): whether
  crossing changes make the diagram alternating (``make_alternating(d)
  is not None``).  ``make_alternating`` reads only crossing ids and
  roles, and swapping the roles at the crossings of a set T is, from its
  point of view, a crossing change at T, so a set S of changes works for
  d exactly when S xor T works for the variant.
- Per flat class (the diagrams related by crossing changes): whether the
  diagram is checkerboard colorable.  A crossing change rotates the four
  slots of its vertex in the ribbon graph (``ald._slot``) and changes
  nothing else, so the ribbon surface, and its colorability, is the same
  on the whole class.  The verdicts of the current unsigned word's flat
  classes, at most ``2^c`` of them, are kept in a table that a new
  unsigned word replaces.  A diagram of a class known not to be colorable
  builds no ribbon graph unless its state sum runs; a colorable diagram
  still gets the coloring traced from its own ribbon graph.
- Per diagram: whether it is alternating, and the record.

:func:`enumerate_diagrams` yields an unsigned word's diagrams one after
another, so :func:`sweep` runs one state sum per signed word, one
``make_alternating`` per unsigned word and one colorability trace per
flat class and per colorable diagram.  ``alternating_equiv_ok`` still
compares two independent computations on every flat class: colorability
traced from a ribbon graph against the crossing-change search of
``make_alternating``.  The public functions of ``bracket`` and ``ald``
keep no memo, and the tests use them as the memo's oracle.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate, product
from typing import Iterator, Optional

from .ald import Coloring, _checkerboard_coloring, build_ald, is_alternating, make_alternating
from .bracket import _check_size, _state_histogram, _word_invariants, f_polynomial
from .diagram import (
    Diagram,
    DiagramError,
    Passage,
    _encode,
    _passage,
    canonical_form,
    random_diagram,
    random_move,
    serialize,
)
from .laurent import CongruenceClass, LaurentPoly

EXHAUSTIVE_LIMIT = 6  # the stream grows factorially past this
FUZZ_MAX_CROSSINGS = 8  # fuzz diagrams start at up to half this and stop growing at it


class SpecTooLarge(DiagramError):
    pass


class EmptyDiagram(DiagramError):
    """A diagram without components, which is not a link: no property of
    the package is stated for it."""


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: all diagrams with up to ``max_crossings``
    crossings and up to ``max_components`` components (1 = knots only).
    ``dedupe`` is "none" or "cyclic-relabel"; the latter yields one
    representative per orbit under component rotation, component order
    and crossing relabeling."""

    max_crossings: int
    max_components: int = 1
    dedupe: str = "none"
    alternating_only: bool = False

    def validate(self) -> None:
        if self.max_crossings > EXHAUSTIVE_LIMIT:
            raise SpecTooLarge(
                f"exhaustive enumeration beyond {EXHAUSTIVE_LIMIT} crossings"
            )
        if self.max_crossings < 0 or self.max_components < 1:
            raise SpecTooLarge("empty enumeration range")
        if self.dedupe not in ("none", "cyclic-relabel"):
            raise SpecTooLarge(f"unknown dedupe mode {self.dedupe!r}")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _fill(
    sizes: tuple[int, ...],
    crossings: int,
    alternating_only: bool,
) -> Iterator[tuple[tuple[Passage, ...], ...]]:
    """All ways to arrange ``crossings`` signed O/U pairs into components of
    the given sizes, ids normalized by first appearance.

    A depth-first walk places the unsigned word: at each position either
    an already-open crossing closes or a fresh one opens.  Signs and roles
    come last: at each complete word every sign vector is taken in turn,
    and for each every assignment of over and under to the two passages
    of each crossing is built and yielded in turn, so each unsigned
    word's diagrams form one consecutive run, and within it each signed
    word's.  With ``alternating_only`` an assignment is instead a head
    role per nonempty component, alternating along it, and only those
    giving every crossing one over and one under passage are built.  A
    crossing that closes on its own component an even number of
    positions after it opened can never alternate, so the walk does not
    place it.
    """
    positions = [(ci, j) for ci, size in enumerate(sizes) for j in range(size)]
    total = len(positions)
    ends = list(accumulate(sizes))
    bounds = list(zip([0] + ends, ends))  # each component's slice of the positions
    # (crossing, position of its opening or None if it opens here)
    word: list[tuple[int, Optional[int]]] = []
    open_at: dict[int, int] = {}  # open crossing -> position of its opening

    def split(flat: list[Passage]) -> tuple[tuple[Passage, ...], ...]:
        return tuple([tuple(flat[a:b]) for a, b in bounds])

    def rec(idx: int, next_id: int) -> Iterator[None]:
        # yields once at each complete unsigned word, held in ``word``
        if idx == total:
            if not open_at:
                yield None
            return
        ci, j = positions[idx]
        # close an open crossing
        for x in sorted(open_at):
            k = open_at[x]
            ck, l = positions[k]
            if alternating_only and ck == ci and not (j - l) & 1:
                continue
            del open_at[x]
            word.append((x, k))
            yield from rec(idx + 1, next_id)
            word.pop()
            open_at[x] = k
        # open a new one, if the remaining positions can still close everything
        if next_id <= crossings and len(open_at) + 1 <= total - idx - 1:
            open_at[next_id] = idx
            word.append((next_id, None))
            yield from rec(idx + 1, next_id + 1)
            word.pop()
            del open_at[next_id]

    for _ in rec(0, 1):
        # the positions of the two passages of each crossing
        pairs = [(k, opened) for k, (_, opened) in enumerate(word) if opened is not None]
        if alternating_only:
            # roles alternate along each component from the role of its head
            nonempty = [ci for ci, size in enumerate(sizes) if size]
            roles = []
            for heads in product((True, False), repeat=len(nonempty)):
                head_of = dict(zip(nonempty, heads))
                over = [head_of[ci] != bool(j & 1) for ci, j in positions]
                if all(over[a] != over[b] for a, b in pairs):
                    roles.append(over)
            for signs in product((1, -1), repeat=crossings):
                for over in roles:
                    yield split([_passage(x, o, signs[x - 1]) for (x, _), o in zip(word, over)])
            continue
        for signs in product((1, -1), repeat=crossings):
            # a Gray code over the crossings: each step swaps the two
            # passages of one crossing, which exchanges its over and under
            # roles
            flat = [_passage(x, opened is None, signs[x - 1]) for x, opened in word]
            yield split(flat)
            for i in range(1, 1 << crossings):
                a, b = pairs[(i & -i).bit_length() - 1]
                flat[a], flat[b] = flat[b], flat[a]
                yield split(flat)


def _alternation_closes(sizes: tuple[int, ...]) -> bool:
    # a component with an odd number of passages can never alternate
    return all(size % 2 == 0 for size in sizes)


def enumerate_diagrams(spec: EnumSpec) -> Iterator[Diagram]:
    """Yield every signed Gauss code within the spec exactly once (under
    the chosen dedupe).  Components are cyclic; codes are produced in their
    stored linear form with first-appearance crossing ids.

    Diagrams are valid by construction, not through :func:`make_diagram`:
    ``_fill`` places each crossing once over and once under with one sign,
    numbers crossings by first appearance and builds every passage with
    the shared ``_passage``, so each component tuple it yields is already
    what ``make_diagram`` would return, and is wrapped as it is.

    Order contract: diagrams with one unsigned word (component lengths,
    and the crossing id at each position) are yielded consecutively, and
    within that run so are diagrams that differ only in which passage of
    each crossing is over, their signed word (the crossing id and sign at
    each position) being the same.  Diagrams of one unsigned word have
    one alternatability verdict, at most ``2^c`` signed words and at most
    ``2^c`` flat classes, and diagrams of one signed word equal
    f-polynomials (see :mod:`vknots.bracket`), so a caller verifying the
    stream in order runs one state sum per signed word, one
    ``make_alternating`` per unsigned word and one colorability trace per
    flat class and per colorable diagram: :func:`verify_diagram` needs
    only the unsigned-word runs for this.  :func:`sweep`, which counts a
    state sum at each record whose f object is not the previous
    record's, also needs the signed-word runs.
    """
    spec.validate()
    for c in range(spec.max_crossings + 1):
        for n in range(1, spec.max_components + 1):
            for sizes in _compositions(2 * c, n):
                if spec.alternating_only and not _alternation_closes(sizes):
                    continue
                for comps in _fill(sizes, c, spec.alternating_only):
                    d = Diagram(comps)
                    if spec.dedupe == "cyclic-relabel" and _encode(comps) != canonical_form(d):
                        continue
                    yield d


@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """Per-diagram verdicts for the three verified properties, with the
    checkerboard coloring that witnesses colorability (None when the
    diagram is not colorable) and the sorted state-index spectrum.  The
    index verdict is not part of ``ok`` or of the JSON form."""

    diagram: Diagram
    coloring: Optional[Coloring]
    alternating: bool
    f: LaurentPoly
    congruence: CongruenceClass
    congruence_ok: bool
    alternating_equiv_ok: bool
    unit_eval_ok: bool
    index_spectrum: tuple[int, ...]

    @property
    def colorable(self) -> bool:
        return self.coloring is not None

    @property
    def index_ok(self) -> bool:
        """The package's one statement of the index verdict: a
        checkerboard colorable diagram has a single state index."""
        return not self.colorable or len(self.index_spectrum) == 1

    @property
    def ok(self) -> bool:
        return self.congruence_ok and self.alternating_equiv_ok and self.unit_eval_ok

    def to_json(self) -> dict:
        return {
            "code": serialize(self.diagram),
            "colorable": self.colorable,
            "alternating": self.alternating,
            "f": self.f.to_pairs(),
            "congruence": self.congruence,
            "congruence_ok": self.congruence_ok,
            "alternating_equiv_ok": self.alternating_equiv_ok,
            "unit_eval_ok": self.unit_eval_ok,
        }


def _flat_class(d: Diagram) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The key of d's flat class, the diagrams related to d by crossing
    changes: ``(crossing, sign if over else -sign)`` at each position.  A
    crossing change negates both the sign and the role at both passages
    of its crossing, so it keeps the key; the key also fixes d's unsigned
    word."""
    return tuple([tuple([(x, s if o else -s) for x, o, s in comp]) for comp in d.components])


# The memo of verify_diagram: the last unsigned word it met, as the
# crossing ids of each component, whether crossing changes make that word
# alternating, a table of the colorability verdicts of the word's flat
# classes met so far, keyed by _flat_class, and a table of the invariants
# of its signed words summed so far (f, congruence class, f(1) verdict and
# sorted index spectrum), keyed by the sign at each position, which fixes
# the signed word once the unsigned word is fixed.  Each table holds at
# most 2^c entries.
_word: Optional[tuple[tuple[tuple[int, ...], ...], bool, dict[tuple, bool], dict[tuple, tuple]]] = None


def verify_diagram(d: Diagram, max_crossings: Optional[int] = None) -> VerificationRecord:
    """Evaluate all per-diagram properties; ``max_crossings`` is the
    state-sum size limit of :func:`f_polynomial`.  A diagram without
    components raises EmptyDiagram, a negative ``max_crossings``
    ValueError and a diagram over the limit TooManyCrossings, all before
    any memo is read.  A diagram with the unsigned word of the previous
    call's diagram reuses that word's alternatability verdict, and the
    state sum results of its signed word and the colorability verdict of
    its flat class where the word's tables hold them; a diagram of a flat
    class found not colorable skips its ribbon graph and its colorability
    check (see the module docstring).  Otherwise the state
    sum and the colorability check share one ribbon graph of ``d``, and
    a colorable diagram always gets the coloring of its own ribbon graph.

    This is the package's one statement of the congruence verdict:
    ``congruence_ok`` holds vacuously for non-colorable diagrams; for
    colorable ones the f-exponents must share residue 0 mod 4 when the
    component count is odd and 2 when it is even (and f must be nonzero).
    """
    n = d.component_count
    if not n:
        raise EmptyDiagram("a diagram without components is not a link")
    _check_size(d, max_crossings)
    # the memo entry is read once and replaced by one assignment, and each
    # table entry is written by one assignment, so a caller in another
    # thread sees either the old or the new value; two racing callers may
    # sum one signed word twice, with equal results.  A flat class is
    # stored only in the table of its own unsigned word, and its key fixes
    # that word, so a table hit also means the word matches; within the
    # word, the signs fix the signed word
    global _word
    word = _word
    flat = _flat_class(d)
    known = None if word is None else word[2].get(flat)
    if known is None:
        unsigned = tuple([tuple([x for x, _ in comp]) for comp in flat])
        if word is None or word[0] != unsigned:
            word = _word = (unsigned, make_alternating(d) is not None, {}, {})
    alternatable = word[1]
    g = None
    signs = tuple([p.sign for comp in d.components for p in comp])
    invariants = word[3].get(signs)
    if invariants is None:
        g = build_ald(d)
        f, spectrum = _word_invariants(d, _state_histogram(g))
        unit_eval_ok = f.evaluate_at_one() == (-2) ** (n - 1)
        invariants = word[3][signs] = (f, f.congruence_class_mod4(), unit_eval_ok, spectrum)
    f, congruence, unit_eval_ok, spectrum = invariants
    if known is False:
        coloring = None
    else:
        coloring = _checkerboard_coloring(build_ald(d) if g is None else g)
        if known is None:
            word[2][flat] = coloring is not None
    colorable = coloring is not None
    alternating = is_alternating(d)
    expected = 0 if n % 2 == 1 else 2
    congruence_ok = (not colorable) or (bool(f) and congruence == expected)
    alternating_equiv_ok = alternatable == colorable
    return VerificationRecord(
        diagram=d,
        coloring=coloring,
        alternating=alternating,
        f=f,
        congruence=congruence,
        congruence_ok=congruence_ok,
        alternating_equiv_ok=alternating_equiv_ok,
        unit_eval_ok=unit_eval_ok,
        index_spectrum=spectrum,
    )


@dataclass
class SweepSummary:
    total: int = 0
    colorable: int = 0
    alternating: int = 0
    state_sums: int = 0
    failures: list[VerificationRecord] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "colorable": self.colorable,
            "alternating": self.alternating,
            "state_sums": self.state_sums,
            "failures": [r.to_json() for r in self.failures],
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def sweep(spec: EnumSpec) -> SweepSummary:
    """Run :func:`verify_diagram` over the whole enumeration.  Any failure
    recorded here disproves a theorem, so failures mean bugs.

    ``state_sums`` counts the records whose f is not the previous record's
    f object, that is the state sums run: one per signed word while the
    enumeration keeps each word's diagrams together."""
    start = time.perf_counter()
    summary = SweepSummary()
    last_f = None
    for d in enumerate_diagrams(spec):
        record = verify_diagram(d)
        summary.state_sums += record.f is not last_f
        last_f = record.f
        summary.total += 1
        summary.colorable += record.colorable
        summary.alternating += record.alternating
        if not record.ok:
            summary.failures.append(record)
    summary.elapsed = time.perf_counter() - start
    return summary


def _non_split(d: Diagram) -> bool:
    """Whether every two components are joined by a chain of components,
    each sharing a crossing with the next."""
    root = list(range(d.component_count))
    first_seen: dict[int, int] = {}
    for ci, comp in enumerate(d.components):
        for p in comp:
            a, b = ci, first_seen.setdefault(p.crossing, ci)
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            root[a] = b
    return sum(root[ci] == ci for ci in range(d.component_count)) == 1


def find_nonalternating_form_witness(spec: EnumSpec) -> Optional[Diagram]:
    """The first enumerated alternating, non-split diagram whose
    f-polynomial is not of alternating form, or None if the range holds
    none.

    Classically the f-polynomial of a non-split alternating link is always
    alternating in form; virtually it is not, and small alternating virtual
    knots witness the failure.  Split diagrams, whose components do not
    all meet through crossings, fall outside the classical statement and
    are skipped.
    """
    for d in enumerate_diagrams(replace(spec, alternating_only=True)):
        if _non_split(d) and not f_polynomial(d).is_alternating_form():
            return d
    return None


@dataclass
class FuzzReport:
    trials: int = 0
    moves_applied: int = 0
    f_mismatches: list[dict] = field(default_factory=list)
    consistency_failures: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.f_mismatches and not self.consistency_failures

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "moves_applied": self.moves_applied,
            "f_mismatches": self.f_mismatches,
            "consistency_failures": self.consistency_failures,
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def fuzz_invariance(seed: int, trials: int, max_moves: int = 4) -> FuzzReport:
    """Random diagrams, random generalized Reidemeister rewrites.

    The f-polynomial must be preserved exactly by every move, and the
    colorability/congruence implication must hold at every step.  A
    negative ``trials`` or ``max_moves`` raises ValueError."""
    if trials < 0 or max_moves < 0:
        raise ValueError("trials and max_moves must be nonnegative")
    rng = random.Random(seed)
    report = FuzzReport()
    start = time.perf_counter()
    for _ in range(trials):
        report.trials += 1
        c = rng.randrange(0, FUZZ_MAX_CROSSINGS // 2 + 1)
        d = random_diagram(rng, c, components=rng.randrange(1, 3))
        f_ref = f_polynomial(d)
        for _ in range(max_moves):
            if d.crossing_count >= FUZZ_MAX_CROSSINGS:
                break
            move, d = random_move(d, rng)
            record = verify_diagram(d)
            if record.f != f_ref:
                report.f_mismatches.append(
                    {"code": serialize(d), "move": move.kind, "expected": str(f_ref), "got": str(record.f)}
                )
            if not record.ok:
                report.consistency_failures.append(record.to_json())
            report.moves_applied += 1
    report.elapsed = time.perf_counter() - start
    return report


__all__ = [
    "EmptyDiagram",
    "EnumSpec",
    "FuzzReport",
    "SpecTooLarge",
    "SweepSummary",
    "VerificationRecord",
    "enumerate_diagrams",
    "find_nonalternating_form_witness",
    "fuzz_invariance",
    "sweep",
    "verify_diagram",
]
