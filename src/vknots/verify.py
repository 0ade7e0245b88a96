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

:func:`verify_diagram` turns one (#B, loops) state histogram into f, its
congruence class, the f(1) verdict and the index spectrum.  The histogram
depends only on the signed word of a diagram, not on which passage of a
crossing is over (see :mod:`vknots.bracket`), so ``verify_diagram`` keeps
a one-entry memo: the last diagram whose state sum it ran, with those
four and whether crossing changes make it alternating
(``make_alternating(d) is not None``).  That verdict does not depend on
the roles either: ``make_alternating`` reads only crossing ids and
roles, and swapping the roles at the crossings of a set T is, from its
point of view, a crossing change at T, so a set S of changes works for
d exactly when S xor T works for the variant.  A diagram of the same
word reuses all five, f object included; :func:`enumerate_diagrams`
yields a word's role variants one after another, so :func:`sweep` runs
one state sum and one ``make_alternating`` per word.  Colorability is
still traced from each diagram's own ribbon graph, so
``alternating_equiv_ok`` checks both sides of the equivalence on every
diagram.  The public functions of ``bracket`` and ``ald`` keep no memo,
and the tests use them as the memo's oracle.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate, product
from typing import Iterator, Optional

from .ald import Coloring, _checkerboard_coloring, is_alternating, make_alternating
from .bracket import _state_histogram, _state_sum_graph, _word_invariants, f_polynomial
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

    A depth-first walk places the signed word: at each position either an
    already-open crossing closes or a fresh one opens, choosing its sign.
    Roles come last: at each complete word every assignment of over and
    under to the two passages of each crossing is built and yielded in
    turn, so a word's diagrams form one consecutive run.  With
    ``alternating_only`` an assignment is instead a head role per nonempty
    component, alternating along it, and only those giving every crossing
    one over and one under passage are built.  A crossing that closes on
    its own component an even number of positions after it opened can
    never alternate, so the walk does not place it.
    """
    positions = [(ci, j) for ci, size in enumerate(sizes) for j in range(size)]
    total = len(positions)
    ends = list(accumulate(sizes))
    bounds = list(zip([0] + ends, ends))  # each component's slice of the positions
    # (crossing, sign, position of its opening or None if it opens here)
    word: list[tuple[int, int, Optional[int]]] = []
    open_at: dict[int, tuple[int, int]] = {}  # open crossing -> (sign, position)

    def split(flat: list[Passage]) -> tuple[tuple[Passage, ...], ...]:
        return tuple(tuple(flat[a:b]) for a, b in bounds)

    def leaf() -> Iterator[tuple[tuple[Passage, ...], ...]]:
        # the positions of the two passages of each crossing
        pairs = [(k, opened) for k, (_, _, opened) in enumerate(word) if opened is not None]
        if alternating_only:
            # roles alternate along each component from the role of its head
            nonempty = [ci for ci, size in enumerate(sizes) if size]
            for heads in product((True, False), repeat=len(nonempty)):
                head_of = dict(zip(nonempty, heads))
                over = [head_of[ci] != bool(j & 1) for ci, j in positions]
                if all(over[a] != over[b] for a, b in pairs):
                    yield split([_passage(x, o, sign) for (x, sign, _), o in zip(word, over)])
            return
        # a Gray code over the crossings: each step swaps the two passages
        # of one crossing, which exchanges its over and under roles
        flat = [_passage(x, opened is None, sign) for x, sign, opened in word]
        yield split(flat)
        for i in range(1, 1 << crossings):
            a, b = pairs[(i & -i).bit_length() - 1]
            flat[a], flat[b] = flat[b], flat[a]
            yield split(flat)

    def rec(idx: int, next_id: int) -> Iterator[tuple[tuple[Passage, ...], ...]]:
        if idx == total:
            if not open_at:
                yield from leaf()
            return
        ci, j = positions[idx]
        # close an open crossing
        for x in sorted(open_at):
            sign, k = open_at[x]
            ck, l = positions[k]
            if alternating_only and ck == ci and not (j - l) & 1:
                continue
            del open_at[x]
            word.append((x, sign, k))
            yield from rec(idx + 1, next_id)
            word.pop()
            open_at[x] = (sign, k)
        # open a new one, if the remaining positions can still close everything
        if next_id <= crossings and len(open_at) + 1 <= total - idx - 1:
            for sign in (1, -1):
                open_at[next_id] = (sign, idx)
                word.append((next_id, sign, None))
                yield from rec(idx + 1, next_id + 1)
                word.pop()
                del open_at[next_id]

    yield from rec(0, 1)


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

    Order contract: diagrams that differ only in which passage of each
    crossing is over, their signed word (component lengths, and the
    crossing id and sign at each position) being the same, are yielded
    consecutively.  Their f-polynomials are equal (see
    :mod:`vknots.bracket`), so a caller verifying the stream in order,
    such as :func:`sweep`, runs one state sum per signed word.
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


def _same_word(d: Diagram, e: Diagram) -> bool:
    """Whether d and e have one signed word: the same component lengths
    and the same crossing id and sign at each position, whatever the
    roles.  f depends on the word alone (see :mod:`vknots.bracket`)."""
    if len(d.components) != len(e.components):
        return False
    for comp_d, comp_e in zip(d.components, e.components):
        if len(comp_d) != len(comp_e):
            return False
        for p, q in zip(comp_d, comp_e):
            if p.crossing != q.crossing or p.sign != q.sign:
                return False
    return True


# The one-entry memo of verify_diagram: the last diagram whose state sum it
# ran, with its f, congruence class, f(1) verdict, sorted index spectrum
# and whether crossing changes make it alternating.
_last: Optional[tuple[Diagram, LaurentPoly, CongruenceClass, bool, tuple[int, ...], bool]] = None


def verify_diagram(d: Diagram, max_crossings: Optional[int] = None) -> VerificationRecord:
    """Evaluate all per-diagram properties; ``max_crossings`` is the
    state-sum size limit of :func:`f_polynomial`.  The state sum and the
    colorability check share one ribbon graph of ``d``.  A diagram
    without components raises EmptyDiagram, and a negative
    ``max_crossings`` ValueError.  A diagram with the signed word of the
    previous call's diagram reuses that call's results (see the module
    docstring) instead of running its own state sum and
    ``make_alternating``.

    This is the package's one statement of the congruence verdict:
    ``congruence_ok`` holds vacuously for non-colorable diagrams; for
    colorable ones the f-exponents must share residue 0 mod 4 when the
    component count is odd and 2 when it is even (and f must be nonzero).
    """
    n = d.component_count
    if not n:
        raise EmptyDiagram("a diagram without components is not a link")
    g = _state_sum_graph(d, max_crossings)
    # the memo entry is read once and replaced by one assignment, so a
    # caller in another thread sees either the old or the new entry, and
    # each entry is a diagram with its own results
    global _last
    last = _last
    if last is not None and _same_word(last[0], d):
        _, f, congruence, unit_eval_ok, spectrum, alternatable = last
    else:
        f, spectrum = _word_invariants(d, _state_histogram(g))
        congruence = f.congruence_class_mod4()
        unit_eval_ok = f.evaluate_at_one() == (-2) ** (n - 1)
        alternatable = make_alternating(d) is not None
        _last = (d, f, congruence, unit_eval_ok, spectrum, alternatable)
    coloring = _checkerboard_coloring(g)
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
