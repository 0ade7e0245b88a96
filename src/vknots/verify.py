"""Exhaustive enumeration of small signed Gauss codes and the property
verification harness.

The harness machine-checks, over every enumerated diagram: the exponent
congruence of the f-polynomial for checkerboard-colorable diagrams
(exponents all 0 mod 4 for odd component counts, all 2 mod 4 for even),
the equivalence between colorability and being crossing-changeable to an
alternating diagram, and the evaluation f(1) = (-2)^(n-1).
:func:`verify_index_spectrum` checks per diagram that a colorable diagram
has a single state index.  The harness can also search the enumeration
for alternating diagrams whose f-polynomial is not of alternating form,
and fuzz move invariance.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .ald import Coloring, _checkerboard_coloring, is_alternating, make_alternating
from .bracket import _f_polynomial, _index_spectrum, _state_sum_graph, f_polynomial
from .diagram import (
    Diagram,
    DiagramError,
    Passage,
    _encode,
    canonical_form,
    make_diagram,
    random_diagram,
    random_move,
    serialize,
)
from .laurent import CongruenceClass, LaurentPoly

EXHAUSTIVE_LIMIT = 6  # the stream grows factorially past this
FUZZ_MAX_CROSSINGS = 8  # fuzz diagrams start at up to half this and stop growing at it


class SpecTooLarge(DiagramError):
    pass


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

    At each position either an already-open crossing closes (with the
    complementary role) or a fresh one opens (choosing its role and sign).
    With ``alternating_only`` the role at each position is forced by the
    role pattern of its component, branching only at each component head.
    """
    total = sum(sizes)
    comps: list[list[Passage]] = [[] for _ in sizes]
    open_role: dict[int, tuple[bool, int]] = {}

    def positions() -> list[tuple[int, int]]:
        out = []
        for ci, size in enumerate(sizes):
            out.extend((ci, j) for j in range(size))
        return out

    pos_list = positions()

    def rec(idx: int, next_id: int) -> Iterator[tuple[tuple[Passage, ...], ...]]:
        if idx == total:
            if not open_role:
                yield tuple(tuple(c) for c in comps)
            return
        ci, j = pos_list[idx]
        if alternating_only and j > 0:
            forced: Optional[bool] = not comps[ci][j - 1].over
        else:
            forced = None
        # close an open crossing
        for cid in sorted(open_role):
            role, sign = open_role[cid]
            new_role = not role
            if forced is not None and new_role != forced:
                continue
            del open_role[cid]
            comps[ci].append(Passage(cid, new_role, sign))
            yield from rec(idx + 1, next_id)
            comps[ci].pop()
            open_role[cid] = (role, sign)
        # open a new one, if the remaining positions can still close everything
        remaining = total - idx
        if next_id <= crossings and len(open_role) + 1 <= remaining - 1:
            roles = (True, False) if forced is None else (forced,)
            for role in roles:
                for sign in (1, -1):
                    open_role[next_id] = (role, sign)
                    comps[ci].append(Passage(next_id, role, sign))
                    yield from rec(idx + 1, next_id + 1)
                    comps[ci].pop()
                    del open_role[next_id]

    yield from rec(0, 1)


def _alternation_closes(sizes: tuple[int, ...]) -> bool:
    # a component with an odd number of passages can never alternate
    return all(size % 2 == 0 for size in sizes)


def enumerate_diagrams(spec: EnumSpec) -> Iterator[Diagram]:
    """Yield every signed Gauss code within the spec exactly once (under
    the chosen dedupe).  Components are cyclic; codes are produced in their
    stored linear form with first-appearance crossing ids."""
    spec.validate()
    for c in range(spec.max_crossings + 1):
        for n in range(1, spec.max_components + 1):
            for sizes in _compositions(2 * c, n):
                if spec.alternating_only and not _alternation_closes(sizes):
                    continue
                for comps in _fill(sizes, c, spec.alternating_only):
                    d = make_diagram(comps)
                    if spec.alternating_only and not is_alternating(d):
                        continue
                    if spec.dedupe == "cyclic-relabel" and canonical_form(d) != _encode(d.components):
                        continue
                    yield d


@dataclass(frozen=True)
class VerificationRecord:
    """Per-diagram verdicts for the three verified properties, with the
    checkerboard coloring that witnesses colorability (None when the
    diagram is not colorable)."""

    diagram: Diagram
    coloring: Optional[Coloring]
    alternating: bool
    f: LaurentPoly
    congruence: CongruenceClass
    congruence_ok: bool
    alternating_equiv_ok: bool
    unit_eval_ok: bool

    @property
    def colorable(self) -> bool:
        return self.coloring is not None

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


def verify_diagram(d: Diagram, max_crossings: Optional[int] = None) -> VerificationRecord:
    """Evaluate all per-diagram properties; ``max_crossings`` is the
    state-sum size limit of :func:`f_polynomial`.  The state sum and the
    colorability check share one ribbon graph of ``d``.

    This is the package's one statement of the congruence verdict:
    ``congruence_ok`` holds vacuously for non-colorable diagrams; for
    colorable ones the f-exponents must share residue 0 mod 4 when the
    component count is odd and 2 when it is even (and f must be nonzero).
    """
    g = _state_sum_graph(d, max_crossings)
    f = _f_polynomial(d, g)
    n = d.component_count
    coloring = _checkerboard_coloring(g)
    colorable = coloring is not None
    alternating = is_alternating(d)
    congruence = f.congruence_class_mod4()
    expected = 0 if n % 2 == 1 else 2
    congruence_ok = (not colorable) or (bool(f) and congruence == expected)
    alternating_equiv_ok = (make_alternating(d) is not None) == colorable
    unit_eval_ok = f.evaluate_at_one() == (-2) ** (n - 1)
    return VerificationRecord(
        diagram=d,
        coloring=coloring,
        alternating=alternating,
        f=f,
        congruence=congruence,
        congruence_ok=congruence_ok,
        alternating_equiv_ok=alternating_equiv_ok,
        unit_eval_ok=unit_eval_ok,
    )


def verify_index_spectrum(
    d: Diagram, max_crossings: Optional[int] = None
) -> tuple[list[int], bool, bool]:
    """(sorted state-index spectrum, colorable, verdict): the package's one
    statement of the index-spectrum verdict, that a checkerboard colorable
    diagram has a single state index.  ``max_crossings`` is the state-sum
    size limit of :func:`index_spectrum`."""
    g = _state_sum_graph(d, max_crossings)
    spectrum = sorted(_index_spectrum(g))
    colorable = _checkerboard_coloring(g) is not None
    return spectrum, colorable, not colorable or len(spectrum) == 1


@dataclass
class SweepSummary:
    total: int = 0
    colorable: int = 0
    alternating: int = 0
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
            "failures": [r.to_json() for r in self.failures],
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def sweep(spec: EnumSpec) -> SweepSummary:
    """Run :func:`verify_diagram` over the whole enumeration.  Any failure
    recorded here disproves a theorem, so failures mean bugs."""
    start = time.perf_counter()
    summary = SweepSummary()
    for d in enumerate_diagrams(spec):
        record = verify_diagram(d)
        summary.total += 1
        summary.colorable += record.colorable
        summary.alternating += record.alternating
        if not record.ok:
            summary.failures.append(record)
    summary.elapsed = time.perf_counter() - start
    return summary


def find_nonalternating_form_witness(spec: EnumSpec) -> Optional[Diagram]:
    """The first enumerated alternating diagram whose f-polynomial is not
    of alternating form, or None if the range holds none.

    Classically the f-polynomial of a non-split alternating link is always
    alternating in form; virtually it is not, and small alternating virtual
    knots witness the failure.
    """
    spec.validate()
    alt_spec = EnumSpec(
        max_crossings=spec.max_crossings,
        max_components=spec.max_components,
        dedupe=spec.dedupe,
        alternating_only=True,
    )
    for d in enumerate_diagrams(alt_spec):
        if not f_polynomial(d).is_alternating_form():
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
    colorability/congruence implication must hold at every step."""
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
    "verify_index_spectrum",
]
