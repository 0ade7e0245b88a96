"""Kauffman bracket state sum, f-polynomial and skein machinery.

The bracket of a diagram with c crossings is the exact sum over all 2^c
splice assignments

    <D> = sum_S A^(#A - #B) (-A^2 - A^-2)^(loops(S) - 1)

and the f-polynomial is (-A^3)^(-writhe) <D>.  The sum leaves one
crossing open and walks the 2^(c-1) states of the other c - 1 crossings
depth first, splicing them in row order: a union-find over the diagram
arcs is built once per prefix of splices and shared by every state that
extends it, so each state costs about two rows of unions and one copy
of the forest rather than c - 1 rows.  At each state the open crossing
is closed both ways from the roots of its arcs.  This gives two exact
(#B, loops) histograms of Python int counts, those of the A and the B
splice at the open crossing, so that one sum yields <D_A> and <D_B>
and, by Kauffman's relation <D> = A<D_A> + A^-1<D_B>, <D> itself.  The
arcs are the bands of the ribbon graph from
:func:`vknots.ald.build_ald`, and each crossing's row lists the arc
pairs its A and its B splice join, read off the rotation slots of its
four bands (``band_of_dart``) through ``A_PAIRS``/``B_PAIRS``.  The
state loop therefore has no sign test: the splice rule lives only in
``ald``.  A histogram is assembled in closed form, with no polynomial
products: (-A^2 - A^-2)^k = (-1)^k sum_j C(k, j) A^(2k - 4j), and the
writhe factor (-A^3)^(-w) is a shift by -3w and a sign, as are the
skein factors.  Callers that already hold a diagram's ribbon graph
(``verify``) pass it to the private bodies of the state sum, so it is
built once per diagram.  ``splice_state`` counts one state's loops on
the boundary walk instead, sharing no code with the state sum.

f depends only on the signed word of a diagram (its component lengths
and the crossing id and sign at each position), not on which passage of
a crossing is over: Kauffman's virtualization invariance.  Here it is
the slot rule of ``ald``: at a positive crossing the A splice joins each
incoming end to the other strand's outgoing end, at a negative one
in-to-in and out-to-out, whichever strand is over; the bands are
numbered in arc order, which roles do not change, so every role
assignment of a word gives the same splice rows, histograms and writhe
(``vknots.verify`` memoizes f per signed word on this).  Nothing in this
module keeps a memo: ``f_polynomial``, ``bracket``, ``bracket_parallel``,
``index_spectrum`` and the skein checks sum every diagram they are given.

``bracket_parallel`` alone splits the walk: the subtrees under the splice
prefixes of the first rows are dealt out between the caller and helper
processes that it forks on first use, one per usable CPU at most, and
the histograms are added exactly.  A helper is a fork of the calling
process that sums the shares it is sent over a pipe and sends back their
histograms; it keeps nothing between tasks and ends when its pipe is
closed, which an exit hook of the calling process does.  Everything else
here sums in the calling thread, and ``bracket`` is the oracle of the
split sum.

The finite-type coefficients v_n(p) = T_n(p) / n! of p(e^x) are built on
the integer moments T_n(p) = sum_j coeff(j) j^n (``_moments``):
``finite_type_coefficients`` returns them as exact rationals, while
``finite_type_recursion_check`` compares each series row multiplied by
n!, an equation of integers, so that it builds no Fraction.
"""

from __future__ import annotations

import atexit
import marshal
import operator
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, Optional

from .ald import (
    A_PAIRS,
    B_PAIRS,
    ORIENTED_SPLICE,
    IncompleteChoices,
    RibbonGraph,
    _check_splices,
    _trace,
    build_ald,
)
from .diagram import (
    Diagram,
    DiagramError,
    SpliceContext,
    splice_context,
    writhe,
)
from .laurent import LOOP_FACTOR, LaurentPoly

DEFAULT_MAX_CROSSINGS = 24


class TooManyCrossings(DiagramError):
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


def _splice_rows(g: RibbonGraph) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Per-crossing splice rows of a ribbon graph: ``rows[x]`` is the pair
    (A pairs, B pairs) of band indices joined at crossing x + 1."""
    (a0, a1), (a2, a3) = A_PAIRS
    (b0, b1), (b2, b3) = B_PAIRS
    band_of = g.band_of_dart
    return [
        (((e[a0], e[a1]), (e[a2], e[a3])), ((e[b0], e[b1]), (e[b2], e[b3])))
        for e in [band_of[4 * v:4 * v + 4] for v in range(g.vertex_count)]
    ]


def _find(parent: list[int], a: int) -> int:
    """The root of arc a in a union-find forest, halving the path to it."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def splice_state(d: Diagram, choices: Mapping[int, str]) -> State:
    """Evaluate one splice assignment: loop count and A-minus-B exponent.
    Each loop bounds two of the boundary walks that ``ald._trace`` traces
    with ``choices`` as its splices, and each free loop is one more loop.
    Choices that are not a full splice assignment raise IncompleteChoices."""
    c = d.crossing_count
    _check_splices(c, choices, full=True)
    g = build_ald(d)
    loops = len(_trace(g, choices)[2]) // 2 + g.free_loops
    ordered = tuple(choices[i + 1] for i in range(c))
    return State(choices=ordered, loop_count=loops, splice_exponent=c - 2 * ordered.count("B"))


def state_contribution(s: State) -> LaurentPoly:
    """I(S) = A^exponent (-A^2-A^-2)^(loops-1), the state's bracket term;
    the unit for the one state of the empty diagram, which has no loops."""
    if not s.loop_count:
        return LaurentPoly.one()
    return (LOOP_FACTOR ** (s.loop_count - 1)).shift(s.splice_exponent)


def _index(exponent: int, loops: int) -> int:
    # the residue mod 4 of every exponent of A^exponent (-A^2 - A^-2)^(loops - 1);
    # the empty diagram's one state (no loops) counts as the unknot's
    return (exponent + 2 * max(loops, 1) - 2) % 4


def state_index(s: State) -> int:
    """The residue mod 4 shared by every exponent of the state's bracket
    contribution: (exponent + 2 loops - 2) mod 4, with the one state of
    the empty diagram, which has no loops, counted as one loop."""
    return _index(s.splice_exponent, s.loop_count)


# ---------------------------------------------------------------------------
# histogram evaluation

def _open_task(
    g: RibbonGraph, x: int
) -> tuple[list[tuple[tuple[tuple[int, int], ...], ...]], tuple[int, ...], int, int]:
    """The state sum with crossing x + 1 left open, as plain data that a
    helper process can be sent: the splice rows of the other crossings in
    row order, the bands of the open crossing's four darts, the arc count
    and the free loops."""
    rows = _splice_rows(g)
    return rows[:x] + rows[x + 1:], tuple(g.band_of_dart[4 * x:4 * x + 4]), g.edge_count, g.free_loops


def _walk(
    rows: list[tuple[tuple[tuple[int, int], ...], ...]],
    bands: tuple[int, ...],
    n_arcs: int,
    free: int,
    k: int,
    prefixes: Iterable[int],
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """The (#B-splices, loop count) -> count histograms of the A and the B
    splice at the open crossing, over the states under the given splice
    prefixes of the first k rows (bit i of a prefix is 1 where row i takes
    its B splice); k = 0 with the one prefix 0 is the whole state sum.

    #B counts the B splices among the other crossings, and loop counts
    include the free loops.  The states are the leaves of a depth-first
    walk that splices the other crossings in row order, so states that
    agree on a prefix of rows share its union-find over the arcs: a node
    at depth k holds the forest of its first k splices and its loop count,
    the arcs less its successful unions.  A node hands its own forest to
    its A child and a copy to its B child, and each child applies the two
    unions of its row, so a state costs about two rows and one copy.  At
    each leaf the open crossing is closed both ways from the roots of its
    four bands: a pair joins two loops unless its ends already share one,
    and the second pair also fails when it repeats the two roots the first
    just joined.
    """
    depth = len(rows)
    e0, e1, e2, e3 = bands
    (a0, a1), (a2, a3) = A_PAIRS
    (b0, b1), (b2, b3) = B_PAIRS
    hist_a: dict[tuple[int, int], int] = {}
    hist_b: dict[tuple[int, int], int] = {}
    stack = []
    for prefix in prefixes:
        parent, n_b, loops = list(range(n_arcs)), 0, n_arcs + free
        for level in range(k):
            bit = prefix >> level & 1
            n_b += bit
            for a, b in rows[level][bit]:
                ra, rb = _find(parent, a), _find(parent, b)
                if ra != rb:
                    parent[rb] = ra
                    loops -= 1
        stack.append((k, parent, n_b, loops))
    while stack:
        level, parent, n_b, loops = stack.pop()
        if level < depth:
            row_a, row_b = rows[level]
            level += 1
            for bit, pairs in ((1, row_b), (0, row_a)):
                # the B child works on a copy; the A child, pushed last,
                # takes this node's forest, which no one reads after it
                forest = parent[:] if bit else parent
                joined = loops
                for a, b in pairs:
                    ra, rb = _find(forest, a), _find(forest, b)
                    if ra != rb:
                        forest[rb] = ra
                        joined -= 1
                stack.append((level, forest, n_b + bit, joined))
            continue
        root = (_find(parent, e0), _find(parent, e1), _find(parent, e2), _find(parent, e3))
        # the two closings are written out: a loop over them costs about a
        # tenth of the state sum of a diagram with c <= 4
        p, q, r, s = root[a0], root[a1], root[a2], root[a3]
        key = (n_b, loops - (p != q) - (r != s and not (r == p and s == q or r == q and s == p)))
        hist_a[key] = hist_a.get(key, 0) + 1
        p, q, r, s = root[b0], root[b1], root[b2], root[b3]
        key = (n_b, loops - (p != q) - (r != s and not (r == p and s == q or r == q and s == p)))
        hist_b[key] = hist_b.get(key, 0) + 1
    return hist_a, hist_b


def _open_histograms(
    g: RibbonGraph, x: int, workers: int = 1
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """The A and the B histogram of crossing x + 1 left open, over the
    2^(c-1) states of the others (see ``_walk``), summed by up to
    ``workers`` processes when the diagram is large enough for a split to
    pay (see ``_split_walk``)."""
    task = _open_task(g, x)
    if workers > 1 and g.vertex_count >= _SPLIT_MIN_CROSSINGS:
        return _split_walk(task, workers)
    return _walk(*task, 0, (0,))


# ---------------------------------------------------------------------------
# helper processes of bracket_parallel

# Below this many crossings the caller sums alone.  Serial time over the
# time split between two processes, on a shared 2-core Xeon host, in 20
# trials of 10 random knots per c, alternating which ran first (median,
# with the lower quartile): 1.25 (1.12) at c = 8, 1.52 (1.37) at c = 9,
# 1.59 (1.41) at c = 10 and 1.49 (1.36) at c = 11.  At c = 8 the worst
# trial was 0.79, so the split starts one crossing later.
_SPLIT_MIN_CROSSINGS = 9


@dataclass(frozen=True)
class _Helper:
    """A forked process that sums shares of state sums: the caller writes
    tasks to ``tasks`` and reads histograms from ``results``."""

    pid: int
    tasks: int
    results: int


_helpers: list[_Helper] = []
_lock = threading.Lock()  # guards _helpers and the pipes of a dispatch


def _cpu_limit() -> int:
    # the CPUs this process may run on
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _send(fd: int, obj: object) -> None:
    data = marshal.dumps(obj)
    data = len(data).to_bytes(8, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError("helper pipe closed")
        data += chunk
    return data


def _receive(fd: int) -> object:
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _serve(tasks: int, results: int) -> None:
    # a helper's life: sum each task, send its histograms, stop at EOF
    while True:
        try:
            task = _receive(tasks)
        except EOFError:
            return
        _send(results, _walk(*task))


def _fork_helper() -> Optional[_Helper]:
    """A new helper process, or None when the system refuses the fork."""
    tasks_r, tasks_w = os.pipe()
    results_r, results_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (tasks_r, tasks_w, results_r, results_w):
            os.close(fd)
        return None
    if not pid:
        # the helper never returns into its caller's stack; the fork hook
        # has closed the pipes of the helpers forked before it
        code = 1
        try:
            os.close(tasks_w)
            os.close(results_r)
            _serve(tasks_r, results_w)
            code = 0
        finally:
            os._exit(code)
    os.close(tasks_r)
    os.close(results_w)
    return _Helper(pid, tasks_w, results_r)


def _hire(count: int) -> list[_Helper]:
    """Up to ``count`` live helpers.  New ones are forked only while this
    process runs one thread: a fork copies no other thread, so a lock that
    another thread held would stay locked in the child."""
    while len(_helpers) < count and hasattr(os, "fork") and threading.active_count() == 1:
        helper = _fork_helper()
        if helper is None:
            break
        _helpers.append(helper)
    return _helpers[:count]


def _discard(helper: _Helper) -> None:
    """Stop a helper and reap it, whatever it is doing, so that no result
    it was computing can be read later."""
    from signal import SIGKILL  # here, not at import: it costs every import about 1 ms

    _helpers.remove(helper)
    os.close(helper.tasks)
    os.close(helper.results)
    try:
        os.kill(helper.pid, SIGKILL)
        os.waitpid(helper.pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _release_helpers() -> None:
    # at exit: no helper outlives this process
    with _lock:
        for helper in _helpers[:]:
            _discard(helper)


def _forget_helpers() -> None:
    # in any child forked from this process: the helpers and the lock are
    # the parent's; close their pipes here, so that a helper still sees EOF
    # when the parent closes its end
    global _lock
    for helper in _helpers:
        os.close(helper.tasks)
        os.close(helper.results)
    _helpers.clear()
    _lock = threading.Lock()


atexit.register(_release_helpers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _add(into: dict[tuple[int, int], int], hist: Mapping[tuple[int, int], int]) -> None:
    for key, count in hist.items():
        into[key] = into.get(key, 0) + count


def _split_walk(
    task: tuple, workers: int
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """``_walk`` over all states of ``task``, summed by the caller and up to
    ``workers - 1`` helpers, at most one process per usable CPU.

    The 2^k splice prefixes of the first k rows, with 2^k at least four
    times the process count, are dealt out in turn, one share each; the
    caller sums its own while the helpers sum theirs, then adds their
    histograms, exact int counts, in a fixed order.  A helper that cannot
    be reached has its share summed by the caller.  Any exception after
    the tasks are sent discards every helper, so that no later call reads
    a result meant for this one.
    """
    with _lock:
        helpers = _hire(min(workers, _cpu_limit()) - 1)
        if not helpers:
            return _walk(*task, 0, (0,))
        n = len(helpers) + 1
        k = min(len(task[0]), (n - 1).bit_length() + 2)
        shares = [list(range(i, 1 << k, n)) for i in range(n)]
        mine = shares[0]
        sent = []
        try:
            for helper, share in zip(helpers, shares[1:]):
                try:
                    _send(helper.tasks, task + (k, share))
                    sent.append((helper, share))
                except OSError:
                    _discard(helper)
                    mine += share
            hist_a, hist_b = _walk(*task, k, mine)
            for helper, share in sent:
                try:
                    part = _receive(helper.results)
                except (OSError, EOFError, ValueError):
                    _discard(helper)
                    part = _walk(*task, k, share)
                _add(hist_a, part[0])
                _add(hist_b, part[1])
        except BaseException:
            for helper in _helpers[:]:
                _discard(helper)
            raise
    return hist_a, hist_b


def _state_histogram(g: RibbonGraph, workers: int = 1) -> dict[tuple[int, int], int]:
    """The (#B-splices, loop count) -> count histogram over all 2^c states,
    free loops included, with Python int counts so it is exact for every c.
    The last crossing is left open and its B side is counted at #B + 1."""
    c = g.vertex_count
    if not c:
        return {(0, g.free_loops): 1}
    hist, hist_b = _open_histograms(g, c - 1, workers)
    for (n_b, loops), count in hist_b.items():
        key = (n_b + 1, loops)
        hist[key] = hist.get(key, 0) + count
    return hist


def _assemble(c: int, hist: Mapping[tuple[int, int], int]) -> LaurentPoly:
    """Sum count * A^(c - 2 #B) (-A^2 - A^-2)^(loops - 1) over the histogram,
    expanding each power in closed form:
    (-A^2 - A^-2)^k = (-1)^k sum_j C(k, j) A^(2k - 4j)."""
    acc: dict[int, int] = {}
    for (n_b, loops), count in hist.items():
        if not loops:
            return LaurentPoly.one()  # the empty diagram: multiplicative unit
        k = loops - 1
        top = c - 2 * n_b + 2 * k
        signed = -count if k & 1 else count
        for j in range(k + 1):
            e = top - 4 * j
            acc[e] = acc.get(e, 0) + signed * comb(k, j)
    return LaurentPoly(acc)


def _check_size(d: Diagram, max_crossings: Optional[int]) -> None:
    """Raise ValueError for a negative limit, then TooManyCrossings when d
    has more crossings than the limit of a state sum."""
    if max_crossings is not None and max_crossings < 0:
        raise ValueError("max_crossings must be nonnegative")
    limit = DEFAULT_MAX_CROSSINGS if max_crossings is None else max_crossings
    if d.crossing_count > limit:
        raise TooManyCrossings(
            f"{d.crossing_count} crossings exceeds the limit {limit}"
        )


def _state_sum_graph(d: Diagram, max_crossings: Optional[int]) -> RibbonGraph:
    """The ribbon graph of d for a state sum, after ``_check_size``."""
    _check_size(d, max_crossings)
    return build_ald(d)


def _open_crossing(
    d: Diagram, crossing: int, max_crossings: Optional[int]
) -> tuple[SpliceContext, LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
    """The splice context of ``crossing`` (first arc reversed) and the
    f-polynomials of ``d``, of ``d`` with the crossing changed, and of the
    oriented and the disoriented splice there, from one state sum that
    leaves the crossing open: the one body of both skein checks.  Raises
    ValueError for a negative limit, then TooManyCrossings, then
    UnknownCrossing.

    With <D_A> and <D_B> the brackets of the A and the B splice,
    Kauffman's relation gives <D> = A<D_A> + A^-1<D_B>; a crossing change
    swaps the A and the B splice, and ``ald.ORIENTED_SPLICE`` says which
    of them is the oriented one.  Every writhe is read off the cut, with
    s the sign: k + l + s for ``d``, k + l - s with the crossing changed,
    k + l for the oriented splice and k - l for the disoriented one.
    """
    g = _state_sum_graph(d, max_crossings)
    ctx = splice_context(d, crossing)
    br_a, br_b = (_assemble(g.vertex_count - 1, hist) for hist in _open_histograms(g, crossing - 1))
    s, kl = ctx.sign, ctx.k + ctx.l
    br_0, br_inf = (br_a, br_b) if ORIENTED_SPLICE[s] == "A" else (br_b, br_a)
    return (
        ctx,
        _normalize(kl + s, br_a.shift(1) + br_b.shift(-1)),
        _normalize(kl - s, br_b.shift(1) + br_a.shift(-1)),
        _normalize(kl, br_0),
        _normalize(ctx.k - ctx.l, br_inf),
    )


def _bracket(g: RibbonGraph, workers: int = 1) -> LaurentPoly:
    # the state sum on a diagram's ribbon graph: the shared body of the
    # public entry points, private so that a tracer of public calls
    # (perfbench) counts one state sum per entry
    return _assemble(g.vertex_count, _state_histogram(g, workers))


def bracket(d: Diagram, max_crossings: Optional[int] = None) -> LaurentPoly:
    """The Kauffman bracket, by exact state sum over all 2^c states: a
    depth-first walk over the 2^(c-1) states of all crossings but the
    last, each closed two ways at the last crossing."""
    return _bracket(_state_sum_graph(d, max_crossings))


def bracket_parallel(
    d: Diagram,
    workers: Optional[int] = None,
    max_crossings: Optional[int] = None,
) -> LaurentPoly:
    """Same polynomial as :func:`bracket`, bit for bit, for every worker
    count, with the state sum split over up to ``workers`` processes.

    ``workers`` counts the processes that sum, the caller included; None
    means one per CPU this process may run on, which also caps any larger
    count.  The caller sums its share of the states while forked helper
    processes sum the others' (see ``_split_walk``), and the histograms
    are added exactly.  Diagrams with fewer than ``_SPLIT_MIN_CROSSINGS``
    (9) crossings are summed by the caller alone, where a split costs
    more than it saves; so is every diagram where ``os.fork`` is missing,
    or when no helper is running yet and this process runs more than one
    thread.  The helpers stay for later calls and end with this process.
    """
    if workers is not None:
        try:
            workers = operator.index(workers)
        except TypeError:
            raise TypeError(f"workers must be an int or None, got {workers!r}") from None
        if workers < 1:
            raise ValueError("workers must be positive")
    g = _state_sum_graph(d, max_crossings)
    return _bracket(g, _cpu_limit() if workers is None else workers)


def _normalize(w: int, br: LaurentPoly) -> LaurentPoly:
    # the f-polynomial (-A^3)^(-w) br = (-1)^w A^(-3w) br of a diagram of
    # writhe w and bracket br
    f = br.shift(-3 * w)
    return -f if w & 1 else f


def f_polynomial(d: Diagram, max_crossings: Optional[int] = None) -> LaurentPoly:
    """The normalized bracket (-A^3)^(-writhe) <D>, invariant under all
    generalized Reidemeister moves."""
    return _normalize(writhe(d), _bracket(_state_sum_graph(d, max_crossings)))


def _spectrum(c: int, hist: Mapping[tuple[int, int], int]) -> set[int]:
    # the state indices of a c-crossing diagram's (#B, loops) histogram
    return {_index(c - 2 * n_b, loops) for n_b, loops in hist}


def _word_invariants(d: Diagram, hist: Mapping[tuple[int, int], int]) -> tuple[LaurentPoly, tuple[int, ...]]:
    # f and the sorted index spectrum of d from its state histogram
    c = d.crossing_count
    return _normalize(writhe(d), _assemble(c, hist)), tuple(sorted(_spectrum(c, hist)))


def index_spectrum(d: Diagram, max_crossings: Optional[int] = None) -> set[int]:
    """The set of state indices over all states of the diagram."""
    g = _state_sum_graph(d, max_crossings)
    return _spectrum(g.vertex_count, _state_histogram(g))


# ---------------------------------------------------------------------------
# skein identities

@dataclass(frozen=True)
class SkeinReport:
    """Both sides of the one-crossing splice identity

        f = -A^(-2s) f0 - (-A^3)^(-2l) A^(-4s) finf

    where s is the crossing sign and l the signed count of crossings whose
    sign the disoriented splice flips.

    ``holds`` is True in every report that ``skein_identity_check``
    returns: the identity is a theorem, so a failure raises
    IdentityViolation instead of returning a report.  The field stays
    because it is part of the JSON form."""

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
    # (-A^3)^(-2l) finf is finf normalized as if its writhe were 2l
    return -(f0.shift(-2 * sign) + _normalize(2 * l, finf).shift(-4 * sign))


def skein_identity_check(d: Diagram, crossing: int, max_crossings: Optional[int] = None) -> SkeinReport:
    """Verify the splice identity at one crossing, exactly.

    One state sum over the other crossings, with this one left open,
    gives f, f0 and finf, each normalised by a writhe read off the cut of
    ``splice_context`` with the first arc reversed; no splice diagram is
    built (see ``_open_crossing``).  Both sides are assembled separately
    and compared exactly.  A failure raises IdentityViolation since the
    identity holds for every diagram.

    Reversing the other arc changes k, l and the disoriented writhe but
    not k + l, the bracket of the splice or (-A^3)^(-2l) finf, so it gives
    the same verdict.  That is a property of ``splice_context`` and of the
    bracket, tested in ``tests/test_diagram.py``, and not checked again
    here.  ``max_crossings`` limits the crossings of ``d``.
    """
    ctx, f, _, f0, finf = _open_crossing(d, crossing, max_crossings)
    rhs = _skein_rhs(ctx.sign, ctx.l, f0, finf)
    holds = f == rhs
    if not holds:
        raise IdentityViolation(
            f"skein identity failed at crossing {crossing}: {f} != {rhs}"
        )
    return SkeinReport(
        crossing=crossing,
        sign=ctx.sign,
        k=ctx.k,
        l=ctx.l,
        f=f,
        f_oriented=f0,
        f_disoriented=finf,
        rhs=rhs,
        holds=holds,
    )


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


def _check_order(order: int) -> int:
    """``order`` as an int; raises TypeError for a non-integer and
    ValueError for a negative one."""
    try:
        order = operator.index(order)
    except TypeError:
        raise TypeError(f"order must be an int, got {order!r}") from None
    if order < 0:
        raise ValueError("order must be nonnegative")
    return order


def _moments(p: LaurentPoly, order: int) -> list[int]:
    """T_m = sum_j coeff(j) j^m for m = 0..order: m! v_m(p), the m-th
    derivative of p(e^x) at x = 0, an integer."""
    terms = p.terms()
    return [sum(c * e**m for e, c in terms) for m in range(order + 1)]


def finite_type_coefficients(p: LaurentPoly, order: int) -> FiniteTypeSeries:
    """v_m = sum_j coeff(j) j^m / m! for m = 0..order."""
    moments = _moments(p, _check_order(order))
    return FiniteTypeSeries(
        coefficients=tuple(Fraction(t, factorial(m)) for m, t in enumerate(moments))
    )


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

    holds with l' = l and with l' = -l.  Each row is compared multiplied
    by n!, in the integer moments T_k = k! v_k:

        T_n(diff) = sum_{m=1..n} C(n, m) 2^m [ (1-(-1)^m) T_{n-m}(f0)
                     + ((2-3l')^m - (-2-3l')^m) T_{n-m}(finf) ]

    which holds exactly when the rational row does.

    ``difference_identity_holds`` is True in every report that
    ``finite_type_recursion_check`` returns: a failure of the identity
    raises IdentityViolation instead of returning a report.  The field
    stays because it is part of the JSON form.
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

    The f-polynomials of ``d``, of ``d`` with the crossing changed and of
    both splices come from the one state sum and the writhes of
    ``skein_identity_check`` (see ``_open_crossing``), and so do its
    errors, after the order check: an ``order`` that is not an int raises
    TypeError and a negative one ValueError, before any state sum.  The
    series rows are compared as n!-scaled sums of integer moments (see
    ``RecursionReport``), with no Fraction.
    """
    order = _check_order(order)
    ctx, f_d, f_changed, f0, finf = _open_crossing(d, crossing, max_crossings)
    l = ctx.l
    f_plus, f_minus = (f_d, f_changed) if ctx.sign > 0 else (f_changed, f_d)
    diff = f_plus - f_minus
    rhs = _skein_rhs(1, l, f0, finf) - _skein_rhs(-1, l, f0, finf)
    holds = diff == rhs
    if not holds:
        raise IdentityViolation(
            f"crossing-switch difference identity failed at crossing {crossing}"
        )
    t_diff, t0, tinf = (_moments(p, order) for p in (diff, f0, finf))

    def rows(ell: int) -> tuple[bool, ...]:
        # row n of the series recursion times n!, with m = n - k:
        # n! 2^m / m! v_k = C(n, m) 2^m T_k
        a, b = 2 - 3 * ell, -2 - 3 * ell
        return tuple(
            t_diff[n] == sum(
                comb(n, m) * 2**m * ((1 - (-1) ** m) * t0[n - m] + (a**m - b**m) * tinf[n - m])
                for m in range(1, n + 1)
            )
            for n in range(order + 1)
        )

    return RecursionReport(
        crossing=crossing,
        l=l,
        order=order,
        difference_identity_holds=holds,
        series_match_l=rows(l),
        series_match_negated_l=rows(-l),
    )


__all__ = [
    "DEFAULT_MAX_CROSSINGS",
    "FiniteTypeSeries",
    "IdentityViolation",
    "RecursionReport",
    "SkeinReport",
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
