"""Runtime span tracing of the vknots layers, installed from outside.

The tracer wraps every public function of the layer modules
(``diagram``, ``laurent``, ``bracket``, ``ald``, ``verify``) and the
public ``LaurentPoly`` operators, and patches each wrapper in wherever
the original is bound: the defining module, every other ``vknots``
module that imported the name, and the ``LaurentPoly`` class.  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.

Each call of a wrapped function is a span (id, parent id, name, start,
end) kept in compact in-memory arrays.  A layer's self time is the sum
over its spans of span time minus the time covered by child spans, so the
self times of all layers, of the benchmark's own ``bench`` spans and of
the tracer's own ``trace`` work add up to the time the root spans cover.

``LaurentPoly`` operators run hundreds of thousands of times per second
on small inputs, and a span record costs about as much as the operator.
They are therefore timed and counted but not recorded as spans: the
outermost operator call is timed, its time is laurent self time and is
taken off its caller's self time, and nested operator calls (``__pow__``
calling ``__mul__``) are counted only.  The tracer's hooks are timed the
same way and charged to ``trace``.  Operators call nothing that is
spanned, which is what makes this exact.

Only the thread that installed the tracer records.  The state-sum worker
threads of ``bracket_parallel`` run private functions only, so no wrapped
call is made from them; a call from another thread would pass through
untraced rather than corrupt the span stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("diagram", "laurent", "bracket", "ald", "verify")

# Public LaurentPoly operators patched at class level.  __hash__, __bool__
# and the printing dunders are left alone: they are not arithmetic.
LAURENT_METHODS = (
    "__init__", "__add__", "__neg__", "__sub__", "__mul__", "__pow__", "__eq__",
    "zero", "one", "monomial", "from_pairs", "scale", "shift", "evaluate_at_one",
    "exponent_set", "congruence_class_mod4", "is_alternating_form",
    "coefficient", "terms", "to_pairs",
)

# state-sum entry points: their inputs and results feed the bracket counters
STATE_SUMS = ("bracket.bracket", "bracket.bracket_parallel")

_clock = time.perf_counter
_thread_id = threading.get_ident


class Tracer:
    def __init__(self, package):
        self.package = package
        self.thread = _thread_id()
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # frames: [id, layer, child s, name, start]
        self._in_leaf = False
        self.name_ids: dict[str, int] = {}
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.entries: Counter = Counter()  # calls into a layer from outside it
        self.calls: Counter = Counter()  # per wrapped name
        # filled by hooks
        self.states = 0
        self.state_sum_calls = 0
        self.repeats = 0
        self.result_terms = 0
        self.colorable = 0
        self._seen: set = set()
        self._canonical_form = self._module("diagram").canonical_form
        self._terms = self._module("laurent").LaurentPoly.terms

    def _module(self, layer: str):
        # the package re-exports a function named ``bracket``, which hides
        # the submodule attribute of the same name
        return importlib.import_module(f"{self.package.__name__}.{layer}")

    def _traced(self) -> bool:
        return self.active and _thread_id() == self.thread

    # -- spans ---------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        stack = self._stack
        if not stack or stack[-1][1] != layer:
            self.entries[layer] += 1
        self.calls[name] += 1
        sid = len(self.span_end) + 1
        self.span_parent.append(stack[-1][0] if stack else 0)
        self.span_name.append(self.name_ids.setdefault(name, len(self.name_ids)))
        self.span_end.append(0.0)
        frame = [sid, layer, 0.0, name, _clock()]
        self.span_start.append(frame[4])
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        dur = end - frame[4]
        self.self_s[frame[1]] += dur - frame[2]
        self.inclusive_s[frame[3]] += dur
        if stack:
            stack[-1][2] += dur
        self.span_end[frame[0] - 1] = end

    def _charge(self, layer: str, seconds: float) -> None:
        """Time spent in an unrecorded leaf: self time of ``layer``,
        child time of the enclosing span."""
        self.self_s[layer] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    @contextmanager
    def span(self, layer: str, name: str):
        """A root span opened by the benchmark itself."""
        frame = self._open(layer, name)
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def paused(self):
        """Wrapped functions called inside record nothing, so the
        benchmark's own input making and checks are charged to the
        enclosing benchmark span and not to a layer."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrappers ------------------------------------------------------

    def _wrap_span(self, layer: str, name: str, fn, hook=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # the work runs at each next(), so each next() is a span

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(layer, name) if tracer._traced() else None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            tracer._close(frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._traced():
                return fn(*args, **kwargs)
            frame = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None:
                start = _clock()
                hook(args, kwargs, result)
                tracer._charge("trace", _clock() - start)
            return result

        return wrapper

    def _wrap_leaf(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            if not tracer._traced():
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if not stack or stack[-1][1] != layer:
                tracer.entries[layer] += 1
            tracer._in_leaf = True
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._charge(layer, _clock() - start)
                tracer._in_leaf = False

        return leaf

    # -- hooks ---------------------------------------------------------

    def _state_sum_hook(self, args, kwargs, result) -> None:
        d = args[0] if args else kwargs["d"]
        self.state_sum_calls += 1
        self.states += 1 << d.crossing_count
        self.result_terms += len(self._terms(result))
        key = self._canonical_form(d)
        if key in self._seen:
            self.repeats += 1
        else:
            self._seen.add(key)

    def _colorable_hook(self, args, kwargs, result) -> None:
        self.colorable += result is not None

    # -- install -------------------------------------------------------

    def install(self) -> None:
        hooks = {name: self._state_sum_hook for name in STATE_SUMS}
        hooks["ald.checkerboard_colorable"] = self._colorable_hook
        wrappers = {}
        for layer in LAYERS:
            mod = self._module(layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._wrap_span(layer, name, obj, hooks.get(name))
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        cls = self._module("laurent").LaurentPoly
        for attr in LAURENT_METHODS:
            raw = cls.__dict__[attr]
            name = f"laurent.LaurentPoly.{attr}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap_leaf("laurent", name, raw.__func__))
            else:
                patched = self._wrap_leaf("laurent", name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write_spans(self, path, limit: int) -> int:
        """Spans as CSV: id, parent id (0 for a root), name, and start and
        end in seconds of the performance counter.  Writes whole root
        trees only, up to about ``limit`` spans; returns the count."""
        names = {v: k for k, v in self.name_ids.items()}
        count = len(self.span_end)
        if count > limit:
            # cut before the first root opened at or after the limit
            count = next((i for i in range(limit, count) if self.span_parent[i] == 0), count)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(count):
                fh.write(
                    f"{i + 1},{self.span_parent[i]},{names[self.span_name[i]]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )
        return count
