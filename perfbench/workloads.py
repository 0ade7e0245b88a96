"""The benchmark's three workloads.

Each workload makes its inputs from the seed with the benchmark's own
generator (or reads them from the stored reference), hands the program
only the generated diagrams, runs one op per input and checks the output
exactly.  Every call into the program goes through attributes of the
``vknots`` package looked up at call time, so the tracer's wrappers are
picked up when it is installed.

* ``sweep``: ``verify_diagram`` over every knot diagram with at most 4
  crossings, the ``vknots sweep`` path.  One op takes the next 35
  diagrams from the enumeration and verifies them.  Inputs do not depend on the
  seed: the enumeration is the input.
* ``statesum``: ``bracket_parallel(d, workers=nproc)`` over a stream of
  distinct 13-crossing diagrams alternating 1 and 2 components, the
  ``vknots fpoly`` path.  The stream is a seeded order of a stored pool
  whose bracket digests were computed once from the ``bracket`` of the
  program (see ``make_reference.py``).
* ``skein``: seeded random 9-crossing knots; one op is one crossing,
  ``skein_identity_check`` followed by ``finite_type_recursion_check``
  at order 5.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

SWEEP_SPEC = {"max_crossings": 4, "max_components": 1}
# (diagrams, colorable, alternating) in one full pass over SWEEP_SPEC
SWEEP_TOTALS = (27893, 6565, 885)
# Diagrams per op.  Single diagrams take about 0.3 ms, and their latency
# distribution has two close modes, so its median jumps between them from
# run to run; chunks of 35 (which divides a pass) time steadily.
SWEEP_CHUNK = 35
SWEEP_SAMPLE_EVERY = 97  # every n-th diagram joins the parallel-speedup sample

STATESUM_COMPONENTS = (1, 2)

SKEIN_CROSSINGS = 9
SKEIN_ORDER = 5

# inputs timed by both bracket and bracket_parallel in a traced run
SPEEDUP_INPUTS = {"sweep": 300, "statesum": 6, "skein": 10}

_TOKEN = re.compile(r"([OU])(\d+)([+-])")


def random_code(rng: random.Random, crossings: int, components: int) -> str:
    """A random signed Gauss code with exactly ``crossings`` crossings,
    spread over ``components`` lines, ids numbered by first appearance."""
    slots = [rng.randrange(components) for _ in range(2 * crossings)]
    order = list(range(crossings)) * 2
    rng.shuffle(order)
    signs = [rng.choice("+-") for _ in range(crossings)]
    first_over: dict[int, bool] = {}
    comps: list[list[tuple[bool, int]]] = [[] for _ in range(components)]
    for comp, k in zip(slots, order):
        if k in first_over:
            over = not first_over[k]
        else:
            over = first_over[k] = rng.random() < 0.5
        comps[comp].append((over, k))
    labels: dict[int, int] = {}
    lines = []
    for comp in comps:
        tokens = []
        for over, k in comp:
            label = labels.setdefault(k, len(labels) + 1)
            tokens.append(f"{'O' if over else 'U'}{label}{signs[k]}")
        lines.append("".join(tokens) or "()")
    return "\n".join(lines)


def poly_digest(pairs) -> str:
    """Digest of a polynomial given as its [exponent, coefficient] pairs."""
    blob = json.dumps(pairs, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def expected_bracket_at_one(code: str) -> int:
    """<D>(1) = (-1)^w (-2)^(n-1), from f(1) = (-2)^(n-1)."""
    writhe = sum(1 if sign == "+" else -1 for role, _, sign in _TOKEN.findall(code) if role == "O")
    n = len(code.split("\n"))
    return (-1) ** (writhe % 2) * (-2) ** (n - 1)


class Workload:
    """One op per input: ``next_input`` (untimed, None when the inputs
    are used up), ``run`` (the timed op) and ``check`` (untimed, returns
    the errors found).  ``warmup`` runs one op on an input that does not
    depend on the seed and is not part of the stream."""

    name = ""

    def start_phase(self) -> None:
        pass

    def done(self, elapsed: float, seconds: float) -> bool:
        return elapsed >= seconds


class Sweep(Workload):
    name = "sweep"

    def __init__(self, vk, seed: int, nproc: int, reference_path=None):
        self.vk = vk
        self.spec = vk.EnumSpec(**SWEEP_SPEC)
        self.sample: list = []
        self._seen = 0

    def warmup(self) -> None:
        self.vk.verify_diagram(next(self.vk.enumerate_diagrams(self.spec)))

    def start_phase(self) -> None:
        self.pending = None  # the next diagram of the pass; None between passes
        self.counts = [0, 0, 0]
        self.passes = 0

    def done(self, elapsed: float, seconds: float) -> bool:
        # Whole passes only, so every run verifies the same mix of
        # diagrams: stop at the pass boundary nearest to ``seconds``.
        if self.pending is not None or not self.passes:
            return False
        return elapsed >= seconds - 0.5 * elapsed / self.passes

    def next_input(self):
        return self

    def run(self, _):
        # fetching the next diagram ahead tells check() where a pass ends
        if self.pending is None:
            self.gen = self.vk.enumerate_diagrams(self.spec)
            self.pending = next(self.gen)
        records = []
        while self.pending is not None and len(records) < SWEEP_CHUNK:
            d = self.pending
            self.pending = next(self.gen, None)
            records.append(self.vk.verify_diagram(d))
        return records

    def check(self, _, records) -> list[str]:
        errors = []
        for record in records:
            if not record.ok:
                errors.append(f"failure record for {self.vk.serialize(record.diagram)!r}")
            self.counts[0] += 1
            self.counts[1] += record.colorable
            self.counts[2] += record.alternating
            self._seen += 1
            if self._seen % SWEEP_SAMPLE_EVERY == 0 and len(self.sample) < SPEEDUP_INPUTS[self.name]:
                self.sample.append(record.diagram)
        if self.pending is None:
            self.passes += 1
            if tuple(self.counts) != SWEEP_TOTALS:
                errors.append(f"pass totals {tuple(self.counts)} != {SWEEP_TOTALS}")
            self.counts = [0, 0, 0]
        return errors

    def state_sum_inputs(self) -> list:
        return self.sample


class StateSum(Workload):
    name = "statesum"

    def __init__(self, vk, seed: int, nproc: int, reference_path=None):
        self.vk = vk
        self.nproc = nproc
        with open(reference_path, encoding="utf-8") as fh:
            pools = json.load(fh)["pools"]
        pools = {n: pools[str(n)] for n in STATESUM_COMPONENTS}
        self.warmup_entry = pools[1][0]
        pools[1] = pools[1][1:]
        rng = random.Random(seed)
        orders = {n: rng.sample(pool, len(pool)) for n, pool in pools.items()}
        # strictly alternating component counts, each pool in seeded order
        self.stream = [
            orders[n][i] for i in range(min(map(len, orders.values()))) for n in STATESUM_COMPONENTS
        ]
        self.used: list = []

    def _input(self, entry):
        code, digest = entry
        return code, digest, self.vk.parse_gauss(code)

    def warmup(self) -> None:
        self.run(self._input(self.warmup_entry))

    def next_input(self):
        """The next (code, digest, diagram), or None once the pool is
        used up: inputs are never repeated within a run."""
        if len(self.used) == len(self.stream):
            return None
        inp = self._input(self.stream[len(self.used)])
        self.used.append(inp[2])
        return inp

    def run(self, inp):
        return self.vk.bracket_parallel(inp[2], workers=self.nproc)

    def check(self, inp, poly) -> list[str]:
        code, digest, _ = inp
        pairs = poly.to_pairs()
        errors = []
        if poly_digest(pairs) != digest:
            errors.append(f"bracket digest mismatch for {code!r}")
        if sum(c for _, c in pairs) != expected_bracket_at_one(code):
            errors.append(f"bracket(1) != (-1)^w (-2)^(n-1) for {code!r}")
        return errors

    def state_sum_inputs(self) -> list:
        return self.used[: SPEEDUP_INPUTS[self.name]]


class Skein(Workload):
    name = "skein"

    def __init__(self, vk, seed: int, nproc: int, reference_path=None):
        self.vk = vk
        self.rng = random.Random(seed)
        self.diagrams: list = []
        self.pending: list[int] = []

    def warmup(self) -> None:
        code = random_code(random.Random("warm-up"), SKEIN_CROSSINGS, 1)
        self.run((self.vk.parse_gauss(code), 1))

    def next_input(self):
        if not self.pending:
            code = random_code(self.rng, SKEIN_CROSSINGS, 1)
            self.diagrams.append(self.vk.parse_gauss(code))
            self.pending = list(range(1, SKEIN_CROSSINGS + 1))
        return self.diagrams[-1], self.pending.pop(0)

    def run(self, inp):
        d, x = inp
        return (
            self.vk.skein_identity_check(d, x),
            self.vk.finite_type_recursion_check(d, x, order=SKEIN_ORDER),
        )

    def check(self, inp, out) -> list[str]:
        report, recursion = out
        errors = []
        if not report.holds:
            errors.append(f"skein identity fails at crossing {inp[1]}")
        if not recursion.difference_identity_holds:
            errors.append(f"difference identity fails at crossing {inp[1]}")
        return errors

    def state_sum_inputs(self) -> list:
        return self.diagrams[: SPEEDUP_INPUTS[self.name]]


WORKLOADS = {w.name: w for w in (Sweep, StateSum, Skein)}
