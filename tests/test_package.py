"""The public surface of the package: each module's ``__all__`` lists the
public names it defines, and ``vknots`` re-exports exactly their union."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import vknots

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("ald", "bracket", "diagram", "laurent", "verify")

# the names exported before the module lists were the one statement of
# the surface, by defining module; every one must stay exported
PINNED = {
    "ald": [
        "ColorConflict", "Coloring", "IncompleteChoices", "NotAlternating", "RegionSet",
        "RibbonGraph", "boundary_regions", "build_ald", "checkerboard_colorable",
        "coloring_from_alternating", "euler_summary", "induced_state_coloring",
        "is_alternating", "make_alternating",
    ],
    "bracket": [
        "FiniteTypeSeries", "IdentityViolation", "State", "TooManyCrossings", "bracket",
        "bracket_parallel", "f_polynomial", "finite_type_coefficients",
        "finite_type_recursion_check", "index_spectrum", "skein_identity_check",
        "splice_state", "state_index",
    ],
    "diagram": [
        "BadDegree", "DanglingCrossing", "Diagram", "DiagramError", "InapplicableMove",
        "MalformedToken", "MoveKind", "OpenStrand", "Passage", "SignMismatch",
        "SpliceContext", "UnknownCrossing", "apply_move", "canonical_form",
        "crossing_change", "make_diagram", "parse_gauss", "parse_pd", "random_diagram",
        "random_move", "reverse_all", "serialize", "splice_context", "splice_disoriented",
        "splice_oriented", "writhe",
    ],
    "laurent": ["LaurentPoly", "monomial_pow"],
    "verify": [
        "EmptyDiagram", "EnumSpec", "SpecTooLarge", "VerificationRecord",
        "enumerate_diagrams", "find_nonalternating_form_witness", "fuzz_invariance",
        "sweep", "verify_diagram",
    ],
}


def _module(layer: str):
    # the package's ``bracket`` is the function, not the submodule
    return importlib.import_module(f"vknots.{layer}")


def test_pinned_names_resolve_to_their_definitions():
    assert sum(map(len, PINNED.values())) == 64
    for layer, names in PINNED.items():
        mod = _module(layer)
        for name in names:
            assert name in mod.__all__
            assert getattr(vknots, name) is getattr(mod, name)
            assert getattr(vknots, name).__module__ == mod.__name__


def test_package_all_is_the_union_of_module_lists():
    lists = [_module(layer).__all__ for layer in LAYERS]
    union = [name for names in lists for name in names]
    assert len(union) == len(set(union)), "a name is listed by two modules"
    assert sorted(vknots.__all__) == sorted(union)
    for layer in LAYERS:
        mod = _module(layer)
        for name in mod.__all__:
            obj = getattr(mod, name)
            # listed only by the module that defines it
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name


def test_star_import_binds_every_entry():
    namespace: dict = {}
    exec("from vknots import *", namespace)
    for name in vknots.__all__:
        assert namespace[name] is getattr(vknots, name)


def test_report_types_resolve_from_package():
    for layer, name in [
        ("bracket", "SkeinReport"),
        ("bracket", "RecursionReport"),
        ("verify", "SweepSummary"),
        ("verify", "FuzzReport"),
    ]:
        assert name in vknots.__all__
        assert getattr(vknots, name) is getattr(_module(layer), name)


def test_import_loads_no_process_or_array_machinery():
    """``import vknots`` is timed by the benchmark's setup; a process pool,
    ``subprocess``, ``signal`` or numpy would each add to every run."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import vknots\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "vknots.bracket" in loaded
    heavy = ("multiprocessing", "concurrent.futures", "subprocess", "signal", "numpy")
    assert [m for m in loaded if any(m == h or m.startswith(h + ".") for h in heavy)] == []
