"""The benchmark's span tracer (``perfbench/tracer.py``) still installs on
the package, runs each workload's kind of operation and puts every
original back.

The tracer patches the public functions of the layer modules and the
``LaurentPoly`` methods it lists by name, so a name deleted from
``src/`` that it still lists makes ``perfbench/run.py --trace 1`` crash
at install, although nothing else in the package uses that name.
"""

import inspect
import itertools
import sys
from pathlib import Path

import vknots
from vknots.laurent import LaurentPoly
from vknots.verify import EnumSpec, enumerate_diagrams

from conftest import TREFOIL

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def _bound_functions() -> dict:
    # every function bound in a vknots module, and every LaurentPoly method
    prefix = vknots.__name__
    bound = {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }
    bound.update({("LaurentPoly", attr): obj for attr, obj in vars(LaurentPoly).items()})
    return bound


def test_tracer_installs_and_uninstalls():
    originals = _bound_functions()
    tracer = Tracer(vknots)
    tracer.install()
    try:
        assert vknots.verify_diagram is not originals[("vknots", "verify_diagram")]
        for d in itertools.islice(enumerate_diagrams(EnumSpec(4)), 200):
            assert vknots.verify_diagram(d).ok
        d = vknots.parse_gauss(TREFOIL)
        vknots.bracket_parallel(d, workers=2)
        assert vknots.skein_identity_check(d, 1).holds
        assert vknots.finite_type_recursion_check(d, 1, order=5).difference_identity_holds
    finally:
        tracer.uninstall()
    assert tracer.calls["verify.verify_diagram"] == 200
    assert tracer.state_sum_calls == 1
    assert _bound_functions() == originals
