"""Kauffman bracket and f-polynomials of virtual link diagrams.

Diagrams are signed Gauss codes; the package computes exact bracket and
normalized bracket (f) polynomials, decides checkerboard colorability
through the associated ribbon-graph surface, rewrites diagrams by
generalized Reidemeister moves, and ships an exhaustive verification
harness for the structural properties these invariants satisfy.
"""

__version__ = "0.1.0"

from sys import modules as _modules

from .ald import *
from .bracket import *
from .diagram import *
from .laurent import *
from .verify import *

# the package attribute ``bracket`` is the function, which hides the
# submodule of that name, so the modules are looked up in sys.modules
__all__ = [
    name
    for layer in ("ald", "bracket", "diagram", "laurent", "verify")
    for name in _modules[f"{__name__}.{layer}"].__all__
]
