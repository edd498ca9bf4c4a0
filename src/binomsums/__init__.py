"""Exact arithmetic for powered-binomial sums and their identity audit.

The public API is the union of the ``__all__`` lists of the five modules
below; each name is listed once, in its own module, and re-exported here.
"""

from __future__ import annotations

from . import classic_numbers, exact_core, hypergeom, p_polynomials, y6_engine
from .classic_numbers import *  # noqa: F403
from .exact_core import *  # noqa: F403
from .hypergeom import *  # noqa: F403
from .p_polynomials import *  # noqa: F403
from .y6_engine import *  # noqa: F403

__all__ = [
    *exact_core.__all__,
    *classic_numbers.__all__,
    *y6_engine.__all__,
    *p_polynomials.__all__,
    *hypergeom.__all__,
]

__version__ = "1.0.0"
