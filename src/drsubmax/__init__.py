"""Stochastic continuous DR-submodular maximization toolkit.

Polytope oracles, two benchmark objective families, seeded noise oracles,
four stochastic ascent algorithms, high-probability lower-bound evaluators,
and a multi-run experiment harness with worst-case/percentile analysis.
"""

from .analysis import *
from .bounds import *
from .geometry import *
from .objectives import *
from .optimizers import *
from .oracles import *

__all__ = (analysis.__all__ + bounds.__all__ + geometry.__all__
           + objectives.__all__ + optimizers.__all__ + oracles.__all__)

__version__ = "0.1.0"
