"""Finite-key and asymptotic secret-key rates for multipartite QKD.

The package evaluates computable key lengths for the N-BB84 and N-six-state
conference-key protocols under depolarizing noise, optimizes them over the
security-parameter budget at fixed total epsilon, locates the round-count
threshold where the six-state protocol overtakes N-BB84, and validates the
closed forms against Monte Carlo and exact density-matrix oracles.

The package exports exactly the names its modules list in their ``__all__``.
"""

from . import asymptotic, finite_key, noise, numerics, optimize, simulate
from .asymptotic import *
from .finite_key import *
from .noise import *
from .numerics import *
from .optimize import *
from .simulate import *

__version__ = "0.1.0"

__all__ = []
__all__ += asymptotic.__all__
__all__ += finite_key.__all__
__all__ += noise.__all__
__all__ += numerics.__all__
__all__ += optimize.__all__
__all__ += simulate.__all__
