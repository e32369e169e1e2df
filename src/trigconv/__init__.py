"""trigconv: sequence-condition taxonomy and uniform-convergence checks
for trigonometric series.

The package classifies coefficient sequences against a family of
variation and sector conditions, evaluates partial sums and tail
sup-norms on oscillation-resolving grids, and verifies the implication
chains between the conditions on randomized corpora.  Everything is
deterministic: generators are pure functions of the index, randomized
corpora are pure functions of their seed, and repeated runs serialize
byte-identically.
"""

__version__ = "0.1.0"

from .sequences import *
from .conditions import *
from .series import *
from .harness import *

__all__ = ["__version__", *sequences.__all__, *conditions.__all__,
           *series.__all__, *harness.__all__]
