"""Certified verification of exact-arithmetic classifiers and learners.

Every operation here is a terminating approximation indexed by a natural
number fuel: answers are either committed (and then stay committed at every
higher fuel) or expressly undetermined.  Regions come as box covers for
universal questions and dyadic point enumerations for existential ones;
classifiers evaluate both points and boxes with exact rational arithmetic,
so a committed answer is a proof, not an estimate.

Each module's ``__all__`` lists its public names; the package re-exports
exactly those.
"""

from . import classifiers, errors, kernel, learners, numerics, regions, verify
from .classifiers import *
from .errors import *
from .kernel import *
from .learners import *
from .numerics import *
from .regions import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *classifiers.__all__,
    *errors.__all__,
    *kernel.__all__,
    *learners.__all__,
    *numerics.__all__,
    *regions.__all__,
    *verify.__all__,
]
