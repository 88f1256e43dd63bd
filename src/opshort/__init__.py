"""opshort: generalized polar factorizations, reduced operator equations,
bilateral shorted operators, and parallel sums for dense complex matrices.

Each module's ``__all__`` is its public list; the package republishes them.
"""

from . import douglas, errors, lab, numkit, parallel, polar, shorting
from .douglas import *
from .errors import *
from .lab import *
from .numkit import *
from .parallel import *
from .polar import *
from .shorting import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *numkit.__all__,
    *polar.__all__,
    *douglas.__all__,
    *shorting.__all__,
    *parallel.__all__,
    *lab.__all__,
    *errors.__all__,
]
