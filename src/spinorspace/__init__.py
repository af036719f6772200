"""Spatial spinors on the 4pi double cover.

Two-component spinor models of 3-space (pseudovector xi, vector eta), real
KS quadruples with their Hopf maps and quadratic constraints, the
SU(2)/SO(3)/SO(4) realizations of rotations, covariant KS frames, and
closed-form unitary gauge fixing, plus seeded verification suites and
golden-fixture tooling.
"""

# Each module declares its public names once, in its __all__.
from .core import *
from .spinor_maps import *
from .rotation_algebra import *
from .ks_covariance import *
from .gauge_fixing import *
from .verify import *
from .fixtures import *

__version__ = "0.1.0"
