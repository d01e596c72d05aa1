"""Exact genus-0 Gromov-Witten invariants and Virasoro constraint checks."""

from .engine import (CorrelatorKey, Engine, InvariantCache, PrimaryBackend,
                     dimension_admissible, make_key)
from .series import (Monomial, TruncatedSeries, TruncationPolicy, VarId,
                     series_derive, series_mul)
from .target import TargetSpace, load_target, preset, preset_names
from .virasoro import (VirasoroOperator, apply_operator, build_operator,
                       coeff_A, coeff_B, commutator_residual, psi, psi_tilde)

__version__ = "0.1.0"
