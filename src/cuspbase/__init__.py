"""cuspbase: exact q-expansions and echelon bases for Gamma0(N), N <= 10."""

from .basis import (
    EchelonBasis, echelonize, m_basis, s_basis, structure_decompose,
    verify_membership,
)
from .catalog import catalog_identities, evaluate, get_catalog, named_forms
from .dimensions import (
    LevelProfile, default_prec, dim_cusp, dim_modular, dim_shift_report,
    ladder_dim_report, ladder_start, level_profile, sturm_bound,
)
from .eisenstein import eisenstein_series, sigma_power_sum, weight2_level_combo
from .eta import EtaQuotient, eta_expand, eta_profile
from .expr import expr_weight, render
from .parse import parse_atom, parse_expr
from .series import QSeries, first_mismatch
from .weierstrass import TorsionPoint, wpa_expand

__version__ = "0.1.0"

__all__ = [
    "EchelonBasis", "EtaQuotient", "LevelProfile", "QSeries", "TorsionPoint",
    "catalog_identities", "default_prec", "dim_cusp", "dim_modular",
    "dim_shift_report", "echelonize", "eisenstein_series", "eta_expand",
    "eta_profile", "evaluate", "expr_weight", "first_mismatch", "get_catalog",
    "ladder_dim_report", "ladder_start", "level_profile", "m_basis", "named_forms",
    "parse_atom", "parse_expr", "render", "s_basis", "sigma_power_sum",
    "structure_decompose", "sturm_bound", "verify_membership",
    "weight2_level_combo", "wpa_expand",
]
