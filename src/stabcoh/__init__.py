"""Exact homological computations for the height-1 stabilizer group.

Three independent routes to H^s_c(Z_p^x, Z_p(w)) and the derived
p-completion bookkeeping connecting it, at p = 2, to the uncompleted
Ext table for the E(1)-local sphere.
"""

from .errors import (
    BudgetExceeded,
    ModuleExprParseError,
    NoStabilization,
    NotProjective,
    OutsideAtomClass,
    PrecisionExhausted,
    UnsupportedPrime,
    WindowMismatch,
)
from .modules import (
    ModuleExpr,
    boxtimes,
    cyclic,
    derived_completion,
    format_module_expr,
    hom,
    is_tame,
    l0,
    l1,
    local_free,
    ls,
    padic,
    parse_module_expr,
    prufer,
    tensor,
    zero_module,
)
from .cohomology import (
    CohomologyResult,
    bar_cohomology_finite,
    continuous_via_quotients,
    units_cohomology,
)
from .spectral import (
    BigradedTable,
    compare_tables,
    derived_ss_table,
    golden_table,
    hovey_sadofsky_table,
)

__all__ = [
    "BigradedTable",
    "CohomologyResult",
    "bar_cohomology_finite",
    "compare_tables",
    "continuous_via_quotients",
    "derived_ss_table",
    "golden_table",
    "hovey_sadofsky_table",
    "units_cohomology",
    "BudgetExceeded",
    "ModuleExpr",
    "ModuleExprParseError",
    "NoStabilization",
    "NotProjective",
    "OutsideAtomClass",
    "PrecisionExhausted",
    "UnsupportedPrime",
    "WindowMismatch",
    "boxtimes",
    "cyclic",
    "derived_completion",
    "format_module_expr",
    "hom",
    "is_tame",
    "l0",
    "l1",
    "local_free",
    "ls",
    "padic",
    "parse_module_expr",
    "prufer",
    "tensor",
    "zero_module",
]
