"""Geodesic stability of hypercube colourings.

Exact instability engines, the majority and partition colouring families,
witness constructions from the constructive lower-bound proofs, closed-form
bound evaluators, and exhaustive sweeps over ball-respecting colourings.
"""

__version__ = "0.1.0"

from .hypercube import (
    Geodesic,
    Point,
    complement,
    expand,
    geodesic_to_text,
    in_ball,
    is_geodesic,
    layer_points,
    reverse,
    weight,
)
from .colourings import (
    Colouring,
    ColouringSpec,
    balanced_partition,
    complement_colouring,
    is_defined_by,
    make,
    min_defining_k,
    respects_balls,
    table_from_free_layers,
)
from .instability import (
    InstabilityReport,
    dimension_cap,
    inst_bruteforce,
    inst_exact,
    inst_restricted,
    jumps_of_path,
    winst_exact,
)
from .constructions import (
    ConstructionResult,
    construction_jumps,
    kdefined_witness,
    majority_witness,
    partition_witness,
    prefix_colouring,
    strip_extend,
    strip_reduction,
    zigzag_witness,
)
from .bounds import (
    BoundTable,
    BoundValue,
    best_lower_bound,
    formula_bounds,
    morestrips_lb,
    stronger_lb,
    zigzag_inst_formula,
    zigzag_winst_formula,
)
from .search import (
    SearchResult,
    min_inst_exhaustive,
    min_winst_exhaustive,
    random_colouring,
)
from .errors import CapacityError, UndefinedRadiusError, ValidationError
