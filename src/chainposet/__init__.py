"""Chain-component posets of exact interval dynamical systems."""

from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalKind,
    OrdinalSyntaxError,
    add,
    classify,
    compare,
    format_ordinal,
    fundamental,
    omega_power,
    parse_ordinal,
    tail_split,
)
from .systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    DescentBudgetError,
    OrdinalMap,
    PLHomeo,
    Variant,
    cantor_gaps,
    dense_blocks,
    evaluate,
    image_intervals,
    is_increasing,
    is_open,
    predicted_label,
    predicted_representatives,
)
from .chaingraph import (
    ChainGraph,
    ChainGraphError,
    Component,
    ComponentPoset,
    Condensation,
    ConstantField,
    Grid,
    PiecewiseField,
    auto_field,
    build_chain_graph,
    cell_images,
    chain_components,
    condense,
    dump_adjacency,
    grid_for,
    reaches_recurrent,
    recurrent_cells,
)
from .poset import (
    DensitySignature,
    PersistentPair,
    PosetError,
    density_signature,
    hasse_covers,
    is_linear,
    linear_order_type,
    match_components,
    maximal_elements,
    minimal_elements,
    order_isomorphic,
    to_dot,
)
from .lyapunov import (
    CertificationReport,
    CheckResult,
    LyapunovAssignment,
    synthesize,
    verify,
)
from .config import (
    AnalysisConfig,
    ConfigError,
    load_config,
    parse_config,
)
from .cli import run_full

__version__ = "0.1.0"
