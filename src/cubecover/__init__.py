"""cubecover: disjoint sub-collection selection for axis-parallel cubes.

Exact rational geometry, certified selectors, an exact optimum oracle,
seeded instance generators, and a high-precision bound-constants engine.
"""

from .errors import (
    CapExceededError,
    EmptyCollectionError,
    InputError,
    NotDisjointError,
    VerificationError,
)
from .geometry import (
    Collection,
    Cube,
    Selection,
    as_scalar,
    intersects,
    make_selection,
    union_volume,
)
from .generators import GenSpec, gen_cell, gen_dyadic, gen_lacunary, gen_random, generate
from .oracle import IntersectionGraph, VerifyReport, intersection_graph, phi_exact, verify_guarantee
from .selection import (
    LacunaryStructure,
    PipelineParams,
    Window,
    auto_params,
    certified_bound,
    congruent_select,
    greedy_vitali,
    lacunary_select,
    pipeline_select,
    window_select,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "Collection",
    "Cube",
    "EmptyCollectionError",
    "GenSpec",
    "InputError",
    "IntersectionGraph",
    "LacunaryStructure",
    "NotDisjointError",
    "PipelineParams",
    "Selection",
    "VerificationError",
    "VerifyReport",
    "Window",
    "as_scalar",
    "auto_params",
    "certified_bound",
    "congruent_select",
    "gen_cell",
    "gen_dyadic",
    "gen_lacunary",
    "gen_random",
    "generate",
    "greedy_vitali",
    "intersection_graph",
    "intersects",
    "lacunary_select",
    "make_selection",
    "phi_exact",
    "pipeline_select",
    "union_volume",
    "verify_guarantee",
    "window_select",
]
