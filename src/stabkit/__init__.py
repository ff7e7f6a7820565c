"""stabkit: stab axis-aligned rectangles with horizontal segments of minimum total length.

Solvers: an exact branch-and-bound oracle for small instances, an exact dynamic
program for laminar instances, an 8-approximation by rounding to a laminar
instance, a PTAS for bounded width ratio, and a recursive QPTAS.  All
arithmetic is exact rational.
"""

from .approx8 import approx8, to_laminar
from .core import (
    BudgetError,
    InfeasibleError,
    Instance,
    OracleLimitError,
    ParameterError,
    Rect,
    Segment,
    Solution,
    Transform,
    VerifyReport,
    as_scalar,
    candidate_segments,
    ceil_log2,
    denormalize,
    instance_from_json,
    instance_to_json,
    normalize,
    pow2,
    shrink_solution,
    solution_from_json,
    solution_to_json,
    split_independent,
    stabs,
    verify,
)
from .decompose import (
    CutResult,
    Decomposition,
    Strip,
    StripPartition,
    crossing_rects,
    decompose,
    horizontal_cuts,
    strip_partition,
)
from .gen import GenConfig, SplitMix64, gen_bounded_ratio, gen_laminar, gen_uniform
from .laminar import is_laminar, solve_laminar
from .oracle import ORACLE_LIMIT, Candidate, exact_opt, greedy_cover, reduce_candidates
from .schemes import RunStats, SchemeParams, guess_long, ptas, qptas, solve_small

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Candidate",
    "CutResult",
    "Decomposition",
    "GenConfig",
    "InfeasibleError",
    "Instance",
    "ORACLE_LIMIT",
    "OracleLimitError",
    "ParameterError",
    "Rect",
    "RunStats",
    "SchemeParams",
    "Segment",
    "Solution",
    "SplitMix64",
    "Strip",
    "StripPartition",
    "Transform",
    "VerifyReport",
    "approx8",
    "as_scalar",
    "candidate_segments",
    "ceil_log2",
    "crossing_rects",
    "decompose",
    "denormalize",
    "exact_opt",
    "gen_bounded_ratio",
    "gen_laminar",
    "gen_uniform",
    "greedy_cover",
    "guess_long",
    "horizontal_cuts",
    "instance_from_json",
    "instance_to_json",
    "is_laminar",
    "normalize",
    "pow2",
    "ptas",
    "qptas",
    "reduce_candidates",
    "shrink_solution",
    "solution_from_json",
    "solution_to_json",
    "solve_laminar",
    "solve_small",
    "split_independent",
    "stabs",
    "strip_partition",
    "to_laminar",
    "verify",
]
