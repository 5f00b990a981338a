"""judipart: judicious bipartitions of digraphs with minimum outdegree bounds.

Library surface: build or load a digraph, run the partition engine, inspect
the certificate; or call the pieces (gap solver, tight components, exhaustive
oracle, generators) directly.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .digraph import (
    Bipartition,
    CutValue,
    Digraph,
    cut_counts,
    e_between,
    format_edge_list,
    from_arc_list,
    load_edge_list,
    max_degree,
    min_outdegree,
    parse_edge_list,
    save_edge_list,
)
from .errors import (
    DuplicateArcError,
    EdgeListParseError,
    EmptyGraphError,
    EvenOrderError,
    GenParamError,
    IdentityViolationError,
    InfeasibleParamsError,
    InputError,
    JudipartError,
    LimitError,
    LoopArcError,
    PartitionError,
    TooLargeError,
    TooSmallError,
    VertexOutOfRangeError,
)
from .mingap import GapResult, MfMb, gap, mf_mb, min_gap_partition
from .oracle import OracleGapResult, OracleResult, exact_max_min_cut, exact_min_gap
from .tight import TightReport, essential_tight_components
from .generators import (
    FAMILIES,
    gen_eulerian_complete,
    gen_random_minout,
    gen_skew_d4,
    gen_skew_d6,
    gen_star_triangle,
    gen_tight_union,
)
from .certify import (
    CandidateScore,
    Certificate,
    CheckRecord,
    QuantityBundle,
    build_certificate,
    certificate_checks,
    compute_bundle,
    eval_f_h,
    render_text,
    verify_record,
)
from .engine import (
    CandidateXPartition,
    EngineConfig,
    PartitionOutcome,
    candidate_x_partitions,
    extend_partition_randomized,
    extension_trial_cuts,
    local_improve,
    mingap_candidate,
    partition,
    split_by_degree,
    uniform_split_applicable,
    uniform_split_bound,
)
