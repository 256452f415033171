"""Fitness landscapes of binary Boolean VCSPs.

Construct weighted-constraint instances (including a generator for sparse,
oriented, single-peaked instances on which steepest ascent takes 7*(2^m - 1)
steps), run steepest / random / first-improvement ascents with full traces,
and certify landscape structure with polynomial checks and brute-force
oracles.
"""
from .core import (
    Bits,
    Instance,
    format_assignment,
    from_constraint_tables,
    from_text,
    parse_assignment,
    parse_bits,
    read_instance,
    to_text,
    write_instance,
)
from .generator import (
    build_chain,
    build_gadget,
    canonical_decomposition,
    derived_params,
    expected_arcs,
    expected_peak,
    gadget_constraints,
    predicted_ascent_length,
    validate_chain,
)
from .landscape import (
    AscentGraph,
    FaceViolation,
    Orientation,
    SemismoothResult,
    SignDependence,
    ascent_graph,
    check_semismooth,
    enumerate_peaks,
    is_local_peak,
    orient,
    peak_of_oriented,
    shortest_ascent_length,
    sign_depends,
)
from .search import (
    PackedInts,
    Steps,
    Trace,
    TrialStats,
    first_improvement_ascent,
    random_ascent,
    replay,
    run_trials,
    steepest_ascent,
    write_trace_csv,
)
from .structure import (
    ConstraintGraph,
    DecompositionCheck,
    PathDecomposition,
    constraint_graph,
    export_dot,
    has_cycle,
    max_degree,
    read_decomposition,
    validate_path_decomposition,
    write_decomposition,
)
from . import errors

__version__ = "0.1.0"
