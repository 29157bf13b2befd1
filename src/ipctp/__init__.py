"""Exact, anytime toolkit for integrated container terminal scheduling.

Joint quay-crane assignment and scheduling, yard-location assignment and
yard-crane scheduling for berthed vessels, minimizing the sum of weighted
vessel completion times.  Includes an instance generator, a semantic
validator, a brute-force oracle, a branch-and-bound solver and an LP
exporter of the full mixed-integer model.
"""

from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    CyclicOrdering,
    InstanceInvalid,
    IpctpError,
    MalformedSolution,
    NoEligibleCrane,
    NoFeasibleSolution,
)
from .instance import (
    DerivedTables,
    Instance,
    Shipment,
    Vessel,
    YardLocation,
    bay_interference_time,
    build_derived,
    crane_min_distance,
    eligible_qcs,
    instance_from_json,
    instance_to_json,
    read_instance,
    write_instance,
)
from .schedule import (
    Decisions,
    Solution,
    Violation,
    compute_schedule,
    objective_of,
    read_solution,
    solution_from_json,
    solution_to_json,
    validate,
    write_solution,
)
from .oracle import OracleResult, brute_force
from .solver import SearchNode, SolveParams, SolveReport, lower_bound, propagate, solve
from .generator import GenConfig, GridEntry, generate, generate_grid
from .mip import (
    MipArtifacts,
    build_mip,
    check_point,
    export_lp,
    mip_point_from_solution,
    solution_from_values,
)

__all__ = [
    "BudgetExceeded",
    "ConfigInvalid",
    "CyclicOrdering",
    "Decisions",
    "DerivedTables",
    "GenConfig",
    "GridEntry",
    "Instance",
    "InstanceInvalid",
    "IpctpError",
    "MalformedSolution",
    "MipArtifacts",
    "NoEligibleCrane",
    "NoFeasibleSolution",
    "OracleResult",
    "SearchNode",
    "Shipment",
    "Solution",
    "SolveParams",
    "SolveReport",
    "Vessel",
    "Violation",
    "YardLocation",
    "bay_interference_time",
    "brute_force",
    "build_derived",
    "build_mip",
    "check_point",
    "compute_schedule",
    "crane_min_distance",
    "eligible_qcs",
    "export_lp",
    "generate",
    "generate_grid",
    "instance_from_json",
    "instance_to_json",
    "lower_bound",
    "mip_point_from_solution",
    "objective_of",
    "propagate",
    "read_instance",
    "read_solution",
    "solution_from_json",
    "solution_from_values",
    "solution_to_json",
    "solve",
    "validate",
    "write_instance",
    "write_solution",
]

__version__ = "0.1.0"
