"""crnlump: lumping, simulation and control reconstruction for mass-action
reaction networks whose kinetic rates are interval-valued control inputs."""

from .model import (Multiset, Partition, RateInterval, Reaction,
                    ReactionNetwork, StructuralError, falling_binomial)
from .parser import (EdgeListGraph, ModelDocument, ParseError, parse_edge_list,
                     parse_model, parse_partition_file, serialize_model)
from .lumping import (InvalidPartitionError, check_equivalence,
                      coarsest_equivalence, quotient)
from .ode import (ControlSchedule, CostSpec, DivergenceError,
                  ProjectionFailureError, Trajectory, VectorField, block_sums,
                  block_indicator, evaluate_cost, project_control,
                  schedule_from_csv, schedule_to_csv, simulate,
                  trajectory_from_csv, trajectory_to_csv)
from .ctmc import (ApproximateResultWarning, CapacityError, Generator,
                   PropensityOverflowError, StateSpace, build_generator,
                   check_ordinary_lumpability, enumerate_ball,
                   enumerate_states, ssa_simulate, transient_solve)
from .reconstruct import (DriftMatchProblem, ReconstructionFailureError,
                          build_drift_match, reconstruct_trajectory,
                          solve_box_ls)
from .generators import (DEFAULT_ASSOCIATION, DEFAULT_DISSOCIATION, SirParams,
                         multisite_binding_model, sir_network_model,
                         sir_star_model)

__version__ = "0.1.0"

__all__ = [
    "ApproximateResultWarning", "CapacityError", "ControlSchedule",
    "CostSpec", "DEFAULT_ASSOCIATION", "DEFAULT_DISSOCIATION",
    "DivergenceError", "DriftMatchProblem", "EdgeListGraph", "Generator",
    "InvalidPartitionError", "ModelDocument", "Multiset", "ParseError",
    "Partition", "ProjectionFailureError", "PropensityOverflowError",
    "RateInterval", "Reaction", "ReactionNetwork",
    "ReconstructionFailureError", "SirParams", "StateSpace",
    "StructuralError", "Trajectory", "VectorField",
    "block_indicator", "block_sums", "build_drift_match", "build_generator",
    "check_equivalence", "check_ordinary_lumpability", "coarsest_equivalence",
    "enumerate_ball", "enumerate_states", "evaluate_cost", "falling_binomial",
    "multisite_binding_model", "parse_edge_list", "parse_model",
    "parse_partition_file", "project_control", "quotient",
    "reconstruct_trajectory", "schedule_from_csv", "schedule_to_csv",
    "serialize_model", "simulate", "sir_network_model", "sir_star_model",
    "solve_box_ls", "ssa_simulate", "trajectory_from_csv", "trajectory_to_csv",
    "transient_solve",
]
