"""Exact sampling from conditional laws by completing the last coordinates.

Draw the first half of an independent vector, solve the conditioning
equations for the remaining pivot block, and accept with the ratio of
the completed block's density to its maximum.  Accepted draws follow
the conditional law exactly, and the accounting counts every uniform
the generator hands out, so rejection schemes can be compared by cost
per delivered sample.

The package names the structure families and their sampler, the engine
surface for building and sampling a problem of one's own, and the error
types.  Everything else (marginal laws, geometry samplers, oracles and
statistics) is imported from its module: ``exactcond.marginals``,
``exactcond.geometry``, ``exactcond.verify`` and so on.
"""

from .engine import (
    ConditioningProblem,
    SampleRecord,
    SecondConstraint,
    dsh_sample,
    hard_rejection_sample,
)
from .errors import (
    ExactcondError,
    InfeasibleTarget,
    InvalidFamily,
    InvalidProfile,
    InvalidRejection,
    NonTerminating,
    SingularSystem,
    SupportTooLarge,
    UnboundedDensity,
)
from .marginals import CountingRng, derive_seed
from .structures import (
    Assembly,
    DistinctPartition,
    EwensProfile,
    Multiset,
    Partition,
    PlanePartitionGrid,
    Selection,
    SetPartition,
    build_problem,
    sample_structure,
)

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "ConditioningProblem",
    "CountingRng",
    "DistinctPartition",
    "EwensProfile",
    "ExactcondError",
    "InfeasibleTarget",
    "InvalidFamily",
    "InvalidProfile",
    "InvalidRejection",
    "Multiset",
    "NonTerminating",
    "Partition",
    "PlanePartitionGrid",
    "SampleRecord",
    "SecondConstraint",
    "Selection",
    "SetPartition",
    "SingularSystem",
    "SupportTooLarge",
    "UnboundedDensity",
    "build_problem",
    "derive_seed",
    "dsh_sample",
    "hard_rejection_sample",
    "sample_structure",
]
