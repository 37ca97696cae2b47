"""dsskit: distillable-subspace analysis for multipartite mixed states.

Decides and certifies when a pure entangled state can be distilled from
finitely many copies of a multipartite mixed state, by projecting onto
products of local subspaces and classifying the outcome.  Ships the dense
linear-algebra kernel, validated state types, local-operator decomposition,
the subspace search with certificates and rank bounds, two-qubit
entanglement diagnostics, and a branch-tracked LOCC protocol simulator.
"""

from .errors import (
    DimensionCapError,
    Error,
    ImpossibleOutcomeError,
    InvariantViolation,
    ProtocolStepError,
    SchemaError,
    SearchSpaceTooLarge,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    MAX_SIDE,
    Tolerance,
    eig_hermitian,
    kron,
    kron_all,
    numerical_rank,
    partial_trace,
    svd,
)
from .states import (
    DensityMatrix,
    Party,
    PureState,
    SystemShape,
    bell_state,
    bell_vectors,
    fidelity_with_pure,
    filter_example,
    ghz_state,
    tensor_power,
    three_qubit_example,
    w_state,
    w_state_variant,
    werner,
)
from .localops import (
    LocalFactor,
    LpoLfoLuo,
    ProductOperator,
    RankPreservationReport,
    apply,
    apply_to_pure,
    decompose,
    rank_preservation_report,
)
from .entanglement import (
    EntanglementReport,
    FilterComparison,
    SignaturePreservationReport,
    binary_entropy,
    concurrence,
    dimension_signature,
    entanglement_of_formation,
    eof_from_concurrence,
    filter_comparison,
    filter_comparison_curve,
    schmidt,
    signature_preservation_report,
)
from .subspaces import (
    DssCertificate,
    DssRecord,
    DssSearch,
    LocalSubspace,
    ProjectionOutcome,
    PurifyingSubspace,
    RankBoundReport,
    Refusal,
    candidate_count,
    check_certificate,
    check_rank_bound,
    find_dss,
    find_purifying_subspaces,
    power_rank,
    project,
    rank_bound,
    search_dss,
)
from .protocols import (
    BranchTrace,
    Conditional,
    Filter,
    GhzDistillationReport,
    LocalUnitary,
    MeasureAndDiscard,
    Project,
    RunResult,
    WernerPurificationReport,
    ghz_distillation_steps,
    ghz_from_two_copies,
    run,
    werner_concurrence_table,
    werner_two_copy,
)
from . import fileio

__version__ = "0.1.0"
