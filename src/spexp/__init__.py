"""Quantum and classical edge expansion of bistochastic matrix tuples.

The library computes and minimizes the Schatten-p, rank, and boundary
expansion ratios of bistochastic tuples, the classical expansion machinery of
regular multigraphs (Hall decompositions, cut oracles, metric ratios,
embedding distortion), and machine-checks the inequalities tying them
together.
"""

__version__ = "0.1.0"

from .channels import (
    BistochasticTuple,
    RatioValue,
    Subspace,
    channel_apply,
    expansion_ratio_dim,
    expansion_ratio_sp,
    quantum_edge_ratio,
    random_unitary_tuple,
    restrict,
    restriction_singular_values,
    tuple_from_permutations,
    validate_bistochastic,
)
from .embed import (
    DistortionReport,
    EmbedEstimate,
    OptimizerConfig,
    VertexEmbedding,
    distortion,
    distortion_lower_bound,
    embedding_ratio,
    l2_expansion_oracle,
    lp_expansion_estimate,
    sp_expansion_estimate,
)
from .graphs import (
    MetricMatrix,
    RegularGraph,
    build_complete,
    build_cycle,
    build_hypercube,
    cut_oracle_l1,
    decompose_permutations,
    edge_expansion_bruteforce,
    is_connected,
    metric_ratio,
    random_regular,
    shortest_path_metric,
)
from .linalg import (
    SingularSpectrum,
    haar_isometry,
    haar_unitary,
    orthonormalize,
    schatten_norm,
    schatten_norm_pow,
    singular_values,
    substream,
    svd,
)
from .search import (
    ExpansionEstimate,
    SearchConfig,
    minimize_coordinate,
    minimize_random,
    minimize_riemannian,
    objective_and_gradient,
)
from .verify import (
    InequalityReport,
    SweepConfig,
    check_rank_relation,
    check_singular_bound,
    check_ratio_scaling,
    check_ratio_power,
    sweep,
)
