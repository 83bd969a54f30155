"""Coherent set detection via kernel CCA and coherent mode decomposition."""

__version__ = "0.1.0"

from .cca import (
    CCAResult,
    TrajectoryPairs,
    evaluate_eigenfunction,
    evaluate_eigenfunctions,
    kernel_cca,
)
from .clustering import Embedding, Partition, coherence_score, kmeans
from .errors import CohsetsError, InputError, NumericalError, PipelineUsageError
from .kernels import GramMatrix, Kernel, center_gram, eval_kernel, gram_matrix, parse_kernel
from .linalg import RegParam
from .modes import CMDResult, SnapshotMatrices, cmd, evaluate_mode
from .operators import (
    EmpiricalOperator,
    Eigenfunction,
    kernel_pca,
    koopman_estimate,
    op_eig_variant_i,
    perron_frobenius_estimate,
)

__all__ = [
    "CCAResult",
    "CMDResult",
    "CohsetsError",
    "Embedding",
    "EmpiricalOperator",
    "Eigenfunction",
    "GramMatrix",
    "InputError",
    "Kernel",
    "NumericalError",
    "Partition",
    "PipelineUsageError",
    "RegParam",
    "SnapshotMatrices",
    "TrajectoryPairs",
    "center_gram",
    "cmd",
    "coherence_score",
    "eval_kernel",
    "evaluate_eigenfunction",
    "evaluate_eigenfunctions",
    "evaluate_mode",
    "gram_matrix",
    "kernel_cca",
    "kernel_pca",
    "kmeans",
    "koopman_estimate",
    "op_eig_variant_i",
    "parse_kernel",
    "perron_frobenius_estimate",
]
