"""Coherent set detection via kernel CCA and coherent mode decomposition."""

__version__ = "0.1.0"

from .cca import (
    CCAResult,
    KernelExpansion,
    TrajectoryPairs,
    evaluate_eigenfunctions,
    kernel_cca,
)
from .clustering import Embedding, Partition, coherence_score, kmeans
from .errors import CohsetsError, InputError, NumericalError
from .kernels import GramMatrix, Kernel, center_gram, gram_matrix, parse_kernel
from .linalg import RegParam
from .modes import CMDResult, SnapshotMatrices, cmd
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
    "KernelExpansion",
    "NumericalError",
    "Partition",
    "RegParam",
    "SnapshotMatrices",
    "TrajectoryPairs",
    "center_gram",
    "cmd",
    "coherence_score",
    "evaluate_eigenfunctions",
    "gram_matrix",
    "kernel_cca",
    "kernel_pca",
    "kmeans",
    "koopman_estimate",
    "op_eig_variant_i",
    "parse_kernel",
    "perron_frobenius_estimate",
]
