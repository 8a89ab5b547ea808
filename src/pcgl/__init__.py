"""Exact cluster-structure toolkit for torus-graded Poisson polynomial algebras.

Given a declarative presentation (generator weights, h-vectors, bracket
table), the package validates the iterated Poisson-Ore axioms, computes the
canonical sequence of homogeneous Poisson-prime elements with its level-set
combinatorics and certifies its brackets {y_k, y_j} = q_kj y_k y_j, builds
the seeds and exchange matrices attached to every interval-prefix
permutation, verifies the one-step mutation links exactly, and decides
Laurent/upper-cluster membership.  All arithmetic is exact rational.
"""

from .poly import (
    ExpVec,
    MvLaurent,
    NonInvertibleImage,
    NotDivisible,
    ZeroDivisor,
    ZeroPolynomial,
    apply_derivation,
    exact_divide,
    substitute,
)
from .presentation import (
    Inhomogeneous,
    InhomogeneousDelta,
    JacobiFailure,
    NilpotenceBoundExceeded,
    PoissonPresentation,
    PresentationError,
    SupportViolation,
    ValidationReport,
    ZeroEigenvalue,
    bracket,
    validate_algebra,
    weight_of,
)
from .cgl import (
    AmbiguousPredecessor,
    CertFailure,
    EtaData,
    NoPredecessor,
    PrimeSequenceReport,
    QData,
    alpha_q_matrices,
    certify_prime_sequence,
    compute_eta_and_primes,
    hmax_equations,
)
from .symmetric import (
    Incompatible,
    NoHStarSolution,
    ZeroLambdaStar,
    apply_rescaling,
    compute_d_integers,
    gamma_chain,
    interval_prime,
    rescale_generators,
    validate_symmetric,
)
from .cluster import (
    BMatrix,
    Seed,
    ClusterContext,
    LinkReport,
    TauSeedBundle,
    chain_verify,
    check_compatible,
    express_in_cluster,
    gamma_bundles,
    mutate_matrix,
    mutate_seed,
    seed_for_tau,
    solve_btilde,
    upper_membership,
    verify_one_step,
)
from .presets import build_affine_space, build_matrix_poisson

__version__ = "0.1.0"
