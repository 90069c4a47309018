"""Exact computation of acceptable Newton points for extended affine
Weyl groups of type A, with admissible witnesses and machine-checkable
Bruhat-chain certificates."""

from .errors import (
    BgmuError,
    CriterionFailed,
    DimensionMismatch,
    GuardExceeded,
    InternalCheckFailed,
    KappaMismatch,
    ParseError,
    UnsupportedTwist,
)
from .weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    ReducedWord,
    bruhat_leq,
    bruhat_lower_set,
    bruhat_lt,
    format_element,
    omega_element,
    parse_element,
    reduced_word,
    superbasic_element,
)
from .newton import (
    Frobenius,
    KappaValue,
    NewtonData,
    NewtonPoint,
    Sigma0,
    diamond,
    dominance_leq,
    dominant_rep,
    kappa,
    newton_point,
)
from .acceptable import (
    AcceptableSet,
    MaximalSolverState,
    PolygonData,
    adm_enumerate,
    adm_member,
    enumerate_acceptable,
    maximal_newton,
    maximal_newton_state,
    mu_diamond_acceptable,
    newton_criterion,
    newton_witness,
    polygon,
)
from .superbasic import (
    EuclideanChain,
    PeelCertificate,
    Segment,
    SuperbasicWitness,
    a_sequence_less,
    chi,
    epsilon,
    euclid_chain,
    level_decompose,
    sharp_peel,
    superbasic_witness,
)
from .reduction import (
    Problem,
    Solution,
    SolveResult,
    factor_witness,
    omega_conjugate,
    parabolic_reduce,
    product_split,
    solve,
)

__version__ = "0.1.0"
