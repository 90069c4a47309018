"""Exact computation of acceptable Newton points for extended affine
Weyl groups of type A, with admissible witnesses and machine-checkable
Bruhat-chain certificates."""

from .errors import (
    BgmuError,
    DimensionMismatch,
    GuardExceeded,
    InternalCheckFailed,
    ParseError,
    UnsupportedTwist,
)
from .weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    bruhat_leq,
    format_element,
    omega_element,
    parse_element,
    superbasic_element,
)
from .newton import (
    Frobenius,
    KappaValue,
    NewtonData,
    NewtonPoint,
    Sigma0,
    diamond,
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
    polygon,
)
from .superbasic import (
    EuclideanChain,
    PeelCertificate,
    Segment,
    SuperbasicWitness,
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
    parabolic_reduce,
    product_split,
    solve,
)

__version__ = "0.1.0"
