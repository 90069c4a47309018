"""Exact computation of acceptable Newton points for extended affine
Weyl groups of type A, with admissible witnesses and machine-checkable
Bruhat-chain certificates.

The top level exports the names that README's Library section lists;
everything else is imported from its module."""

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
    Sigma0,
    diamond,
    dominant_rep,
    kappa,
    newton_point,
)
from .acceptable import (
    adm_enumerate,
    adm_member,
    enumerate_acceptable,
    maximal_newton,
    maximal_newton_state,
    mu_diamond_acceptable,
    polygon,
)
from .superbasic import (
    chi,
    sharp_peel,
    superbasic_witness,
)
from .reduction import solve

__version__ = "0.1.0"
