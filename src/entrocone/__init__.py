"""Exact entropy vectors, the three-variable polymatroid cone, and
quasi-uniform distribution synthesis.

The package decides, with no floating-point tolerance anywhere in a
verdict, questions like: is this joint distribution quasi-uniform, is
this vector polymatroidal, how does it decompose over the cone's extreme
rays, does it sit strictly inside a face, does it belong to the inner
bounds on the 4-D and 5-D faces, and can its support-size profile be
realized by an explicit quasi-uniform distribution.
"""

from .bounds import (
    BoundVerdict,
    OMEGA_FACE,
    THETA_FACE,
    face_12_123p_entropic,
    omega_in,
    qu_necessary,
    ray123p_entropic,
    theta_in,
)
from .distributions import (
    EntropyVector,
    JointPMF,
    PMFFormatError,
    QUVerdict,
    entropy,
    entropy_vector,
    independent_product,
    is_quasi_uniform,
    marginalize,
    parse_pmf,
    serialize_pmf,
)
from .logexact import LogLinear, PrecisionExhausted, Sign
from .polycone import (
    ConicCertificate,
    FaceLocation,
    FacePosition,
    FaceSpec,
    GammaVerdict,
    RAY_ORDER,
    Ray,
    combination,
    cone_membership,
    elemental_inequalities,
    face_catalogue,
    face_for_generators,
    in_gamma_n,
    strict_in_face,
)
from .qusearch import (
    Budget,
    FunctionalDependence,
    SearchOutcome,
    SearchStatus,
    SupportSpec,
    brute_force_oracle,
    check_feasibility_necessary,
    search,
    spec_from_vector,
    structural_hints,
)

__version__ = "0.1.0"
