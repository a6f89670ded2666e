"""Exact entropy vectors, the three-variable polymatroid cone, and
quasi-uniform distribution synthesis.

The package decides, with no floating-point tolerance anywhere in a
verdict, questions like: is this joint distribution quasi-uniform, is
this vector polymatroidal, how does it decompose over the cone's extreme
rays, does it sit strictly inside a face, does it belong to the inner
bounds on the 4-D and 5-D faces, and can its support-size profile be
realized by an explicit quasi-uniform distribution.

``import entrocone`` loads no submodule: each name below, and each
submodule, is imported on first use (PEP 562), so a command that needs
only the distributions never compiles the search engine.
"""

# submodule -> the names this package re-exports from it
_EXPORTS = {
    "bounds": (
        "BoundVerdict",
        "OMEGA_FACE",
        "THETA_FACE",
        "face_12_123p_entropic",
        "omega_in",
        "ray123p_entropic",
        "theta_in",
    ),
    "distributions": (
        "EntropyVector",
        "JointPMF",
        "PMFFormatError",
        "QUVerdict",
        "entropy",
        "entropy_vector",
        "is_quasi_uniform",
        "marginalize",
        "parse_pmf",
        "serialize_pmf",
    ),
    "logexact": ("LogLinear", "PrecisionExhausted", "Sign"),
    "polycone": (
        "ConicCertificate",
        "FaceLocation",
        "FacePosition",
        "FaceSpec",
        "GammaVerdict",
        "RAY_ORDER",
        "Ray",
        "combination",
        "cone_membership",
        "elemental_inequalities",
        "face_catalogue",
        "face_for_generators",
        "in_gamma_n",
        "strict_in_face",
    ),
    "qusearch": (
        "Budget",
        "FunctionalDependence",
        "SearchOutcome",
        "SearchStatus",
        "SupportSpec",
        "check_feasibility_necessary",
        "qu_necessary",
        "search",
        "spec_from_vector",
        "structural_hints",
    ),
    "subsets": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in `python -X importtime`
    __import__(f"{__name__}.{module}")  # binds the submodule on this package
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value
    return value
