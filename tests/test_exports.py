import importlib
import pkgutil

import pytest

import entrocone

from conftest import run_subprocess

MODULES = sorted(info.name for info in pkgutil.iter_modules(entrocone.__path__, "entrocone."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # nothing star-imports these modules, so a stale export list would
    # otherwise go unnoticed
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_library_modules_declare_exports():
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {f"entrocone.{m}" for m in ("bounds", "distributions", "logexact", "polycone", "qusearch")} <= declared


# what `from entrocone import *` bound when the package imported every
# module eagerly, less the two test helpers that moved to conftest.py
STAR_NAMES = [
    "BoundVerdict", "Budget", "ConicCertificate", "EntropyVector", "FaceLocation", "FacePosition",
    "FaceSpec", "FunctionalDependence", "GammaVerdict", "JointPMF", "LogLinear", "OMEGA_FACE",
    "PMFFormatError", "PrecisionExhausted", "QUVerdict", "RAY_ORDER", "Ray", "SearchOutcome",
    "SearchStatus", "Sign", "SupportSpec", "THETA_FACE", "bounds", "check_feasibility_necessary",
    "combination", "cone_membership", "distributions", "elemental_inequalities", "entropy",
    "entropy_vector", "face_12_123p_entropic", "face_catalogue", "face_for_generators", "in_gamma_n",
    "is_quasi_uniform", "logexact", "marginalize", "omega_in", "parse_pmf", "polycone",
    "qu_necessary", "qusearch", "ray123p_entropic", "search", "serialize_pmf", "spec_from_vector",
    "strict_in_face", "structural_hints", "subsets", "theta_in",
]


def test_package_names_resolve_to_their_modules():
    for name in entrocone.__all__:
        value = getattr(entrocone, name)
        if name in entrocone._EXPORTS:
            assert value is importlib.import_module(f"entrocone.{name}")
        else:
            assert value is getattr(importlib.import_module(f"entrocone.{entrocone._MODULE_OF[name]}"), name)


def test_star_import_binds_the_package_names():
    namespace = {}
    exec("from entrocone import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(STAR_NAMES)


def test_submodules_resolve_after_a_plain_package_import():
    # a fresh interpreter, so no earlier import has bound the submodules
    names = ["bounds", "distributions", "logexact", "polycone", "qusearch", "subsets"]
    probe = (
        "import entrocone\n"
        f"print(*[getattr(entrocone, n).__name__ for n in {names}])\n"
        "print(entrocone.polycone.in_gamma_n.__module__, entrocone.LogLinear.__module__)\n"
    )
    proc = run_subprocess("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        " ".join(f"entrocone.{n}" for n in names),
        "entrocone.polycone entrocone.logexact",
    ]


@pytest.mark.parametrize("name", ["no_such_name", "brute_force_oracle", "independent_product"])
def test_unknown_name_is_an_attribute_error(name):
    assert not hasattr(entrocone, name)
    with pytest.raises(AttributeError, match=name):
        getattr(entrocone, name)
