"""The package's public names, spelled out so that any export change shows in a diff."""

from __future__ import annotations

import importlib
import sys
import types

import pytest

import modulikit
from util import run_fresh

PUBLIC = [
    "Arrow",
    "CheckReport",
    "ConnectionData",
    "ConstantField",
    "DoubleQuiver",
    "DoubleQuiverRep",
    "EquivalenceCertificate",
    "FrameTuple",
    "InvariantVector",
    "PurityResult",
    "PurityWitness",
    "QuadraticField",
    "Quiver",
    "SpectralDecomposition",
    "WeightBlock",
    "WeightData",
    "WeightDecomposition",
    "are_orthogonal",
    "commutant_contains",
    "commutant_dim",
    "commutator",
    "components",
    "connection",
    "decompose",
    "double",
    "enumerate_cycles",
    "equivalence_certificate",
    "errors",
    "field_bracket",
    "from_connection",
    "gauge",
    "gauge_action",
    "hermitian_sqrt",
    "invariants",
    "involution",
    "is_hermitian",
    "is_pure",
    "is_tripotent",
    "is_unitary",
    "jordan",
    "jsonio",
    "lie_sharp",
    "linalg",
    "moment_map",
    "quadratic_field",
    "quiver",
    "reconstruct",
    "sample_commutant",
    "selftest",
    "sharp",
    "spectral",
    "to_connection",
    "triple_product",
    "validate_covariance",
    "weight_quiver",
    "weights",
]


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(modulikit.__all__) == PUBLIC


def test_every_public_name_is_the_object_its_module_defines():
    for name in modulikit.__all__:
        value = getattr(modulikit, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"modulikit.{name}"), name
        else:
            assert value.__module__.startswith("modulikit."), name
            assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_lists_every_public_name_before_any_is_loaded():
    run = run_fresh("import modulikit\nprint(sorted(set(modulikit.__all__) - set(dir(modulikit))))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from modulikit import *", namespace)
    assert all(namespace[name] is getattr(modulikit, name) for name in PUBLIC)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'modulikit' has no attribute 'no_such_name'$"):
        modulikit.no_such_name
    assert not hasattr(modulikit, "no_such_name")
