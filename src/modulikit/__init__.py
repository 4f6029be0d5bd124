"""Weight gradings, covariant connection data, weight-quiver trace
invariants, and Jordan triple spectral tools for complex matrix groups.

``import modulikit`` imports no submodule (and not numpy).  Each submodule,
and each name below, is imported on first access (PEP 562), so a caller
pays only for the layers it uses.
"""

# Each public submodule and the public names it defines, the one list of
# the package's exports.
_EXPORTS = {
    "connection": (
        "CheckReport",
        "ConnectionData",
        "FrameTuple",
        "PurityResult",
        "PurityWitness",
        "gauge",
        "involution",
        "is_hermitian",
        "is_pure",
        "validate_covariance",
    ),
    "errors": (),
    "jordan": (
        "ConstantField",
        "QuadraticField",
        "SpectralDecomposition",
        "are_orthogonal",
        "field_bracket",
        "is_tripotent",
        "quadratic_field",
        "reconstruct",
        "spectral",
        "triple_product",
    ),
    "jsonio": (),
    "linalg": (
        "commutator",
        "hermitian_sqrt",
        "is_unitary",
        "lie_sharp",
        "sharp",
    ),
    "quiver": (
        "Arrow",
        "DoubleQuiver",
        "DoubleQuiverRep",
        "EquivalenceCertificate",
        "InvariantVector",
        "Quiver",
        "double",
        "enumerate_cycles",
        "equivalence_certificate",
        "from_connection",
        "gauge_action",
        "invariants",
        "moment_map",
        "to_connection",
        "weight_quiver",
    ),
    "selftest": (),
    "weights": (
        "WeightBlock",
        "WeightData",
        "WeightDecomposition",
        "commutant_contains",
        "commutant_dim",
        "components",
        "decompose",
        "sample_commutant",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own machinery binds the submodule on this
    # package and, unlike importlib.import_module, shows in -X importtime.
    __import__(f"{__name__}.{home}")
    if name != home:
        globals()[name] = getattr(globals()[home], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
