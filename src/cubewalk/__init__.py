"""Perfect state transfer on cubelike graphs.

A cubelike graph is the Cayley graph X(Z₂ⁿ, Ω) of the binary group under
XOR.  This package computes its integer spectrum through the
Walsh-Hadamard transform, evolves the continuous-time quantum walk
exactly on the quarter-period grid, decides perfect state transfer with
integer congruences, plans transfer routes, and surveys whole families of
connection sets, with an independent dense-matrix oracle to check it all
against.

Public names resolve from their submodule on first use, so
``import cubewalk`` loads no submodule and no numpy.  A name is looked
up in its submodule on every access and never stored here, so
``cubewalk.spectrum`` is always what ``cubewalk.spectral.spectrum`` holds
at that moment, patched or not.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_ORIGIN = {name: module for module, names in {
    "bitspace": ["ConnectionSet", "DimensionMismatchError", "GroupElement",
                 "MAX_DIMENSION", "SetFormatError", "hypercube",
                 "odd_parity_functional"],
    "dynamics": ["HALF_PI", "GaussianInteger", "RationalAngle",
                 "UnsupportedAngleError", "all_amplitudes", "all_fidelities",
                 "amplitude_exact", "measurement_distribution"],
    "graphwalk": ["DistanceProfile", "bfs_profile", "bipartite_functional",
                  "is_complete_bipartite"],
    "oracle": ["DENSE_CAP", "DenseCapError", "OracleMismatchError",
               "adjacency_dense", "commutation_check", "evolve_dense",
               "evolve_expm", "verify_equivalence"],
    "pst": ["CertificationError", "PstCertificate", "RoutingPlan",
            "RouteStage", "certify", "decide_pst_exact", "folded_cube",
            "plan_route", "pst_at_half_pi", "pst_offsets"],
    "scanner": ["EnumerationCapError", "ScanReport", "antipodality_audit",
                "audit_record", "conjecture_scan", "enumerate_sets",
                "scan_sets", "transfer_record"],
    "spectral": ["CongruenceEntry", "CongruenceReport", "Spectrum",
                 "classify_congruences", "classify_set", "spectrum", "wht"],
}.items() for name in names}

_SUBMODULES = frozenset({*_ORIGIN.values(), "cli", "jsontext"})

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
