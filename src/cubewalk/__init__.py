"""Perfect state transfer on cubelike graphs.

A cubelike graph is the Cayley graph X(Z₂ⁿ, Ω) of the binary group under
XOR.  This package computes its integer spectrum through the
Walsh-Hadamard transform, evolves the continuous-time quantum walk
exactly on the quarter-period grid, decides perfect state transfer with
integer congruences, plans transfer routes, and surveys whole families of
connection sets, with an independent dense-matrix oracle to check it all
against.
"""

from .bitspace import (ConnectionSet, DimensionMismatchError, GroupElement,
                       MAX_DIMENSION, SetFormatError, dot_parity, gf2_rank,
                       hypercube, odd_parity_functional, spans)
from .dynamics import (HALF_PI, PI, GaussianInteger, RationalAngle,
                       UnsupportedAngleError, all_amplitudes,
                       all_amplitudes_exact, all_fidelities, amplitude,
                       amplitude_exact, gaussian_unit,
                       measurement_distribution)
from .graphwalk import (DisconnectedGraphError, DistanceProfile,
                        antipodal_pairs, bfs_profile, bipartite_functional,
                        is_complete_bipartite, neighbors)
from .oracle import (DENSE_CAP, DenseCapError, OracleMismatchError,
                     adjacency_dense, commutation_check, evolve_dense,
                     evolve_expm, regular_rep, verify_equivalence)
from .pst import (CertificationError, PstCertificate, RoutingPlan,
                  RouteStage, certify, decide_pst_exact, folded_cube,
                  plan_route, pst_at_half_pi, pst_offsets)
from .scanner import (EnumerationCapError, ScanReport, antipodality_audit,
                      audit_record, conjecture_scan, enumerate_sets,
                      scan_sets, transfer_record)
from .spectral import (CongruenceEntry, CongruenceReport, Spectrum,
                       classify_congruences, classify_set, spectrum, wht)

__version__ = "0.1.0"

__all__ = [
    "ConnectionSet", "DimensionMismatchError", "GroupElement",
    "MAX_DIMENSION", "SetFormatError", "dot_parity", "gf2_rank",
    "hypercube", "odd_parity_functional", "spans",
    "HALF_PI", "PI", "GaussianInteger", "RationalAngle",
    "UnsupportedAngleError", "all_amplitudes", "all_amplitudes_exact",
    "all_fidelities", "amplitude", "amplitude_exact", "gaussian_unit",
    "measurement_distribution",
    "DisconnectedGraphError", "DistanceProfile", "antipodal_pairs",
    "bfs_profile", "bipartite_functional", "is_complete_bipartite",
    "neighbors",
    "DENSE_CAP", "DenseCapError", "OracleMismatchError", "adjacency_dense",
    "commutation_check", "evolve_dense", "evolve_expm", "regular_rep",
    "verify_equivalence",
    "CertificationError", "PstCertificate", "RoutingPlan", "RouteStage",
    "certify", "decide_pst_exact", "folded_cube", "plan_route",
    "pst_at_half_pi", "pst_offsets",
    "EnumerationCapError", "ScanReport", "antipodality_audit",
    "audit_record", "conjecture_scan", "enumerate_sets", "scan_sets",
    "transfer_record",
    "CongruenceEntry", "CongruenceReport", "Spectrum",
    "classify_congruences", "classify_set", "spectrum", "wht",
]
