"""mainswitch: main eigenvalues of signed graphs.

An eigenvalue of a signed adjacency matrix is main when some eigenvector has
nonzero entry sum.  This package decides, with exact integer arithmetic,
whether a switching makes every eigenvalue of a graph main; constructs such
switchings for the clique-with-pendants and complete multipartite families;
and exhaustively verifies small graph catalogs, emitting re-checkable
certificates.
"""

from ._version import __version__
from .construct import (
    CandidateFamily,
    ConstructionError,
    ConstructionResult,
    FlipVector,
    NoAllMainSwitchingError,
    candidate_family_distinct,
    candidate_family_equal,
    flip,
    multipartite_all_main_switching,
    one_per_part_switching,
    snr_all_main_switching,
)
from .exact import (
    MainProfile,
    char_poly,
    distinct_eigenvalue_count,
    main_profile,
    poly_gcd,
    rank_exact,
    walk_matrix,
)
from .graphs import (
    Graph,
    GraphFormatError,
    MultipartiteParams,
    SignedGraph,
    SnrParams,
    adjacency_matrix,
    apply_switching,
    as_signed,
    emit_graph6,
    format_signed_edge_list,
    is_connected,
    make_multipartite,
    make_snr,
    parse_graph6,
    parse_signed_edge_list,
)
from .search import (
    Certificate,
    DisconnectedGraphError,
    TOOL_VERSION,
    UnswitchableGraph,
    VerificationReport,
    canonical_form,
    canonical_graph6,
    enumerate_connected_graphs,
    enumerate_switchings,
    find_all_main_switching,
    make_certificate,
    switching_main_counts,
    verify_certificate,
    verify_conjecture,
)
from .spectral import (
    EigenSystem,
    MultipartiteSpectrum,
    SnrSpectrum,
    SpectrumGroup,
    SpectrumReport,
    classify_main,
    eigen_sym,
    multipartite_secular_roots,
    multipartite_spectrum,
    snr_cubic_roots,
    snr_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
