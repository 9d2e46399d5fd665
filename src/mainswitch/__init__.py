"""mainswitch: main eigenvalues of signed graphs.

An eigenvalue of a signed adjacency matrix is main when some eigenvector has
nonzero entry sum.  This package decides, with exact integer arithmetic,
whether a switching makes every eigenvalue of a graph main; constructs such
switchings for the clique-with-pendants and complete multipartite families;
and exhaustively verifies small graph catalogs, emitting re-checkable
certificates.
"""

from ._version import __version__
from .construct import *
from .exact import *
from .graphs import *
from .search import *
from .spectral import *

__all__ = [name for name in dir() if not name.startswith("_")]
