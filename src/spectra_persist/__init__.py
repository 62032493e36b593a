"""Barcodes and spectral-sequence pages of filtered chain complexes.

Exact coefficients (GF(p) or the rationals), a column-reduction interval
decomposition, two independent page engines, and the identities that let
either structure be recovered from the other.
"""
from .complexes import FilteredChainComplex, Generator, Violation, homology_dims_by_level
from .errors import (ClosureError, InconsistentTableError, InsufficientRMaxError,
                     InvalidComplexError, PageTableError, ParseError, UsageError)
from .fields import FieldSpec, PrimeField, RationalField, Scalar, field_from_text
from .ingest import (FilteredSimplicialComplex, PointCloud, make_simplicial,
                     parse_complex, parse_point_cloud, parse_simplicial, rips,
                     serialize_complex, simplicial_to_chain)
from .linalg import SparseMatrix, axpy, kernel, rank
from .persistence import (INF, Barcode, BarEntry, Pair, Pairing, betti, decompose,
                          multiplicity)
from .randomgen import permute_generators, random_complex
from .spectral import (CheckResult, PageTable, VerifyReport, collapse_page,
                       pages_direct, pages_from_barcode, parse_page_table,
                       recover_barcode, verify)

__version__ = "0.1.0"

__all__ = [
    "Barcode", "BarEntry", "CheckResult", "ClosureError", "FieldSpec",
    "FilteredChainComplex", "FilteredSimplicialComplex", "Generator", "INF",
    "InconsistentTableError", "InsufficientRMaxError", "InvalidComplexError",
    "PageTable", "PageTableError", "Pair", "Pairing", "ParseError", "PointCloud",
    "PrimeField", "RationalField", "Scalar", "SparseMatrix", "UsageError",
    "VerifyReport", "Violation", "axpy", "betti", "collapse_page",
    "decompose", "field_from_text", "homology_dims_by_level", "kernel",
    "make_simplicial", "multiplicity", "pages_direct", "pages_from_barcode",
    "parse_complex", "parse_page_table", "parse_point_cloud", "parse_simplicial",
    "permute_generators", "random_complex", "rank", "recover_barcode", "rips",
    "serialize_complex", "simplicial_to_chain", "verify",
]
