"""Barcodes and spectral-sequence pages of filtered chain complexes.

Exact coefficients (GF(p) or the rationals), a column-reduction interval
decomposition, two independent page engines, and the identities that let
either structure be recovered from the other.

The names below load their module on first use (PEP 562), so a process
pays only for the modules it touches.
"""
from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "complexes": ("FilteredChainComplex", "Generator", "Violation", "homology_dims_by_level"),
    "errors": ("ClosureError", "InconsistentTableError", "InsufficientRMaxError",
               "InvalidComplexError", "PageTableError", "ParseError", "UsageError"),
    "fields": ("FieldSpec", "PrimeField", "RationalField", "Scalar", "field_from_text"),
    "ingest": ("parse_complex", "serialize_complex"),
    "linalg": ("SparseMatrix", "axpy", "kernel", "rank"),
    "persistence": ("INF", "Barcode", "BarEntry", "Pair", "Pairing", "betti", "decompose",
                    "multiplicity"),
    "randomgen": ("permute_generators", "random_complex"),
    "simplicial": ("FilteredSimplicialComplex", "PointCloud", "make_simplicial",
                   "parse_point_cloud", "parse_simplicial", "rips", "serialize_simplicial",
                   "simplicial_to_chain"),
    "spectral": ("CheckResult", "PageTable", "VerifyReport", "collapse_page", "pages_direct",
                 "pages_from_barcode", "parse_page_table", "recover_barcode", "verify"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
