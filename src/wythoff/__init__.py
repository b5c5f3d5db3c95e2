"""Wythoff construction on decorated Coxeter diagrams.

Parse a diagram, enumerate its reflection group, walk the decoration
rewriting to the full face lattice, realize the polytope in coordinates,
and classify the regular cases:

    >>> import wythoff
    >>> lat = wythoff.build_lattice(wythoff.parse("x4o3o"))
    >>> lat.f_vector
    (8, 12, 6)

Each public name is imported from its home module on first use, so the
answers that need only formulas (orders, face counts, the regular catalog)
never import numpy or the enumeration layers.
"""

import importlib

__version__ = "0.1.0"

# the home module of every public name
_EXPORTS = {
    "decoration": """
        Decoration decoration_from_selection f_vector_formula face_restriction
        is_degenerate selection_orderings start_decoration valid_selection_sets
    """,
    "diagram": """
        DecoratedDiagram classify_components diagram_from_document
        disjoint_union family_diagram group_order parse serialize_document
        serialize_inline
    """,
    "errors": """
        BudgetExceeded DedupCollision Degenerate InvalidS NotFiniteType
        ParseError SingularSystem SpanDeficient ToleranceCollision UnknownName
        UnsupportedDimension WythoffError
    """,
    "face_lattice": """
        FaceLattice build_lattice diamond_report euler_ok flag_report
        lattice_document lattices_isomorphic
    """,
    "geometry": """
        Realization off_document polar_dual_check realization_document
        realize ridge_reflection_check verify_realization wythoff_point
    """,
    "reflection_group": "Group enumerate_group gram_matrix root_system simple_normals",
    "regular": """
        is_flag_transitive known_f_vector oracle_gap_reason regular_catalog
        ruled_verdict
    """,
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    """Import a public name's home module on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
