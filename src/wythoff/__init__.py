"""Wythoff construction on decorated Coxeter diagrams.

Parse a diagram, enumerate its reflection group, walk the decoration
rewriting to the full face lattice, realize the polytope in coordinates,
and classify the regular cases:

    >>> import wythoff
    >>> lat = wythoff.build_lattice(wythoff.parse("x4o3o"))
    >>> lat.f_vector
    (8, 12, 6)
"""

__version__ = "0.1.0"

from .decoration import (
    Decoration,
    decoration_from_selection,
    face_restriction,
    is_degenerate,
    reachable_decorations,
    select_node,
    selection_orderings,
    start_decoration,
    valid_selection_sets,
)
from .diagram import (
    DecoratedDiagram,
    classify_components,
    diagram_from_document,
    disjoint_union,
    family_diagram,
    gram_matrix,
    group_order,
    parse,
    serialize_document,
    serialize_inline,
)
from .errors import (
    BudgetExceeded,
    DedupCollision,
    Degenerate,
    InvalidS,
    NotApplicable,
    NotFiniteType,
    ParseError,
    SingularSystem,
    SpanDeficient,
    ToleranceCollision,
    UnknownName,
    UnsupportedDimension,
    WythoffError,
)
from .face_lattice import (
    FaceLattice,
    build_lattice,
    diamond_report,
    euler_ok,
    f_vector_formula,
    flag_report,
    lattice_document,
    lattices_isomorphic,
    vertex_figure,
)
from .geometry import (
    Realization,
    off_document,
    polar_dual_check,
    realization_document,
    realize,
    ridge_reflection_check,
    verify_realization,
    wythoff_point,
)
from .reflection_group import Group, enumerate_group, root_system, simple_normals
from .regular import (
    constructions_of,
    is_flag_transitive,
    known_f_vector,
    oracle_gap_reason,
    regular_catalog,
    ruled_verdict,
)

__all__ = [
    "__version__",
    "BudgetExceeded",
    "DecoratedDiagram",
    "Decoration",
    "DedupCollision",
    "Degenerate",
    "FaceLattice",
    "Group",
    "InvalidS",
    "NotApplicable",
    "NotFiniteType",
    "ParseError",
    "Realization",
    "SingularSystem",
    "SpanDeficient",
    "ToleranceCollision",
    "UnknownName",
    "UnsupportedDimension",
    "WythoffError",
    "build_lattice",
    "classify_components",
    "constructions_of",
    "decoration_from_selection",
    "diagram_from_document",
    "diamond_report",
    "disjoint_union",
    "enumerate_group",
    "euler_ok",
    "f_vector_formula",
    "face_restriction",
    "family_diagram",
    "flag_report",
    "gram_matrix",
    "group_order",
    "is_degenerate",
    "is_flag_transitive",
    "known_f_vector",
    "lattice_document",
    "lattices_isomorphic",
    "off_document",
    "oracle_gap_reason",
    "parse",
    "polar_dual_check",
    "reachable_decorations",
    "realization_document",
    "realize",
    "regular_catalog",
    "ridge_reflection_check",
    "root_system",
    "ruled_verdict",
    "select_node",
    "selection_orderings",
    "serialize_document",
    "serialize_inline",
    "simple_normals",
    "start_decoration",
    "valid_selection_sets",
    "verify_realization",
    "vertex_figure",
    "wythoff_point",
]
