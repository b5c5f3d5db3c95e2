"""Regular polytopes among Wythoff constructions.

Two independent notions are implemented.  ruled_verdict applies a closed
position table on the decorated diagram (which families and ring positions
yield regular polytopes); the same rule gives the gap reasons and the
catalog.  is_flag_transitive decides transitivity of the generating
reflection group on flags from the flag structure (one orbit per selection
ordering).  They can disagree only when a polytope is regular but its full
symmetry group is strictly larger than the generating group;
oracle_gap_reason enumerates exactly those constructions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .decoration import (
    f_vector_formula,
    face_restriction,
    face_types,
    orbit_size,
    require_nondegenerate,
    selection_orderings,
    start_decoration,
)
from .diagram import (
    RING,
    DecoratedDiagram,
    canonical_certificate,
    classify_components,
    disjoint_union,
    family_diagram,
    group_order,
)
from .errors import UnknownName

_POLYGON_NAMES = {
    3: "triangle",
    4: "square",
    5: "pentagon",
    6: "hexagon",
    7: "heptagon",
    8: "octagon",
}

_SPECIAL_F_VECTORS = {
    "icosahedron": (12, 30, 20),
    "dodecahedron": (20, 30, 12),
    "24-cell": (24, 96, 96, 24),
    "600-cell": (120, 720, 1200, 600),
    "120-cell": (600, 1200, 720, 120),
}

_ALIASES = {
    "tetrahedron": "3-simplex",
    "cube": "3-hypercube",
    "octahedron": "3-hyperoctahedron",
    "5-cell": "4-simplex",
    "tesseract": "4-hypercube",
    "16-cell": "4-hyperoctahedron",
}
_ALIASES.update({f"{k}-gon": v for k, v in _POLYGON_NAMES.items()})


def polygon_name(k: int) -> str:
    return _POLYGON_NAMES.get(k, f"{k}-gon")


def canonical_name(name: str) -> str:
    name = name.strip().lower()
    return _ALIASES.get(name, name)


def known_f_vector(name: str) -> tuple[int, ...]:
    """Face counts of a regular polytope from closed formulas."""
    name = canonical_name(name)
    if name in _SPECIAL_F_VECTORS:
        return _SPECIAL_F_VECTORS[name]
    if name == "segment":
        return (2,)
    for k, poly in _POLYGON_NAMES.items():
        if name == poly:
            return (k, k)
    m = re.fullmatch(r"(\d+)-(simplex|hypercube|hyperoctahedron|gon)", name)
    if not m or int(m.group(1)) < (3 if m.group(2) == "gon" else 1):
        raise UnknownName(name)
    n, kind = int(m.group(1)), m.group(2)
    if kind == "gon":
        return (n, n)
    if kind == "simplex":
        return tuple(comb(n + 1, k + 1) for k in range(n))
    if kind == "hypercube":
        return tuple(2 ** (n - k) * comb(n, k) for k in range(n))
    return tuple(2 ** (k + 1) * comb(n, k + 1) for k in range(n))


# The regular single-ring positions on connected diagrams of rank >= 3, in
# catalog order: (family, rank or None for every rank, layout position with
# -1 for the last node, name, gap).  The gap, when set, says why the
# generating group is not flag-transitive on that regular polytope.
_DEMICUBE_GAP = "16-cell from the demihypercube group (index 2)"
_REGULAR_POSITIONS = (
    ("A", None, 0, "{n}-simplex", None),
    ("A", None, -1, "{n}-simplex", None),
    ("B", None, 0, "{n}-hypercube", None),
    ("B", None, -1, "{n}-hyperoctahedron", None),
    ("A", 3, 1, "3-hyperoctahedron", "octahedron from the tetrahedral group (index 2)"),
    ("H", 3, -1, "icosahedron", None),
    ("H", 3, 0, "dodecahedron", None),
    ("D", 4, 0, "4-hyperoctahedron", _DEMICUBE_GAP),
    ("D", 4, 2, "4-hyperoctahedron", _DEMICUBE_GAP),
    ("D", 4, -1, "4-hyperoctahedron", _DEMICUBE_GAP),
    ("F", 4, 0, "24-cell", None),
    ("F", 4, -1, "24-cell", None),
    ("B", 4, 2, "24-cell", "24-cell from the hyperoctahedral group (index 3)"),
    ("D", 4, 1, "24-cell", "24-cell from the D4 group (index 6)"),
    ("H", 4, -1, "600-cell", None),
    ("H", 4, 0, "120-cell", None),
    ("D", None, 0, "{n}-hyperoctahedron", None),
)


def _hypercube_name(n: int) -> str:
    return {1: "segment", 2: polygon_name(4)}.get(n, f"{n}-hypercube")


def _classify(d: DecoratedDiagram) -> tuple[str | None, str, str | None]:
    """(name or None, reason, gap or None) of a non-degenerate diagram.

    A product is a hypercube exactly when each factor on its own is the
    hypercube of its rank.
    """
    tags = classify_components(d)
    if len(tags) == 1:
        return _classify_component(d, tags[0])
    if all(_classify_component(d, t)[0] == _hypercube_name(t.rank) for t in tags):
        return (
            _hypercube_name(d.rank),
            "every factor is a segment or an end-ringed 4-chain",
            "box product: generating group is a proper subgroup of the hypercube group",
        )
    return None, "product with a factor that is not a box", None


def _classify_component(d: DecoratedDiagram, tag) -> tuple[str | None, str, str | None]:
    """_classify of the connected component tag of d, read on its own."""
    n = tag.rank
    rings = [pos for pos, v in enumerate(tag.nodes) if d.marks[v] == RING]
    if n == 1:
        return "segment", "one mirror, one ringed node", None
    if n == 2:
        k = d.label(*tag.nodes)
        return (
            polygon_name(k * len(rings)),
            f"one ring gives a {k}-gon, two give a {2 * k}-gon",
            "doubled polygon: both nodes ringed halves the symmetry" if len(rings) == 2 else None,
        )
    if len(rings) != 1:
        return None, "more than one ring on a connected diagram of dimension >= 3", None
    for family, rank, pos, name, gap in _REGULAR_POSITIONS:
        if (family, rank or n, pos % n) == (tag.family, n, rings[0]):
            name = name.format(n=n)
            return name, f"ring position on {tag} listed as {name}", gap
    return None, f"ring position on {tag} is not a regular one", None


@dataclass(frozen=True)
class RuledVerdict:
    regular: bool
    name: str | None
    reason: str
    witness: tuple | None = None


def ruled_verdict(d: DecoratedDiagram) -> RuledVerdict:
    """Position-table classification of the construction.

    Regular cases: any non-degenerate 2-node diagram (polygons); products
    whose every factor is the hypercube of its rank; and the single-ring
    positions listed in _REGULAR_POSITIONS.  Everything else is not
    regular; when two distinct face shapes exist at some rank the verdict
    carries one such witness.
    """
    require_nondegenerate(d)
    name, reason, _ = _classify(d)
    if name is None:
        return RuledVerdict(False, None, reason, regularity_witness(d))
    return RuledVerdict(True, name, reason)


# -- face-shape signatures and non-regularity witnesses -----------------------

_SIG_CACHE: dict = {}


def shape_signature(d: DecoratedDiagram):
    """Recursive combinatorial fingerprint of the polytope's shape.

    Built from closed-formula f-vectors and the multiset of facet
    signatures, so shapes that merely come from different diagrams (the
    octahedron from A3 or B3, say) get equal signatures without any group
    enumeration.
    """
    key = canonical_certificate(d)
    if key in _SIG_CACHE:
        return _SIG_CACHE[key]
    n = d.rank
    if n == 1:
        sig = ("segment",)
    elif n == 2:
        sig = ("polygon", f_vector_formula(d)[0])
    else:
        start = start_decoration(d)
        total = group_order(d)
        facets = {}
        for _, sel, dec in face_types(start, [n - 1]):
            fsig = shape_signature(face_restriction(start, sel))
            facets[fsig] = facets.get(fsig, 0) + orbit_size(dec, total)
        sig = (n, f_vector_formula(d), tuple(sorted(facets.items())))
    _SIG_CACHE[key] = sig
    return sig


def regularity_witness(d: DecoratedDiagram):
    """Two same-rank faces with different shapes, or None.

    Returns (rank, selection_a, selection_b) naming the first rank at which
    two face types differ.
    """
    start = start_decoration(d)
    first = {}
    for k, sel, _ in face_types(start, range(2, d.rank)):
        sig = shape_signature(face_restriction(start, sel))
        other, osig = first.setdefault(k, (sel, sig))
        if osig != sig:
            return (k, tuple(sorted(other)), tuple(sorted(sel)))
    return None


# -- flag-transitivity oracle --------------------------------------------------


def is_flag_transitive(src) -> bool:
    """Does the generating group act transitively on flags?

    A flag is a pair (selection ordering, g), and the group acts on flags by
    left translation of g alone.  That action is free and keeps the
    ordering, so the flags of one ordering form exactly one orbit.  The
    group is therefore flag-transitive exactly when there is one selection
    ordering.  src is a diagram or a FaceLattice, whose orderings are its
    chains; nothing is enumerated, so the answer holds beyond any
    enumeration budget.
    """
    if isinstance(src, DecoratedDiagram):
        require_nondegenerate(src)
        return len(selection_orderings(start_decoration(src))) == 1
    return len(src.chains) == 1


def oracle_gap_reason(d: DecoratedDiagram) -> str | None:
    """Why a regular construction can fail generator flag-transitivity.

    These are exactly the catalog entries whose full symmetry group is
    larger than the generating group; geometric regularity still holds and
    the test suite verifies it by ridge reflections.
    """
    require_nondegenerate(d)
    return _classify(d)[2]


# -- catalog -------------------------------------------------------------------


def _box_partitions(n: int):
    """Multisets of factor sizes (>= 1) splitting n, excluding the single block."""
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return [p for p in out if len(p) > 1]


def _box_diagram(parts) -> DecoratedDiagram:
    """Product of the hypercubes of the given ranks (B2 is the square I2(4))."""
    return disjoint_union(
        *(family_diagram("A" if p == 1 else "B", p, ringed=(0,)) for p in parts)
    )


def regular_catalog(n: int, kmax: int = 12) -> dict[str, list[DecoratedDiagram]]:
    """All regular polytopes of dimension n with their constructions.

    Polygon entries run through edge label kmax, at least 3.  Every
    construction the position table accepts appears, deduplicated up to
    decorated-diagram isomorphism; hypercubes include all box products.
    """
    if n < 1:
        raise UnknownName(f"no polytopes of dimension {n}")
    if kmax < 3:
        raise UnknownName(f"kmax {kmax} is below 3, the fewest edges of a polygon")
    catalog: dict[str, dict] = {}  # name -> certificate -> first construction

    def add(name, diagram):
        catalog.setdefault(name, {}).setdefault(canonical_certificate(diagram), diagram)

    if n == 1:
        add("segment", family_diagram("A", 1, ringed=(0,)))
    elif n == 2:
        for k in range(3, kmax + 1):
            add(polygon_name(k), family_diagram("I2", 2, k=k, ringed=(0,)))
            if k % 2 == 0 and k // 2 >= 3:
                add(polygon_name(k), family_diagram("I2", 2, k=k // 2, ringed=(0, 1)))
    else:
        for family, rank, pos, name, _ in _REGULAR_POSITIONS:
            if rank in (None, n) and not (family == "D" and n < 4):  # D starts at 4
                add(name.format(n=n), family_diagram(family, n, ringed=(pos % n,)))
    for parts in _box_partitions(n):
        add(_hypercube_name(n), _box_diagram(parts))
    return {name: list(entry.values()) for name, entry in catalog.items()}

