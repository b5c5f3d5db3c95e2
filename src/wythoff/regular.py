"""Regular polytopes among Wythoff constructions.

Regularity is read off the structure theorem.  The face types of rank k
are the selections the decoration rewrite reaches in k steps, and each
such face is itself the Wythoff polytope of its face diagram
(face_restriction).  A regular polytope has one face shape at every rank,
so regularity_witness walks the face types rank by rank from rank 2 and
names the first rank with two shapes; ruled_verdict is regular exactly
when there is none.  A product is decided factor by factor: it is regular
exactly when every factor is a segment or a hypercube.

The walk compares f-vectors, not recursive shapes.  Call a face's
signature its f-vector with the multiset of its facets' signatures.  Rank
1 has one shape, the segment, and the walk stops at the first rank with
two, so when it reads rank k every rank below has one shape.  Then every
facet of a rank-k face has that shape, and two rank-k faces have equal
signatures exactly when their face diagrams have equal f-vectors.  That
one shape per rank makes the polytope regular is not proved here; the
ring-position table and the signature recursion, kept as oracles in
tests/oracles.py, are checked against this rule.

A regular polytope of rank n >= 3 is named by its vertex count f0 =
|W|/|W_J|, W the generating group and J the crossed nodes: n+1 vertices
make the simplex, 2^n the hypercube and 2n the hyperoctahedron, and the
five exceptional polytopes have their own counts.  Rank 1 is the segment
and rank 2 the f0-gon.

is_flag_transitive decides whether W is transitive on flags: W acts
freely on flags, with one orbit per selection ordering.  The symmetry
group Aut of a regular polytope acts simply transitively on its flags, so
|Aut| = orderings x |W|, and the index |Aut|/|W|, from the closed forms
of |Aut| (Coxeter, Regular Polytopes, section 7), is the number of
selection orderings.  oracle_gap_reason names the regular constructions
whose index exceeds 1: regular, yet not flag-transitive under W.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import chain, groupby, islice
from math import comb, factorial
from operator import itemgetter

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
    DecoratedDiagram,
    Record,
    canonical_certificate,
    classify_components,
    disjoint_union,
    family_diagram,
    group_order,
)
from .errors import BudgetExceeded, UnknownName, WythoffError

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
# the order of each one's symmetry group
_SPECIAL_SYMMETRY = {
    "icosahedron": 120,
    "dodecahedron": 120,
    "24-cell": 1152,
    "600-cell": 14400,
    "120-cell": 14400,
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


def _regular_shapes(n: int):
    """(f0, name, |Aut|) of each regular polytope of rank n >= 3, in catalog order."""
    yield n + 1, f"{n}-simplex", factorial(n + 1)
    yield 2**n, f"{n}-hypercube", 2**n * factorial(n)
    yield 2 * n, f"{n}-hyperoctahedron", 2**n * factorial(n)
    for name, fv in _SPECIAL_F_VECTORS.items():
        if len(fv) == n:
            yield fv[0], name, _SPECIAL_SYMMETRY[name]


def _named(d: DecoratedDiagram) -> tuple[str, int]:
    """(name, |Aut|) of the regular polytope of d's rank with d's vertex count."""
    n, f0 = d.rank, _vertex_count(d)
    if n < 3:
        return ("segment", 2) if n == 1 else (polygon_name(f0), 2 * f0)
    for count, name, aut in _regular_shapes(n):
        if count == f0:
            return name, aut
    raise WythoffError(f"one face shape at every rank, yet no regular {n}-polytope"
                       f" has {f0} vertices")


def _vertex_count(d: DecoratedDiagram) -> int:
    return orbit_size(start_decoration(d), group_order(d))


@lru_cache(maxsize=1)
def _shape(d: DecoratedDiagram) -> tuple:
    """(witness, name, |Aut|) of d, name and |Aut| None when there is a witness.

    ruled_verdict and oracle_gap_reason are read in turn on one diagram (by
    is-regular --oracle and by the benchmark pipeline), so the last
    diagram's answer is kept and the walk runs once for both.
    """
    witness = regularity_witness(d)
    return (witness, None, None) if witness else (None, *_named(d))


class RuledVerdict(Record):
    _fields = ("regular", "name", "reason", "witness")

    def __init__(self, regular: bool, name: str | None, reason: str,
                 witness: tuple | None = None):
        super().__init__(regular, name, reason, witness)


def ruled_verdict(d: DecoratedDiagram) -> RuledVerdict:
    """Regular exactly when every rank has one face shape.

    A rank-k face type's shape is fixed by its face diagram's f-vector once
    every lower rank has one shape (the module docstring gives the
    argument), so regularity_witness decides the verdict from formulas
    alone.  A regular construction is named by its vertex count, and
    |Aut| = orderings x |W| makes the index |Aut|/|W| its number of
    selection orderings.  A vertex count that names no regular polytope of
    the rank is an internal error, raised as WythoffError.  A non-regular
    verdict carries the witness.
    """
    require_nondegenerate(d)
    witness, name, _ = _shape(d)
    if witness:
        return RuledVerdict(False, None, f"two face shapes at rank {witness[0]}", witness)
    return RuledVerdict(True, name, "one face shape at every rank, named by its vertices")


def regularity_witness(d: DecoratedDiagram):
    """Two same-rank faces with different shapes, or None.

    Returns (rank, selection_a, selection_b) naming the first rank at which
    two face types differ, selection_a that rank's first type.  Every rank
    below has one shape, so two faces differ exactly when their face
    diagrams' f-vectors do.  A rank with one type costs nothing, and a type
    whose face diagram is isomorphic to the first one's needs no f-vector.

    A product of two or more factors has an edge x edge square among its
    2-faces, so it has one shape at every rank exactly when every factor is
    a segment or a hypercube: one shape at every rank and 2^rank vertices.
    That is decided factor by factor, where the product's own walk would
    read 2^m face types for m segments.  Any other product is walked whole,
    and stops at the first rank with two shapes.
    """
    parts = d.components()
    if len(parts) > 1 and all(
        _vertex_count(p) == 2**p.rank and regularity_witness(p) is None
        for p in map(d.induced, parts)
    ):
        return None
    start = start_decoration(d)
    face = partial(face_restriction, start)
    for k, types in groupby(face_types(start, range(2, d.rank)), key=itemgetter(0)):
        a = next(types)[1]
        key_a = fv_a = None
        for _, b, _ in types:
            key_a = key_a or canonical_certificate(face(a))
            face_b = face(b)
            if canonical_certificate(face_b) == key_a:
                continue
            fv_a = fv_a or f_vector_formula(face(a))
            if f_vector_formula(face_b) != fv_a:
                return k, tuple(sorted(a)), tuple(sorted(b))
    return None


# -- flag-transitivity oracle --------------------------------------------------


def is_flag_transitive(src) -> bool:
    """Does the generating group act transitively on flags?

    A flag is a pair (selection ordering, g), and the group acts on flags by
    left translation of g alone.  That action is free and keeps the
    ordering, so the flags of one ordering form exactly one orbit.  The
    group is therefore flag-transitive exactly when there is one selection
    ordering.  src is a diagram, whose orderings are searched only until a
    second one turns up, or a FaceLattice, whose orderings are its chains;
    no group or flag is enumerated, so the answer holds beyond any
    enumeration budget.
    """
    if isinstance(src, DecoratedDiagram):
        require_nondegenerate(src)
        return len(list(islice(selection_orderings(start_decoration(src)), 2))) == 1
    return len(src.chains) == 1


def oracle_gap_reason(d: DecoratedDiagram) -> str | None:
    """Why a regular construction can fail generator flag-transitivity.

    The index |Aut|/|W| of the generating group W in the full symmetry
    group is the number of selection orderings; above 1 the construction
    is regular and not flag-transitive, and the reason names the index.
    Geometric regularity still holds, and the test suite verifies it by
    ridge reflections.
    """
    require_nondegenerate(d)
    witness, name, aut = _shape(d)
    if witness:
        return None
    index = aut // group_order(d)
    if index == 1:
        return None
    group = " x ".join(str(tag) for tag in classify_components(d))
    return f"{name} from the {group} group (index {index})"


# -- catalog -------------------------------------------------------------------

# the polygons and box products one catalog may build and certify, about
# what lists in a second: cold, dimension 25 (1957 boxes) takes 1.0 s and
# 26 (2435) 1.2-1.7 s on two x86 cores; polygons fit up to kmax 1335
CATALOG_LIMIT = 2000


def _partitions(n: int, most: int | None = None):
    """Partitions of n into parts no larger than most (default n), largest first."""
    if n == 0:
        yield ()
    for p in range(min(n, most or n), 0, -1):
        yield from ((p, *rest) for rest in _partitions(n - p, p))


def _box_diagram(parts) -> DecoratedDiagram:
    """Product of the hypercubes of the given ranks (B2 is the square I2(4))."""
    return disjoint_union(
        *(family_diagram("A" if p == 1 else "B", p, ringed=(0,)) for p in parts)
    )


def _constructions(n: int, kmax: int):
    """(name, builder) of the segment, the polygons and the box products of
    dimension n, lazily, unbuilt."""
    if n == 1:
        yield "segment", partial(family_diagram, "A", 1, ringed=(0,))
    elif n == 2:
        for k in range(3, kmax + 1):
            yield polygon_name(k), partial(family_diagram, "I2", 2, k=k, ringed=(0,))
            if k % 2 == 0 and k // 2 >= 3:
                yield polygon_name(k), partial(family_diagram, "I2", 2, k=k // 2, ringed=(0, 1))
    box = polygon_name(4) if n == 2 else f"{n}-hypercube"
    for parts in islice(_partitions(n), 1, None):  # all but (n) itself
        yield box, partial(_box_diagram, parts)


# the ranks each family of _single_rings has, (least, greatest), None for
# no greatest; family_diagram refuses any other
_FAMILY_RANKS = {"A": (1, None), "B": (2, None), "D": (4, None), "E": (6, 8),
                 "F": (4, 4), "H": (3, 4)}


def _single_rings(n: int):
    """Each connected family of rank n ringed at one node, every node in turn."""
    for family, (least, most) in _FAMILY_RANKS.items():
        if least <= n <= (most or n):
            yield from (family_diagram(family, n, ringed=(pos,)) for pos in range(n))


def _regular_single_rings(n: int) -> list[tuple[str, DecoratedDiagram]]:
    """(name, diagram) of each regular single-ring construction of rank n >= 3.

    By name in _regular_shapes order, then by index |Aut|/|W|, then in
    the order _single_rings makes them.
    """
    rank = {name: i for i, (_, name, _) in enumerate(_regular_shapes(n))}
    kept = []
    for d in _single_rings(n):
        witness, name, aut = _shape(d)
        if witness is None:
            kept.append((rank[name], aut // group_order(d), len(kept), name, d))
    return [(name, d) for *_, name, d in sorted(kept)]


def regular_catalog(n: int, kmax: int = 12) -> dict[str, list[DecoratedDiagram]]:
    """All regular polytopes of dimension n with their constructions.

    The constructions are every family of rank n ringed at one node that
    ruled_verdict calls regular, then the box products, deduplicated up to
    decorated-diagram isomorphism; polygon entries run through edge label
    kmax, at least 3.  BudgetExceeded, before any is built, when the
    polygons and box products alone are more than CATALOG_LIMIT.
    """
    if n < 1:
        raise UnknownName(f"no polytopes of dimension {n}")
    if kmax < 3:
        raise UnknownName(f"kmax {kmax} is below 3, the fewest edges of a polygon")
    todo = list(islice(_constructions(n, kmax), CATALOG_LIMIT + 1))
    if len(todo) > CATALOG_LIMIT:
        raise BudgetExceeded(f"the catalog of dimension {n} builds more than"
                             f" {CATALOG_LIMIT} constructions, the catalog limit")
    rings = _regular_single_rings(n) if n >= 3 else []
    catalog: dict[str, dict] = {}  # name -> certificate -> first construction
    for name, d in chain(rings, ((name, build()) for name, build in todo)):
        catalog.setdefault(name, {}).setdefault(canonical_certificate(d), d)
    return {name: list(entry.values()) for name, entry in catalog.items()}
