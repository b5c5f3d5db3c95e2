"""Decorated Coxeter diagrams: parsing, classification, orders.

A diagram is a finite simple graph with integer edge labels m >= 3 (absent
edge means m = 2) and a mark on every node: ring (the generating mirror does
not pass through the base point) or cross (it does).  Inline notation covers
path diagrams, e.g. ``x4o3o`` for the cube; branched or disconnected diagrams
use a structured JSON document.

The order of a reflection group depends only on its Coxeter matrix, so
group_order and parabolic_order read one bounded cache keyed by the Coxeter
submatrix in node order: each |W_J| is classified once, whatever the
diagram's node ids and marks.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re

from .errors import NotFiniteType, ParseError

RING = 1
CROSS = 0

_MARK_CHARS = {"x": RING, "o": CROSS}
_MARK_NAMES = {"ring": RING, "cross": CROSS}
_INLINE_RE = re.compile(r"^[xo](?:\d+[xo])*$")


class Record:
    """Immutable record: equality, hash and repr over the fields in _fields.

    A subclass names its fields in _fields and passes their values, in that
    order, to Record.__init__ from its own; any other attribute it sets with
    object.__setattr__ stays out of equality, hash and repr.  Records of
    different classes are never equal.  copy and pickle restore __dict__
    without calling __init__.  (The formula commands import this module, so
    it stands in for dataclasses, whose import pulls in inspect and ast.)
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FamilyTag(Record):
    """Finite reflection family of one connected component.

    family is one of A, B, D, E, F, H, I2; k is the edge label for I2.
    nodes holds the component's node indices in the parent diagram, in the
    layout order of family_diagram, so position i of nodes plays the part
    of node i of the family's standard diagram: paths run from the end that
    gives the greater label sequence (B and H from their 4 or 5 edge); D is
    its long arm from the end, the branch node at n-3, then the two leaves;
    E is its length-2 arm from the end, the branch node at 2, the long arm
    outwards, then the leaf.  Ties (a path whose labels read the same both
    ways, arms of equal length) go to the side with the least node.  Ring
    positions (regular.py) read this order.
    """

    _fields = ("family", "rank", "k", "nodes")

    def __init__(self, family: str, rank: int, k: int | None = None,
                 nodes: tuple[int, ...] = ()):
        super().__init__(family, rank, k, nodes)

    def __str__(self):
        if self.family == "I2":
            return "I2(%d)" % self.k
        return "%s%d" % (self.family, self.rank)

    @property
    def order(self) -> int:
        if self.family == "A":
            return math.factorial(self.rank + 1)
        if self.family == "B":
            return (1 << self.rank) * math.factorial(self.rank)
        if self.family == "D":
            return (1 << (self.rank - 1)) * math.factorial(self.rank)
        if self.family == "I2":
            return 2 * self.k
        if self.family == "F":
            return 1152
        if self.family == "H":
            return {3: 120, 4: 14400}[self.rank]
        if self.family == "E":
            return {6: 51840, 7: 2903040, 8: 696729600}[self.rank]
        raise ValueError("unknown family %r" % self.family)


class DecoratedDiagram(Record):
    """Nodes with ring/cross marks plus labelled edges (m >= 3)."""

    _fields = ("node_ids", "marks", "edges")

    def __init__(self, node_ids: tuple[str, ...], marks: tuple[int, ...],
                 edges: tuple[tuple[int, int, int], ...]):
        super().__init__(node_ids, marks, edges)
        n = len(self.node_ids)
        if n == 0:
            raise ParseError("diagram needs at least one node")
        if len(set(self.node_ids)) != n:
            raise ParseError("duplicate node ids")
        if len(self.marks) != n or any(m not in (RING, CROSS) for m in self.marks):
            raise ParseError("marks must be ring/cross, one per node")
        seen = set()
        adj = [[] for _ in range(n)]
        label = {}
        for i, j, m in self.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ParseError("bad edge (%r, %r)" % (i, j))
            if not isinstance(m, int) or m < 3:
                raise ParseError("edge label must be an integer >= 3, got %r" % (m,))
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ParseError("duplicate edge %r" % (key,))
            seen.add(key)
            adj[i].append(j)
            adj[j].append(i)
            label[key] = m
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "_label", label)

    @property
    def rank(self) -> int:
        return len(self.node_ids)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def label(self, i: int, j: int) -> int:
        """Coxeter label m(i, j); 2 when no edge, 1 on the diagonal."""
        if i == j:
            return 1
        return self._label.get((min(i, j), max(i, j)), 2)

    def with_marks(self, marks) -> "DecoratedDiagram":
        return DecoratedDiagram(self.node_ids, tuple(int(m) for m in marks), self.edges)

    def induced(self, nodes) -> "DecoratedDiagram":
        """Subdiagram on the given node indices (marks carried along)."""
        keep = sorted(set(int(v) for v in nodes))
        pos = {v: i for i, v in enumerate(keep)}
        edges = tuple(
            (pos[i], pos[j], m)
            for i, j, m in self.edges
            if i in pos and j in pos
        )
        return DecoratedDiagram(
            tuple(self.node_ids[v] for v in keep),
            tuple(self.marks[v] for v in keep),
            edges,
        )

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted index tuples, ordered by minimum."""
        n = self.rank
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return tuple(out)


def parse(text: str) -> DecoratedDiagram:
    """Parse inline notation or a structured JSON document.

    Validates that every component is finite-type (raises NotFiniteType
    otherwise) but does not reject decoration degeneracy; that is a
    property of the decoration, tested separately.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty diagram")
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError("bad JSON: %s" % e) from None
        return diagram_from_document(doc)
    d = parse_inline(text)
    classify_components(d)
    return d


def parse_inline(text: str) -> DecoratedDiagram:
    """Path diagram from mark/label notation, e.g. ``x4o3o`` or ``x``."""
    if not _INLINE_RE.match(text):
        raise ParseError("bad inline notation %r" % text)
    marks = [_MARK_CHARS[c] for c in text if c in _MARK_CHARS]
    labels = [int(s) for s in re.findall(r"\d+", text)]
    if any(m < 3 for m in labels):
        raise ParseError("inline labels must be >= 3 (2 means no edge)")
    return _path(labels, marks)


def serialize_inline(d: DecoratedDiagram) -> str:
    """Inverse of parse_inline; requires nodes to form a path in index order."""
    n = d.rank
    want = {(i, i + 1) for i in range(n - 1)}
    have = {(min(i, j), max(i, j)) for i, j, _ in d.edges}
    if want != have:
        raise ParseError("diagram is not a path in node order; use a document")
    out = []
    for i in range(n):
        out.append("x" if d.marks[i] == RING else "o")
        if i + 1 < n:
            out.append(str(d.label(i, i + 1)))
    return "".join(out)


def diagram_from_document(doc: dict) -> DecoratedDiagram:
    """Build a diagram from {"nodes": [...], "edges": [...]}."""
    try:
        nodes = doc["nodes"]
        edges = doc.get("edges", [])
    except (TypeError, KeyError):
        raise ParseError("document must have 'nodes' and 'edges'") from None
    if not isinstance(nodes, list) or not nodes:
        raise ParseError("'nodes' must be a non-empty list")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list")
    ids, marks = [], []
    for item in nodes:
        try:
            ids.append(str(item["id"]))
            marks.append(_MARK_NAMES[item["mark"]])
        except (TypeError, KeyError):
            raise ParseError("node entries need 'id' and 'mark' (ring/cross)") from None
    pos = {v: i for i, v in enumerate(ids)}
    if len(pos) != len(ids):
        raise ParseError("duplicate node ids")
    out_edges = []
    for item in edges:
        try:
            a, b, m = str(item["a"]), str(item["b"]), item["m"]
        except (TypeError, KeyError):
            raise ParseError("edge entries need 'a', 'b', 'm'") from None
        if a not in pos or b not in pos:
            raise ParseError("edge references unknown node %r/%r" % (a, b))
        if not isinstance(m, int):
            raise ParseError("edge label must be an integer")
        out_edges.append((pos[a], pos[b], m))
    d = DecoratedDiagram(tuple(ids), tuple(marks), tuple(out_edges))
    classify_components(d)
    return d


def serialize_document(d: DecoratedDiagram) -> dict:
    return {
        "nodes": [
            {"id": v, "mark": "ring" if m == RING else "cross"}
            for v, m in zip(d.node_ids, d.marks)
        ],
        "edges": [
            {"a": d.node_ids[i], "b": d.node_ids[j], "m": m} for i, j, m in d.edges
        ],
    }


def _arm(d, prev, cur) -> list | None:
    """Nodes from cur to the end of its arm, walking away from prev; None at a branch."""
    out = [cur]
    while True:
        nxt = [w for w in d.neighbors(cur) if w != prev]
        if len(nxt) > 1:
            return None
        if not nxt:
            return out
        prev, cur = cur, nxt[0]
        out.append(cur)


def _classify_path(d, comp, degrees):
    """Family of a path-shaped component, or None.

    The nodes run from the end that gives the greater label sequence, the
    lesser node first on a tie.
    """
    if len(comp) == 1:
        return FamilyTag("A", 1, nodes=tuple(comp))
    ends = [v for v in comp if degrees[v] == 1]
    if len(ends) != 2:
        return None
    order = _arm(d, None, ends[0])
    labels = tuple(d.label(a, b) for a, b in itertools.pairwise(order))
    if labels[::-1] > labels:
        order, labels = order[::-1], labels[::-1]
    nodes = tuple(order)
    n = len(comp)
    if n == 2:
        k = labels[0]
        if k == 3:
            return FamilyTag("A", 2, nodes=nodes)
        return FamilyTag("I2", 2, k=k, nodes=nodes)
    if all(m == 3 for m in labels):
        return FamilyTag("A", n, nodes=nodes)
    if labels == (3, 4, 3):
        return FamilyTag("F", 4, nodes=nodes)
    if labels[0] == 4 and all(m == 3 for m in labels[1:]):
        return FamilyTag("B", n, nodes=nodes)
    if labels[0] == 5 and all(m == 3 for m in labels[1:]) and n in (3, 4):
        return FamilyTag("H", n, nodes=nodes)
    return None


def _classify_tree(d, comp, degrees):
    """Family of a component with one degree-3 branch node, or None.

    Arms are walked out from the branch node; among arms of equal length
    the one with the least node comes first.
    """
    centers = [v for v in comp if degrees[v] == 3]
    if len(centers) != 1 or any(degrees[v] > 3 for v in comp):
        return None
    if any(m != 3 for i, _, m in d.edges if i in comp):
        return None
    c = centers[0]
    arms = [_arm(d, c, w) for w in d.neighbors(c)]
    if None in arms:
        return None
    short, mid, long = sorted(arms, key=lambda arm: (len(arm), min(arm)))
    n = len(comp)
    if len(mid) == 1:
        return FamilyTag("D", n, nodes=(*long[::-1], c, *short, *mid))
    if len(short) == 1 and len(mid) == 2 and len(long) in (2, 3, 4):
        return FamilyTag("E", n, nodes=(*mid[::-1], c, *long, *short))
    return None


def classify_components(d: DecoratedDiagram) -> tuple[FamilyTag, ...]:
    """One FamilyTag per connected component, or NotFiniteType."""
    degrees = [len(d.neighbors(v)) for v in range(d.rank)]
    tags = []
    for comp in d.components():
        comp_set = set(comp)
        if all(degrees[v] <= 2 for v in comp_set):
            tag = _classify_path(d, comp, degrees)
        else:
            tag = _classify_tree(d, comp_set, degrees)
        if tag is None:
            names = ",".join(d.node_ids[v] for v in comp)
            raise NotFiniteType("component {%s} is not finite-type" % names)
        tags.append(tag)
    return tuple(tags)


# Coxeter submatrices whose orders are kept; all of the benchmark's
# library items together read about 70
ORDER_CACHE = 256


class _Submatrix:
    """Cache key: the Coxeter submatrix of d on sorted nodes, in node order.

    It hashes and compares as (rank, edges) with the nodes renumbered from 0
    in node order, so diagrams that differ only in node ids or marks share
    a key.  d and the nodes ride along, so a miss classifies the real
    (sub)diagram and NotFiniteType names its own nodes.
    """

    __slots__ = ("key", "diagram", "nodes")

    def __init__(self, d: DecoratedDiagram, nodes: list):
        pos = {v: i for i, v in enumerate(nodes)}
        edges = sorted(
            (min(pos[i], pos[j]), max(pos[i], pos[j]), m)
            for i, j, m in d.edges
            if i in pos and j in pos
        )
        self.key = (len(nodes), tuple(edges))
        self.diagram = d
        self.nodes = nodes

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@functools.lru_cache(maxsize=ORDER_CACHE)
def _coxeter_order(sub: _Submatrix) -> int:
    d = sub.diagram
    if len(sub.nodes) < d.rank:
        d = d.induced(sub.nodes)
    return math.prod(tag.order for tag in classify_components(d))


def group_order(d: DecoratedDiagram) -> int:
    """Order of the reflection group: product of component family orders."""
    return _coxeter_order(_Submatrix(d, list(range(d.rank))))


def parabolic_order(d: DecoratedDiagram, nodes) -> int:
    """|W_J| for the subgroup generated by the given node indices; 1 for none."""
    nodes = sorted({int(v) for v in nodes})
    return _coxeter_order(_Submatrix(d, nodes)) if nodes else 1


def canonical_certificate(d: DecoratedDiagram):
    """Hashable form identifying the decorated diagram up to isomorphism.

    All finite-type components are paths or the D/E trees, so a certificate
    is the sorted multiset of per-component canonical (labels, marks) data:
    a path read in the lesser of its two directions, a tree as its branch
    node's mark and its arms' marks, walked out from the branch node.
    """
    parts = []
    for tag in classify_components(d):
        nodes = tag.nodes
        if tag.family in ("D", "E"):
            c = nodes[tag.rank - 3 if tag.family == "D" else 2]
            arms = (tuple(d.marks[v] for v in _arm(d, c, w)) for w in d.neighbors(c))
            parts.append((str(tag), d.marks[c], tuple(sorted(arms, key=lambda b: (len(b), b)))))
        elif len(nodes) == 1:
            parts.append((str(tag), d.marks[nodes[0]], ()))
        else:
            labels = tuple(d.label(a, b) for a, b in itertools.pairwise(nodes))
            marks = tuple(d.marks[v] for v in nodes)
            parts.append((str(tag),) + min((labels, marks), (labels[::-1], marks[::-1])))
    return tuple(sorted(parts))


def _path(labels, marks, prefix="v"):
    n = len(marks)
    ids = tuple("%s%d" % (prefix, i + 1) for i in range(n))
    edges = tuple((i, i + 1, labels[i]) for i in range(n - 1))
    return DecoratedDiagram(ids, tuple(marks), edges)


def family_diagram(family: str, rank: int, k: int | None = None,
                   ringed=()) -> DecoratedDiagram:
    """Canonical layout of one family with rings at the given node indices.

    Layouts: A/B/F/H are paths (B has its 4 on the first edge, H its 5 on the
    first edge); D is a path v1..v(n-2) with two extra leaves on v(n-2); E is
    a path v1..v(n-1) with one extra leaf on v3.
    """
    ringed = set(ringed)
    marks = [RING if i in ringed else CROSS for i in range(rank)]
    if family == "A":
        return _path([3] * (rank - 1), marks)
    if family == "B":
        if rank < 2:
            raise ValueError("B needs rank >= 2")
        return _path([4] + [3] * (rank - 2), marks)
    if family == "H":
        if rank not in (3, 4):
            raise ValueError("H needs rank 3 or 4")
        return _path([5] + [3] * (rank - 2), marks)
    if family == "F":
        if rank != 4:
            raise ValueError("F needs rank 4")
        return _path([3, 4, 3], marks)
    if family == "I2":
        if rank != 2 or k is None or k < 3:
            raise ValueError("I2 needs rank 2 and a label k >= 3")
        return _path([k], marks)
    ids = tuple("v%d" % (i + 1) for i in range(rank))
    if family == "D":
        if rank < 4:
            raise ValueError("D needs rank >= 4")
        edges = [(i, i + 1, 3) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2, 3), (rank - 3, rank - 1, 3)]
        return DecoratedDiagram(ids, tuple(marks), tuple(edges))
    if family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E needs rank 6, 7 or 8")
        edges = [(i, i + 1, 3) for i in range(rank - 2)]
        edges += [(2, rank - 1, 3)]
        return DecoratedDiagram(ids, tuple(marks), tuple(edges))
    raise ValueError("unknown family %r" % family)


def disjoint_union(*parts: DecoratedDiagram) -> DecoratedDiagram:
    """Disjoint union; node ids are suffixed per part to stay unique."""
    ids, marks, edges = [], [], []
    for p, d in enumerate(parts):
        off = len(ids)
        ids.extend("%s.%d" % (v, p) for v in d.node_ids)
        marks.extend(d.marks)
        edges.extend((i + off, j + off, m) for i, j, m in d.edges)
    return DecoratedDiagram(tuple(ids), tuple(marks), tuple(edges))
