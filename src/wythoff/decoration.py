"""Three-valued node decorations and the face-selection rewrite.

A decoration assigns each node 0 (crossed), 1 (active) or 2 (selected).
The start decoration of a diagram has no selected nodes: rings are 1,
crosses are 0.  Selecting an active node w turns it to 2 and activates the
crossed neighbors of w; k selections describe a rank-k face, whose mirrors
are the selected nodes.  The rewrite never places a 2 next to a 0.
"""

from __future__ import annotations

from itertools import combinations

from .diagram import CROSS, RING, DecoratedDiagram, Record, group_order, parabolic_order
from .errors import Degenerate, InvalidS

CROSSED = 0
ACTIVE = 1
SELECTED = 2


class Decoration(Record):
    _fields = ("diagram", "values")

    def __init__(self, diagram: DecoratedDiagram, values: tuple[int, ...]):
        super().__init__(diagram, values)
        if len(self.values) != self.diagram.rank:
            raise ValueError("one value per node required")
        if any(v not in (0, 1, 2) for v in self.values):
            raise ValueError("values must be 0, 1 or 2")
        for i, j, _ in self.diagram.edges:
            a, b = self.values[i], self.values[j]
            if (a, b) in ((0, 2), (2, 0)):
                raise InvalidS("selected node adjacent to crossed node")

    @property
    def rank(self) -> int:
        return sum(1 for v in self.values if v == SELECTED)

    @property
    def selection(self) -> frozenset:
        return frozenset(i for i, v in enumerate(self.values) if v == SELECTED)

    def stabilizer_nodes(self) -> tuple[int, ...]:
        """Generators of the face stabilizer: every node not valued 1."""
        return tuple(i for i, v in enumerate(self.values) if v != ACTIVE)


def start_decoration(d: DecoratedDiagram) -> Decoration:
    """Rank-0 decoration read off the diagram marks (ring=1, cross=0)."""
    return Decoration(d, tuple(ACTIVE if m == RING else CROSSED for m in d.marks))


def is_degenerate(d: DecoratedDiagram) -> bool:
    """True when some connected component carries no ring."""
    return any(
        all(d.marks[v] == CROSS for v in comp) for comp in d.components()
    )


def require_nondegenerate(d: DecoratedDiagram):
    if is_degenerate(d):
        raise Degenerate("every component needs at least one ringed node")


def _select(d: DecoratedDiagram, values: tuple, w: int) -> tuple:
    """The rewrite step on values: w becomes 2, crossed neighbors of w become 1."""
    new = list(values)
    new[w] = SELECTED
    for u in d.neighbors(w):
        if new[u] == CROSSED:
            new[u] = ACTIVE
    return tuple(new)


def valid_selection_sets(start: Decoration, k: int) -> list[frozenset]:
    """Size-k node sets whose induced components each contain a ring.

    Closed-form counterpart of the rewrite BFS (reachable_decorations in
    tests/oracles.py): the rank-k decorations reachable by k selections
    are exactly decoration_from_selection over these sets.
    """
    d = start.diagram
    ringed = _ringed(start)
    out = []
    for combo in combinations(range(d.rank), k):
        if _selection_ok(d, set(combo), ringed):
            out.append(frozenset(combo))
    return out


def _ringed(start: Decoration) -> set:
    return {v for v, val in enumerate(start.values) if val == ACTIVE}


def _selection_ok(d, s, ringed):
    todo = set(s)
    while todo:
        v = todo.pop()
        comp, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in d.neighbors(u):
                if w in s and w not in comp:
                    comp.add(w)
                    stack.append(w)
        if not (comp & ringed):
            return False
        todo -= comp
    return True


def decoration_from_selection(start: Decoration, s) -> Decoration:
    """Decoration with selection s: 2 on s, 1 on rings and neighbors of s."""
    d = start.diagram
    s = frozenset(int(v) for v in s)
    ringed = _ringed(start)
    if not _selection_ok(d, set(s), ringed):
        raise InvalidS("selection %s has a ringless component" % sorted(s))
    return Decoration(d, _selected_values(d, s, ringed))


def _selected_values(d, s, ringed) -> tuple:
    """2 on s, 1 on rings and neighbors of s, 0 elsewhere."""
    return tuple(
        SELECTED if v in s
        else ACTIVE if v in ringed or any(w in s for w in d.neighbors(v))
        else CROSSED
        for v in range(d.rank)
    )


def face_types(start: Decoration, ranks):
    """(rank, selection, decoration) of every face type of the given ranks.

    Within a rank the selections come in sorted order; face ids are
    numbered in this order.  The selections are valid_selection_sets', so
    they are not checked again.
    """
    d = start.diagram
    ringed = _ringed(start)
    for k in ranks:
        for sel in sorted(valid_selection_sets(start, k), key=sorted):
            yield k, sel, Decoration(d, _selected_values(d, sel, ringed))


def orbit_size(dec: Decoration, order: int) -> int:
    """Faces of this type, |G| / |W_J|, given order = |G|.

    W_J is the face stabilizer, generated by the nodes not valued 1; it is
    trivial when every node is.  |W_J| is read from diagram's cache of
    Coxeter orders (parabolic_order), so each is classified once.
    """
    return order // parabolic_order(dec.diagram, dec.stabilizer_nodes())


def f_vector_formula(d: DecoratedDiagram) -> tuple[int, ...]:
    """Face counts by orbit-stabilizer arithmetic only (no enumeration).

    f_k sums |G| / |W_J| over the rank-k selections, J each one's
    stabilizer nodes, so it works for groups far beyond any enumeration
    budget.  Both orders come from diagram's cache of Coxeter orders.
    """
    require_nondegenerate(d)
    total = group_order(d)
    out = [0] * d.rank
    for k, _, dec in face_types(start_decoration(d), range(d.rank)):
        out[k] += orbit_size(dec, total)
    return tuple(out)


def selection_orderings(start: Decoration) -> list[tuple[int, ...]]:
    """All full selection orders (maximal rewrite chains) from start.

    Each ordering lists the nodes in selection order; its prefixes are the
    selections of the faces along one maximal chain of the face lattice.
    """
    d = start.diagram
    out = []

    def rec(vals, prefix):
        if len(prefix) == d.rank:
            out.append(tuple(prefix))
            return
        for w, val in enumerate(vals):
            if val == ACTIVE:
                rec(_select(d, vals, w), prefix + [w])

    rec(start.values, [])
    return out


def face_restriction(start: Decoration, s) -> DecoratedDiagram:
    """Diagram of the rank-|s| face: induced subdiagram with start marks.

    The face with selection s is itself built by Wythoff's construction on
    this decorated subdiagram.
    """
    s = sorted(set(int(v) for v in s))
    d = start.diagram
    sub = d.induced(s)
    marks = tuple(RING if start.values[v] == ACTIVE else CROSS for v in s)
    return sub.with_marks(marks)
