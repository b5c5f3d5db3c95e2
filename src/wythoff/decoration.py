"""Three-valued node decorations and the face-selection rewrite.

A decoration assigns each node 0 (crossed), 1 (active) or 2 (selected).
The start decoration of a diagram has no selected nodes: rings are 1,
crosses are 0.  Selecting an active node w turns it to 2 and activates the
crossed neighbors of w; k selections describe a rank-k face, whose mirrors
are the selected nodes.  The rewrite never places a 2 next to a 0.

This step is the one selection rule: the face types and the valid
selection sets of rank k are the values it reaches in k steps, each set
along one path; decoration_from_selection replays it on the nodes of a
selection, and the selection orderings are its maximal paths.
"""

from __future__ import annotations

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


def _selected(values: tuple) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(values) if v == SELECTED)


def _grow(d: DecoratedDiagram, values: tuple, nodes: set) -> tuple:
    """Select the nodes in nodes as they turn active, until none is left to select."""
    todo = [w for w in nodes if values[w] == ACTIVE]
    while todo:
        w = todo.pop()
        old, values = values, _select(d, values, w)
        todo += [u for u in d.neighbors(w) if u in nodes and old[u] != values[u]]
    return values


def _children(d: DecoratedDiagram, vals: tuple, options: tuple, room: int, need: int):
    """The states one rewrite step on that can still make need more steps.

    A state is (values, options, room): options are the active nodes it may
    still select, room the nodes neither selected nor passed over, so at
    least those it can still reach.  Selecting option i passes over the
    options before it for good, so each selection set is reached along
    exactly one path.
    """
    for i, w in enumerate(options[: max(0, room - need + 1)]):
        new = _select(d, vals, w)
        woken = tuple(u for u in d.neighbors(w) if new[u] != vals[u])
        yield new, options[i + 1:] + woken, room - 1 - i


def valid_selection_sets(start: Decoration, k: int) -> list[frozenset]:
    """Selections of the decorations reachable from start in k rewrite steps.

    They come in sorted order, [] for k beyond the rank and a ValueError
    for negative k.  Each induced component of such a selection holds a
    ring, and every size-k set that does is one: that closed form is kept
    as the oracle in tests/oracles.py.
    """
    return [frozenset(sel) for _, level in _levels(start, [k]) for sel, _ in level]


def decoration_from_selection(start: Decoration, s) -> Decoration:
    """Decoration with selection s, selecting its nodes as they turn active.

    InvalidS names a node outside 0..n-1 or not an integer, and a selection
    with a node that never turns active, that is, a ringless component.
    """
    d, nodes, n = start.diagram, set(s), start.diagram.rank
    for v in nodes:
        if not (hasattr(v, "__index__") and 0 <= v < n):
            raise InvalidS(f"node {v!r} is not one of 0..{n - 1}")
    vals = _grow(d, start.values, nodes)
    if vals.count(SELECTED) < len(nodes):
        raise InvalidS("selection %s has a ringless component" % sorted(nodes))
    return Decoration(d, vals)


def _levels(start: Decoration, ranks):
    """(rank, [(selection, values), ...] in sorted order) for each rank in ranks.

    The ranks are reached by rewrite steps from start, one level at a time,
    no further than the rank read, and only along paths that can still
    reach it: so a high rank costs about its faces, not every face below.
    """
    d, vals = start.diagram, start.values
    root = (vals, tuple(w for w, v in enumerate(vals) if v == ACTIVE), d.rank)
    level, states = 0, [root]
    for k in ranks:
        if k < 0:
            raise ValueError(f"rank {k} is negative")
        if k < level or not states:  # past k, or emptied by pruning for a higher rank
            level, states = 0, [root]
        while level < k and states:
            states = [c for state in states for c in _children(d, *state, k - level)]
            level += 1
        yield k, sorted((_selected(state[0]), state[0]) for state in states)


def face_types(start: Decoration, ranks):
    """(rank, selection, decoration) of every face type of the given ranks.

    Within a rank the selections come in sorted order; face ids are
    numbered in this order.  Each rank is grown only when it is read.
    """
    for k, level in _levels(start, ranks):
        for sel, vals in level:
            yield k, frozenset(sel), Decoration(start.diagram, vals)


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


def selection_orderings(start: Decoration):
    """Every full selection order (maximal rewrite chain) from start, lazily.

    Each ordering lists the nodes in selection order; its prefixes are the
    selections of the faces along one maximal chain of the face lattice.
    The search is depth first, lower nodes first, on an explicit stack.
    """
    d, last, stack = start.diagram, start.diagram.rank - 1, [(start.values, ())]
    while stack:
        vals, prefix = stack.pop()
        active = [w for w, v in enumerate(vals) if v == ACTIVE]
        if len(prefix) == last:  # the one node left ends the ordering, no step needed
            yield from (prefix + (w,) for w in active)
        else:
            stack += [(_select(d, vals, w), prefix + (w,)) for w in reversed(active)]


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
