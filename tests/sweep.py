"""Shared diagram sweep for the structural test batteries."""

from itertools import chain, combinations

from wythoff.diagram import disjoint_union, family_diagram, parse


def sweep_diagrams():
    """Connected finite families small enough to enumerate quickly."""
    out = []
    for n in range(1, 7):
        out.append(family_diagram("A", n))
    for n in range(3, 6):
        out.append(family_diagram("B", n))
    for n in (4, 5):
        out.append(family_diagram("D", n))
    out.append(family_diagram("H", 3))
    out.append(family_diagram("H", 4))
    out.append(family_diagram("F", 4))
    for k in range(3, 13):
        out.append(family_diagram("I2", 2, k=k))
    return out


def sweep_products():
    """The two-component prisms and duoprisms of the benchmark's sweep."""
    pairs = [
        ("x", "x3o"), ("x", "x5o"), ("x", "x3o3o"), ("x", "x4o3o"),
        ("x", "o3x4o"), ("x", "x5o3o"), ("x3o", "x4o"), ("x4o", "x4o"),
        ("x5o", "x6o"), ("x3x", "x4o"), ("x8o", "x3o"), ("x3o", "x3o3o"),
    ]
    return [disjoint_union(parse(a), parse(b)) for a, b in pairs]


def ring_subsets(n):
    """All non-empty ring sets; on a connected diagram none is degenerate."""
    return chain.from_iterable(combinations(range(n), r) for r in range(1, n + 1))


def decorated_variants(base):
    for rings in ring_subsets(base.rank):
        yield base.with_marks(tuple(1 if i in rings else 0 for i in range(base.rank)))
