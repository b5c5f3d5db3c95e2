"""Shared diagram sweep for the structural test batteries."""

import importlib.util
from itertools import chain, combinations
from pathlib import Path

from wythoff.diagram import disjoint_union, family_diagram, parse


def benchmark_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def rank_34_diagrams():
    """Every decoration of the rank-3 and rank-4 sweep families, plus boxes."""
    for base in sweep_diagrams():
        if base.rank in (3, 4):
            yield from decorated_variants(base)
    boxes = [
        disjoint_union(parse("x"), parse("x"), parse("x")),
        disjoint_union(parse("x4o"), parse("x")),
        disjoint_union(parse("o4x"), parse("x")),
        disjoint_union(parse("x3o"), parse("x")),
        disjoint_union(parse("x3x"), parse("x")),
        disjoint_union(parse("x5o"), parse("x")),
        disjoint_union(parse("x"), parse("x"), parse("x"), parse("x")),
        disjoint_union(parse("x4o"), parse("x"), parse("x")),
        disjoint_union(parse("x4o"), parse("x4o")),
        disjoint_union(parse("x4o3o"), parse("x")),
        disjoint_union(parse("o4o3x"), parse("x")),
        disjoint_union(parse("x3o"), parse("x3o")),
    ]
    yield from boxes


def big_group_diagrams():
    """The benchmark's big_group items: A7, B6 and E6, each ringed at one end."""
    return [parse("x3o3o3o3o3o3o"), parse("x4o3o3o3o3o"), family_diagram("E", 6, ringed=(0,))]


def orbit_diagrams():
    """The benchmark's orbit items: seven H4 ring sets, 720 to 7200 vertices."""
    texts = ("o5o3x3o", "o5x3o3o", "o5o3x3x", "x5x3o3o", "x5o3o3x", "o5x3o3x", "o5x3x3x")
    return [parse(t) for t in texts]


def ring_subsets(n):
    """All non-empty ring sets; on a connected diagram none is degenerate."""
    return chain.from_iterable(combinations(range(n), r) for r in range(1, n + 1))


def decorated_variants(base):
    for rings in ring_subsets(base.rank):
        yield base.with_marks(tuple(1 if i in rings else 0 for i in range(base.rank)))
