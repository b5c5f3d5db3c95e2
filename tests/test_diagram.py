import copy
import json
import pickle
from dataclasses import make_dataclass

import numpy as np
import pytest

from oracles import is_positive_definite_gram
from wythoff import diagram
from wythoff.decoration import Decoration, start_decoration
from wythoff.diagram import (
    CROSS,
    RING,
    DecoratedDiagram,
    FamilyTag,
    canonical_certificate,
    classify_components,
    diagram_from_document,
    disjoint_union,
    family_diagram,
    group_order,
    parabolic_order,
    parse,
    serialize_document,
    serialize_inline,
)
from wythoff.errors import NotFiniteType, ParseError
from wythoff.reflection_group import gram_matrix
from wythoff.regular import RuledVerdict, ruled_verdict


def test_inline_round_trip():
    for text in ["x4o3o", "o3x4x", "x", "o5o3x", "x3x3x3x"]:
        d = parse(text)
        assert serialize_inline(d) == text


def test_document_round_trip():
    d = family_diagram("D", 4, ringed=(1,))
    doc = serialize_document(d)
    back = diagram_from_document(doc)
    assert back.marks == d.marks
    assert back.node_ids == d.node_ids
    assert set(back.edges) == set(d.edges)


def test_json_text_parses():
    doc = serialize_document(family_diagram("E", 6, ringed=(0,)))
    d = parse(json.dumps(doc))
    assert str(classify_components(d)[0]) == "E6"


@pytest.mark.parametrize(
    "bad", ["", "x9z", "ox", "3x3", "x2x", "x1x", "xx"]
)
def test_inline_rejects(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_document_rejects_duplicate_ids():
    doc = {"nodes": [{"id": "a", "mark": "ring"}, {"id": "a", "mark": "cross"}], "edges": []}
    with pytest.raises(ParseError):
        diagram_from_document(doc)


@pytest.mark.parametrize("edges", [None, 5, {}, "ab"])
def test_document_rejects_edges_that_are_not_a_list(edges):
    doc = {"nodes": [{"id": "a", "mark": "ring"}], "edges": edges}
    with pytest.raises(ParseError, match="'edges' must be a list"):
        diagram_from_document(doc)


def test_document_rejects_unknown_edge_endpoint():
    doc = {
        "nodes": [{"id": "a", "mark": "ring"}],
        "edges": [{"a": "a", "b": "zzz", "m": 3}],
    }
    with pytest.raises(ParseError):
        diagram_from_document(doc)


def test_document_rejects_low_label():
    doc = {
        "nodes": [{"id": "a", "mark": "ring"}, {"id": "b", "mark": "cross"}],
        "edges": [{"a": "a", "b": "b", "m": 2}],
    }
    with pytest.raises(ParseError):
        diagram_from_document(doc)


@pytest.mark.parametrize(
    "text,tag",
    [
        ("x", "A1"),
        ("x3o", "A2"),
        ("x4o", "I2(4)"),
        ("x7o", "I2(7)"),
        ("x3o3o3o", "A4"),
        ("x4o3o3o", "B4"),
        ("o3o3o4x", "B4"),
        ("x3o4o3o", "F4"),
        ("x5o3o", "H3"),
        ("x5o3o3o", "H4"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_path_classification(text, tag):
    assert str(classify_components(parse(text))[0]) == tag


def test_branched_classification():
    for fam, rank in [("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        d = family_diagram(fam, rank, ringed=(0,))
        assert str(classify_components(d)[0]) == f"{fam}{rank}"


@pytest.mark.parametrize(
    "text",
    ["x5o3o3o3o", "x5x5x", "x6o3o", "x5o5o", "x4o4o"],
)
def test_non_finite_paths_rejected(text):
    with pytest.raises(NotFiniteType):
        parse(text)


def test_non_finite_branched_rejected():
    # branch arms (1, 2, 5) would be E9
    path = [f"v{i}" for i in range(8)]
    nodes = [{"id": p, "mark": "cross"} for p in path] + [{"id": "leaf", "mark": "ring"}]
    edges = [{"a": path[i], "b": path[i + 1], "m": 3} for i in range(7)]
    edges.append({"a": path[2], "b": "leaf", "m": 3})
    with pytest.raises(NotFiniteType):
        diagram_from_document({"nodes": nodes, "edges": edges})


def test_cycle_rejected():
    nodes = [{"id": c, "mark": "ring"} for c in "abc"]
    edges = [
        {"a": "a", "b": "b", "m": 3},
        {"a": "b", "b": "c", "m": 3},
        {"a": "c", "b": "a", "m": 3},
    ]
    with pytest.raises(NotFiniteType):
        diagram_from_document({"nodes": nodes, "edges": edges})


def test_degree_four_rejected():
    nodes = [{"id": f"n{i}", "mark": "ring"} for i in range(5)]
    edges = [{"a": "n0", "b": f"n{i}", "m": 3} for i in range(1, 5)]
    with pytest.raises(NotFiniteType):
        diagram_from_document({"nodes": nodes, "edges": edges})


def test_group_orders_by_family():
    import math

    for n in range(1, 7):
        assert group_order(family_diagram("A", n)) == math.factorial(n + 1)
    for n in range(3, 7):
        assert group_order(family_diagram("B", n)) == 2**n * math.factorial(n)
    for n in range(4, 8):
        assert group_order(family_diagram("D", n)) == 2 ** (n - 1) * math.factorial(n)
    for k in range(3, 10):
        assert group_order(family_diagram("I2", 2, k=k)) == 2 * k
    assert group_order(family_diagram("H", 3)) == 120
    assert group_order(family_diagram("H", 4)) == 14400
    assert group_order(family_diagram("F", 4)) == 1152
    assert group_order(family_diagram("E", 6)) == 51840
    assert group_order(family_diagram("E", 7)) == 2903040
    assert group_order(family_diagram("E", 8)) == 696729600


def test_disconnected_order_is_product():
    d = disjoint_union(family_diagram("B", 3), family_diagram("A", 2))
    assert group_order(d) == 48 * 6
    assert len(classify_components(d)) == 2


def test_gram_positive_definite_iff_finite():
    finite = [parse("x4o3o"), parse("x5o3o3o"), family_diagram("E", 8)]
    for d in finite:
        assert is_positive_definite_gram(d)
    # the (5, 5) label pair is a hyperbolic diagram; build it unvalidated
    from wythoff.diagram import DecoratedDiagram

    bad = DecoratedDiagram(("a", "b", "c"), (1, 0, 0), ((0, 1, 5), (1, 2, 5)))
    assert not is_positive_definite_gram(bad)


def test_gram_values():
    d = parse("x4o3o")
    g = gram_matrix(d)
    assert g[0, 1] == pytest.approx(-np.cos(np.pi / 4))
    assert g[1, 2] == pytest.approx(-0.5)
    assert g[0, 2] == pytest.approx(0.0)
    assert np.allclose(np.diag(g), 1.0)


def test_certificate_ignores_orientation_and_layout():
    assert canonical_certificate(parse("x4o3o")) == canonical_certificate(parse("o3o4x"))
    assert canonical_certificate(parse("x4o3o")) != canonical_certificate(parse("o4o3x"))
    # D4 leaves are interchangeable
    a = family_diagram("D", 4, ringed=(0,))
    b = family_diagram("D", 4, ringed=(2,))
    assert canonical_certificate(a) == canonical_certificate(b)
    c = family_diagram("D", 4, ringed=(1,))
    assert canonical_certificate(a) != canonical_certificate(c)


def test_classification_reads_nodes_in_layout_order():
    layouts = (
        [("A", n, None) for n in range(1, 9)]
        + [("B", n, None) for n in range(2, 9)]
        + [("D", n, None) for n in range(5, 9)]
        + [("E", n, None) for n in (6, 7, 8)]
        + [("F", 4, None), ("H", 3, None), ("H", 4, None)]
        + [("I2", 2, k) for k in (3, 4, 5, 12, 999)]
    )
    for family, rank, k in layouts:
        (tag,) = classify_components(family_diagram(family, rank, k=k))
        assert tag.nodes == tuple(range(rank)), (family, rank, k)
    # D4's three leaves are interchangeable; its branch node is still at 1
    (tag,) = classify_components(family_diagram("D", 4))
    assert tag.nodes[1] == 1 and sorted(tag.nodes) == [0, 1, 2, 3]


def test_family_diagram_ring_positions():
    d = family_diagram("B", 4, ringed=(0,))
    assert d.label(0, 1) == 4 and d.marks[0] == 1
    h = family_diagram("H", 4, ringed=(3,))
    assert h.label(0, 1) == 5 and h.marks[3] == 1


def test_orders_are_classified_once_per_submatrix(monkeypatch):
    # the same Coxeter matrix under other node ids and marks, its edges
    # listed in another order and orientation, shares every cached order
    a = parse("x4o3o")
    b = DecoratedDiagram(("p", "q", "r"), (CROSS, RING, CROSS), ((2, 1, 3), (1, 0, 4)))
    calls = []
    monkeypatch.setattr(
        diagram, "classify_components", lambda d: calls.append(d.node_ids) or classify_components(d)
    )
    diagram._coxeter_order.cache_clear()
    assert group_order(a) == group_order(b) == 48
    assert parabolic_order(a, [1, 2]) == parabolic_order(b, (2, 1)) == 6
    assert parabolic_order(a, [0, 2]) == parabolic_order(b, {2, 0}) == 4
    assert parabolic_order(a, []) == 1
    assert calls == [a.node_ids, ("v2", "v3"), ("v1", "v3")]


def test_a_non_finite_order_names_its_own_nodes():
    # an affine A2 triangle on nodes 1..3 beside a fourth node
    edges = ((0, 1, 3), (1, 2, 3), (2, 3, 3), (1, 3, 3))
    for ids in (("a", "b", "c", "d"), ("w", "x", "y", "z")):
        d = DecoratedDiagram(ids, (RING,) * 4, edges)
        assert parabolic_order(d, [0, 1]) == 6
        with pytest.raises(NotFiniteType, match="{%s}" % ",".join(ids)):
            group_order(d)
        with pytest.raises(NotFiniteType, match="{%s}" % ",".join(ids[1:])):
            parabolic_order(d, [3, 2, 1])


# each record class: (a record, one that differs from it in one field)
RECORDS = {
    "FamilyTag": lambda: (
        classify_components(parse("x4o3o"))[0],
        FamilyTag("B", 3, None, (2, 1, 0)),
    ),
    "DecoratedDiagram": lambda: (parse("x3x4o"), parse("x3x4x")),
    "Decoration": lambda: (
        start_decoration(parse("x3x4o")),
        Decoration(parse("x3x4o"), (2, 1, 0)),
    ),
    "RuledVerdict": lambda: (ruled_verdict(parse("o3x4x")), ruled_verdict(parse("x3o4x"))),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_behave_as_frozen_dataclasses(name):
    rec, other = RECORDS[name]()
    again = RECORDS[name]()[0]
    assert type(rec).__name__ == name
    values = tuple(getattr(rec, f) for f in rec._fields)
    # a frozen dataclass of the same fields is the reference for repr and hash
    ref = make_dataclass(name, rec._fields, frozen=True)(*values)
    assert repr(rec) == repr(ref)
    assert rec == again and hash(rec) == hash(again) == hash(ref)
    assert rec != values and rec != ref and rec != other
    assert sum(getattr(rec, f) != getattr(other, f) for f in rec._fields) == 1
    for f in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, getattr(other, f))
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert tuple(getattr(rec, f) for f in rec._fields) == values
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert twin == rec and hash(twin) == hash(rec) and repr(twin) == repr(rec)


def test_a_diagram_repr_lists_its_fields_only():
    d = parse("x3x4o")
    assert repr(d) == (
        "DecoratedDiagram(node_ids=('v1', 'v2', 'v3'), marks=(1, 1, 0), "
        "edges=((0, 1, 3), (1, 2, 4)))"
    )
    twin = pickle.loads(pickle.dumps(d))
    assert twin.neighbors(1) == (0, 2) and twin.label(2, 1) == 4
    assert copy.copy(d).components() == d.components()
