import pytest

from oracles import NotApplicable, reachable_decorations, select_node
from wythoff.decoration import (
    ACTIVE,
    CROSSED,
    SELECTED,
    Decoration,
    decoration_from_selection,
    face_restriction,
    is_degenerate,
    require_nondegenerate,
    selection_orderings,
    start_decoration,
    valid_selection_sets,
)
from wythoff.diagram import disjoint_union, family_diagram, parse
from wythoff.errors import Degenerate, InvalidS


def test_start_decoration_reads_marks():
    dec = start_decoration(parse("x4o3o"))
    assert dec.values == (ACTIVE, CROSSED, CROSSED)
    assert dec.rank == 0


def test_select_requires_active():
    dec = start_decoration(parse("x4o3o"))
    with pytest.raises(NotApplicable):
        select_node(dec, 1)  # crossed
    once = select_node(dec, 0)
    with pytest.raises(NotApplicable):
        select_node(once, 0)  # already selected


def test_select_activates_crossed_neighbors_only():
    dec = start_decoration(parse("o3x4x"))
    out = select_node(dec, 1)
    # node 0 was crossed and adjacent to the selected node: now active;
    # node 2 was already active and stays so
    assert out.values == (ACTIVE, SELECTED, ACTIVE)
    far = select_node(start_decoration(parse("x3o3o")), 0)
    assert far.values == (SELECTED, ACTIVE, CROSSED)


def test_no_selected_next_to_crossed_invariant():
    d = parse("x3o3o3o")
    dec = start_decoration(d)
    frontier = [dec]
    seen = set()
    while frontier:
        cur = frontier.pop()
        for i, j, _ in d.edges:
            pair = {cur.values[i], cur.values[j]}
            assert pair != {SELECTED, CROSSED}
        for w in range(d.rank):
            if cur.values[w] == ACTIVE:
                nxt = select_node(cur, w)
                if nxt.values not in seen:
                    seen.add(nxt.values)
                    frontier.append(nxt)


def test_decoration_rejects_selected_next_to_crossed():
    d = parse("x3o")
    with pytest.raises(InvalidS):
        Decoration(d, (SELECTED, CROSSED))


@pytest.mark.parametrize(
    "text,k,expected",
    [
        ("x4o3o", 1, 1),
        ("x4o3o", 2, 1),
        ("o3x4x", 2, 2),
        ("x3x3x", 1, 3),
        ("x3x3x", 2, 3),
    ],
)
def test_valid_selection_counts(text, k, expected):
    start = start_decoration(parse(text))
    assert len(valid_selection_sets(start, k)) == expected


def test_selection_needs_ring_in_every_component():
    start = start_decoration(parse("x3o3o"))
    with pytest.raises(InvalidS):
        decoration_from_selection(start, frozenset({2}))
    both_ends = start_decoration(parse("x3o3x"))
    ok = decoration_from_selection(both_ends, frozenset({0, 2}))
    assert ok.values == (SELECTED, ACTIVE, SELECTED)


def test_reachable_equals_selection_images():
    for base in [
        parse("o3x4x"),
        parse("x3o3x"),
        family_diagram("D", 4, ringed=(1,)),
        disjoint_union(parse("x4o"), parse("x")),
    ]:
        start = start_decoration(base)
        for k in range(base.rank + 1):
            reach = reachable_decorations(start, k)
            built = {
                decoration_from_selection(start, s)
                for s in valid_selection_sets(start, k)
            }
            assert reach == built


@pytest.mark.parametrize(
    "diagram,count",
    [
        (parse("x4o3o"), 1),
        (parse("o3x4x"), 3),
        (parse("x3x"), 2),
        (parse("x3x3x"), 6),
        (family_diagram("D", 4, ringed=(1,)), 6),
        (family_diagram("B", 4, ringed=(2,)), 3),
    ],
)
def test_selection_ordering_counts(diagram, count):
    assert len(selection_orderings(start_decoration(diagram))) == count


def test_orderings_are_valid_chains():
    start = start_decoration(parse("o3x4x"))
    for ordering in selection_orderings(start):
        cur = start
        for w in ordering:
            cur = select_node(cur, w)
        assert cur.rank == 3


def test_degenerate_detection():
    assert is_degenerate(parse("o3o"))
    assert is_degenerate(disjoint_union(parse("x"), parse("o")))
    assert not is_degenerate(parse("x3o"))
    with pytest.raises(Degenerate):
        require_nondegenerate(parse("o4o3o"))


def test_face_restriction_keeps_marks_and_labels():
    d = parse("o3x4x")
    start = start_decoration(d)
    sub = face_restriction(start, frozenset({1, 2}))
    assert sub.rank == 2
    assert sub.label(0, 1) == 4
    assert sub.marks == (1, 1)
    tri = face_restriction(start, frozenset({0, 1}))
    assert tri.label(0, 1) == 3
    assert tri.marks == (0, 1)
