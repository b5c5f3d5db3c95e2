import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NotApplicable,
    decoration_by_formula,
    ordering_count,
    reachable_decorations,
    select_node,
    selection_sets_by_components,
)
from wythoff.decoration import (
    ACTIVE,
    CROSSED,
    SELECTED,
    Decoration,
    decoration_from_selection,
    face_restriction,
    face_types,
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


def test_valid_selection_sets_edges():
    start = start_decoration(parse("x3o3o"))
    with pytest.raises(ValueError):
        valid_selection_sets(start, -1)
    assert valid_selection_sets(start, 3) == [frozenset({0, 1, 2})]
    assert valid_selection_sets(start, 4) == []
    assert valid_selection_sets(start, 10**9) == []


def test_top_ranks_of_an_all_ringed_diagram():
    start = start_decoration(parse("x" + "3x" * 11))
    assert valid_selection_sets(start, 12) == [frozenset(range(12))]
    assert valid_selection_sets(start, 11) == [frozenset(range(12)) - {v} for v in range(11, -1, -1)]
    assert len(valid_selection_sets(start, 10)) == 66


@pytest.mark.parametrize("s,node", [({7}, "7"), ({0, 0.5}, "0.5"), ({-1}, "-1"), (["1"], "'1'")])
def test_selection_nodes_outside_the_diagram_are_refused(s, node):
    start = start_decoration(parse("x3o3o"))
    with pytest.raises(InvalidS, match=r"node %s is not one of 0\.\.2" % node):
        decoration_from_selection(start, s)


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
    assert len(list(selection_orderings(start_decoration(diagram)))) == count


def test_orderings_are_valid_chains():
    start = start_decoration(parse("o3x4x"))
    for ordering in selection_orderings(start):
        cur = start
        for w in ordering:
            cur = select_node(cur, w)
        assert cur.rank == 3


_FAMILIES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("H", 3), ("H", 4), ("I2", 2)]
)


def _family(draw, room):
    family, n = draw(st.sampled_from([f for f in _FAMILIES if f[1] <= room]))
    return family_diagram(family, n, k=draw(st.integers(3, 12)) if family == "I2" else None)


@st.composite
def decorated_diagrams(draw):
    """A finite-type family or a union of two, up to rank 8, with random rings."""
    d = _family(draw, 8)
    if d.rank < 8 and draw(st.booleans()):
        d = disjoint_union(d, _family(draw, 8 - d.rank))
    return d.with_marks(draw(st.lists(st.sampled_from((0, 1)), min_size=d.rank, max_size=d.rank)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(d=decorated_diagrams(), data=st.data())
def test_rewrite_layers_match_the_closed_form(d, data):
    start = start_decoration(d)
    for k in range(d.rank + 2):
        assert valid_selection_sets(start, k) == selection_sets_by_components(start, k), k
        for s in valid_selection_sets(start, k):
            assert decoration_from_selection(start, s) == decoration_by_formula(start, s)
    s = data.draw(st.sets(st.integers(0, d.rank - 1)))
    try:
        want = decoration_by_formula(start, s)
    except InvalidS:
        with pytest.raises(InvalidS):
            decoration_from_selection(start, s)
    else:
        assert decoration_from_selection(start, s) == want
    assert sum(1 for _ in selection_orderings(start)) == ordering_count(start)
    # ranks in any order, repeated: each is searched again where the last was higher
    ranks = data.draw(st.lists(st.integers(0, d.rank + 1), max_size=6))
    assert list(face_types(start, ranks)) == [
        (k, s, decoration_by_formula(start, s))
        for k in ranks for s in selection_sets_by_components(start, k)
    ]


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
