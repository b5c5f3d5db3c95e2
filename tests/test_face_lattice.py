import ast
import gc
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    _flag_graph_direct,
    compose,
    coset_pairs_by_sort,
    face_rank,
    flag_moves_by_search,
    flag_rows,
    generator_face_actions,
    vertex_figure,
)
from sweep import (
    benchmark_workloads,
    decorated_variants,
    rank_34_diagrams,
    sweep_diagrams,
    sweep_products,
)
from wythoff import face_lattice, reflection_group
from wythoff.cli import main
from wythoff.decoration import f_vector_formula, selection_orderings, start_decoration
from wythoff.diagram import disjoint_union, family_diagram, group_order, parse
from wythoff.errors import DedupCollision, Degenerate, WythoffError
from wythoff.face_lattice import (
    FaceLattice,
    build_lattice,
    diamond_report,
    euler_ok,
    flag_partners,
    flag_report,
    lattice_document,
    lattices_isomorphic,
)
from wythoff.geometry import realize
from wythoff.reflection_group import Group, _coset_minima

KNOWN_F_VECTORS = {
    "x": (2,),
    "x5o": (5, 5),
    "x3x": (6, 6),
    "x3o3o": (4, 6, 4),
    "x4o3o": (8, 12, 6),
    "o4o3x": (6, 12, 8),
    "o3x3o": (6, 12, 8),
    "x5o3o": (20, 30, 12),
    "o5o3x": (12, 30, 20),
    "o3x4x": (24, 36, 14),
    "x3x3o": (12, 18, 8),
    "x3o3o3o": (5, 10, 10, 5),
    "x3o4o3o": (24, 96, 96, 24),
    "o5o3o3x": (120, 720, 1200, 600),
    "x5o3o3o": (600, 1200, 720, 120),
}


@pytest.mark.parametrize("text,fv", KNOWN_F_VECTORS.items(), ids=KNOWN_F_VECTORS)
def test_known_f_vectors(shared, text, fv):
    lat = shared.lattice(parse(text))
    assert lat.f_vector == fv
    assert f_vector_formula(parse(text)) == fv


def test_box_product_f_vectors(shared):
    square = disjoint_union(parse("x"), parse("x"))
    assert shared.lattice(square).f_vector == (4, 4)
    prism = disjoint_union(parse("x4o"), parse("x"))
    assert shared.lattice(prism).f_vector == (8, 12, 6)
    hexprism = disjoint_union(parse("x3x"), parse("x"))
    assert shared.lattice(hexprism).f_vector == (12, 18, 8)


def test_formula_without_enumeration_for_huge_groups():
    e8 = family_diagram("E", 8, ringed=(6,))
    assert f_vector_formula(e8)[0] == 240  # orbit of the end node under E8/E7


def test_degenerate_rejected():
    with pytest.raises(Degenerate):
        build_lattice(parse("o3o"))


def test_euler_and_diamond_across_samples(shared):
    for text in KNOWN_F_VECTORS:
        lat = shared.lattice(parse(text))
        assert euler_ok(lat), text
        rep = diamond_report(lat)
        assert rep.ok and rep.pairs_checked > 0, text


def test_diamond_counts_covers_per_slot_pair(shared):
    lat = shared.lattice(parse("x4o3o"))
    assert diamond_report(lat).cover_mismatches == []
    # every edge -> square cover dropped: no (vertex, square) pair is left
    # to count faces between, so only the per-slot-pair count sees it
    bad = FaceLattice(lat.diagram, lat.start, lat.group, lat.slots_by_rank)
    none = np.empty(0, dtype=np.int64)
    bad.cover_blocks = [
        (lo, hi, none, none) if lo.rank == 1 else (lo, hi, i, j)
        for lo, hi, i, j in lat.cover_blocks
    ]
    rep = diamond_report(bad)
    assert rep.violations == []
    assert rep.cover_mismatches == [([0], [0, 1], 0, 24)]
    assert not rep.ok


def test_diamond_counts_covers_per_face(shared):
    lat = shared.lattice(parse("x4o3o"))
    # one edge -> square cover moved onto another square: every block
    # total stays right, and two squares have 3 and 5 edges
    (v, e, i0, j0), (_, sq, i1, j1), top = lat.cover_blocks
    j1 = j1.copy()
    j1[0] = next(f for f in range(sq.count) if f not in j1[i1 == i1[0]])
    order = np.lexsort((j1, i1))
    bad = FaceLattice(lat.diagram, lat.start, lat.group, lat.slots_by_rank)
    bad.cover_blocks = [(v, e, i0, j0), (e, sq, i1[order], j1[order]), top]
    rep = diamond_report(bad)
    assert rep.cover_mismatches == []
    assert rep.face_mismatches == [([0], [0, 1], 0, 2)]
    # the per-face counts fail it on their own
    assert not replace(rep, violations=[]).ok
    assert not rep.ok


def test_diamond_report_peak_memory(shared):
    # 14400 vertices: the up-tables of a valid lattice are its cover
    # blocks reshaped, and the rows of one slot pair at a time are built.
    # diamond_report keeps the lattice's walk, so the walk itself is measured
    lat = shared.lattice(parse("x5x3x3x"))
    diamond_report(lat)
    tracemalloc.start()
    try:
        report, _ = face_lattice._walk_triples(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2_000_000


def test_flag_methods_agree(shared):
    for d in [
        parse("x4o3o"),
        parse("o3x4x"),
        parse("x3x3x"),
        family_diagram("D", 4, ringed=(1,)),
        parse("x5x3x"),
        parse("x4x3x3x"),
        disjoint_union(parse("x4o"), parse("x")),
        parse("x"),
        parse("x3x"),
    ]:
        lat = shared.lattice(d)
        direct, _ = _flag_graph_direct(lat)
        covering = flag_report(lat)
        assert direct.ok and covering.ok, d
        assert direct.count == covering.count == lat.flag_count()
        assert covering.method == "covering"


def test_flags_connected_needs_every_node_named():
    # two orderings joined at rank 0; at rank 1 each keeps its ordering
    gen = np.array([[-1, 0], [-1, 1]])
    nxt = np.array([[1, 0], [0, 1]])
    assert face_lattice._flags_connected(gen, nxt)
    # node 1 named by no move: the flags reached from (0, identity) are
    # every ordering times W_{0}, half of them
    gen[1, 1] = 0
    assert not face_lattice._flags_connected(gen, nxt)


def test_flags_connected_needs_every_ordering_reached():
    # orderings {0, 1} and {2, 3} joined at rank 0 only, with both nodes named
    gen = np.array([[-1, 0], [-1, 1], [-1, 0], [-1, 1]])
    nxt = np.array([[1, 0], [0, 1], [3, 2], [2, 3]])
    assert not face_lattice._flags_connected(gen, nxt)
    # join orderings 1 and 2 at rank 1; orderings 0 and 3 still name both nodes
    gen[1, 1] = gen[2, 1] = -1
    nxt[1, 1], nxt[2, 1] = 2, 1
    assert face_lattice._flags_connected(gen, nxt)


def test_flag_move_off_its_reflection_is_refused(shared):
    lat = shared.lattice(parse("x3x4o"))
    g = lat.group
    s0 = int(g.rmult[0, 0])
    # the rank-0 move of (0, identity) keeps its ordering: it is s_0
    gen, nxt = face_lattice._flag_moves(lat)
    assert (gen[0, 0], nxt[0, 0]) == (0, 0)
    assert flag_moves_by_search(lat)[(0, 0)] == (s0, 0)
    # a right table whose row for s_0 sends the identity to s_2: the move's
    # element is no longer the reflection that carries the base vertex to
    # the other vertex of the base edge
    rmult = g.rmult.copy()
    rmult[0, 0] = g.rmult[2, 0]
    off = Group(g.coxeter, g.roots, g.perms, rmult, g.descents, g.layer_sizes)
    with pytest.raises(WythoffError, match="flag move is not unique"):
        flag_report(FaceLattice(lat.diagram, lat.start, off, lat.slots_by_rank))
    # relabel the element s_0 alone into the base vertex's coset.  Its one
    # right descent, 0, is not in K = {2}, the nodes the vertex and base
    # edge slots share, so it is the minimal representative of its W_K
    # coset, and coset_pairs reads it next to the identity: one key twice
    slots = [list(sl) for sl in lat.slots_by_rank]
    vertices = slots[0][0]
    assert sorted(vertices.nodes & slots[1][0].nodes) == [2] and g.descents[s0] == 1
    coset_id = vertices.table.coset_id.copy()
    coset_id[s0] = 0
    slots[0][0] = replace(vertices, table=replace(vertices.table, coset_id=coset_id))
    bad = FaceLattice(lat.diagram, lat.start, g, slots)
    with pytest.raises(WythoffError, match="two minimal coset representatives"):
        flag_report(bad)
    with pytest.raises(WythoffError, match="flag move is not unique"):
        flag_moves_by_search(bad)
    # realize's audit refuses it too: s_0 x is not the base point
    with pytest.raises(DedupCollision, match="orbit image differs"):
        realize(bad)


def test_coset_minima_are_least_elements_of_left_cosets(shared):
    rng = np.random.default_rng(7)
    for d in (parse("x12o"), parse("x4o3o"), parse("x3o3o")):
        g = shared.group(d)
        for size in (1, 2, 3):
            gens = [int(w) for w in rng.choice(np.arange(1, g.order), size, replace=False)]
            tables = [np.array([compose(g, x, w) for x in range(g.order)]) for w in gens]
            label = _coset_minima(g.order, tables)
            sub = {0}
            while True:
                grown = sub | {compose(g, h, w) for w in gens for h in sub}
                if grown == sub:
                    break
                sub = grown
            for x in range(g.order):
                assert label[x] == min(compose(g, x, h) for h in sub), (d, gens, x)


def test_flag_count_is_chains_times_order(shared):
    lat = shared.lattice(parse("o3x4x"))
    assert lat.flag_count() == 3 * 48
    rows = flag_rows(lat)
    assert len(rows) == 144
    # every flag row is distinct
    assert len({r.tobytes() for r in rows}) == 144


def test_flag_partners_form_matchings(shared):
    lat = shared.lattice(parse("o3x4x"))
    partners = flag_partners(lat)
    count = lat.flag_count()
    for k in range(lat.n):
        p = partners[k]
        assert (p != np.arange(count)).all()
        assert np.array_equal(p[p], np.arange(count))


def test_flag_report_lists_no_flag(shared):
    # 720 orderings of 5040 elements: listing the flags would take bytes
    # per flag, the move tables take a few per ordering and rank
    lat = shared.lattice(parse("x3x3x3x3x3x"))
    assert lat.flag_count() == 3_628_800
    flag_report(lat)
    tracemalloc.start()
    try:
        report = flag_report(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < lat.flag_count() // 2


def test_generator_actions_preserve_rank(shared):
    lat = shared.lattice(parse("x4o3o"))
    acts = generator_face_actions(lat)
    ranks = face_rank(lat)
    assert np.array_equal(np.bincount(ranks), list(lat.f_vector) + [1])
    for gi in range(acts.shape[0]):
        assert np.array_equal(np.sort(acts[gi]), np.arange(lat.face_total))
        assert np.array_equal(ranks[acts[gi]], ranks)


def test_vertex_figure_counts(shared):
    cube = shared.lattice(parse("x4o3o"))
    vf = vertex_figure(cube)
    assert vf.counts == (3, 3)
    assert len(vf.covers) == 6
    cell24 = shared.lattice(family_diagram("D", 4, ringed=(1,)))
    assert vertex_figure(cell24).counts == (8, 12, 6)  # cubical vertex figure
    ico = shared.lattice(parse("o5o3x"))
    assert vertex_figure(ico).counts == (5, 5)


def test_lattice_isomorphism_positive_and_negative(shared):
    cube = shared.lattice(parse("x4o3o"))
    box3 = shared.lattice(
        disjoint_union(parse("x"), parse("x"), parse("x"))
    )
    prism = shared.lattice(disjoint_union(parse("x4o"), parse("x")))
    octa = shared.lattice(parse("o4o3x"))
    assert lattices_isomorphic(cube, box3)
    assert lattices_isomorphic(cube, prism)
    assert not lattices_isomorphic(cube, octa)
    assert not lattices_isomorphic(cube, shared.lattice(parse("o3x4x")))


def test_twenty_four_cell_three_ways(shared):
    a = shared.lattice(family_diagram("D", 4, ringed=(1,)))
    b = shared.lattice(parse("o4o3x3o"))
    c = shared.lattice(parse("x3o4o3o"))
    assert a.f_vector == b.f_vector == c.f_vector == (24, 96, 96, 24)
    assert lattices_isomorphic(a, b)
    assert lattices_isomorphic(b, c)


def test_lattice_document_shape(shared):
    lat = shared.lattice(parse("x4o3o"))
    doc = lattice_document(lat)
    assert doc["rank"] == 3
    assert doc["f_vector"] == [8, 12, 6]
    assert len(doc["faces"]) == 8 + 12 + 6 + 1
    ids = [f["id"] for f in doc["faces"]]
    assert ids == sorted(ids) and ids[0] == 0
    assert doc["top"] == max(ids)
    by_id = {f["id"]: f for f in doc["faces"]}
    for lo, hi in doc["covers"]:
        assert by_id[hi]["rank"] == by_id[lo]["rank"] + 1
        assert set(by_id[lo]["selection"]) < set(by_id[hi]["selection"])
    # vertex-edge, edge-square, square-top incidences
    assert len(doc["covers"]) == 24 + 24 + 6


def test_chains_match_selection_orderings(shared):
    # each ordering's prefixes, mapped to their slots, in the order
    # selection_orderings lists the orderings
    diagrams = [
        *rank_34_diagrams(),
        *sweep_products(),
        *(d for base in sweep_diagrams() for d in decorated_variants(base)),
    ]
    for d in diagrams:
        lat = shared.lattice(d)
        index = [{s.selection: i for i, s in enumerate(sl)} for sl in lat.slots_by_rank]
        want = [
            tuple(index[k][frozenset(o[:k])] for k in range(lat.n))
            for o in selection_orderings(start_decoration(d))
        ]
        assert lat.chains == want, d


def test_one_walk_serves_the_diamond_and_the_flags(monkeypatch):
    calls = []
    up_tables = face_lattice._up_tables
    monkeypatch.setattr(face_lattice, "_up_tables", lambda lat: calls.append(lat) or up_tables(lat))
    for text in ("x3x4o", "x", "o3x3o3x"):
        lat = build_lattice(parse(text))
        assert flag_report(lat).ok
        flag_partners(lat)
        assert diamond_report(lat).ok
        flag_report(lat)
        assert calls == [lat]
        calls.clear()


def _count_coset_pairs(monkeypatch) -> list:
    """Record the caller of every coset_pairs call: cover_blocks builds a
    cover block, face_vertices one slot's vertex lists."""
    calls = []
    pairs = face_lattice.coset_pairs

    def counted(group, a, b):
        calls.append(sys._getframe(1).f_code.co_name)
        return pairs(group, a, b)

    monkeypatch.setattr(face_lattice, "coset_pairs", counted)
    return calls


def test_covers_are_computed_on_first_read(monkeypatch, capsys):
    calls = _count_coset_pairs(monkeypatch)
    lat = build_lattice(parse("o3x4x"))
    assert not calls
    assert len(lat.covers) == len(lat.covers) == 36 * 2 + 36 * 2 + 14
    # {} < {1}, {2}; {1} < {0,1}, {1,2}; {2} < {1,2}; {0,1}, {1,2} < top
    assert len(calls) == len(lat.cover_blocks) == 7 and set(calls) == {"cover_blocks"}
    assert main(["fvector", "o3x4x", "--method", "both"]) == 0
    assert "agreement: yes" in capsys.readouterr().out
    assert len(calls) == 7


def test_check_reads_the_blocks_not_the_flat_covers(monkeypatch, capsys):
    calls = _count_coset_pairs(monkeypatch)
    reads = []
    monkeypatch.setattr(FaceLattice, "covers", property(lambda lat: reads.append(lat)))
    assert main(["check", "x4o3o"]) == 0
    assert "overall: ok" in capsys.readouterr().out
    # 3 cover blocks, and the vertex lists of the 4 slots, top included
    assert Counter(calls) == {"cover_blocks": 3, "face_vertices": 4} and not reads


def test_vertices_builds_the_edge_lists_only(monkeypatch, capsys):
    calls = _count_coset_pairs(monkeypatch)
    assert main(["vertices", "x4o3o"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    # realize reads the separation off the one edge slot's vertex lists
    assert calls == ["face_vertices"]


def test_a_dropped_lattice_frees_its_group_without_the_cyclic_gc():
    # B6 has 46080 elements, over HOLD_LIMIT, so no hold keeps its group;
    # realize builds the edges' vertex lists, whose builder must not close
    # over the lattice
    gc.disable()
    try:
        lat = build_lattice(parse("x4o3o3o3o3o"))
        group = weakref.ref(lat.group)
        assert group().order > reflection_group.HOLD_LIMIT
        real = realize(lat)
        del lat, real
        assert group() is None
    finally:
        gc.enable()


def _incidence_diagrams():
    """The benchmark's seed-1 sweep, orbit and big_group items, the three
    I2(999) decorations and the sweep products."""
    wl = benchmark_workloads()
    texts = wl.sweep_items(1) + sorted(wl.KNOWN_DEFECTS_I2) + list(wl.ORBIT_ITEMS)
    texts += wl.big_group_items()
    return [parse(t) for t in dict.fromkeys(texts)] + sweep_products()


def test_coset_pairs_match_the_sort_over_every_element(shared):
    # the minimal representatives of the cosets of W_K, K the shared nodes,
    # give each meeting pair once: the same sorted keys as one key per
    # element of G, deduplicated, on every ordered slot pair, nested or not
    for d in _incidence_diagrams():
        lat = shared.lattice(d)
        total = group_order(d)
        slots = [s for sl in lat.slots_by_rank for s in sl]
        for a in slots:
            for b in slots:
                got = face_lattice.coset_pairs(lat.group, a, b)
                want = coset_pairs_by_sort(a.table, b.table)
                assert got.dtype == want.dtype, (d, a.selection, b.selection)
                assert np.array_equal(got, want), (d, a.selection, b.selection)
                common = sorted(a.nodes & b.nodes)
                assert len(got) == total // (group_order(d.induced(common)) if common else 1)


@pytest.mark.parametrize("text", ["x4o3o3o3o3o", "x3o3o3o3o3o3o"])
def test_coset_pairs_build_no_array_over_every_element(shared, text):
    # B6 and A7: the vertices against the edges share K, all but two
    # nodes.  Keying every element takes |G| int64 keys and their product
    # and sum; the minimal representatives take a byte and a bool an
    # element, and one key per pair
    lat = shared.lattice(parse(text))
    g = lat.group
    vertices, edges = lat.slots_by_rank[0][0], lat.slots_by_rank[1][0]
    assert len(vertices.nodes & edges.nodes) == g.n_gens - 2
    face_lattice.coset_pairs(g, vertices, edges)
    tracemalloc.start()
    try:
        keys = face_lattice.coset_pairs(g, vertices, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == edges.count * 2
    assert peak < g.order * 8


# per-element arrays of the group: one entry per element of W
ELEMENT_ARRAYS = {"coset_id", "descents", "rmult", "subgroup"}


def _element_array_readers(source: str) -> set:
    """Names of the innermost functions that read an element array attribute."""
    found = set()

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ELEMENT_ARRAYS
            and isinstance(node.ctx, ast.Load)
        ):
            found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_the_reader_scan_sees_reads_in_the_innermost_function():
    source = (
        "def outer(t):\n"
        '    """t.rmult in a docstring."""\n'
        "    def inner(u):\n"
        "        return u.coset_id\n"
        "    t.subgroup = 0  # a store, not a read of t.rmult\n"
        "    return inner\n"
        "def other(g):\n"
        "    return g.rmult[0]\n"
    )
    assert _element_array_readers(source) == {"inner", "other"}


def test_only_the_named_readers_take_per_element_arrays():
    # the lattice's other readers take faces, cover blocks and vertex lists;
    # these are the group's own readers, the one incidence rule, the move
    # check, the partner table and the realization's audit
    src = Path(__file__).resolve().parents[1] / "src" / "wythoff"
    found = {
        (p.stem, f)
        for p in sorted(src.glob("*.py"))
        for f in _element_array_readers(p.read_text("utf-8"))
    }
    assert found == {
        ("reflection_group", "order"),
        ("reflection_group", "coset_table"),
        ("face_lattice", "coset_pairs"),
        ("face_lattice", "_flag_moves"),
        ("face_lattice", "flag_partners"),
        ("geometry", "realize"),
    }
