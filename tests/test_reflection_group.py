import gc
import random
import re
import tracemalloc
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ROOT_MATCH_TOL,
    ROOT_SEPARATION,
    compose,
    coset_table_by_hooking,
    element_index,
    element_indices,
    enumerate_by_search,
    full_rows,
    group_matrices,
    inverse,
    lengths,
    perms_of_generators,
    reflection_count,
    rmult_by_key_lookup,
    walk,
    word,
)
from sweep import benchmark_workloads, decorated_variants, sweep_diagrams, sweep_products
from wythoff import reflection_group
from wythoff._kernels import match_rows, min_pairwise_distance
from wythoff.cli import main
from wythoff.decoration import decoration_from_selection, start_decoration, valid_selection_sets
from wythoff.diagram import (
    DecoratedDiagram,
    classify_components,
    diagram_from_document,
    disjoint_union,
    family_diagram,
    group_order,
    parse,
)
from wythoff.errors import BudgetExceeded, SubgroupNotContained, ToleranceCollision
from wythoff.face_lattice import build_lattice
from wythoff.geometry import wythoff_point
from wythoff.reflection_group import (
    coxeter_matrix,
    enumerate_group,
    gram_matrix,
    key_layout,
    root_system,
    simple_normals,
)


@pytest.mark.parametrize(
    "diagram",
    [
        parse("x"),
        parse("x3o"),
        parse("x7o"),
        parse("x3o3o"),
        parse("x4o3o"),
        parse("x5o3o"),
        family_diagram("D", 4),
        parse("x3o4o3o"),
        parse("x5o3o3o"),
        disjoint_union(parse("x"), parse("x")),
        disjoint_union(parse("x4o"), parse("x")),
    ],
    ids=lambda d: "+".join(str(t) for t in classify_components(d)),
)
def test_enumerated_order_matches_formula(shared, diagram):
    g = shared.group(diagram)
    assert g.order == group_order(diagram)


def test_identity_is_element_zero(shared):
    g = shared.group(parse("x4o3o"))
    assert np.array_equal(g.perms[0], np.arange(g.perms.shape[1]))


def test_rows_are_permutations(shared):
    g = shared.group(parse("x5o3o"))
    rows = full_rows(g)
    sorted_rows = np.sort(rows, axis=1)
    assert np.array_equal(sorted_rows, np.tile(np.arange(rows.shape[1]), (g.order, 1)))
    assert _same(g.perms, rows[:, : g.perms.shape[1]])


def test_compose_and_inverse_laws(shared):
    g = shared.group(parse("x4o3o"))
    rows = full_rows(g)
    rng = np.random.default_rng(5)
    for _ in range(25):
        a, b = rng.integers(0, g.order, size=2)
        c = compose(g, int(a), int(b))
        assert np.array_equal(rows[c], rows[a][rows[b]])
        assert compose(g, int(a), inverse(g, int(a))) == 0


def test_word_reconstructs_element(shared):
    g = shared.group(parse("x5o3o"))
    mats = group_matrices(g)
    rng = np.random.default_rng(9)
    for a in rng.integers(0, g.order, size=10):
        prod = np.eye(3)
        for gi in word(g, int(a)):
            prod = prod @ mats[g.rmult[gi, 0]]
        assert np.allclose(prod, mats[int(a)], atol=1e-10)


@pytest.mark.parametrize(
    "text,count",
    [("x3o3o", 12), ("x4o3o", 18), ("x5o3o", 30), ("x3o4o3o", 48), ("x5o3o3o", 120)],
)
def test_root_counts(text, count):
    assert root_system(parse(text)).count == count


def test_roots_closed_under_simple_reflections():
    d = parse("x4o3o")
    rs = root_system(d)
    for n in simple_normals(d):
        reflected = rs.roots - 2.0 * np.outer(rs.roots @ n, n)
        assert (match_rows(reflected, rs.roots, 1e-8) >= 0).all()


def _closure_per_row(normals):
    """Root closure one image at a time: the oracle for root_system's batched layers."""
    refl = [np.eye(len(normals)) - 2.0 * np.outer(v, v) for v in normals]
    roots = [np.array(v, dtype=np.float64) for v in normals]
    frontier = list(range(len(normals)))
    while frontier:
        arr = np.array([roots[i] for i in frontier])
        nxt = []
        for r in refl:
            images = arr @ r.T
            snapshot = np.array(roots)
            hits = match_rows(images, snapshot, ROOT_MATCH_TOL)
            for row, hit in zip(images, hits):
                if hit >= 0:
                    continue
                if len(roots) > len(snapshot):
                    tail = np.array(roots[len(snapshot):])
                    if match_rows(row[None, :], tail, ROOT_MATCH_TOL)[0] >= 0:
                        continue
                nxt.append(len(roots))
                roots.append(row.copy())
        frontier = nxt
    roots = np.array(roots)
    sep = min_pairwise_distance(roots)
    if sep < ROOT_SEPARATION:
        raise ToleranceCollision(
            "distinct roots only %.3g apart (floor %.3g)" % (sep, ROOT_SEPARATION)
        )
    return roots


def _interleaved():
    """B3, H3 and I2(7) with their nodes interleaved in the document's node order."""
    doc = {
        "nodes": [{"id": v, "mark": "ring"} for v in "b1 i1 h1 b2 h2 i2 h3 b3".split()],
        "edges": [
            {"a": "b2", "b": "b1", "m": 4}, {"a": "b2", "b": "b3", "m": 3},
            {"a": "h3", "b": "h2", "m": 5}, {"a": "h2", "b": "h1", "m": 3},
            {"a": "i2", "b": "i1", "m": 7},
        ],
    }
    return diagram_from_document(doc)


@pytest.mark.parametrize(
    "diagram",
    sweep_diagrams() + [family_diagram("E", 8), family_diagram("I2", 2, k=999), _interleaved()],
    ids=lambda d: "+".join(str(t) for t in classify_components(d)),
)
def test_root_closure_matches_per_row_oracle(diagram):
    normals = simple_normals(diagram)
    rs = root_system(diagram)
    assert np.array_equal(rs.roots, _closure_per_row(normals))
    assert np.array_equal(rs.roots[: len(normals)], normals)


@pytest.mark.parametrize(
    "diagram",
    sweep_diagrams()
    + [family_diagram("E", n) for n in (6, 7, 8)]
    + [family_diagram("B", 8), family_diagram("D", 8), family_diagram("I2", 2, k=999)]
    + [_interleaved()],
    ids=lambda d: "+".join(str(t) for t in classify_components(d)),
)
def test_closure_permutations_match_rematching(diagram):
    rs = root_system(diagram)
    after = np.stack(perms_of_generators(rs, simple_normals(diagram)))
    assert rs.perms.dtype == after.dtype
    assert np.array_equal(rs.perms, after)


def test_root_closure_collision_matches_per_row_oracle():
    # I2(3999): the float oracle refuses roots 2 sin(pi / 7998) apart, and
    # the exact closure sends the root at angle j pi/k to angle 2r + k - j
    # under the simple reflection whose root is at angle r pi/k
    k = 3999
    d = family_diagram("I2", 2, k=k)
    rs = root_system(d)
    x, y = rs.roots.T
    j = np.rint(np.arctan2(y, x) / (np.pi / k)).astype(np.int64) % (2 * k)
    assert np.array_equal(np.sort(j), np.arange(2 * k))
    for perm, r in zip(rs.perms, (0, k - 1)):
        assert np.array_equal(j[perm], (2 * r + k - j) % (2 * k))
    with pytest.raises(ToleranceCollision, match="distinct roots only"):
        _closure_per_row(simple_normals(d))


def test_root_separation_floor():
    # the least angle between two H4 roots is pi/5
    rs = root_system(parse("x5o3o3o"))
    diffs = rs.roots[:, None, :] - rs.roots[None, :, :]
    d = np.linalg.norm(diffs, axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() == pytest.approx(2 * np.sin(np.pi / 10), rel=1e-12)


def test_matrices_orthogonal_with_unit_determinant(shared):
    g = shared.group(parse("x3o4o3o"))
    mats = group_matrices(g)
    eye = np.eye(4)
    err = np.abs(np.einsum("nij,nkj->nik", mats, mats) - eye).max()
    assert err < 1e-9
    dets = np.linalg.det(mats)
    assert np.allclose(np.abs(dets), 1.0, atol=1e-9)


def test_reflection_count_is_half_the_roots(shared):
    g = shared.group(parse("x4o3o"))
    assert reflection_count(g) == 9


def test_point_images_agree_with_matrices(shared):
    g = shared.group(parse("x4o3o"))
    rng = np.random.default_rng(2)
    x = rng.normal(size=3)
    via_perm = g.point_images(x)
    via_mats = np.einsum("nij,j->ni", group_matrices(g), x)
    assert np.abs(via_perm - via_mats).max() < 1e-10


def test_point_images_of_some_elements_are_rows_of_all(shared):
    g = shared.group(parse("x4o3o3o3o3o"))
    x = np.random.default_rng(4).normal(size=g.n_gens)
    every = g.point_images(x)
    some = np.random.default_rng(6).integers(0, g.order, size=500)
    assert np.array_equal(g.point_images(x, slice(40000, 46000)), every[40000:46000])
    assert np.array_equal(g.point_images(x, some), every[some])


def test_coset_table_partitions_group(shared):
    g = shared.group(parse("x4o3o"))
    table = g.coset_table(frozenset({1, 2}))
    assert table.count == 8
    counts = np.bincount(table.coset_id)
    assert (counts == 6).all()
    # representatives are the least element of each coset
    for c in range(table.count):
        members = np.flatnonzero(table.coset_id == c)
        assert table.reps[c] == members.min()
    assert table.coset_id[0] == 0 and table.reps[0] == 0


def test_parabolic_subgroup_orders(shared):
    g = shared.group(parse("x4o3o3o"))
    d = parse("x4o3o3o")
    for nodes in [frozenset({0}), frozenset({0, 1}), frozenset({1, 2, 3}), frozenset()]:
        sub = np.flatnonzero(g.coset_table(nodes).coset_id == 0)
        want = group_order(d.induced(sorted(nodes))) if nodes else 1
        assert len(sub) == want


@pytest.mark.parametrize("text", ["x4o3o3o3o3o", "x3o3o3o3o3o3o"])
def test_a_coset_table_peak_stays_under_20_bytes_an_element(shared, text):
    # the vertex table of the benchmark's B6 and A7 items.  The pointers and
    # the coset numbers are int32 and the representative marks a byte: at
    # the end the pointers, the numbers, the table and the marks take 13
    # bytes an element, plus one block of take's index copies
    g = shared.group(parse(text))
    nodes = frozenset(range(1, g.n_gens))
    g._cosets.pop(nodes, None)  # else the call below returns the kept table
    tracemalloc.start()
    try:
        g.coset_table(nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * g.order


@pytest.mark.parametrize(
    "d, bound",
    [
        (parse("x3o3o3o3o3o3o"), 68.5),
        (parse("x4o3o3o3o3o"), 62.5),
        (family_diagram("E", 6, ringed=(0,)), 62.5),
        (parse("x999o"), 285.0),
        (parse("x4o3o3o3o3o3o"), 68.0),
    ],
    ids=["A7", "B6", "E6", "I2(999)", "B7"],
)
def test_the_search_peak_stays_under_its_bound_an_element(shared, d, bound):
    # the benchmark's A7, B6 and E6 groups, I2(999) and B7.  perms (n int16
    # columns), rmult (n int32 rows) and the descent bits are kept.  The
    # peak is at the key sort: the images and rmult in chain order, the
    # lengths, and the keys, their argsort and the sorted keys (8 bytes an
    # element each).  No level keeps a root-count table of its
    # elements, so I2(999) peaks in its root closure.  The search over all
    # of W (oracles.enumerate_by_search) peaks at 86.6, 72.8, 72.7, 281.8
    # and 82.1 bytes an element; the chain at 67.4, 61.3, 61.3, 281.9 and
    # 67.0
    warm = shared.group(d)
    reflection_group._held.clear()  # else the call below returns the held group
    tracemalloc.start()
    try:
        g = enumerate_group(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g is not warm
    assert peak < bound * g.order


def _group_arrays(g):
    tables = [g.coset_table(nodes) for nodes in ({0}, {0, 1}, {1, 2})]
    return [g.coxeter, g.roots.roots, g.roots.perms, g.perms, g.rmult, g.descents] + [
        a for t in tables for a in (t.coset_id, t.reps)
    ]


def test_a_held_group_is_read_only(shared):
    for a in _group_arrays(shared.group(parse("x4o3o"))):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_a_held_group_equals_a_fresh_enumeration():
    held = enumerate_group(parse("o5x3x"))
    d = parse("x5o3o")
    assert enumerate_group(d) is held
    reflection_group._held.clear()
    fresh = enumerate_group(d)
    assert fresh is not held
    for a, b in zip(_group_arrays(held), _group_arrays(fresh), strict=True):
        assert np.array_equal(a, b)
    lat_held, lat_fresh = build_lattice(d, held), build_lattice(d, fresh)
    assert np.array_equal(lat_held.covers, lat_fresh.covers)
    assert lat_held.f_vector == lat_fresh.f_vector


def test_check_after_another_decoration_matches_check_alone(capsys):
    def check(text):
        assert main(["check", text, "--json"]) == 0
        held = reflection_group._held[coxeter_matrix(parse(text)).tobytes()]
        return capsys.readouterr().out, held

    reflection_group._held.clear()
    _, first = check("x5o3o3x")
    after, held = check("o5x3x3x")
    assert held is first
    reflection_group._held.clear()
    alone, built = check("o5x3x3x")
    assert built is not first
    assert after == alone


@pytest.mark.parametrize(
    "a, b", [("x3o3o", "x4o3o"), ("x3o4o", "x4o3o")], ids=["labels", "node-order"]
)
def test_another_coxeter_matrix_misses(a, b):
    ga = enumerate_group(parse(a))
    gb = enumerate_group(parse(b))
    assert gb is not ga
    simple = gb.roots.roots[: gb.n_gens]
    assert np.allclose(simple @ simple.T, gram_matrix(parse(b)))


def test_a_reversed_edge_hits():
    g = enumerate_group(parse("x4o3o"))
    d = DecoratedDiagram(("a", "b", "c"), (0, 0, 1), ((1, 0, 4), (2, 1, 3)))
    assert enumerate_group(d) is g


def test_a_hit_still_respects_the_budget(monkeypatch):
    d = parse("x4o3o")
    g = enumerate_group(d)
    monkeypatch.setenv("WYTHOFF_BUDGET", "47")
    with pytest.raises(BudgetExceeded):
        enumerate_group(d)
    monkeypatch.setenv("WYTHOFF_BUDGET", "48")
    assert enumerate_group(d) is g


@pytest.mark.parametrize("other", ["x3o3o", "x3o4o"], ids=["labels", "node-order"])
def test_build_lattice_refuses_the_group_of_another_coxeter_matrix(other):
    with pytest.raises(ValueError, match="another Coxeter matrix"):
        build_lattice(parse(other), enumerate_group(parse("x4o3o")))


def test_build_lattice_takes_the_group_of_its_coxeter_matrix():
    cube = parse("x4o3o")
    assert build_lattice(cube, enumerate_group(cube)).f_vector == (8, 12, 6)
    reversed_edges = DecoratedDiagram(("a", "b", "c"), (1, 0, 0), ((1, 0, 4), (2, 1, 3)))
    assert build_lattice(reversed_edges, enumerate_group(cube)).f_vector == (8, 12, 6)


@pytest.mark.parametrize("nodes", [[3], [-1], [0.7], np.array([1.9]), ["1"]])
def test_coset_table_refuses_nodes_outside_the_group(shared, nodes):
    # a node that is not an integer is refused by its value, not truncated
    (v,) = nodes
    if isinstance(v, int):
        message = "out of range"
    else:
        message = "index %s is not an integer" % re.escape(repr(v))
    with pytest.raises(SubgroupNotContained, match=message):
        shared.group(parse("x4o3o")).coset_table(nodes)


def test_interleaved_matrices_hit_their_held_groups():
    reflection_group._held.clear()
    a = enumerate_group(parse("x3o3o"))
    b = enumerate_group(parse("x4o3o"))
    assert enumerate_group(parse("o3x3o")) is a
    assert enumerate_group(parse("o4o3x")) is b
    reflection_group._held.clear()
    fresh = enumerate_group(parse("x3o3o"))
    assert fresh is not a
    for x, y in zip(_group_arrays(a), _group_arrays(fresh), strict=True):
        assert np.array_equal(x, y)


def test_a_build_over_the_hold_limit_drops_the_least_recently_used_group(monkeypatch):
    reflection_group._held.clear()
    monkeypatch.setattr(reflection_group, "HOLD_LIMIT", 24 + 48)
    a3 = weakref.ref(enumerate_group(parse("x3o3o")))  # order 24
    b3 = weakref.ref(enumerate_group(parse("x4o3o")))  # order 48
    assert enumerate_group(parse("o3o3x")) is a3()  # now the most recently used
    a2 = enumerate_group(parse("x3o"))  # order 6: 78 > 72, so B3 goes
    gc.collect()
    assert b3() is None
    assert list(reflection_group._held.values()) == [a3(), a2]
    enumerate_group(parse("x4o3o"))  # 78 again: A3, now the least recent, goes
    gc.collect()
    assert a3() is None
    assert sum(g.order for g in reflection_group._held.values()) == 54


def test_a_group_over_the_hold_limit_is_not_kept(monkeypatch):
    reflection_group._held.clear()
    ref = weakref.ref(enumerate_group(parse("x3o3o")))
    monkeypatch.setattr(reflection_group, "HOLD_LIMIT", 47)
    d = parse("x4o3o")  # order 48
    g = enumerate_group(d)
    assert enumerate_group(d) is not g
    assert not reflection_group._held
    gc.collect()
    assert ref() is None
    monkeypatch.setattr(reflection_group, "HOLD_LIMIT", 48)
    g = enumerate_group(d)
    assert enumerate_group(d) is g


# orders 6, 8, 10, 24, 48, 48 (another node order), 120 and 120
_HOLD_DIAGRAMS = ("x3o", "x4o", "x5o", "x3o3o", "x4o3o", "x3o4o", "x5o3o", "x3o3o3o")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=200),
    st.lists(st.sampled_from(_HOLD_DIAGRAMS), min_size=1, max_size=12),
)
def test_the_held_groups_stay_within_the_hold_limit(limit, texts):
    saved = reflection_group.HOLD_LIMIT
    reflection_group._held.clear()
    reflection_group.HOLD_LIMIT = limit
    try:
        for text in texts:
            g = enumerate_group(parse(text))
            g.coset_table([0])
            held = reflection_group._held
            assert sum(h.order for h in held.values()) <= limit
            if g.order <= limit:
                assert list(held.values())[-1] is g
            else:
                assert not held
            for h in held.values():
                tables = [a for t in h._cosets.values() for a in (t.coset_id, t.reps)]
                for a in [h.coxeter, h.roots.roots, h.roots.perms, h.perms, h.rmult, h.descents] + tables:
                    assert not a.flags.writeable
    finally:
        reflection_group.HOLD_LIMIT = saved
        reflection_group._held.clear()


def test_budget_exceeded(monkeypatch):
    with pytest.raises(BudgetExceeded):
        enumerate_group(family_diagram("E", 7))
    monkeypatch.setenv("WYTHOFF_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        enumerate_group(parse("x3o3o"))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("WYTHOFF_BUDGET", "100")
    from wythoff.reflection_group import enumeration_budget

    assert enumeration_budget() == 100
    with pytest.raises(BudgetExceeded):
        enumerate_group(parse("x5o3o"))


def test_non_definite_gram_rejected():
    # built directly, so classification never sees this hyperbolic diagram
    from wythoff.errors import NotFiniteType

    bad = DecoratedDiagram(("a", "b", "c"), (1, 0, 0), ((0, 1, 5), (1, 2, 5)))
    with pytest.raises(NotFiniteType):
        simple_normals(bad)


def _enumerate_by_dict(d, g):
    """Element-by-element BFS keyed by full permutation bytes: the group oracle.

    The elements it finds are numbered as g numbers them, each matched to
    g's element with the same whole permutation row (element_indices); the
    match must be a bijection.  Returns perms in that numbering, the row ->
    index dict, rmult (g -> g s_i), the element indices of the generators
    and the generator permutations.
    """
    roots = root_system(d)
    gen_perms = perms_of_generators(roots, simple_normals(d))
    ident = np.arange(roots.count, dtype=gen_perms[0].dtype)
    rows = [ident]
    index = {ident.tobytes(): 0}
    frontier = [0]
    while frontier:
        arr = np.array([rows[i] for i in frontier])
        nxt = []
        for gi, gp in enumerate(gen_perms):
            for row in gp[arr]:
                b = row.tobytes()
                if b not in index:
                    index[b] = len(rows)
                    rows.append(row.copy())
                    nxt.append(index[b])
        frontier = nxt
    found = np.array(rows)
    lib = element_indices(g, found)
    assert np.array_equal(np.sort(lib), np.arange(g.order)), "not a bijection onto g"
    perms = np.empty_like(found)
    perms[lib] = found
    index = {perms[i].tobytes(): i for i in range(len(perms))}
    rmult = np.empty((len(gen_perms), len(perms)), dtype=np.int32)
    for gi, gp in enumerate(gen_perms):
        prod = perms[:, gp]
        for e in range(len(perms)):
            rmult[gi, e] = index[prod[e].tobytes()]
    gen_elements = np.array([index[p.tobytes()] for p in gen_perms], dtype=np.int32)
    return perms, index, rmult, gen_elements, gen_perms


def _subgroup_by_dict(perms, index, gen_perms, nodes):
    """Sorted indices of the subgroup generated by the given generators."""
    found = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for gi in sorted(nodes):
            for a in frontier:
                b = index[gen_perms[gi][perms[a]].tobytes()]
                if b not in found:
                    found.add(b)
                    nxt.append(b)
        frontier = nxt
    return np.array(sorted(found), dtype=np.int64)


def _coset_table_by_dict(perms, index, sub_elements):
    """Left cosets found one at a time, members looked up in the dict."""
    ph = perms[sub_elements]
    coset_id = np.full(len(perms), -1, dtype=np.int32)
    reps = []
    for g in range(len(perms)):
        if coset_id[g] != -1:
            continue
        rows = perms[g][ph]
        members = [index[rows[i].tobytes()] for i in range(len(rows))]
        coset_id[members] = len(reps)
        reps.append(g)
    return coset_id, np.array(reps, dtype=np.int64)


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize(
    "diagram",
    sweep_diagrams()
    + sweep_products()
    + [family_diagram("I2", 2, k=999), family_diagram("E", 6, ringed=(0,))],
    ids=lambda d: "+".join(str(t) for t in classify_components(d)),
)
def test_group_and_coset_tables_match_dict_oracle(shared, diagram):
    g = shared.group(diagram)
    perms, index, rmult, gen_elements, gen_perms = _enumerate_by_dict(diagram, g)
    assert _same(full_rows(g), perms)
    assert _same(g.perms, perms[:, : g.perms.shape[1]])
    assert _same(g.rmult, rmult)
    assert _same(g.rmult[:, 0], gen_elements)
    n = diagram.rank
    for nodes in (frozenset(c) for r in range(n + 1) for c in combinations(range(n), r)):
        table = g.coset_table(nodes)
        sub = _subgroup_by_dict(perms, index, gen_perms, nodes)
        coset_id, reps = _coset_table_by_dict(perms, index, sub)
        assert _same(np.flatnonzero(table.coset_id == 0), sub), sorted(nodes)
        assert _same(table.coset_id, coset_id), sorted(nodes)
        assert _same(table.reps, reps), sorted(nodes)


def _generator_perms(d):
    return perms_of_generators(root_system(d), simple_normals(d))


def _a1_power(k):
    d = parse("x")
    for _ in range(k - 1):
        d = disjoint_union(d, parse("x"))
    return d


def test_a1_power_24_has_a_key_space_of_2_to_the_24():
    # A1^24: 24 orbits {a_j, -a_j}, so one binary digit per simple root
    table = key_layout(_generator_perms(_a1_power(24)))
    cols = np.arange(24)
    # the root list is the simple roots, then their negatives in order: the
    # identity has the least key and -1, the longest element, the greatest
    assert table[cols, cols].sum() == 0
    assert table[cols, cols + 24].sum() == 2**24 - 1


def test_e8_keys_fit_in_64_bits():
    # all 240 roots form one orbit, so every row holds all of its digits
    table = key_layout(_generator_perms(family_diagram("E", 8)))
    assert sum(int(row.max()) for row in table) == 240**8 - 1 < 2**64


def test_key_space_over_64_bits_is_refused():
    with pytest.raises(BudgetExceeded, match="64-bit key limit"):
        key_layout(_generator_perms(disjoint_union(family_diagram("E", 8), parse("x"))))


_KEY_FAMILIES = (
    [family_diagram("A", n) for n in range(1, 6)]
    + [family_diagram("B", n) for n in range(2, 6)]
    + [family_diagram("D", n) for n in (4, 5)]
    + [family_diagram("F", 4), family_diagram("H", 3)]
    + [family_diagram("I2", 2, k=k) for k in range(5, 30)]
)


@st.composite
def _small_groups(draw):
    """A family or a two-component product with |G| <= 5000."""
    parts = draw(st.lists(st.sampled_from(_KEY_FAMILIES), min_size=1, max_size=2).filter(
        lambda ps: np.prod([group_order(p) for p in ps]) <= 5000
    ))
    return parts[0] if len(parts) == 1 else disjoint_union(*parts)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_groups())
def test_elements_are_numbered_by_length_then_key(d):
    g = enumerate_group(d)
    table = key_layout(g.roots.perms)
    keys = sum(table[j][g.perms[:, j]] for j in range(g.n_gens))
    assert np.array_equal(np.lexsort((keys, lengths(g))), np.arange(g.order))
    rows = full_rows(g)
    for i, gp in enumerate(_generator_perms(d)):
        assert np.array_equal(rows[g.rmult[i]], rows[:, gp])


@pytest.mark.parametrize(
    "diagram",
    sweep_diagrams() + sweep_products() + [family_diagram("E", 6)],
    ids=lambda d: "+".join(str(t) for t in classify_components(d)),
)
def test_walks_multiply_like_permutation_rows(shared, diagram):
    g = shared.group(diagram)
    rows = full_rows(g)
    # every entry of rmult, not only the search tree full_rows is filled
    # along: g s_i has the full row of g read at s_i's permutation
    for i, gp in enumerate(g.roots.perms):
        assert np.array_equal(rows[g.rmult[i]], rows[:, gp]), i
    rng = np.random.default_rng(3)
    for a, b in rng.integers(0, g.order, size=(20, 2)).tolist():
        assert np.array_equal(rows[walk(g, a, word(g, b))], rows[a][rows[b]])
    for h in rng.integers(0, g.order, size=3).tolist():
        by_rows = [element_index(g, row) for row in rows[:, rows[h]]]
        assert np.array_equal(walk(g, np.arange(g.order), word(g, h)), by_rows)


def _stabilizers(d):
    """Node sets of the stabilizers of every decoration reached from d's start."""
    start = start_decoration(d)
    return {
        frozenset(decoration_from_selection(start, sel).stabilizer_nodes())
        for k in range(d.rank + 1)
        for sel in valid_selection_sets(start, k)
    }


def _table_matrices():
    """The decorations of each Coxeter matrix the group tables are compared on.

    The groups of the benchmark's seed-1 sweep, orbit and big_group items;
    x3x3x3x3x3x, B7, A8, I2(999) and I2(3999); every ring set of D6, D7,
    F4, H3 and E6; and (A1)^14.
    """
    texts = ["x3x3x3x3x3x", "x4o3o3o3o3o3o", "x3o3o3o3o3o3o3o", "x999x", "x3999o"]
    diagrams = _benchmark_items() + [parse(t) for t in texts]
    for family, n in (("D", 6), ("D", 7), ("F", 4), ("H", 3), ("E", 6)):
        diagrams += decorated_variants(family_diagram(family, n))
    diagrams.append(_a1_power(14))
    return _by_matrix(diagrams)


def _benchmark_items():
    """The diagrams of the benchmark's seed-1 sweep, orbit and big_group items."""
    wl = benchmark_workloads()
    texts = wl.sweep_items(1) + list(wl.ORBIT_ITEMS) + wl.big_group_items()
    return [parse(t) for t in texts]


def _by_matrix(diagrams):
    """The diagrams grouped by Coxeter matrix, in order of first appearance."""
    by_matrix = {}
    for d in diagrams:
        by_matrix.setdefault(coxeter_matrix(d).tobytes(), []).append(d)
    return list(by_matrix.values())


@pytest.mark.parametrize(
    "decorations",
    _table_matrices(),
    ids=lambda ds: "+".join(str(t) for t in classify_components(ds[0])),
)
def test_group_tables_match_the_lookup_and_hooking_routes(decorations):
    # rmult read off the search equals every g s_i looked up by its key, and
    # each coset table by descent pointers equals the components of rmult
    # restricted to J; on every stabilizer, the trivial group and W itself.
    # The search keeps the simple-root images column by column, and perms is
    # their (|G|, n) view in the roots' dtype, numbered by length, then key
    d = decorations[0]
    g = enumerate_group(d)
    assert g.perms.shape == (g.order, g.n_gens)
    assert g.perms.dtype == g.roots.perms.dtype
    table = key_layout(g.roots.perms)
    keys = sum(table[j][g.perms[:, j]] for j in range(g.n_gens))
    assert np.array_equal(np.lexsort((keys, lengths(g))), np.arange(g.order))
    assert _same(g.rmult, rmult_by_key_lookup(g))
    nodes = sorted(set().union(*map(_stabilizers, decorations)), key=sorted)
    if len(nodes) > 256:
        # (A1)^14 reaches all 2^14 node sets; a seeded sample keeps the run short
        nodes = random.Random(14).sample(nodes, 256)
    nodes = set(nodes) | {frozenset(), frozenset(range(d.rank))}
    for J in sorted(nodes, key=sorted):
        table, want = g.coset_table(J), coset_table_by_hooking(g, J)
        assert _same(table.coset_id, want.coset_id), sorted(J)
        assert _same(table.reps, want.reps), sorted(J)


@pytest.mark.parametrize(
    "decorations",
    _by_matrix(_benchmark_items()),
    ids=lambda ds: "+".join(str(t) for t in classify_components(ds[0])),
)
def test_coset_reps_are_the_descent_free_shortest_elements(shared, decorations):
    # the representative of g W_J is its one element with no right descent in
    # J, the rule coset_pairs reads, and the one member of least length
    g = shared.group(decorations[0])
    length = lengths(g)
    nodes = set().union(*map(_stabilizers, decorations))
    nodes |= {frozenset(), frozenset(range(g.n_gens))}
    for J in sorted(nodes, key=sorted):
        table = g.coset_table(J)
        mask = sum(1 << j for j in J)
        assert _same(table.reps, np.flatnonzero((g.descents & mask) == 0)), sorted(J)
        least = np.full(table.count, g.order)
        np.minimum.at(least, table.coset_id, length)
        assert _same(np.flatnonzero(length == least[table.coset_id]), table.reps), sorted(J)


@pytest.mark.parametrize(
    "decorations",
    _by_matrix(_benchmark_items()),
    ids=lambda ds: "+".join(str(t) for t in classify_components(ds[0])),
)
def test_the_last_index_has_the_longest_coset_chain(shared, decorations):
    # coset_table stops doubling once the last index reaches its
    # representative.  That is exact: the last index is w0, the one longest
    # element, and w0 = w0^J w0_J lies l(w0_J) steps above its
    # representative, the longest chain of any element, l(w0_J) being the
    # greatest length in coset 0, W_J itself
    g = shared.group(decorations[0])
    length = lengths(g)
    assert np.flatnonzero(length == length.max()).tolist() == [g.order - 1]
    nodes = set().union(*map(_stabilizers, decorations))
    nodes |= {frozenset(), frozenset(range(g.n_gens))}
    for J in sorted(nodes, key=sorted):
        table = g.coset_table(J)
        longest_in_w_j = length[table.coset_id == 0].max()
        rep = table.reps[table.coset_id[-1]]
        assert length[-1] - length[rep] == longest_in_w_j, sorted(J)


@pytest.mark.parametrize(
    "diagram",
    sweep_diagrams() + sweep_products() + [_a1_power(9)],
    ids=lambda d: "+".join(str(t) for t in classify_components(d)),
)
def test_descent_bits_mark_the_negative_simple_images(shared, diagram):
    # bit i of g: g(a_i) is a negative root, one on the far side of a point
    # inside the fundamental chamber, the base point of the all-ringed diagram
    g = shared.group(diagram)
    n = g.n_gens
    inside = wythoff_point(diagram.with_marks((1,) * n))
    height = g.roots.roots @ inside
    assert np.abs(height).min() > 1e-9
    bits = (g.descents[:, None] >> np.arange(n, dtype=g.descents.dtype)) & 1
    assert np.array_equal(bits == 1, height[g.perms[:, :n]] < 0)
    assert g.descents.dtype == (np.uint8 if n <= 8 else np.uint16)


@pytest.mark.parametrize("shift", [-1, 1])
def test_an_order_formula_off_by_one_is_an_order_mismatch(monkeypatch, capsys, shift):
    # every level of the chain has the size its parabolic orders give, so
    # the levels make up 48 elements, one more or one fewer than the
    # formula.  Both are domain errors, so the cli reports them and exits 1
    d = parse("x4o3o")
    formula = group_order(d) + shift
    monkeypatch.setattr(reflection_group, "group_order", lambda _: formula)
    reflection_group._held.clear()
    with pytest.raises(ToleranceCollision, match="enumerated 48 elements, formula says %d" % formula):
        enumerate_group(d)
    assert main(["check", "x4o3o"]) == 1
    assert "formula says %d" % formula in capsys.readouterr().err


def _same_tables(g, want):
    for a, b in ((g.perms, want.perms), (g.rmult, want.rmult), (g.descents, want.descents)):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_groups())
@example(parse("x3o3o3o3o3o3o"))
@example(parse("x4o3o3o3o3o"))
@example(family_diagram("E", 6, ringed=(0,)))
@example(parse("x999o"))
@example(parse("x4o3o3o3o3o3o"))
def test_the_chain_matches_the_search_over_all_of_w(d):
    # the chain's perms, rmult and descents, value, dtype and shape, are the
    # search's: families and products up to 5000 elements, the benchmark's
    # A7, B6 and E6, I2(999) and B7
    reflection_group._held.clear()
    _same_tables(enumerate_group(d), enumerate_by_search(d))


@pytest.mark.parametrize(
    "orders, message",
    [
        # B3: |W_J| is 1, 2, 8 and 48 along the chain {}, {0}, {0, 1}, {0, 1, 2}
        ({3: 56}, "chain level 3 \\(nodes 0..2\\): 6 coset representatives, orders say 7"),
        ({3: 40}, "chain level 3 \\(nodes 0..2\\): over 5 coset representatives, orders say 5"),
        ({1: 1}, "chain level 2 \\(nodes 0..1\\): 4 coset representatives, orders say 8"),
    ],
)
def test_a_chain_level_of_another_size_is_refused(monkeypatch, capsys, orders, message):
    real = reflection_group.parabolic_order
    monkeypatch.setattr(
        reflection_group,
        "parabolic_order",
        lambda d, nodes: orders.get(len(nodes)) or real(d, nodes),
    )
    reflection_group._held.clear()
    with pytest.raises(ToleranceCollision, match=message):
        enumerate_group(parse("x4o3o"))
    assert main(["check", "x4o3o"]) == 1
    assert "chain level" in capsys.readouterr().err


def _carry_into_another_node(images, step):
    assert step[0, 0] == -1  # e s_0 = s_0 e carries into s_0
    step[0, 0] = -2


def _carry_into_a_fixed_point(images, step):
    step[0, 0] = 0


def _stay_elsewhere(images, step):
    assert step[0, 2] == 1  # e s_2 = s_2, the first member found
    step[0, 2] = 2


def _images_shared(images, step):
    images[2] = images[1]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_carry_into_another_node, "w s_0 does not send a_0 to -w\\(a_0\\)"),
        (_carry_into_a_fixed_point, "w s_0 does not send a_0 to -w\\(a_0\\)"),
        (_stay_elsewhere, "right multiplication by s_2 is not an involution"),
        (_images_shared, "two elements share their images of the simple roots"),
    ],
)
def test_a_corrupted_top_level_is_refused(monkeypatch, corrupt, message):
    # one entry of B3's top level U_3 changed after its search.  A carry into
    # another node, or into a fixed point, keeps each row of rmult an
    # involution: only the check that w s_i sends a_i to -w(a_i) sees it
    walk = reflection_group._coset_walk

    def corrupted(gens, carry_at, k, cols, size):
        images, lengths, step = walk(gens, carry_at, k, cols, size)
        if k == len(gens):
            corrupt(images, step)
        return images, lengths, step

    monkeypatch.setattr(reflection_group, "_coset_walk", corrupted)
    reflection_group._held.clear()
    with pytest.raises(ToleranceCollision, match=message):
        enumerate_group(parse("x4o3o"))
