import copy
import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import edge_lengths_by_norm, point_images_by_products, ridge_normals
from sweep import benchmark_workloads, decorated_variants, sweep_diagrams, sweep_products
from wythoff import geometry
from wythoff._kernels import match_rows, min_pairwise_distance
from wythoff.diagram import disjoint_union, family_diagram, parse
from wythoff.errors import DedupCollision, SpanDeficient, UnsupportedDimension
from wythoff.geometry import (
    AFFINE_RANK_TOL,
    FACET_NORM_TOL,
    RIDGE_MATCH_TOL,
    CheckReport,
    _edge_lengths,
    containment_check,
    edge_uniformity_check,
    off_document,
    polar_dual_check,
    realization_document,
    realize,
    ridge_reflection_check,
    verify_realization,
    wythoff_point,
)
from wythoff.reflection_group import ROW_BLOCK, simple_normals
from wythoff.regular import ruled_verdict


def test_wythoff_point_hits_prescribed_mirrors():
    d = parse("o3x4x")
    x = wythoff_point(d)
    normals = simple_normals(d)
    dots = normals @ x
    assert abs(dots[0]) < 1e-12
    assert dots[1] == pytest.approx(dots[2], abs=1e-12)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_segment_coordinates(shared):
    real = shared.realization(parse("x"))
    assert sorted(float(p[0]) for p in real.points) == pytest.approx([-1.0, 1.0])


def test_cube_coordinates(shared):
    real = shared.realization(parse("x4o3o"))
    expected = (
        np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        / np.sqrt(3.0)
    )
    assert (match_rows(expected, real.points, 1e-9) >= 0).all()


def test_octahedron_coordinates(shared):
    real = shared.realization(parse("o4o3x"))
    dots = np.round(real.points @ real.points.T, 9)
    off_diag = dots[~np.eye(6, dtype=bool)]
    assert set(np.unique(off_diag)) == {-1.0, 0.0}


def test_tetrahedron_angles(shared):
    real = shared.realization(parse("x3o3o"))
    dots = real.points @ real.points.T
    off = dots[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1.0 / 3.0, atol=1e-12)


def test_icosahedron_angles(shared):
    real = shared.realization(parse("o5o3x"))
    dots = np.abs(real.points @ real.points.T)
    off = dots[~np.eye(12, dtype=bool)]
    golden = 1.0 / np.sqrt(5.0)
    assert np.all(
        np.isclose(off, golden, atol=1e-9) | np.isclose(off, 1.0, atol=1e-9)
    )


def test_vertex_count_matches_f0(shared):
    for text in ["x3o3o", "o3x4x", "x5x3x", "x3x3x3x"]:
        real = shared.realization(parse(text))
        assert len(real.points) == real.lattice.f_vector[0]


def test_structure_checks_pass_on_samples(shared):
    samples = [
        parse("x"),
        parse("x3x"),
        parse("o3x4x"),
        parse("x3o3x"),
        family_diagram("D", 4, ringed=(1,)),
        parse("x5x3x"),
        disjoint_union(parse("x3x"), parse("x")),
        parse("o5o3o3x"),
    ]
    for d in samples:
        reports = verify_realization(shared.realization(d))
        assert all(r.ok for r in reports.values()), (d, reports)


def test_affine_rank_detects_each_face_dimension(shared):
    real = shared.realization(parse("o3x4x"))
    lat = real.lattice
    for sl in lat.slots_by_rank[1:]:
        for s in sl:
            pts = real.points[real.slot_vertices(s)]
            centered = pts - pts.mean(axis=1, keepdims=True)
            sv = np.linalg.svd(centered, compute_uv=False)
            assert ((sv > AFFINE_RANK_TOL).sum(axis=1) == s.rank).all()


def test_ridge_reflection_separates_regular_from_not(shared):
    for text in ["x4o3o", "o4o3x", "x3o3o", "x5o3o", "o5o3x", "x5o"]:
        assert ridge_reflection_check(shared.realization(parse(text))).ok, text
    for text in ["o3x4x", "x3x3o", "o4x3o", "x3o3x"]:
        rep = ridge_reflection_check(shared.realization(parse(text)))
        assert not rep.ok, text
        assert rep.detail["failures"]


def test_polar_dual_separates_regular_from_not(shared):
    for text in ["x4o3o", "o4o3x", "x3o3o", "x5o3o", "o5o3x"]:
        assert polar_dual_check(shared.realization(parse(text))).ok, text
    assert not polar_dual_check(shared.realization(parse("o3x4x"))).ok
    assert not polar_dual_check(shared.realization(parse("x3x3o"))).ok


def _ridge_reflection_per_ridge(real):
    """One match_rows call per ridge: the oracle for the batched witness."""
    normals = ridge_normals(real)
    pts = real.points
    failures = []
    for i, u in enumerate(normals):
        moved = pts - 2.0 * np.outer(pts @ u, u)
        if (match_rows(moved, pts, RIDGE_MATCH_TOL) < 0).any():
            failures.append(i)
            if len(failures) >= 10:
                break
    return not failures, {"ridges": len(normals), "failures": failures}


def _polar_dual_per_ridge(real):
    lat = real.lattice
    cents = np.vstack(
        [real.points[real.slot_vertices(s)].mean(axis=1) for s in lat.slots_by_rank[lat.n - 1]]
    )
    norms = np.linalg.norm(cents, axis=1)
    spread = float((norms.max() - norms.min()) / norms.mean())
    closed = True
    for u in ridge_normals(real):
        moved = cents - 2.0 * np.outer(cents @ u, u)
        if (match_rows(moved, cents, RIDGE_MATCH_TOL) < 0).any():
            closed = False
            break
    detail = {"facets": len(cents), "norm_spread": spread, "reflection_closed": closed}
    return spread <= FACET_NORM_TOL and closed, detail


def _witness_items():
    regular = [
        d
        for base in sweep_diagrams()
        for d in decorated_variants(base)
        if d.rank >= 2 and ruled_verdict(d).regular
    ]
    regular += [d for d in sweep_products() if ruled_verdict(d).regular]
    regular += [parse(text) for text in ("o5o3o3x", "x5o3o3o", "x400x")]
    return regular + [parse("o3x4x"), parse("x3x3x3x")]


def _moved_vertex(real, by, vertex=-1):
    """real with one vertex (the last) moved by `by`, its deviation raised to match."""
    step = np.arange(1.0, real.dim + 1.0)
    step *= by / np.linalg.norm(step)
    points = real.points.copy()
    points[vertex] += step
    return replace(real, points=points, deviation=real.deviation + float(step.max()))


def _at_the_tolerance(shared):
    """The pentagon with its last vertex moved by RIDGE_MATCH_TOL itself.

    The deviation is left as it was, so the images of that vertex, which
    lies off the base ridge's line, and of its mirror image land on the
    tolerance: the base ridge's verdict is open, and the one ridge slot is
    checked ridge by ridge.
    """
    real = shared.realization(parse("x5o"))
    return replace(_moved_vertex(real, RIDGE_MATCH_TOL), deviation=real.deviation)


def _outcome(run, real):
    """run(real) as (ok, detail), or the message of the SpanDeficient it raised."""
    try:
        out = run(real)
    except SpanDeficient as e:
        return "SpanDeficient", str(e)
    return (out.ok, out.detail) if isinstance(out, CheckReport) else out


@pytest.mark.parametrize("block", [None, 1000])
def test_batched_witnesses_match_per_ridge_oracle(shared, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(geometry, "WITNESS_ROWS", block)
    for d in _witness_items():
        real = shared.realization(d)
        ridge = ridge_reflection_check(real)
        polar = polar_dual_check(real)
        assert (ridge.ok, ridge.detail) == _ridge_reflection_per_ridge(real)
        assert (polar.ok, polar.detail) == _polar_dual_per_ridge(real)
    # a moved vertex, or a deviation this large, leaves no slot a margin
    # over its slack, so every slot is checked ridge by ridge; the
    # 120-cell's moved pentagons leave their plane, and both routes refuse
    # the same slot
    moved = ("x5o", "x4o3o", "o5o3x", "x3o3o3o", "x5o3o3o")
    cases = {t: _moved_vertex(shared.realization(parse(t)), 1e-3) for t in moved}
    cases["x3o4o3o"] = replace(shared.realization(parse("x3o4o3o")), deviation=1.0)
    cases["x5o at the tolerance"] = _at_the_tolerance(shared)
    for text, real in cases.items():
        for check, oracle in (
            (ridge_reflection_check, _ridge_reflection_per_ridge),
            (polar_dual_check, _polar_dual_per_ridge),
        ):
            got = _outcome(check, real)
            assert got == _outcome(oracle, real), text
            assert (got[0] == "SpanDeficient") == (text == "x5o3o3o"), text
    for text in ("o3x4x", "x3x3x3x"):
        real = shared.realization(parse(text))
        assert len(ridge_reflection_check(real).detail["failures"]) == 10
        assert not polar_dual_check(real).detail["reflection_closed"]


def test_span_deficient_names_a_rank_it_found(shared):
    # vertex 0 of the 120-cell leaves the planes of its pentagons, so those
    # ridges span 4 dimensions where 3 are expected; both routes say so
    moved = _moved_vertex(shared.realization(parse("x5o3o3o")), 1e-3, vertex=0)
    moved = replace(moved, deviation=1.0)
    want = ("SpanDeficient", "ridge span has dimension 4, expected 3")
    for run in (
        ridge_reflection_check,
        polar_dual_check,
        _ridge_reflection_per_ridge,
        _polar_dual_per_ridge,
    ):
        assert _outcome(run, moved) == want, run.__name__


def test_witnesses_match_once_per_ridge_slot(shared, monkeypatch):
    # one base ridge decides each slot: per-ridge work, or a fallback on a
    # valid lattice, would make more match_rows calls than ridge slots
    calls = []
    monkeypatch.setattr(geometry, "match_rows", lambda *a: calls.append(len(a[0])) or match_rows(*a))
    box = disjoint_union(parse("x"), parse("x"), parse("x"))
    for d in (parse("x5o3o3o"), parse("o5o3o3x"), parse("x4o3o3o"), box):
        real = shared.realization(d)
        slots = len(real.lattice.slots_by_rank[real.lattice.n - 2])
        for check in (ridge_reflection_check, polar_dual_check):
            calls.clear()
            assert check(real).ok, d
            assert 1 <= len(calls) <= slots, d
    # an open base verdict costs the slot one more call, over every ridge
    calls.clear()
    assert ridge_reflection_check(_at_the_tolerance(shared)).detail["failures"] == [2]
    assert calls == [5, 25]


def test_box_product_is_geometrically_regular(shared):
    box = disjoint_union(parse("x"), parse("x"), parse("x"))
    real = shared.realization(box)
    assert ridge_reflection_check(real).ok
    assert polar_dual_check(real).ok


def test_off_export_well_formed(shared):
    real = shared.realization(parse("o3x4x"))
    lines = off_document(real).strip().splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = map(int, lines[1].split())
    assert (nv, ne, nf) == real.lattice.f_vector
    vertex_lines = lines[2 : 2 + nv]
    assert all(len(l.split()) == 3 for l in vertex_lines)
    face_lines = lines[2 + nv :]
    assert len(face_lines) == nf
    edge_multiset = {}
    for fl in face_lines:
        parts = list(map(int, fl.split()))
        m, cycle = parts[0], parts[1:]
        assert m == len(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            e = (min(a, b), max(a, b))
            edge_multiset[e] = edge_multiset.get(e, 0) + 1
    # each edge is shared by exactly two faces
    assert len(edge_multiset) == ne
    assert set(edge_multiset.values()) == {2}


def test_off_faces_wound_counterclockwise(shared):
    real = shared.realization(parse("x4o3o"))
    lines = off_document(real).strip().splitlines()
    pts = real.points
    for fl in lines[2 + len(pts) :]:
        cycle = list(map(int, fl.split()))[1:]
        p = pts[cycle]
        c = p.mean(axis=0)
        total = np.zeros(3)
        for i in range(len(cycle)):
            total += np.cross(p[i] - c, p[(i + 1) % len(cycle)] - c)
        assert np.dot(total, c) > 0  # outward-facing normal


def test_off_rejects_other_dimensions(shared):
    with pytest.raises(UnsupportedDimension):
        off_document(shared.realization(parse("x3o4o3o")))


def test_realization_document(shared):
    real = shared.realization(parse("x4o3o"))
    doc = realization_document(real)
    assert doc["dimension"] == 3
    assert doc["f_vector"] == [8, 12, 6]
    assert len(doc["vertices"]) == 8
    assert len(doc["faces"]) == 12 + 6 + 1
    top = max(doc["faces"], key=lambda f: f["rank"])
    assert sorted(top["vertices"]) == list(range(8))


def test_realize_accepts_prebuilt_lattice(shared):
    lat = shared.lattice(parse("x3o3o"))
    real = realize(lat)
    assert len(real.points) == 4


def test_audit_reaches_the_last_partial_block(shared, monkeypatch):
    # B6: 46080 elements, so the last of the audit's blocks is partial
    lat = shared.lattice(parse("x4o3o3o3o3o"))
    g = lat.group
    target = g.order - 1
    assert g.order % ROW_BLOCK and target not in lat.slots_by_rank[0][0].table.reps
    images = g.point_images

    def perturbed(x, elements=slice(None)):
        out = images(x, elements)
        out[np.arange(g.order)[elements] == target, 0] += 1e-6
        return out

    monkeypatch.setattr(g, "point_images", perturbed)
    with pytest.raises(DedupCollision, match="representative"):
        realize(lat)


def test_shortest_edge_is_the_closest_pair(shared):
    # realize reads the separation off the edges; the cell-grid search over
    # all vertices is the independent route, and the two agree to the bit
    wl = benchmark_workloads()
    texts = wl.sweep_items(1) + sorted(wl.KNOWN_DEFECTS_I2) + list(wl.ORBIT_ITEMS)
    texts += wl.big_group_items() + ["x3x3x3x3x3x", "x5o3o3o"]
    for text in dict.fromkeys(texts):
        real = shared.realization(parse(text))
        assert real.edge_lengths.min() == min_pairwise_distance(real.points), text


def test_edge_lengths_equal_the_norm_route_to_the_bit(shared):
    # both ends are gathered by take and the root of the summed squares
    # taken, as np.linalg.norm takes it, so every length, the mean and the
    # spread are unchanged
    wl = benchmark_workloads()
    texts = wl.sweep_items(1) + sorted(wl.KNOWN_DEFECTS_I2) + list(wl.ORBIT_ITEMS)
    texts += wl.big_group_items()
    texts = list(dict.fromkeys(texts))
    assert len(texts) == 66
    for text in texts:
        real = shared.realization(parse(text))
        want = edge_lengths_by_norm(real)
        assert np.array_equal(_edge_lengths(real.lattice, real.points), want), text
        detail = edge_uniformity_check(real).detail
        assert detail["mean"] == float(want.mean()), text
        assert detail["relative_spread"] == float((want.max() - want.min()) / want.mean()), text


def test_point_images_equal_the_per_element_products_to_the_bit(shared, monkeypatch):
    # the terms gathered from pre-scaled roots are the same products, added
    # in the same order, so every image, point and deviation is unchanged
    wl = benchmark_workloads()
    texts = wl.sweep_items(1) + sorted(wl.KNOWN_DEFECTS_I2) + list(wl.ORBIT_ITEMS)
    texts += wl.big_group_items()
    texts = list(dict.fromkeys(texts))
    assert len(texts) == 66
    for text in texts:
        real = shared.realization(parse(text))
        g, x = real.lattice.group, wythoff_point(real.lattice.diagram)
        reps = real.lattice.slots_by_rank[0][0].table.reps
        assert np.array_equal(g.point_images(x), point_images_by_products(g, x)), text
        assert np.array_equal(g.point_images(x, reps), point_images_by_products(g, x, reps)), text
        with monkeypatch.context() as m:
            m.setattr(g, "point_images", functools.partial(point_images_by_products, g))
            want = realize(real.lattice)
        assert np.array_equal(real.points, want.points), text
        assert real.deviation == want.deviation, text


def test_vertices_closer_than_the_separation_are_refused(shared, monkeypatch):
    # the cube's edge is 2 / sqrt(3) on the unit sphere
    lat = shared.lattice(parse("x4o3o"))
    monkeypatch.setattr(geometry, "POINT_SEPARATION", 2 / np.sqrt(3) - 1e-9)
    assert realize(lat).points.shape == (8, 3)
    monkeypatch.setattr(geometry, "POINT_SEPARATION", 2 / np.sqrt(3) + 1e-9)
    with pytest.raises(DedupCollision, match=r"distinct vertices only 1\.15e\+00 apart"):
        realize(lat)


@pytest.mark.parametrize("text", ["x4o3o3o3o3o", "x3o3o3o3o3o3o"])
def test_realize_builds_no_array_of_every_image(shared, text):
    lat = shared.lattice(parse(text))
    g = lat.group
    # the group keeps each element's images of the n simple roots only
    assert g.perms.shape == (g.order, g.n_gens)
    # one (|G|, dim) float array of images is 1x; gathering every simple
    # root's image of every element before adding them up is n times that
    tracemalloc.start()
    try:
        realize(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.order * g.roots.roots.shape[1] * 8


def test_containment_peak_memory(shared):
    # 14400 vertices: each slot's membership table is dropped after the
    # last cover block that reads it
    real = shared.realization(parse("x5x3x3x"))
    containment_check(real)
    tracemalloc.start()
    try:
        report = containment_check(real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1_000_000


def _with_face_vertices(real, slot, fv):
    """real on a shallow copy of its lattice whose slot has the vertex lists fv.

    The copy gets a dict of its own, so the shared lattice keeps its lists.
    """
    lat = copy.copy(real.lattice)
    lat.face_vertices = {**real.lattice.face_vertices, slot.offset: fv}
    return replace(real, lattice=lat)


@pytest.mark.parametrize("text", ["x3x4o", "o5o3x3o", "x4o3o3o3o3o"])
def test_a_wrong_vertex_on_a_non_base_face_fails(shared, text):
    # affine_rank measures each slot's base face only; containment ties
    # every other face's list to the covers
    real = shared.realization(parse(text))
    for k in range(1, real.lattice.n):
        s = real.lattice.slots_by_rank[k][0]
        fv = real.slot_vertices(s).copy()
        fv[1, 0] = np.setdiff1d(np.arange(len(real.points)), fv[1])[0]
        bad = _with_face_vertices(real, s, fv)
        assert not verify_realization(bad)["containment"].ok, (text, k)


def _copied_faces(real):
    """(rank, real with one vertex row copied over another face's) for every rank.

    The vertex row of a rank's first face overwrites the last face of the
    same width, across slots where the rank has several of that width: as
    it is, reversed and permuted.
    """
    rng = np.random.default_rng(31)
    for k in range(real.lattice.n):
        slots = real.lattice.slots_by_rank[k]
        src = real.slot_vertices(slots[0])[0]
        dst = [s for s in slots if real.slot_vertices(s).shape[1] == len(src)][-1]
        for row in (src, src[::-1], rng.permutation(src)):
            fv = real.slot_vertices(dst).copy()
            fv[-1] = row
            yield k, _with_face_vertices(real, dst, fv)


@pytest.mark.parametrize("text", ["x3x4o", "x4x3x"])
def test_a_copied_face_is_one_duplicate(shared, text):
    # a face's key ignores the order of its list, so a copy in any order
    # is the one duplicate
    real = shared.realization(parse(text))
    assert geometry.distinct_faces_check(real).detail["duplicates"] == 0
    for k, bad in _copied_faces(real):
        report = geometry.distinct_faces_check(bad)
        assert not report.ok and report.detail["duplicates"] == 1, (text, k)


@pytest.mark.parametrize("text", ["x3x4o", "x4x3x", "o5o3x3o"])
def test_colliding_face_keys_are_compared_exactly(shared, monkeypatch, text):
    # one word for every vertex gives all faces of a width one key, so every
    # row is compared on the exact path: sorted, then lexsorted with the
    # other tied rows
    real = shared.realization(parse(text))
    monkeypatch.setattr(geometry, "_vertex_words", lambda count: np.full(count, 7, np.uint64))
    assert geometry.distinct_faces_check(real).detail["duplicates"] == 0
    for k, bad in _copied_faces(real):
        assert geometry.distinct_faces_check(bad).detail["duplicates"] == 1, (text, k)


def test_distinct_faces_lexsorts_only_the_tied_rows(shared, monkeypatch):
    # on a valid lattice no two keys tie and nothing is lexsorted; a copied
    # face ties with its original, and those two rows alone are
    real = shared.realization(parse("o5x3x3x"))
    lexsorted = []
    lexsort = np.lexsort

    def counted(keys):
        lexsorted.append(np.shape(keys)[1])
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counted)
    assert geometry.distinct_faces_check(real).ok
    assert lexsorted == []
    for k, bad in _copied_faces(real):
        assert geometry.distinct_faces_check(bad).detail["duplicates"] == 1, k
    assert lexsorted == [2] * 3 * real.lattice.n
