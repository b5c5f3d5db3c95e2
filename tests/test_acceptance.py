"""Acceptance battery: one test per criterion, run with pytest -v.

Each test prints a single CRITERION line summarizing what was measured;
the pytest verdict for the test is the pass/fail signal.  Time budgets are
asserted inside the tests that carry one.
"""

import time
from itertools import chain, combinations

import pytest

from oracles import reachable_decorations
from sweep import decorated_variants, rank_34_diagrams, sweep_diagrams
from wythoff.decoration import (
    decoration_from_selection,
    f_vector_formula,
    start_decoration,
    valid_selection_sets,
)
from wythoff.diagram import disjoint_union, family_diagram, group_order, parse
from wythoff.face_lattice import (
    build_lattice,
    diamond_report,
    euler_ok,
    flag_report,
    lattices_isomorphic,
)
from wythoff.geometry import (
    UNIFORM_EDGE_TOL,
    edge_uniformity_check,
    polar_dual_check,
    realize,
    ridge_reflection_check,
    verify_realization,
)
from wythoff.regular import (
    is_flag_transitive,
    known_f_vector,
    oracle_gap_reason,
    regular_catalog,
    ruled_verdict,
)


def test_criterion_01_truncated_cube_under_one_second():
    """f-vector (24, 36, 14) with 6 octagons and 8 triangles, from scratch, < 1 s."""
    t0 = time.monotonic()
    lat = build_lattice(parse("o3x4x"))
    real = realize(lat)
    elapsed = time.monotonic() - t0
    assert lat.f_vector == (24, 36, 14)
    polygon_sizes = sorted(
        real.slot_vertices(s).shape[1] for s in lat.slots_by_rank[2] for _ in range(s.count)
    )
    assert polygon_sizes == [3] * 8 + [8] * 6
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"CRITERION 1: PASS (f=(24,36,14), 8 triangles + 6 octagons, {elapsed:.3f}s)")


def test_criterion_02_formula_vs_enumerated_f_vectors_sweep(shared):
    """Orbit-counting f-vectors equal enumerated ones on every decoration, < 2 min."""
    t0 = time.monotonic()
    checked = 0
    for base in sweep_diagrams():
        for d in decorated_variants(base):
            assert shared.lattice(d).f_vector == f_vector_formula(d), d
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 2: PASS ({checked} decorations, {elapsed:.1f}s)")


def test_criterion_03_structural_battery_zero_violations(shared):
    """Diamond, flag degree/connectivity, Euler, affine rank, containment."""
    checked = 0
    for base in sweep_diagrams():
        for d in decorated_variants(base):
            lat = shared.lattice(d)
            assert euler_ok(lat), d
            assert diamond_report(lat).ok, d
            fr = flag_report(lat)
            assert fr.degree_ok and fr.connected, d
            reports = verify_realization(shared.realization(d))
            bad = {k: r.detail for k, r in reports.items() if not r.ok}
            assert not bad, (d, bad)
            checked += 1
    print(f"CRITERION 3: PASS ({checked} decorations, zero violations)")


def test_criterion_04_rewrite_reachability_equals_valid_selections():
    """BFS over the rewriting rule = one-shot valid selections, exhaustively."""
    diagrams = [d for d in sweep_diagrams() if d.rank <= 6]
    diagrams.append(family_diagram("E", 6))
    diagrams.append(family_diagram("D", 6))
    diagrams.append(disjoint_union(parse("x4o"), parse("x3o")))
    diagrams.append(disjoint_union(parse("x"), parse("x"), parse("x")))
    pairs = 0
    for base in diagrams:
        n = base.rank
        for rings in chain.from_iterable(
            combinations(range(n), r) for r in range(1, n + 1)
        ):
            d = base.with_marks(tuple(1 if i in rings else 0 for i in range(n)))
            start = start_decoration(d)
            if any(
                all(start.values[v] == 0 for v in comp) for comp in d.components()
            ):
                continue  # degenerate marking
            for k in range(n + 1):
                reached = reachable_decorations(start, k)
                built = {
                    decoration_from_selection(start, s)
                    for s in valid_selection_sets(start, k)
                }
                assert reached == built, (d, k)
                pairs += 1
    print(f"CRITERION 4: PASS ({pairs} (diagram, rank) cells agree)")


def test_criterion_05_regular_classification_dims_2_to_8(shared):
    """Catalog contents per dimension; f-vectors verified, formula-only above 5."""
    cat2 = regular_catalog(2, kmax=12)
    assert set(cat2) == {
        "triangle", "square", "pentagon", "hexagon", "heptagon", "octagon",
        "9-gon", "10-gon", "11-gon", "12-gon",
    }
    cat3 = regular_catalog(3)
    assert set(cat3) == {
        "3-simplex", "3-hypercube", "3-hyperoctahedron", "icosahedron", "dodecahedron",
    }
    cat4 = regular_catalog(4)
    assert set(cat4) == {
        "4-simplex", "4-hypercube", "4-hyperoctahedron", "24-cell", "600-cell", "120-cell",
    }
    enumerated = 0
    for dim in (2, 3, 4):
        for name, constructions in regular_catalog(dim, kmax=12).items():
            for d in constructions:
                assert ruled_verdict(d).name == name
                assert f_vector_formula(d) == known_f_vector(name)
                assert shared.lattice(d).f_vector == known_f_vector(name)
                enumerated += 1
    formula_only = 0
    for dim in range(5, 9):
        cat = regular_catalog(dim)
        assert set(cat) == {
            f"{dim}-simplex", f"{dim}-hypercube", f"{dim}-hyperoctahedron",
        }
        for name, constructions in cat.items():
            for d in constructions:
                assert f_vector_formula(d) == known_f_vector(name)
                formula_only += 1
    print(
        "CRITERION 5: PASS "
        f"({enumerated} constructions enumerated, {formula_only} formula-only)"
    )


def test_criterion_06_twenty_four_cell_triple_isomorphism():
    """Three 24-cell constructions agree and are lattice-isomorphic, < 30 s."""
    t0 = time.monotonic()
    lats = [
        build_lattice(family_diagram("D", 4, ringed=(1,))),
        build_lattice(parse("o4o3x3o")),
        build_lattice(parse("x3o4o3o")),
    ]
    for lat in lats:
        assert lat.f_vector == (24, 96, 96, 24)
    assert lattices_isomorphic(lats[0], lats[1])
    assert lattices_isomorphic(lats[1], lats[2])
    assert lattices_isomorphic(lats[0], lats[2])
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 6: PASS (three builds + three isomorphisms, {elapsed:.2f}s)")


def test_criterion_07_geometric_regularity_of_catalog(shared):
    """Ridge reflections and polar duals on every catalog entry, < 5 min."""
    t0 = time.monotonic()
    checked = []
    for dim in (2, 3, 4):
        for name, constructions in regular_catalog(dim, kmax=12).items():
            for d in constructions:
                if group_order(d) > 20000:
                    continue
                real = shared.realization(d)
                assert ridge_reflection_check(real).ok, (name, d)
                assert polar_dual_check(real).ok, (name, d)
                checked.append(name)
    assert "600-cell" in checked and "120-cell" in checked
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 7: PASS ({len(checked)} constructions, {elapsed:.1f}s)")


def test_criterion_08_edge_uniformity_sweep(shared):
    """All edge lengths equal within 1e-9 relative spread, every decoration."""
    worst = 0.0
    checked = 0
    for base in sweep_diagrams():
        for d in decorated_variants(base):
            rep = edge_uniformity_check(shared.realization(d))
            assert rep.ok, (d, rep.detail)
            worst = max(worst, rep.detail["relative_spread"])
            checked += 1
    assert worst <= UNIFORM_EDGE_TOL
    print(f"CRITERION 8: PASS ({checked} decorations, worst spread {worst:.2e})")


def test_criterion_09_ruled_vs_oracle_with_documented_gaps(shared):
    """Table verdicts equal the flag-transitivity oracle modulo listed gaps."""
    agreements = 0
    gaps = 0
    for d in rank_34_diagrams():
        verdict = ruled_verdict(d)
        oracle = is_flag_transitive(shared.lattice(d))
        reason = oracle_gap_reason(d)
        assert not (oracle and not verdict.regular), (
            "oracle found an unlisted regular",
            d,
        )
        if verdict.regular and not oracle:
            assert reason is not None, ("undocumented gap", d)
            real = shared.realization(d)
            assert ridge_reflection_check(real).ok, d
            assert polar_dual_check(real).ok, d
            gaps += 1
        else:
            assert verdict.regular == oracle, d
            assert reason is None or verdict.regular
            agreements += 1
    assert gaps >= 6  # A3 mid, D4 leaf/center, B4 interior, boxes, doubled polygons
    print(f"CRITERION 9: PASS ({agreements} agreements, {gaps} documented gaps)")
