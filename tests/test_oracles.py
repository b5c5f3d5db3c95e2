"""The library's flag, transitivity, diamond, containment and isomorphism
answers agree with the routes in oracles.py on every input set below."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    _containment_by_sparse,
    _diamond_by_sparse,
    _flag_graph_direct,
    _is_flag_transitive_by_orbit,
    _lattices_isomorphic_per_flag,
    flag_moves_by_search,
    flag_partners_by_rows,
    flag_report_by_holonomy,
)
from sweep import (
    big_group_diagrams,
    decorated_variants,
    orbit_diagrams,
    rank_34_diagrams,
    sweep_diagrams,
    sweep_products,
)
from wythoff import face_lattice
from wythoff.diagram import parse
from wythoff.face_lattice import (
    FaceLattice,
    diamond_report,
    flag_partners,
    flag_report,
    lattices_isomorphic,
)
from wythoff.geometry import containment_check
from wythoff.regular import is_flag_transitive

# beyond this many flags the explicit flag graph costs the suite too much
# time and memory
DIRECT_FLAG_LIMIT = 700_000

INPUT_SETS = {
    "sweep": lambda: [d for base in sweep_diagrams() for d in decorated_variants(base)],
    "products": sweep_products,
    "rank_34": lambda: list(rank_34_diagrams()),
    "big_group": big_group_diagrams,
    "orbit": orbit_diagrams,
}


@pytest.mark.parametrize("name", INPUT_SETS)
def test_flag_report_matches_direct_graph(shared, name):
    compared = 0
    for d in INPUT_SETS[name]():
        lat = shared.lattice(d)
        if lat.flag_count() > DIRECT_FLAG_LIMIT:
            continue
        covering = flag_report(lat)
        direct, partners = _flag_graph_direct(lat)
        assert covering == replace(direct, method="covering"), d
        assert covering.ok, d
        assert np.array_equal(flag_partners(lat), partners), d
        compared += 1
    assert compared


@pytest.mark.parametrize("name", ["rank_34", "products", "orbit", "big_group"])
def test_flag_moves_match_subgroup_search(shared, name):
    for d in INPUT_SETS[name]():
        lat = shared.lattice(d)
        g = lat.group
        old = flag_moves_by_search(lat)
        # the library names each move's element by its node, s_i or None
        moves = {
            key: (0 if i is None else int(g.rmult[i, 0]), cj)
            for key, (i, cj) in face_lattice._flag_moves(lat).items()
        }
        assert moves == old, d
        by_holonomy = flag_report_by_holonomy(lat, old)
        assert flag_report(lat) == replace(by_holonomy, method="covering"), d
        assert by_holonomy.ok, d
        assert np.array_equal(flag_partners(lat), flag_partners_by_rows(lat, old)), d


@pytest.mark.parametrize("name", INPUT_SETS)
def test_transitivity_matches_orbit_closure(shared, name):
    for d in INPUT_SETS[name]():
        lat = shared.lattice(d)
        expected = _is_flag_transitive_by_orbit(lat)
        assert is_flag_transitive(lat) == expected, d
        assert is_flag_transitive(d) == expected, d


@pytest.mark.parametrize("name", INPUT_SETS)
def test_diamond_and_containment_match_sparse_products(shared, name):
    for d in INPUT_SETS[name]():
        lat = shared.lattice(d)
        assert diamond_report(lat) == _diamond_by_sparse(lat), d
        real = shared.realization(d)
        assert containment_check(real) == _containment_by_sparse(real), d


def _corrupted_cube(shared):
    """The cube with a cover dropped, one duplicated and two moved.

    A vertex moves to an edge without it (a total miss for containment) and
    an edge to a square sharing one of its vertices (a partial miss).
    """
    real = shared.realization(parse("x4o3o"))
    lat = real.lattice
    cov = lat.covers.copy()
    rank = lat.face_rank
    for k, i in ((0, 3), (1, 0)):
        i = np.flatnonzero(rank[cov[:, 0]] == k)[i]
        lower = set(real.vertices_of(int(cov[i, 0])).tolist())
        cov[i, 1] = next(
            f for f in np.flatnonzero(rank == k + 1)
            if len(lower & set(real.vertices_of(int(f)).tolist())) == k
        )
    cov = np.vstack([cov[1:], cov[-10:-9]])
    bad = FaceLattice(lat.diagram, lat.start, lat.group, lat.slots_by_rank)
    bad.covers = cov
    return bad, replace(real, lattice=bad)


def test_corrupted_lattice_reports_agree(shared):
    bad, real = _corrupted_cube(shared)
    new, old = diamond_report(bad), _diamond_by_sparse(bad)
    assert new.pairs_checked == old.pairs_checked
    # the sparse product lists the columns of one row in its own order
    assert sorted(new.violations, key=repr) == sorted(old.violations, key=repr)
    lower_rank = [0 if lo is None else bad.face_rank[lo] + 1 for lo, _, _ in new.violations]
    assert new.violations and max(np.bincount(lower_rank)) < 10
    bottom_first = sorted(new.violations, key=lambda v: (-1 if v[0] is None else v[0], v[1]))
    assert new.violations == bottom_first
    report = containment_check(real)
    assert report == _containment_by_sparse(real)
    assert report.detail == {"covers": len(bad.covers), "violations": 2}


def test_isomorphism_matches_per_flag_starts(shared):
    lats = [shared.lattice(d) for d in rank_34_diagrams()]
    pairs = 0
    for a, b in combinations(lats, 2):
        if (a.f_vector, a.flag_count()) != (b.f_vector, b.flag_count()):
            continue
        assert lattices_isomorphic(a, b) == _lattices_isomorphic_per_flag(a, b), (
            a.diagram, b.diagram
        )
        pairs += 1
    assert pairs >= 79
