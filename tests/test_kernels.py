import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import min_pairwise_by_projection, sorted_unique
from wythoff._kernels import found_at, match_rows, min_pairwise_distance
from wythoff.diagram import family_diagram, parse
from wythoff.reflection_group import root_system

ORBIT_RING_SETS = ("o5o3x3o", "o5x3o3o", "o5o3x3x", "x5x3o3o", "x5o3o3x", "o5x3o3x", "o5x3x3x")


def _brute_match(points, ref, tol):
    """Lowest index of a row of ref within tol of each row, from the full matrix."""
    if len(ref) == 0:
        return np.full(len(points), -1)
    hit = ((points[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2) <= tol * tol
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def _brute_min(pts):
    """Every pair, with the kernel's own row-wise expression."""
    i, j = np.triu_indices(len(pts), 1)
    return float(np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=1).min()))


def test_match_rows_recovers_permutation():
    rng = np.random.default_rng(7)
    ref = rng.normal(size=(50, 4))
    perm = rng.permutation(50)
    idx = match_rows(ref[perm], ref, 1e-9)
    assert np.array_equal(idx, perm)


def test_match_rows_reports_misses():
    ref = np.eye(3)
    probe = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    idx = match_rows(probe, ref, 1e-6)
    assert idx[0] == 0 and idx[1] == -1


def test_match_rows_tolerance_boundary():
    ref = np.array([[0.0, 0.0]])
    near = np.array([[1e-8, 0.0]])
    far = np.array([[1e-4, 0.0]])
    assert match_rows(near, ref, 1e-7)[0] == 0
    assert match_rows(far, ref, 1e-7)[0] == -1


def test_match_rows_probe_at_exactly_tol_matches():
    tol = 0.25  # exact in binary, so the probe's distance is exactly tol
    ref = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    probe = ref + np.array([[tol, 0.0, 0.0], [0.0, 0.0, -tol]])
    assert np.array_equal(match_rows(probe, ref, tol), [0, 1])
    assert np.array_equal(_brute_match(probe, ref, tol), [0, 1])
    assert np.array_equal(match_rows(probe, ref, np.nextafter(tol, 0)), [-1, -1])


def test_match_rows_empty_reference():
    probe = np.ones((2, 3))
    idx = match_rows(probe, np.empty((0, 3)), 1e-6)
    assert np.array_equal(idx, [-1, -1])
    assert np.array_equal(idx, _brute_match(probe, np.empty((0, 3)), 1e-6))


def test_match_rows_empty_points():
    idx = match_rows(np.empty((0, 3)), np.ones((4, 3)), 1e-6)
    assert idx.shape == (0,)
    assert np.array_equal(idx, _brute_match(np.empty((0, 3)), np.ones((4, 3)), 1e-6))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_match_rows_matches_brute_force(dim):
    rng = np.random.default_rng(dim)
    ref = rng.normal(size=(200, dim))
    probe = np.vstack([ref[rng.permutation(200)[:80]] + 1e-9, rng.normal(size=(80, dim))])
    for tol in (1e-7, 0.05, 0.5):
        assert np.array_equal(match_rows(probe, ref, tol), _brute_match(probe, ref, tol))


def test_match_rows_lowest_duplicate_wins():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(30, 3))
    ref = base[rng.integers(0, 30, size=90)]  # every row repeated, in shuffled order
    got = match_rows(base, ref, 1e-9)
    assert np.array_equal(got, _brute_match(base, ref, 1e-9))
    for i, j in enumerate(got):
        if j >= 0:
            assert j == np.flatnonzero((ref == base[i]).all(axis=1)).min()


def test_match_rows_one_dimension_ties():
    # in one dimension every repeated value ties in projection
    ref = np.array([[0.0], [1.0], [0.0], [2.0], [1.0], [0.0]])
    probe = np.array([[0.0], [1.0], [2.0], [3.0], [1.5]])
    assert np.array_equal(match_rows(probe, ref, 1e-9), [0, 1, 3, -1, -1])
    assert np.array_equal(match_rows(probe, ref, 0.5), _brute_match(probe, ref, 0.5))


def test_match_rows_ties_beyond_one_block():
    # 900 probes tie with 300 rows each: more candidate pairs than one pass takes
    rng = np.random.default_rng(9)
    ref = rng.permutation(np.repeat([[0.0], [1.0], [2.0]], 300, axis=0))
    probe = np.vstack([ref, [[0.5], [3.0]]])
    got = match_rows(probe, ref, 1e-9)
    assert np.array_equal(got, _brute_match(probe, ref, 1e-9))
    assert got[-1] == got[-2] == -1
    assert min_pairwise_distance(ref) == 0.0


def test_match_rows_shifted_and_far_rows():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(200, 4))
    probe = np.vstack([ref[::3] + 1e-9, rng.normal(size=(40, 4)) * 10 + 50])
    expected = np.concatenate([np.arange(0, 200, 3), np.full(40, -1)])
    assert np.array_equal(match_rows(probe, ref, 1e-7), expected)
    assert min_pairwise_distance(probe) > 0


def test_min_pairwise_small_cases():
    assert min_pairwise_distance(np.zeros((1, 3))) == np.inf
    assert min_pairwise_distance(np.zeros((0, 3))) == np.inf
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert min_pairwise_distance(pts) == pytest.approx(1.0)


def test_min_pairwise_matches_brute_force():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 5))
    assert min_pairwise_distance(pts) == _brute_min(pts)


def test_min_pairwise_duplicates_and_ties():
    assert min_pairwise_distance(np.array([[1.0, 2.0], [3.0, 1.0], [1.0, 2.0]])) == 0.0
    line = np.array([[0.0], [5.0], [2.0], [2.5], [9.0], [5.0 + 1e-3]])
    assert min_pairwise_distance(line) == pytest.approx(1e-3, rel=1e-9)
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), axis=-1).reshape(-1, 2)
    assert min_pairwise_distance(grid * 0.5) == 0.5


@pytest.mark.parametrize("text", ORBIT_RING_SETS + ("x5x3x3x", "x3x3x3x3x3x", "x999x"))
def test_min_pairwise_equals_projection_walk_on_vertices(shared, text):
    pts = shared.realization(parse(text)).points
    assert min_pairwise_distance(pts) == min_pairwise_by_projection(pts)


@pytest.mark.parametrize(
    "family,rank", [("E", 6), ("E", 7), ("E", 8), ("B", 8), ("D", 8), ("H", 4), ("F", 4)]
)
def test_min_pairwise_equals_projection_walk_on_roots(family, rank):
    roots = root_system(family_diagram(family, rank)).roots
    assert min_pairwise_distance(roots) == min_pairwise_by_projection(roots)


@st.composite
def _point_sets(draw):
    """Random rows at any scale, with near-duplicates and rounded (tied) rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(2, 300))
    scale = 10.0 ** draw(st.floats(-6, 3))
    pts = rng.normal(size=(n, dim)) * scale
    if draw(st.booleans()):
        k = draw(st.integers(1, n))
        src, dst = rng.integers(0, n, size=(2, k))
        pts[dst] = pts[src] + rng.normal(size=(k, dim)) * scale * 1e-9
    if draw(st.booleans()):
        pts = np.round(pts / scale, draw(st.integers(0, 2))) * scale
    return pts


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_point_sets())
def test_min_pairwise_property_against_brute_force(pts):
    assert min_pairwise_distance(pts) == _brute_min(pts)


def test_min_pairwise_all_rows_equal():
    assert min_pairwise_distance(np.full((50, 4), 2.5)) == 0.0


def test_min_pairwise_row_zero_far_from_a_tight_cluster():
    # row 0's nearest row is 1000 away, so the cluster fills a cell or two
    rng = np.random.default_rng(4)
    cluster = rng.normal(size=(400, 4)) * 1e-3
    pts = np.vstack([[1000.0, 0.0, 0.0, 0.0], cluster])
    assert min_pairwise_distance(pts) == _brute_min(pts)
    assert min_pairwise_distance(pts) < 1e-3


def test_min_pairwise_tiny_pair_in_a_huge_extent():
    # row 0 has a partner 2e-3 away, so cells of that side would number
    # about 1e12 / 1e3 per axis and overflow int64 keys: the side is raised
    rng = np.random.default_rng(6)
    for dim in (1, 2, 3, 4, 6):
        pts = rng.uniform(0.0, 1e12, size=(200, dim))
        pts[1] = pts[0] + 2e-3 / np.sqrt(dim)
        pts[7] = pts[100] + 1e-3 / np.sqrt(dim)
        got = min_pairwise_distance(pts)
        assert got == _brute_min(pts)
        assert got < 1.5e-3


@st.composite
def _integer_keys(draw):
    """uint32 or int64 keys, from a narrow range (many repeats) or a wide one."""
    dtype = draw(st.sampled_from([np.uint32, np.int64]))
    lo, hi = (0, 2**32 - 1) if dtype == np.uint32 else (-(2**62), 2**62)
    if draw(st.booleans()):
        lo = draw(st.integers(lo, hi))
        hi = min(hi, lo + draw(st.integers(0, 5)))
    return np.array(draw(st.lists(st.integers(lo, hi), max_size=300)), dtype=dtype)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_integer_keys())
@example(np.array([], dtype=np.int64))
@example(np.array([7], dtype=np.uint32))
@example(np.full(50, 2**62, dtype=np.int64))
@example(np.array([[3, 1], [3, 2**62]], dtype=np.int64))
def test_sorted_unique_is_numpy_unique(keys):
    got, want = sorted_unique(keys), np.unique(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_integer_keys(), _integer_keys())
@example(np.array([], dtype=np.int64), np.array([[1, 2]], dtype=np.int64))
@example(np.array([5, 9], dtype=np.int64), np.array([[9, 4], [5, 10]], dtype=np.int64))
def test_found_at_is_membership(ref, keys):
    ref = sorted_unique(ref)
    got = found_at(ref, keys, np.searchsorted(ref, keys))
    assert got.shape == keys.shape and np.array_equal(got, np.isin(keys, ref))
    assert found_at(ref, ref, np.arange(len(ref))).all()


# the library calls no numpy dedup: these numpy calls build a hash set
# before they sort
NUMPY_DEDUP = {"unique", "intersect1d", "isin"}


def _numpy_dedup_calls(source: str) -> list:
    """(line, name) of every numpy dedup call or import in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in NUMPY_DEDUP]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in NUMPY_DEDUP
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_the_scan_sees_calls_and_not_text():
    source = (
        '"""np.unique(keys) in a docstring."""\n'
        "import numpy\n"
        "from numpy import isin\n"
        "a = numpy.unique(b)  # np.intersect1d in a comment\n"
        "c = np.intersect1d(a, b)\n"
    )
    assert _numpy_dedup_calls(source) == [(3, "isin"), (4, "unique"), (5, "intersect1d")]


def test_no_library_module_calls_a_numpy_dedup():
    src = Path(__file__).resolve().parents[1] / "src" / "wythoff"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 10
    found = {
        p.name: calls for p in modules if (calls := _numpy_dedup_calls(p.read_text("utf-8")))
    }
    assert found == {}


# the group layer decides which roots are equal on their exact integer form,
# so it reads no point kernel
POINT_KERNELS = {"match_rows", "min_pairwise_distance"}


def _point_kernel_references(source: str) -> list:
    """(line, name) of every name, attribute or import of a point kernel in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in POINT_KERNELS]
        elif isinstance(node, ast.Attribute) and node.attr in POINT_KERNELS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in POINT_KERNELS:
            found.append((node.lineno, node.id))
    return sorted(found)


def test_the_kernel_scan_sees_references_and_not_text():
    source = (
        '"""match_rows in a docstring."""\n'
        "from ._kernels import match_rows\n"
        "a = _kernels.min_pairwise_distance(b)  # match_rows in a comment\n"
        "c = match_rows\n"
    )
    assert _point_kernel_references(source) == [
        (2, "match_rows"), (3, "min_pairwise_distance"), (4, "match_rows")
    ]


def test_group_layer_references_no_point_kernel():
    path = Path(__file__).resolve().parents[1] / "src" / "wythoff" / "reflection_group.py"
    assert _point_kernel_references(path.read_text("utf-8")) == []


# the group layer's one dedup is the sort of each search layer: no element
# is looked up after it, and no coset is labelled by hooking rounds; the
# containment check reads its membership tables by direct address
GROUP_LOOKUPS = {"searchsorted", "found_at", "_coset_minima"}


def _lookup_references(source: str, scope: str) -> list:
    """(line, name) of every lookup referenced in one function, "f" or "Class.f"."""
    *owners, name = scope.split(".")
    body = ast.parse(source).body
    for owner in owners:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner).body
    func = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr in GROUP_LOOKUPS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in GROUP_LOOKUPS:
            found.append((node.lineno, node.id))
    return sorted(found)


def test_the_lookup_scan_reads_only_the_named_function():
    source = (
        "def enumerate_group(d):\n"
        '    """searchsorted in a docstring."""\n'
        "    pos = np.searchsorted(keys, want)  # found_at in a comment\n"
        "    return _kernels.found_at(keys, want, pos)\n"
        "class Group:\n"
        "    def coset_table(self, nodes):\n"
        "        return _coset_minima(self.order, tables)\n"
        "def key_layout(perms):\n"
        "    return _coset_minima(len(perms[0]), list(perms))\n"
    )
    assert _lookup_references(source, "enumerate_group") == [(3, "searchsorted"), (4, "found_at")]
    assert _lookup_references(source, "Group.coset_table") == [(7, "_coset_minima")]


def test_the_group_tables_come_from_the_search_without_a_lookup():
    path = Path(__file__).resolve().parents[1] / "src" / "wythoff" / "reflection_group.py"
    source = path.read_text("utf-8")
    assert _lookup_references(source, "enumerate_group") == []
    assert _lookup_references(source, "Group.coset_table") == []


def test_containment_reads_its_tables_without_a_lookup():
    path = Path(__file__).resolve().parents[1] / "src" / "wythoff" / "geometry.py"
    source = path.read_text("utf-8")
    assert _lookup_references(source, "containment_check") == []
    assert _lookup_references(source, "_membership_table") == []
