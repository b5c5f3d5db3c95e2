import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import constructions_of
from wythoff import regular
from wythoff.decoration import f_vector_formula, face_restriction, start_decoration
from wythoff.diagram import (
    DecoratedDiagram,
    canonical_certificate,
    disjoint_union,
    family_diagram,
    parse,
)
from wythoff.errors import BudgetExceeded, Degenerate, UnknownName
from wythoff.regular import (
    canonical_name,
    is_flag_transitive,
    known_f_vector,
    oracle_gap_reason,
    regular_catalog,
    regularity_witness,
    ruled_verdict,
    shape_signature,
)

RULED_POSITIVE = {
    "x4o3o": "3-hypercube",
    "o4o3x": "3-hyperoctahedron",
    "x3o3o": "3-simplex",
    "o3x3o": "3-hyperoctahedron",
    "x5o3o": "dodecahedron",
    "o5o3x": "icosahedron",
    "x3o4o3o": "24-cell",
    "o3o4o3x": "24-cell",
    "o4o3x3o": "24-cell",
    "o5o3o3x": "600-cell",
    "x5o3o3o": "120-cell",
    "x3o3o3o": "4-simplex",
    "x4o3o3o": "4-hypercube",
    "o4o3o3x": "4-hyperoctahedron",
    "x5o": "pentagon",
    "x8o": "octagon",
    "x3x": "hexagon",
    "x4x": "octagon",
    "x": "segment",
}

RULED_NEGATIVE = [
    "o3x4x",
    "o4x3o",
    "x3x3o",
    "x3o3x",
    "o3x3o3o",
    "x4x3x",
    "o4x3o3o",
    "x3x3x3x",
]


@pytest.mark.parametrize("text,name", RULED_POSITIVE.items(), ids=RULED_POSITIVE)
def test_ruled_positive(text, name):
    v = ruled_verdict(parse(text))
    assert v.regular and v.name == name


@pytest.mark.parametrize("text", RULED_NEGATIVE)
def test_ruled_negative_with_witness(text):
    v = ruled_verdict(parse(text))
    assert not v.regular and v.name is None
    assert v.witness is not None
    k, a, b = v.witness
    assert a != b and 2 <= k < parse(text).rank
    sa = shape_signature(parse(text).induced(list(a)))
    sb = shape_signature(parse(text).induced(list(b)))
    assert sa != sb


def test_ruled_d_family():
    assert ruled_verdict(family_diagram("D", 4, ringed=(0,))).name == "4-hyperoctahedron"
    assert ruled_verdict(family_diagram("D", 4, ringed=(1,))).name == "24-cell"
    assert ruled_verdict(family_diagram("D", 5, ringed=(0,))).name == "5-hyperoctahedron"
    demi = ruled_verdict(family_diagram("D", 5, ringed=(3,)))
    assert not demi.regular and demi.witness is not None


def test_ruled_e_family_never_regular():
    for rank in (6, 7, 8):
        for v in range(rank):
            verdict = ruled_verdict(family_diagram("E", rank, ringed=(v,)))
            assert not verdict.regular


def test_ruled_box_products():
    box = disjoint_union(parse("x"), parse("x"), parse("x"))
    assert ruled_verdict(box).name == "3-hypercube"
    prism = disjoint_union(parse("x4o"), parse("x"))
    assert ruled_verdict(prism).name == "3-hypercube"
    tri_prism = disjoint_union(parse("x3o"), parse("x"))
    v = ruled_verdict(tri_prism)
    assert not v.regular
    wrong_end = disjoint_union(parse("o4x"), parse("x"))
    assert ruled_verdict(wrong_end).name == "3-hypercube"  # symmetric 2-chain
    bad_ring = disjoint_union(parse("o4o3x"), parse("x"))
    assert not ruled_verdict(bad_ring).regular


def test_signatures_identify_equal_shapes():
    octa_a = parse("o3x3o")
    octa_b = parse("o4o3x")
    cube = parse("x4o3o")
    assert shape_signature(octa_a) == shape_signature(octa_b)
    assert shape_signature(octa_a) != shape_signature(cube)


def test_witness_names_two_distinct_shapes():
    w = regularity_witness(parse("o3x4x"))
    assert w == (2, (0, 1), (1, 2))


def test_oracle_matches_ruled_on_true_regulars(shared):
    for text in ["x4o3o", "o4o3x", "x3o3o", "x5o3o", "o5o3x", "x3o4o3o", "x5o"]:
        assert is_flag_transitive(shared.lattice(parse(text))), text
    for text in ["o3x4x", "x3x3o", "x3o3x", "o4x3o"]:
        assert not is_flag_transitive(shared.lattice(parse(text))), text


def test_transitivity_without_enumeration():
    # |B8| = 10321920 and |E8| = 696729600 are both over the enumeration budget
    assert is_flag_transitive(family_diagram("B", 8, ringed=(0,)))
    assert not is_flag_transitive(family_diagram("E", 8, ringed=(0,)))
    with pytest.raises(Degenerate):
        is_flag_transitive(parse("o3o"))


def test_oracle_gap_cases(shared):
    gaps = [
        parse("o3x3o"),
        family_diagram("D", 4, ringed=(0,)),
        family_diagram("D", 4, ringed=(1,)),
        parse("o4o3x3o"),
        parse("x3x"),
        disjoint_union(parse("x"), parse("x"), parse("x")),
    ]
    for d in gaps:
        assert ruled_verdict(d).regular
        assert not is_flag_transitive(shared.lattice(d))
        assert oracle_gap_reason(d) is not None
    for text in ["x4o3o", "x3o3o", "o3x4x"]:
        assert oracle_gap_reason(parse(text)) is None


def test_gap_reason_exactly_where_regular_meets_intransitive():
    # every single-ring layout of the families, and I2(k) with one and two
    # rings: a gap is given exactly when the verdict is regular and the
    # generating group is not flag-transitive, apart from the listed cases
    cases = [
        (family, rank, None, (pos,))
        for family, ranks in [
            ("A", range(1, 10)), ("B", range(2, 10)), ("D", range(4, 10)),
            ("E", (6, 7, 8)), ("F", (4,)), ("H", (3, 4)),
        ]
        for rank in ranks
        for pos in range(rank)
    ]
    cases += [("I2", 2, k, rings) for k in range(3, 13) for rings in ((0,), (0, 1))]
    assert len(cases) == 180
    undocumented = set()
    for family, rank, k, rings in cases:
        d = family_diagram(family, rank, k=k, ringed=rings)
        gap_expected = ruled_verdict(d).regular and not is_flag_transitive(d)
        if (oracle_gap_reason(d) is not None) != gap_expected:
            undocumented.add((family, rank, rings))
    # the n-hyperoctahedra of D5..D9, ringed at the end of the long arm, are
    # the cross-polytope from the demihypercube group (index 2) like D4's
    assert undocumented == {("D", rank, (0,)) for rank in range(5, 10)}


def test_known_f_vectors_formulas():
    assert known_f_vector("cube") == (8, 12, 6)
    assert known_f_vector("4-simplex") == (5, 10, 10, 5)
    assert known_f_vector("6-hypercube") == (64, 192, 240, 160, 60, 12)
    assert known_f_vector("5-hyperoctahedron") == (10, 40, 80, 80, 32)
    assert known_f_vector("heptagon") == (7, 7)
    assert known_f_vector("16-cell") == (8, 24, 32, 16)
    with pytest.raises(UnknownName):
        known_f_vector("hyperbanana")


@pytest.mark.parametrize(
    "name", ["0-gon", "1-gon", "2-gon", "0-simplex", "0-hypercube", "0-hyperoctahedron"]
)
def test_names_below_their_least_rank_are_unknown(name):
    with pytest.raises(UnknownName):
        known_f_vector(name)
    with pytest.raises(UnknownName):
        constructions_of(name)


def test_canonical_names_and_aliases():
    assert canonical_name("Tesseract") == "4-hypercube"
    assert canonical_name("4-gon") == "square"
    assert canonical_name("600-cell") == "600-cell"


@pytest.mark.parametrize(
    "dim,expected_names",
    [
        (3, ["3-simplex", "3-hypercube", "3-hyperoctahedron", "icosahedron", "dodecahedron"]),
        (4, ["4-simplex", "4-hypercube", "4-hyperoctahedron", "24-cell", "600-cell", "120-cell"]),
        (5, ["5-simplex", "5-hypercube", "5-hyperoctahedron"]),
        (8, ["8-simplex", "8-hypercube", "8-hyperoctahedron"]),
    ],
)
def test_catalog_names(dim, expected_names):
    assert list(regular_catalog(dim)) == expected_names


def test_catalog_every_construction_verdicts_to_its_name():
    for dim in (2, 3, 4, 5, 6):
        for name, constructions in regular_catalog(dim).items():
            for d in constructions:
                v = ruled_verdict(d)
                assert v.regular and v.name == name, (dim, name)
                assert f_vector_formula(d) == known_f_vector(name)


def test_catalog_construction_counts():
    cat3 = regular_catalog(3)
    assert len(cat3["3-hypercube"]) == 3  # B3, B2 x A1, A1^3
    assert len(cat3["3-hyperoctahedron"]) == 2  # B3 and A3
    first_octahedron = cat3["3-hyperoctahedron"][0]
    assert canonical_certificate(first_octahedron) == canonical_certificate(parse("o4o3x"))
    cat4 = regular_catalog(4)
    assert len(cat4["24-cell"]) == 3
    first_24_cell = cat4["24-cell"][0]
    assert canonical_certificate(first_24_cell) == canonical_certificate(parse("x3o4o3o"))
    assert len(cat4["4-hypercube"]) == 5
    assert len(cat4["4-hyperoctahedron"]) == 2


def test_catalog_certifies_each_construction_once(monkeypatch):
    offered = []

    def certificate(d):
        offered.append(d)
        return canonical_certificate(d)

    monkeypatch.setattr(regular, "canonical_certificate", certificate)
    cat = regular_catalog(12)
    # five constructions from the position table and the 76 box products
    # (the partitions of 12 into at least two ranks), each certified once
    assert len(offered) == 5 + 76
    assert len(cat["12-hypercube"]) == 1 + 76


CERTIFIED = {
    (1, 12): 1, (2, 12): 15, (3, 12): 9, (4, 12): 18, (5, 12): 11, (6, 12): 15,
    (7, 12): 19, (8, 12): 26, (9, 12): 34, (2, 3): 2, (2, 5): 4, (2, 40): 57,
    (25, 12): 1962, (2, 1335): 1999,  # the largest that fit the limit
}


@pytest.mark.parametrize("n,kmax", list(CERTIFIED))
def test_catalog_within_the_limit_certifies_each_construction(monkeypatch, n, kmax):
    # the position table's rows plus p(n) - 1 box products, or kmax - 2
    # polygons, one more per even kmax from 6 and the x x box
    offered = []
    monkeypatch.setattr(regular, "canonical_certificate", lambda d: offered.append(d) or len(offered))
    regular_catalog(n, kmax=kmax)
    assert len(offered) == CERTIFIED[n, kmax] <= regular.CATALOG_LIMIT


@pytest.mark.parametrize("n,kmax", [(26, 12), (100, 12), (2, 1336), (2, 100000), (10**6, 12)])
def test_catalog_over_the_limit_is_refused_before_building(monkeypatch, n, kmax):
    monkeypatch.setattr(regular, "canonical_certificate", None)  # nothing is certified
    want = f"dimension {n} builds more than 2000 constructions, the catalog limit"
    with pytest.raises(BudgetExceeded, match=want):
        regular_catalog(n, kmax=kmax)


def test_constructions_of_accepts_aliases():
    assert len(constructions_of("cube")) == 3
    assert len(constructions_of("octahedron")) == 2
    assert len(constructions_of("tesseract")) == 5
    assert len(constructions_of("hexagon")) == 2
    with pytest.raises(UnknownName):
        constructions_of("klein bottle")


@pytest.mark.parametrize("name", ["1-simplex", "1-hypercube", "1-hyperoctahedron"])
def test_rank_one_names_are_the_segment(name):
    assert known_f_vector(name) == (2,)
    assert constructions_of(name) == constructions_of("segment")


def test_polygon_catalog():
    cat = regular_catalog(2, kmax=12)
    assert set(cat) == {
        "triangle", "square", "pentagon", "hexagon", "heptagon", "octagon",
        "9-gon", "10-gon", "11-gon", "12-gon",
    }
    assert len(cat["square"]) == 2   # I2(4) and the x x box
    assert len(cat["hexagon"]) == 2  # I2(6) and fully ringed triangle
    assert len(cat["9-gon"]) == 1


_FAMILIES = (
    [("A", n, None) for n in range(1, 9)]
    + [("B", n, None) for n in range(2, 9)]
    + [("D", n, None) for n in range(4, 9)]
    + [("E", n, None) for n in (6, 7, 8)]
    + [("F", 4, None), ("H", 3, None), ("H", 4, None)]
    + [("I2", 2, k) for k in (3, 4, 5, 6, 12)]
)


@st.composite
def _relabelled_single_rings(draw):
    """A family with one ring, and a copy with its nodes renumbered by perm
    and its edges listed in another order, each flipped at random."""
    family, rank, k = draw(st.sampled_from(_FAMILIES))
    d = family_diagram(family, rank, k=k, ringed=(draw(st.integers(0, rank - 1)),))
    perm = draw(st.permutations(range(rank)))
    ids, marks = [None] * rank, [None] * rank
    for i in range(rank):
        ids[perm[i]], marks[perm[i]] = d.node_ids[i], d.marks[i]
    edges = [
        (perm[j], perm[i], m) if draw(st.booleans()) else (perm[i], perm[j], m)
        for i, j, m in draw(st.permutations(d.edges))
    ]
    return d, DecoratedDiagram(tuple(ids), tuple(marks), tuple(edges)), perm


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_relabelled_single_rings())
def test_verdicts_ignore_node_numbering_and_edge_orientation(case):
    d, e, perm = case
    want, got = ruled_verdict(d), ruled_verdict(e)
    assert (got.regular, got.name, got.reason) == (want.regular, want.name, want.reason)
    assert (got.witness is None) == (want.witness is None)
    if got.witness:
        # the first rank with two face shapes is the same; the pair named
        # there, read back in d's numbering, has two shapes in d too
        k, a, b = got.witness
        assert k == want.witness[0]
        back = {perm[i]: i for i in range(d.rank)}
        start = start_decoration(d)
        sig_a, sig_b = (
            shape_signature(face_restriction(start, {back[v] for v in sel})) for sel in (a, b)
        )
        assert sig_a != sig_b
    assert oracle_gap_reason(e) == oracle_gap_reason(d)
    assert canonical_certificate(e) == canonical_certificate(d)
