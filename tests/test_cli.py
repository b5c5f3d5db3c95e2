import json
import os
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import pytest

from wythoff.cli import main
from wythoff.diagram import disjoint_union, family_diagram, serialize_document

E8_DOC = json.dumps(
    {
        "nodes": [{"id": f"v{i}", "mark": "cross" if i else "ring"} for i in range(8)],
        "edges": [{"a": f"v{i}", "b": f"v{i+1}", "m": 3} for i in range(6)]
        + [{"a": "v2", "b": "v7", "m": 3}],
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "x4o3o")
    assert code == 0
    assert "B3" in out and "48" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "x4o3o", "--json")
    data = json.loads(out)
    assert data["ok"] and data["order"] == 48 and data["components"] == ["B3"]


def test_order_formula_only_for_e8(capsys):
    code, out, _ = run(capsys, "order", E8_DOC)
    assert code == 0 and out.strip() == "696729600"


def test_faces_listing(capsys):
    code, out, _ = run(capsys, "faces", "x4o3o")
    assert code == 0
    assert "faces=8" in out and "faces=12" in out and "faces=6" in out


def test_faces_rank_outside_the_face_ranks_is_a_usage_error(capsys):
    for rank in ("-1", "4", "7"):
        code, out, err = run(capsys, "faces", "x4o3o", "--rank", rank)
        assert code == 2 and not out, rank
        assert "0..3" in err, rank
    code, out, _ = run(capsys, "faces", "x4o3o", "--rank", "3")
    assert code == 0 and "faces=1" in out


def test_faces_of_a_degenerate_diagram_is_a_usage_error(capsys):
    code, out, err = run(capsys, "faces", "o3o")
    assert code == 2 and not out
    assert "every component needs at least one ringed node" in err


def test_fvector_both_methods(capsys):
    code, out, _ = run(capsys, "fvector", "o3x4x", "--method", "both")
    assert code == 0
    assert out.count("24 36 14") == 2 and "agreement: yes" in out


def test_fvector_of_a_3999_gon_enumerates_its_group(capsys):
    # roots 2 sin(pi / 7998) apart: the group is closed on exact roots
    code, out, _ = run(capsys, "fvector", "x3999o", "--method", "both")
    assert code == 0
    assert out.count("3999 3999") == 2 and "agreement: yes" in out


def test_fvector_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("WYTHOFF_BUDGET", "10")
    code, _, err = run(capsys, "fvector", "x3o3o3o", "--method", "enum")
    assert code == 2
    assert "budget" in err.lower()


@pytest.mark.parametrize("command", ["check", "lattice", "vertices", "export"])
def test_budget_variable_caps_every_enumerating_command(capsys, monkeypatch, command):
    monkeypatch.setenv("WYTHOFF_BUDGET", "10")
    code, out, err = run(capsys, command, "x3o3o3o")
    assert code == 2 and not out
    assert "budget" in err.lower()


def test_budget_is_refused_where_nothing_is_enumerated(capsys):
    # the budget has one setting, WYTHOFF_BUDGET; no command takes it as an option
    for command in ("order", "check"):
        with pytest.raises(SystemExit) as exc:
            main([command, "x4o3o", "--budget", "10"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


def test_check_all_green(capsys):
    code, out, _ = run(capsys, "check", "x3x3o")
    assert code == 0
    assert "overall: ok" in out and "FAIL" not in out


def test_is_regular_negative_exit_code(capsys):
    code, out, _ = run(capsys, "is-regular", "o3x4x")
    assert code == 1
    assert "regular: no" in out and "witness" in out


def test_is_regular_oracle_gap(capsys):
    code, out, _ = run(capsys, "is-regular", "o4o3x3o", "--oracle")
    assert code == 0
    assert "name: 24-cell" in out
    assert "flag transitive under the generating group: no" in out
    assert "gap:" in out


def _d_long_arm_end(n):
    """D_n ringed at the end of its long arm, as a JSON document."""
    doc = serialize_document(family_diagram("D", n, ringed=(0,)))
    return json.dumps(doc, separators=(",", ":"))


def _segment_box(n):
    """The product of n segments, the n-hypercube, as a JSON document."""
    doc = serialize_document(disjoint_union(*[family_diagram("A", 1, ringed=(0,))] * n))
    return json.dumps(doc, separators=(",", ":"))


def test_is_regular_oracle_gap_of_the_cross_polytope_from_d5(capsys):
    code, out, _ = run(capsys, "is-regular", _d_long_arm_end(5), "--oracle")
    assert code == 0
    assert "name: 5-hyperoctahedron" in out
    assert "flag transitive under the generating group: no" in out
    assert "gap: 5-hyperoctahedron from the D5 group (index 2)" in out


def test_is_regular_oracle_beyond_the_budget(capsys):
    # |B8| = 10321920 is over the default budget; the oracle enumerates nothing
    code, out, _ = run(capsys, "is-regular", "x4o3o3o3o3o3o3o", "--oracle", "--json")
    data = json.loads(out)
    assert code == 0 and data["name"] == "8-hypercube" and data["flag_transitive"]


# the benchmark's cold commands, the catalog and the oracle: (argv, exit
# code, the wythoff modules a formula command loads besides cli and errors)
DIAGRAM = ("diagram",)
DECORATION = ("diagram", "decoration")
REGULAR = ("diagram", "decoration", "regular")
COLD_COMMANDS = {
    "version": (["--version"], 0, ()),
    "validate": (["validate", "x3x4o", "--json"], 0, DECORATION),
    "order": (["order", E8_DOC, "--json"], 0, DIAGRAM),
    "faces": (["faces", "x3x4o", "--rank", "2", "--json"], 0, DECORATION),
    "fvector": (["fvector", "x5o3o3o", "--method", "formula", "--json"], 0, DECORATION),
    "is_regular": (["is-regular", "o3x4o", "--json"], 1, REGULAR),
    "is_regular_oracle": (["is-regular", "x3o3o", "--oracle", "--json"], 0, REGULAR),
    "classify": (["classify", "--dim", "4", "--json"], 0, REGULAR),
    "check": (["check", "x3x4o", "--json"], 0, None),
}
ENUMERATION_MODULES = {
    "numpy", "wythoff.reflection_group", "wythoff.face_lattice", "wythoff.geometry",
    "wythoff._kernels",
}
# standard modules a formula command must not load: importing dataclasses
# pulls in inspect, ast, dis and tokenize
HEAVY_STANDARD_MODULES = {"dataclasses", "inspect"}


def _child_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.mark.parametrize("name", list(COLD_COMMANDS))
def test_cold_process_imports(capsys, name):
    # a fresh interpreter runs the console entry point and reports which of
    # numpy, scipy, dataclasses, inspect and the wythoff modules it loaded
    argv, want, modules = COLD_COMMANDS[name]
    script = (
        "import json, sys\n"
        "from wythoff.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as e:\n"
        "    code = e.code\n"
        "watch = ('numpy', 'scipy', 'dataclasses', 'inspect')\n"
        "seen = {m for m in sys.modules if m in watch or m.startswith('wythoff.')}\n"
        "print(json.dumps([code, sorted(seen)]), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True, text=True,
        timeout=120,
    )
    code, seen = json.loads(done.stderr.splitlines()[-1])
    assert code == want, done.stderr
    assert "scipy" not in seen
    if modules is None:
        assert json.loads(done.stdout)["ok"]
        assert ENUMERATION_MODULES <= set(seen)
    else:
        assert not (ENUMERATION_MODULES | HEAVY_STANDARD_MODULES) & set(seen), seen
        loaded = {m for m in seen if m.startswith("wythoff.")}
        assert loaded == {"wythoff." + m for m in ("cli", "errors", *modules)}
    # the cold process prints what main() prints in this one
    try:
        main(list(argv))
    except SystemExit:
        pass
    assert done.stdout == capsys.readouterr().out


def test_classify_kmax_below_3_is_a_usage_error(capsys):
    for kmax in ("2", "-5"):
        code, out, err = run(capsys, "classify", "--dim", "2", "--kmax", kmax)
        assert code == 2 and not out, kmax
        assert "below 3" in err, kmax
    code, out, _ = run(capsys, "classify", "--dim", "2", "--kmax", "3")
    assert code == 0 and out.startswith("triangle")


def test_classify_over_the_catalog_limit_is_a_usage_error(capsys):
    for argv in (("--dim", "26"), ("--dim", "100"), ("--dim", "2", "--kmax", "100000")):
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2 and not out, argv
        assert f"dimension {argv[1]} builds more than 2000 constructions, the catalog limit" in err


def test_document_edges_that_are_not_a_list_are_a_usage_error(capsys):
    for edges in ("null", "5", "{}"):
        doc = '{"nodes": [{"id": "a", "mark": "ring"}], "edges": %s}' % edges
        code, out, err = run(capsys, "validate", doc)
        assert code == 2 and not out, edges
        assert "'edges' must be a list" in err, edges


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--dim", "4", "--json")
    data = json.loads(out)
    names = {p["name"] for p in data["polytopes"]}
    assert names == {
        "4-simplex", "4-hypercube", "4-hyperoctahedron", "24-cell", "600-cell", "120-cell",
    }
    cell24 = next(p for p in data["polytopes"] if p["name"] == "24-cell")
    assert cell24["f_vector"] == [24, 96, 96, 24]
    assert len(cell24["constructions"]) == 3


def test_export_off_to_file(capsys, tmp_path):
    target = tmp_path / "cube.off"
    code, _, _ = run(capsys, "export", "x4o3o", "--format", "off", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "OFF" and lines[1] == "8 6 12"


def test_export_json_stdout(capsys):
    code, out, _ = run(capsys, "export", "x3o3o")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_vector"] == [4, 6, 4] and len(doc["vertices"]) == 4


def test_lattice_out(capsys, tmp_path):
    target = tmp_path / "lat.json"
    code, _, _ = run(capsys, "lattice", "x4o3o", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["f_vector"] == [8, 12, 6]


def test_vertices_json(capsys):
    code, out, _ = run(capsys, "vertices", "o4o3x", "--json")
    data = json.loads(out)
    assert code == 0 and len(data["vertices"]) == 6


def test_diagram_from_file(capsys, tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("x5o3o\n")
    code, out, _ = run(capsys, "order", f"@{f}")
    assert code == 0 and out.strip() == "120"


def test_unreadable_diagram_file_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "validate", f"@{missing}")
    assert code == 2 and not out
    assert err.startswith("error: ") and str(missing) in err


def test_non_utf8_diagram_file_is_a_usage_error(capsys, tmp_path):
    f = tmp_path / "d.txt"
    f.write_bytes(b"\xff\xfex3x4o")
    code, out, err = run(capsys, "validate", f"@{f}")
    assert code == 2 and not out
    assert err.startswith("error: ") and str(f) in err and "UTF-8" in err


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.json"
    code, out, err = run(capsys, "lattice", "x4o3o", "--out", str(target))
    assert code == 2 and not out
    assert err.startswith("error: ") and str(target) in err


def test_non_integer_budget_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WYTHOFF_BUDGET", "abc")
    code, out, err = run(capsys, "check", "x4o3o")
    assert code == 2 and not out
    assert "WYTHOFF_BUDGET" in err and "'abc'" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "order", "x9q")
    assert code == 2 and "error:" in err


def test_non_finite_exit_code(capsys):
    code, _, err = run(capsys, "validate", "x5x5x")
    assert code == 2 and "finite" in err


def test_degenerate_exit_code(capsys):
    code, _, err = run(capsys, "fvector", "o4o3o")
    assert code == 2


SIMPLEX_40 = "x" + "3o" * 39
SIMPLEX_1100 = "x" + "3o" * 1099


def _x3x(n):
    return "x" + "3x" * (n - 1)


def _nodes(k):
    return ",".join(f"v{i}" for i in range(1, k + 1))


# formula commands on long diagrams, each in a child process with a timeout
# so that a regression fails instead of hanging: (argv, timeout in seconds,
# exit code, a line of the output)
LONG_DIAGRAMS = {
    "fvector_40_simplex": (
        ["fvector", SIMPLEX_40, "--method", "formula"], 30, 0,
        "formula:    " + " ".join(str(comb(41, k + 1)) for k in range(40)),
    ),
    "faces_1100_simplex": (
        ["faces", SIMPLEX_1100, "--rank", "3"], 30, 0,
        f"rank 3  S={{v1,v2,v3}}  faces={comb(1101, 4)}",
    ),
    "is_regular_oracle_1100_simplex": (
        ["is-regular", SIMPLEX_1100, "--oracle"], 30, 0,
        "flag transitive under the generating group: yes",
    ),
    # every face is a simplex; the two facet types have isomorphic face
    # diagrams, so the witness computes no f-vector for them (their two
    # 1099-simplex f-vectors took 12.7 s in process)
    "is_regular_d1100_long_arm_end": (
        ["is-regular", _d_long_arm_end(1100)], 5, 0, "name: 1100-hyperoctahedron",
    ),
    "is_regular_oracle_all_ringed_10": (
        ["is-regular", _x3x(10), "--oracle"], 5, 1,
        "flag transitive under the generating group: no",
    ),
    # the top ranks are reached along their own paths, not through the 2^30
    # selections below them
    "faces_all_ringed_30_rank_30": (
        ["faces", _x3x(30), "--rank", "30"], 10, 0, f"rank 30  S={{{_nodes(30)}}}  faces=1",
    ),
    "faces_all_ringed_30_rank_29": (
        ["faces", _x3x(30), "--rank", "29"], 10, 0, f"rank 29  S={{{_nodes(29)}}}  faces=31",
    ),
    # a product is decided factor by factor, not by its 2^30 face types
    "is_regular_oracle_box_of_30_segments": (
        ["is-regular", _segment_box(30), "--oracle"], 5, 0,
        f"gap: 30-hypercube from the {' x '.join(['A1'] * 30)} group (index {factorial(30)})",
    ),
    # the witness reads the rank-2 face types only, not the 2^30 selections
    "is_regular_all_ringed_30": (
        ["is-regular", _x3x(30)], 10, 1,
        "witness: rank 2 has face types S=(0, 1) and S=(0, 2)",
    ),
}


@pytest.mark.parametrize("name", list(LONG_DIAGRAMS))
def test_formula_commands_on_long_diagrams_answer_in_time(name):
    argv, timeout, want, line = LONG_DIAGRAMS[name]
    done = subprocess.run(
        [sys.executable, "-m", "wythoff.cli", *argv], env=_child_env(), capture_output=True,
        text=True, timeout=timeout,
    )
    assert done.returncode == want, done.stderr
    assert line in done.stdout.splitlines()


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
