import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wythoff.cli import main

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


def test_is_regular_oracle_beyond_the_budget(capsys):
    # |B8| = 10321920 is over the default budget; the oracle enumerates nothing
    code, out, _ = run(capsys, "is-regular", "x4o3o3o3o3o3o3o", "--oracle", "--json")
    data = json.loads(out)
    assert code == 0 and data["name"] == "8-hypercube" and data["flag_transitive"]


# the benchmark's cold commands, the catalog and the oracle: (argv, exit code)
COLD_COMMANDS = {
    "version": (["--version"], 0),
    "validate": (["validate", "x3x4o", "--json"], 0),
    "order": (["order", E8_DOC, "--json"], 0),
    "faces": (["faces", "x3x4o", "--rank", "2", "--json"], 0),
    "fvector": (["fvector", "x5o3o3o", "--method", "formula", "--json"], 0),
    "is_regular": (["is-regular", "o3x4o", "--json"], 1),
    "is_regular_oracle": (["is-regular", "x3o3o", "--oracle", "--json"], 0),
    "classify": (["classify", "--dim", "4", "--json"], 0),
    "check": (["check", "x3x4o", "--json"], 0),
}
ENUMERATION_MODULES = {
    "numpy", "wythoff.reflection_group", "wythoff.face_lattice", "wythoff.geometry",
    "wythoff._kernels",
}


@pytest.mark.parametrize("name", list(COLD_COMMANDS))
def test_cold_process_imports(name):
    # a fresh interpreter runs the console entry point and reports which of
    # numpy, scipy and the wythoff modules it loaded
    argv, want = COLD_COMMANDS[name]
    script = (
        "import json, sys\n"
        "from wythoff.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as e:\n"
        "    code = e.code\n"
        "seen = {m for m in sys.modules if m in ('numpy', 'scipy') or m.startswith('wythoff.')}\n"
        "print(json.dumps([code, sorted(seen)]), file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )
    code, seen = json.loads(done.stderr.splitlines()[-1])
    assert code == want, done.stderr
    assert "scipy" not in seen
    if name == "check":
        assert json.loads(done.stdout)["ok"]
        assert ENUMERATION_MODULES <= set(seen)
    else:
        assert not ENUMERATION_MODULES & set(seen), seen


def test_classify_kmax_below_3_is_a_usage_error(capsys):
    for kmax in ("2", "-5"):
        code, out, err = run(capsys, "classify", "--dim", "2", "--kmax", kmax)
        assert code == 2 and not out, kmax
        assert "below 3" in err, kmax
    code, out, _ = run(capsys, "classify", "--dim", "2", "--kmax", "3")
    assert code == 0 and out.startswith("triangle")


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


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
