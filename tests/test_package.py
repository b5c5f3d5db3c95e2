"""The package namespace: every public name loads from its home module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wythoff


def test_every_public_name_is_its_home_modules_object():
    for name in wythoff.__all__:
        if name == "__version__":
            continue
        obj = getattr(wythoff, name)
        home = importlib.import_module("wythoff." + wythoff._HOME[name])
        assert getattr(home, name) is obj, name
        assert obj.__module__ == home.__name__, name


def test_dir_lists_every_public_name():
    assert set(wythoff.__all__) <= set(dir(wythoff))
    assert len(set(wythoff.__all__)) == len(wythoff.__all__)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        wythoff.no_such_name  # noqa: B018


def test_submodules_import_from_the_package():
    from wythoff import _kernels, geometry

    assert geometry is sys.modules["wythoff.geometry"]
    assert _kernels is sys.modules["wythoff._kernels"]
    assert geometry.realize is wythoff.realize


def test_formula_names_load_no_numpy():
    # nor dataclasses, whose import pulls in inspect, ast, dis and tokenize
    script = (
        "import sys, wythoff\n"
        "assert wythoff.f_vector_formula(wythoff.parse('x3x4o')) == (24, 36, 14)\n"
        "assert wythoff.ruled_verdict(wythoff.parse('x4o3o')).regular\n"
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
