"""Cold ``wythoff`` invocations and their checks against the library.

Each invocation is a fresh interpreter running the console entry point, as
a shell user would run it.  Its exit code and ``--json`` payload are
compared with the answer the library gives in this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import wythoff as W

from workloads import CLI_COMMANDS, E8_DOC

# what the installed ``wythoff`` console script runs
ENTRY = "import sys; from wythoff.cli import main; sys.exit(main())"
E8_ORDER = 696729600


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """(seconds, exit code, stdout, peak RSS in MB) of one cold process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out = proc.stdout.read()
        proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, proc.returncode, out.decode(), usage.ru_maxrss / 1024


def invoke(name, env):
    return run_child([sys.executable, "-c", ENTRY] + CLI_COMMANDS[name], env)


def library_answers() -> dict:
    """The library's answer to each command, computed in this process."""
    cube = W.parse("x3x4o")
    lat = W.build_lattice(cube)
    flags = W.flag_report(lat)
    checks = {
        "f_vector": lat.f_vector == W.f_vector_formula(cube),
        "euler": W.euler_ok(lat),
        "diamond": W.diamond_report(lat).ok,
        "flag_degree": flags.degree_ok,
        "flag_connected": flags.connected,
    }
    checks.update(
        (name, rep.ok) for name, rep in W.verify_realization(W.realize(lat)).items()
    )
    e8_order = W.group_order(W.parse(E8_DOC))
    if e8_order != E8_ORDER:
        raise RuntimeError("library E8 order %d, expected %d" % (e8_order, E8_ORDER))
    cell120 = W.f_vector_formula(W.parse("x5o3o3o"))
    if tuple(cell120) != tuple(W.known_f_vector("120-cell")):
        raise RuntimeError("x5o3o3o formula f-vector is not the 120-cell's")
    return {
        "version": "wythoff " + W.__version__,
        "validate": {
            "order": W.group_order(cube),
            "components": [str(t) for t in W.classify_components(cube)],
            "degenerate": False,
        },
        "order": e8_order,
        "faces": W.f_vector_formula(cube)[2],
        "fvector": list(cell120),
        "check": checks,
        "is_regular": W.ruled_verdict(W.parse("o3x4o")).regular,
    }


def check_output(name, code, out, want) -> str | None:
    """None when the invocation matches the library, else the reason."""
    if name == "version":
        return None if code == 0 and out.strip() == want else f"version: {code} {out!r}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return f"{name}: exit {code}, output is not JSON"
    if name == "is_regular":
        # a negative verdict exits 1 by design
        ok = code == (0 if want else 1) and payload.get("regular") is want
    elif code != 0 or payload.get("ok") is not True:
        ok = False
    elif name == "validate":
        ok = all(payload.get(k) == v for k, v in want.items())
    elif name == "order":
        ok = payload.get("order") == want
    elif name == "faces":
        entries = payload.get("faces", [])
        ok = all(e["rank"] == 2 for e in entries) and sum(e["count"] for e in entries) == want
    elif name == "fvector":
        ok = payload.get("formula") == want
    else:
        ok = payload.get("checks") == want
    return None if ok else f"{name}: exit {code}, payload disagrees with the library"
