"""Pipeline benchmark of the wythoff package, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root: the package is imported from ./src.  One
client runs a closed loop, starting each item when the previous one has
returned, and every output is checked against an independent route.  A
run makes several passes over the workload's items.  Untraced, every
item's seconds are scaled to a reference speed by the gauge in
hostspeed.py, read just before and after it, and its latency is its
fastest scaled pass; so neither minutes of a slower shared machine nor a
burst of load decides the figures.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it are a run header and a readable
summary.

A traced run (``--trace 1``) executes the same passes as an untraced run
of the same seed, with a span around every call into a layer, and writes
its spans to .perfbench_out/ when it ends.  It reports the seconds spent
recording spans, and its summed item latency for comparison with an
untraced run of the same seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import partial

OUT_DIR = ".perfbench_out"
E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("diagram", "reflection_group", "decoration", "face_lattice",
          "geometry", "kernels", "regular", "cli")
CLI_NAMES = ("version", "validate", "order", "faces", "fvector", "check", "is_regular")
# per-layer busy seconds: metric name is the span name plus "_s"
SPAN_METRICS = (
    "diagram.parse",
    "reflection_group.enumerate", "reflection_group.coset_tables",
    "decoration.selections",
    "face_lattice.build", "face_lattice.fvector_formula", "face_lattice.diamond",
    "face_lattice.flags",
    "geometry.realize",
    "geometry.check.centroid", "geometry.check.affine_rank",
    "geometry.check.containment", "geometry.check.distinct_faces",
    "geometry.check.edge_uniformity",
    "geometry.ridge_reflection", "geometry.polar_dual",
    "kernels.min_pairwise", "kernels.match_rows",
    "regular.verdict", "regular.oracle",
) + tuple("cli." + n for n in CLI_NAMES)
COUNT_METRICS = (
    "reflection_group.order", "reflection_group.roots", "reflection_group.coset_tables",
    "decoration.slots",
    "face_lattice.faces", "face_lattice.covers", "face_lattice.flags",
    "face_lattice.flags_direct", "face_lattice.flags_covering",
    "geometry.vertices", "geometry.ridges", "geometry.check_failures",
    "kernels.pairs_computed",
    "regular.regular_items", "regular.oracle_gaps",
) + tuple(layer + ".errors" for layer in LAYERS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "orbit", "big_group", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny item counts, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_to_one_cpu():
    """Run this process and every child it starts on one CPU.

    The host-speed gauge reads the CPU it runs on, so the work it scales
    must run there too; on a shared machine the CPUs of one process can be
    loaded very differently.  The program is single-threaded, so one CPU
    is all it uses.  Pinning happens before numpy is imported, so its BLAS
    starts one thread.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        print(f"# not pinned to one CPU: {e}", file=sys.stderr)


def bootstrap():
    """Put ./src first on the path and check the package really comes from it."""
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wythoff", "__init__.py")):
        sys.exit(f"perfbench: no src/wythoff under {root}; run from the repository root")
    sys.path.insert(0, src)
    import wythoff

    if os.path.dirname(os.path.abspath(wythoff.__file__)) != os.path.join(src, "wythoff"):
        sys.exit(f"perfbench: wythoff imported from {wythoff.__file__}, not from {src}")
    return root, src


def prepare(args):
    """Everything a run does before its first timed item, after imports."""
    import workloads

    return workloads.make_passes(args.workload, args.seed, args.seconds, args.smoke)


def header(root, src, args) -> dict:
    import numpy
    import scipy

    rev = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        kernels = getattr(importlib.import_module("wythoff._kernels"), "ACTIVE", "unknown")
    except ImportError:
        kernels = "absent"
    src_lines = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "kernels": kernels,
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_time(args, root):
    """Seconds from process start to ready-for-the-first-item, in a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    argv += ["--smoke"] if args.smoke else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return seconds


def run_passes(passes, run_one, probe=None):
    """Closed loop over every pass.

    With a probe, the run is gauged: the host-speed gauge reads before
    every item and after every pass, and each item gets the scale of the
    readings around it.  probe() runs before each pass and after the last,
    between two readings of its own.  Returns the records, their scales,
    the scaled probe results and the loop's wall seconds, gauge readings
    and probes excluded.
    """
    import hostspeed

    records, scales, probes = [], [], []
    wall = 0.0

    def gauged_probe():
        before = hostspeed.gauge()
        seconds = probe()
        probes.append(seconds * hostspeed.scale(before, hostspeed.gauge()))

    for n, items in enumerate(passes):
        if probe:
            gauged_probe()
            before = hostspeed.gauge()
        for item in items:
            t0 = time.perf_counter()
            records.append(run_one(item, n))
            wall += time.perf_counter() - t0
            if probe:
                after = hostspeed.gauge()
                scales.append(hostspeed.scale(before, after))
                before = after
            else:
                scales.append(1.0)
    if probe:
        gauged_probe()
    return records, scales, probes, wall


def best_latencies(records, scales) -> dict:
    """Each item's fastest scaled latency over the passes."""
    best = {}
    for (text, seconds, _, _), k in zip(records, scales):
        best[text] = min(seconds * k, best.get(text, seconds * k))
    return best


def library_runner(tr):
    import pipeline

    def one(text, n):
        tr.item += 1
        # collect the previous item's cyclic garbage here, so that its cost
        # stays in the loop's wall time but not in this item's latency
        gc.collect()
        t0 = time.perf_counter()
        with tr.span("item"):
            failure, props = pipeline.run_item(text, tr)
        seconds = time.perf_counter() - t0
        real = props.pop("real", None)
        # the kernels are timed on the first pass only, outside the item
        if tr.on and n == 0 and real is not None:
            try:
                pipeline.time_kernels(real, tr)
            except pipeline.ProgramError:
                pass  # counted in kernels.errors
        return text, seconds, failure, props

    return one


def cli_runner(tr, answers, env, rss):
    import clirun

    def one(name, n):
        tr.item += 1
        with tr.span("cli." + name):
            seconds, code, out, peak = clirun.invoke(name, env)
        rss.append(peak)
        return name, seconds, clirun.check_output(name, code, out, answers[name]), {}

    return one


def input_properties(records) -> dict:
    """Sizes of one pass's items, and how often their group repeated."""
    out = {}
    for key in ("order", "vertices", "flags"):
        vals = [p[key] for _, _, _, p in records if key in p]
        out[f"input.{key}_max"] = max(vals, default=0)
        out[f"input.{key}_median"] = statistics.median(vals) if vals else 0
    seen = set()
    repeats = 0
    for _, _, _, p in records:
        if "group" in p:
            repeats += p["group"] in seen
            seen.add(p["group"])
    out["input.repeat_group_share"] = repeats / len(records)
    return out


def latency_tail(latencies):
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    n = len(latencies)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def per_layer(tr, records, first_pass, cli_floor) -> dict:
    self_t = tr.self_times()
    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v for k, v in self_t.items() if k.split(".")[0] == layer)
    for name in SPAN_METRICS:
        m[name + "_s"] = self_t.get(name, 0.0)
    for name in COUNT_METRICS:
        m[name] = tr.counts.get(name, 0)
    m["cli.interpreter_s"], m["cli.import_s"] = cli_floor
    m["trace.overhead_s"] = tr.overhead
    m["trace.item_wall_s"] = sum(r[1] for r in records)
    m["trace.spans"] = len(tr.spans)
    m.update(input_properties(first_pass))
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def cli_floor(env):
    """Median seconds of a bare interpreter and of a cold ``import wythoff.cli``."""
    import clirun

    bare = [clirun.run_child([sys.executable, "-c", "pass"], env)[0] for _ in range(3)]
    imp = [clirun.run_child([sys.executable, "-c", "import wythoff.cli"], env)[0]
           for _ in range(3)]
    return statistics.median(bare), statistics.median(imp)


def write_spans(root, args, tr):
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item"], "spans": tr.spans}, fh)
    return path


def summarize(workload, records, scales, first_pass, passes, wall, metrics):
    """Readable lines: end-to-end metrics, tail latency, failures, inputs."""
    best = list(best_latencies(records, scales).values())
    raw = list(best_latencies(records, [1.0] * len(records)).values())
    failed = sum(1 for _, _, f, _ in records if f)
    print(f"# {workload}: {len(best)} items x {passes} passes, {wall:.3f} s in the loop, "
          f"{len(records) / wall:.6g} items/s of wall time, "
          f"{sum(r[1] for r in records):.3f} s summed item latency")
    print(f"#   measured, unscaled: items_per_s {len(raw) / sum(raw):.6g} 1/s, "
          f"latency_p50_s {statistics.median(raw):.6g} s, "
          f"mean scale {statistics.mean(scales):.4f}")
    for name, unit in E2E_UNITS.items():
        if name in metrics:
            print(f"#   {name} = {metrics[name]:.6g} {unit}")
    tail = latency_tail(best)
    if tail:
        print(f"#   latency_tail_s = {tail[1]:.6g} s (p{tail[0]:.1f}, {len(best)} samples)")
    else:
        print(f"#   latency_tail_s undefined ({len(best)} samples, fewer than 21)")
    print(f"#   fail_ratio = {failed / len(records):.6g} ({failed}/{len(records)})")
    for (text, failure), n in Counter((t, f) for t, _, f, _ in records if f).items():
        print(f"#   failed {n}x: {text[:60]}: {failure}")
    methods = Counter(p["flag_method"] for _, _, _, p in first_pass if "flag_method" in p)
    print("# inputs of one pass: " + json.dumps({**input_properties(first_pass),
                                                 "flag_methods": dict(methods)}))


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    root, src = bootstrap()
    import clirun
    import pipeline

    passes = prepare(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    print(json.dumps({"header": header(root, src, args)}), flush=True)

    cli = args.workload == "cli"
    env = clirun.child_env(src)
    rss = []
    if cli:
        make_runner = partial(cli_runner, answers=clirun.library_answers(), env=env, rss=rss)
        known = {}
    else:
        import workloads

        make_runner = library_runner
        known = workloads.known_defects()

    probe = None if args.trace else partial(setup_time, args, root)
    tr = pipeline.Tracer(bool(args.trace))
    records, scales, setup, wall = run_passes(passes, make_runner(tr), probe)
    first_pass = records[:len(passes[0])]
    if args.trace:
        metrics = per_layer(tr, records, first_pass, cli_floor(env))
        # kernels run again outside the items, so they have no share here
        busy = {layer: metrics[layer + ".self_s"] for layer in LAYERS if layer != "kernels"}
        total = sum(busy.values()) or 1.0
        print("# layer shares of item busy time: " + ", ".join(
            f"{layer} {v / total:.1%}" for layer, v in sorted(busy.items(), key=lambda kv: -kv[1])))
        print(f"# spans written to {write_spans(root, args, tr)}")
    else:
        best = list(best_latencies(records, scales).values())
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": len(best) / sum(best),
            "latency_p50_s": statistics.median(best),
            "peak_rss_mb": max(rss) if cli else
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"# setup probes: {setup}")
    summarize(args.workload, records, scales, first_pass, len(passes), wall, metrics)
    failures = [(text, f) for text, _, f, _ in records if f]
    result = {
        # every failure must be a pinned known defect, failing by its pinned route
        "correct": all(known.get(text) == route for text, route in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
