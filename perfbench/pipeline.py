"""The library item pipeline, its independent output routes and its tracer.

One code path serves both the untraced and the traced run: with tracing
off, a span only counts errors, so the end-to-end numbers and the per-layer
numbers come from the same sequence of calls.  Spans sit in this file,
around calls into the program's public functions; nothing inside the
package is instrumented.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import wythoff as W
from wythoff import _kernels, geometry

CHECKS = ("centroid", "affine_rank", "containment", "distinct_faces", "edge_uniformity")
RIDGE_MATCH_TOL = 1e-7


class ProgramError(Exception):
    """A call into the program raised; the item fails with this reason."""


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, item id].

    ``overhead`` sums the seconds spent recording spans, the work a traced
    run adds to an untraced one.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans = []
        self.counts = Counter()
        self.item = 0
        self.overhead = 0.0
        self._parent = None

    @contextmanager
    def span(self, name):
        idx = None
        parent = self._parent
        if self.on:
            entered = time.perf_counter()
            idx = len(self.spans)
            self.spans.append([name, None, None, parent, self.item])
            self._parent = idx
            self.spans[idx][1] = start = time.perf_counter()
            self.overhead += start - entered
        try:
            yield
        except ProgramError:
            raise
        except Exception as e:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise ProgramError(f"{name}: {type(e).__name__}: {e}") from e
        finally:
            if idx is not None:
                self.spans[idx][2] = end = time.perf_counter()
                self._parent = parent
                self.overhead += time.perf_counter() - end

    def self_times(self) -> Counter:
        """Busy seconds per span name, minus the time of child spans."""
        out = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out


def run_item(text, tr: Tracer):
    """Push one diagram through the user-level pipeline.

    Returns (failure, props): failure is None or the first route that
    disagreed or raised; the item stops at the end of the step that failed.
    props holds the item's sizes and, once realized, its realization.
    """
    props = {}
    try:
        failure = _pipeline(text, tr, props)
    except ProgramError as e:
        failure = str(e)
    return failure, props


def _pipeline(text, tr, p):
    c = tr.counts
    with tr.span("diagram.parse"):
        d = W.parse(text)
    p["group"] = (d.rank, tuple(sorted(d.edges)))
    with tr.span("decoration.selections"):
        start = W.start_decoration(d)
        decs = [
            W.decoration_from_selection(start, sel)
            for k in range(d.rank + 1)
            for sel in W.valid_selection_sets(start, k)
        ]
    stabilizers = {frozenset(dec.stabilizer_nodes()) for dec in decs}
    c["decoration.slots"] += len(decs)

    # group and coset tables first, so their time lands on reflection_group;
    # build_lattice then reuses the group's cached tables
    with tr.span("reflection_group.enumerate"):
        group = W.enumerate_group(d)
    with tr.span("reflection_group.coset_tables"):
        for nodes in stabilizers:
            group.coset_table(nodes)
    p["order"] = group.order
    c["reflection_group.order"] += group.order
    c["reflection_group.roots"] += group.roots.count
    c["reflection_group.coset_tables"] += len(stabilizers)

    with tr.span("face_lattice.build"):
        lat = W.build_lattice(d, group)
    with tr.span("face_lattice.fvector_formula"):
        formula = W.f_vector_formula(d)
    with tr.span("face_lattice.euler"):
        euler = W.euler_ok(lat)
    with tr.span("face_lattice.diamond"):
        diamond = W.diamond_report(lat)
    c["face_lattice.faces"] += lat.face_total
    c["face_lattice.covers"] += len(lat.covers)
    if lat.f_vector != tuple(formula):
        return f"f_vector: enumerated {lat.f_vector}, formula {tuple(formula)}"
    if not euler:
        return "euler"
    if not diamond.ok:
        return "diamond"

    with tr.span("face_lattice.flags"):
        flags = W.flag_report(lat)
    p["flags"] = flags.count
    p["flag_method"] = flags.method
    c["face_lattice.flags"] += flags.count
    c["face_lattice.flags_" + flags.method] += 1
    if not (flags.degree_ok and flags.connected):
        return "flags: degree_ok=%s connected=%s" % (flags.degree_ok, flags.connected)

    with tr.span("geometry.realize"):
        real = W.realize(lat)
    p["real"] = real
    p["vertices"] = len(real.points)
    c["geometry.vertices"] += len(real.points)
    crossed = start.stabilizer_nodes()
    with tr.span("diagram.group_order"):
        expected = W.group_order(d) // (W.group_order(d.induced(crossed)) if crossed else 1)
    if len(real.points) != expected:
        return f"vertex_count: {len(real.points)}, |G|/|W_J| = {expected}"
    reports = {}
    for name in CHECKS:
        with tr.span("geometry.check." + name):
            reports[name] = getattr(geometry, name + "_check")(real)
    bad = [name for name, rep in reports.items() if not rep.ok]
    c["geometry.check_failures"] += len(bad)
    if bad:
        return "check: " + ",".join(bad)

    with tr.span("regular.verdict"):
        verdict = W.ruled_verdict(d)
    with tr.span("regular.oracle"):
        transitive = W.is_flag_transitive(lat)
    if verdict.regular:
        c["regular.regular_items"] += 1
        with tr.span("regular.known_f_vector"):
            known = tuple(W.known_f_vector(verdict.name))
        if known != lat.f_vector:
            return f"known_f_vector: {verdict.name} {known}, enumerated {lat.f_vector}"
        if not transitive:
            with tr.span("regular.gap_reason"):
                gap = W.oracle_gap_reason(d)
            if gap is None:
                return f"oracle: ruled {verdict.name}, not flag-transitive, no documented gap"
            c["regular.oracle_gaps"] += 1
    elif transitive:
        return "oracle: flag-transitive but ruled not regular"

    if verdict.regular and d.rank >= 2:
        with tr.span("geometry.ridge_reflection"):
            ridge = W.ridge_reflection_check(real)
        with tr.span("geometry.polar_dual"):
            polar = W.polar_dual_check(real)
        c["geometry.ridges"] += ridge.detail["ridges"]
        if not (ridge.ok and polar.ok):
            return "witness: ridge_reflection=%s polar_dual=%s" % (ridge.ok, polar.ok)
    return None


def time_kernels(real, tr: Tracer):
    """Time the point kernels on one item's own realized point set.

    min_pairwise_distance runs on the vertices; match_rows matches their
    reflection through the first ridge's span back onto the vertices.
    Pair counts are the pairs each call is asked to compare.
    """
    pts = real.points
    v = len(pts)
    with tr.span("kernels.min_pairwise"):
        _kernels.min_pairwise_distance(pts)
    pairs = v * (v - 1) // 2
    lat = real.lattice
    if lat.n >= 2:
        ridge = pts[real.slot_vertices(lat.slots_by_rank[lat.n - 2][0])[0]]
        u = np.linalg.svd(ridge)[2][-1]
        moved = pts - 2.0 * np.outer(pts @ u, u)
        with tr.span("kernels.match_rows"):
            _kernels.match_rows(moved, pts, RIDGE_MATCH_TOL)
        pairs += v * v
    tr.counts["kernels.pairs_computed"] += pairs
