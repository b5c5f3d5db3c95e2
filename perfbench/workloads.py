"""Seeded inputs of the four benchmark workloads.

Every library input is diagram text as a user would type it: inline
notation for path diagrams, a JSON document otherwise.  The seed decides
the order of the items (and which I2(999) decoration the sweep runs); the
program sees only the text.

A workload's inputs are a list of passes, each pass the workload's items
in its own seeded order.  The number of passes follows from ``--seconds``
and the nominal length of one pass, never from the speed of the machine,
so every run of one length measures the same items the same number of
times.
"""

from __future__ import annotations

import json
import random

import wythoff as W

# rough seconds of one pass, gauge readings included, with the numpy kernels
# on the defining 2-CPU machine; a run of --seconds S makes
# max(1, S // PASS_SECONDS) passes
PASS_SECONDS = {"sweep": 9.0, "orbit": 6.5, "big_group": 4.0, "cli": 5.0}


def diagram_text(d) -> str:
    try:
        return W.serialize_inline(d)
    except W.ParseError:
        return json.dumps(W.serialize_document(d), separators=(",", ":"))


def d5_long_arm_end() -> str:
    return diagram_text(W.family_diagram("D", 5, ringed=(0,)))


# I2(999): edge_uniformity reports a false FAIL (fixed absolute tolerance)
KNOWN_DEFECTS_I2 = {"x999o", "o999x", "x999x"}
I2_ROUTE = "check: edge_uniformity"
# D5 ringed at the end of its long arm: ruled the 5-hyperoctahedron, not
# flag-transitive under D5, and oracle_gap_reason documents no gap for it
D5_ROUTE = "oracle: ruled 5-hyperoctahedron, not flag-transitive, no documented gap"


def known_defects() -> dict:
    """Input -> the route it fails by, at this benchmark's defining commit."""
    out = dict.fromkeys(KNOWN_DEFECTS_I2, I2_ROUTE)
    out[d5_long_arm_end()] = D5_ROUTE
    return out


# -- sweep -------------------------------------------------------------------

# A fixed sample of every non-empty ring set of A1-A6, B3-B5, D4-D5, H3, F4
# and I2(3..12): the middle decoration of each of equal-size strata of that
# pool ordered by an estimate of its work, plus two H3 decorations.  The pass keeps three
# decorations on which the flag check takes its covering method (over
# 700 000 flags).  Left out for the run-time budget: x3x3x3x3x3x (2.4 s),
# x3o3x3x3x3x (1.0 s), o3x3x3x3x3x (1.1 s) and x3x3x3x3o3o (1.0 s).
SWEEP_FAMILY_INLINE = (
    "x3o", "o3x3x", "x3o3o3o", "x3o3o3x", "o3o3x3x", "x3x3x3o", "x3o3x3x",
    "o3o3o3x3o", "o3x3x3o3o", "o3o3x3o3x", "x3x3o3x3o", "x3o3x3o3x", "o3x3x3x3o",
    "o3o3o3o3x3o", "o3o3o3x3o3x", "x3x3o3o3x3o", "o3x3x3x3o3x", "o3x3o3x3x3x",
    "o4x3x", "o4o3o3o3x", "o4x3o3o3x", "x4o3x3x3o", "x4o3x3x3x",
    "x5o3o", "x5x3x",
    "o3o4x3o", "o3o4o3x",
    "o5x", "x5x", "x9x", "x10o",
    # large I2(k); no I2(400): its passing decorations spend 5 s (400-gon)
    # and 46 s (800-gon) in the regularity witnesses on the numpy kernels
    "x24x", "x100x",
)
# D ring sets are not path diagrams, so they are written as JSON documents
SWEEP_FAMILY_D = (
    (4, (0, 1, 3)),
    (5, (0, 1)), (5, (1, 3)), (5, (0, 1, 2)), (5, (1, 2, 3)), (5, (1, 3, 4)),
    (5, (0, 1, 2, 3, 4)),
)

SWEEP_PRODUCTS = (
    ("x", "x3o"),
    ("x", "x5o"),
    ("x", "x3o3o"),
    ("x", "x4o3o"),
    ("x", "o3x4o"),
    ("x", "x5o3o"),
    ("x3o", "x4o"),
    ("x4o", "x4o"),
    ("x5o", "x6o"),
    ("x3x", "x4o"),
    ("x8o", "x3o"),
    ("x3o", "x3o3o"),
)


def sweep_items(seed):
    """One sweep pass: the fixed sample, the products and both known defects.

    Only the I2(999) decoration (all three cost the same) depends on the
    seed, so every run measures the same mix.
    """
    items = list(SWEEP_FAMILY_INLINE)
    items += [diagram_text(W.family_diagram("D", rank, ringed=rings))
              for rank, rings in SWEEP_FAMILY_D]
    items += [diagram_text(W.disjoint_union(W.parse(a), W.parse(b))) for a, b in SWEEP_PRODUCTS]
    items.append(random.Random(seed).choice(sorted(KNOWN_DEFECTS_I2)))
    items.append(d5_long_arm_end())
    return items


# the smoke pass: cheap items of every kind, no known defect
SWEEP_SMOKE = ("x3o3o3o", "o4x3x", "x5x3x", "o3o4o3x", "x10o")


# -- orbit -------------------------------------------------------------------

# H4 ring sets from 720 to 7200 vertices, on the one group of order 14400.
# Left out for the run-time budget (seconds per item with the numpy
# kernels): the 120-cell x5o3o3o (11 s, most of it in the witnesses), the
# 600-cell o5o3o3x (its polar-dual witness alone 23 s), x5x3x3x (14400
# vertices, 10 s), three more 7200-vertex and two more 3600-vertex sets.
ORBIT_ITEMS = ("o5o3x3o", "o5x3o3o", "o5o3x3x", "x5x3o3o", "x5o3o3x", "o5x3o3x", "o5x3x3x")
ORBIT_SMOKE = ("o5o3x3o", "o5o3x3x")


# -- big_group ---------------------------------------------------------------


def big_group_items():
    """A7 7-simplex, B6 6-cube, E6 ring-at-end polytope as a JSON document.

    Orders 40320, 46080 and 51840.  A8 (|G| = 362880, 11 s per item) and
    B7 (645120, 32 s and 1 GB) do not fit repeated passes in the run time.
    """
    e6 = diagram_text(W.family_diagram("E", 6, ringed=(0,)))
    return ["x3o3o3o3o3o3o", "x4o3o3o3o3o", e6]


# -- cli ---------------------------------------------------------------------

E8_DOC = diagram_text(W.family_diagram("E", 8, ringed=(0,)))

CLI_COMMANDS = {
    "version": ["--version"],
    "validate": ["validate", "x3x4o", "--json"],
    "order": ["order", E8_DOC, "--json"],
    "faces": ["faces", "x3x4o", "--rank", "2", "--json"],
    "fvector": ["fvector", "x5o3o3o", "--method", "formula", "--json"],
    "check": ["check", "x3x4o", "--json"],
    "is_regular": ["is-regular", "o3x4o", "--json"],
}


def pass_count(workload, seconds) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


def make_passes(workload, seed, seconds, smoke=False):
    """The seeded list of passes for one run of one workload."""
    if workload == "sweep":
        items = list(SWEEP_SMOKE) if smoke else sweep_items(seed)
    elif workload == "orbit":
        items = list(ORBIT_SMOKE if smoke else ORBIT_ITEMS)
    elif workload == "big_group":
        items = big_group_items()
        items = items[:1] if smoke else items
    elif workload == "cli":
        items = ["version", "order"] if smoke else list(CLI_COMMANDS)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random(seed)
    passes = []
    for _ in range(pass_count(workload, seconds)):
        order = list(items)
        rng.shuffle(order)
        passes.append(order)
    return passes


WORKLOADS = ("sweep", "orbit", "big_group", "cli")
