"""Command line interface.

Diagrams are given inline (``x4o3o``) or as ``@file`` pointing at an inline
string or a JSON document.  Every subcommand takes ``--json`` for a
machine-readable envelope.  Exit codes: 0 success, 1 a verification or
classification came out negative, 2 bad input.

Each command imports the modules it runs inside itself, so a cold process
loads only those.  Besides this module and errors, ``--version`` loads
none, ``order`` loads diagram, ``validate``, ``faces`` and ``fvector
--method formula`` add decoration, and ``is-regular`` and ``classify``
add regular; none of them loads numpy or dataclasses.  The commands that
enumerate (``check``, ``lattice``, ``vertices``, ``export`` and
``fvector`` with an enumerated method) add the numpy-backed layers; their
group size limit is the WYTHOFF_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import (
    BudgetExceeded,
    Degenerate,
    NotFiniteType,
    ParseError,
    UnknownName,
    UnsupportedDimension,
    WythoffError,
)

_USAGE_ERRORS = (
    ParseError,
    NotFiniteType,
    Degenerate,
    UnknownName,
    UnsupportedDimension,
    BudgetExceeded,
)


def _load_diagram(arg: str):
    from .diagram import parse

    if arg.startswith("@"):
        path = arg[1:]
        with open(path, encoding="utf-8") as fh:
            try:
                arg = fh.read().strip()
            except UnicodeDecodeError as e:
                raise ParseError(f"{path}: not UTF-8 text (byte {e.start})") from None
    return parse(arg)


def _emit(args, payload: dict, ok: bool = True) -> int:
    if args.json:
        payload = {"ok": ok, **payload}
        print(json.dumps(payload, indent=2))
    else:
        for line in payload.get("lines", []):
            print(line)
    return 0 if ok else 1


def _write_text(path: str | None, text: str):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diagram_ref(d) -> str:
    from .diagram import serialize_document, serialize_inline

    try:
        return serialize_inline(d)
    except WythoffError:
        return json.dumps(serialize_document(d))


def _cmd_validate(args) -> int:
    from .decoration import is_degenerate
    from .diagram import classify_components, group_order

    d = _load_diagram(args.diagram)
    tags = classify_components(d)
    degenerate = is_degenerate(d)
    lines = [
        f"diagram: {_diagram_ref(d)}",
        f"components: {' x '.join(str(t) for t in tags)}",
        f"group order: {group_order(d)}",
        f"degenerate: {'yes' if degenerate else 'no'}",
    ]
    return _emit(
        args,
        {
            "diagram": _diagram_ref(d),
            "components": [str(t) for t in tags],
            "order": group_order(d),
            "degenerate": degenerate,
            "lines": lines,
        },
    )


def _cmd_order(args) -> int:
    from .diagram import group_order

    d = _load_diagram(args.diagram)
    order = group_order(d)
    return _emit(args, {"order": order, "lines": [str(order)]})


def _cmd_faces(args) -> int:
    from .decoration import face_types, orbit_size, require_nondegenerate, start_decoration
    from .diagram import group_order

    d = _load_diagram(args.diagram)
    require_nondegenerate(d)
    if args.rank is not None and not 0 <= args.rank <= d.rank:
        raise UnsupportedDimension(
            f"--rank {args.rank} is outside 0..{d.rank}, the face ranks of this diagram"
        )
    total = group_order(d)
    ranks = [args.rank] if args.rank is not None else range(d.rank)
    entries = []
    lines = []
    for k, sel, dec in face_types(start_decoration(d), ranks):
        count = orbit_size(dec, total)
        names = [d.node_ids[v] for v in sorted(sel)]
        entries.append({"rank": k, "selection": names, "count": count})
        lines.append(f"rank {k}  S={{{','.join(names)}}}  faces={count}")
    return _emit(args, {"faces": entries, "lines": lines})


def _cmd_fvector(args) -> int:
    from .decoration import f_vector_formula

    d = _load_diagram(args.diagram)
    payload = {}
    lines = []
    ok = True
    if args.method in ("formula", "both"):
        fv = f_vector_formula(d)
        payload["formula"] = list(fv)
        lines.append("formula:    " + " ".join(map(str, fv)))
    if args.method in ("enum", "both"):
        from .face_lattice import build_lattice

        lat = build_lattice(d)
        fv = lat.f_vector
        payload["enumerated"] = list(fv)
        lines.append("enumerated: " + " ".join(map(str, fv)))
    if args.method == "both":
        ok = payload["formula"] == payload["enumerated"]
        lines.append("agreement: " + ("yes" if ok else "NO"))
    return _emit(args, {**payload, "lines": lines}, ok)


def _cmd_lattice(args) -> int:
    from .face_lattice import build_lattice, lattice_document

    d = _load_diagram(args.diagram)
    doc = lattice_document(build_lattice(d))
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_vertices(args) -> int:
    from .face_lattice import build_lattice
    from .geometry import realize

    d = _load_diagram(args.diagram)
    real = realize(build_lattice(d))
    lines = [
        " ".join(f"{v: .12f}" for v in p) for p in real.points
    ]
    return _emit(
        args,
        {"vertices": real.points.tolist(), "lines": lines},
    )


def _cmd_export(args) -> int:
    from .face_lattice import build_lattice
    from .geometry import off_document, realization_document, realize

    d = _load_diagram(args.diagram)
    real = realize(build_lattice(d))
    if args.format == "off":
        _write_text(args.out, off_document(real))
    else:
        _write_text(args.out, json.dumps(realization_document(real), indent=2) + "\n")
    return 0


def _cmd_check(args) -> int:
    from .decoration import f_vector_formula
    from .face_lattice import build_lattice, diamond_report, euler_ok, flag_report
    from .geometry import realize, verify_realization

    d = _load_diagram(args.diagram)
    lat = build_lattice(d)
    results = {}
    fv_formula = f_vector_formula(d)
    results["f_vector"] = lat.f_vector == fv_formula
    results["euler"] = euler_ok(lat)
    results["diamond"] = diamond_report(lat).ok
    fr = flag_report(lat)
    results["flag_degree"] = fr.degree_ok
    results["flag_connected"] = fr.connected
    real = realize(lat)
    for name, rep in verify_realization(real).items():
        results[name] = rep.ok
    ok = all(results.values())
    lines = [f"{name}: {'ok' if good else 'FAIL'}" for name, good in results.items()]
    lines.append(f"overall: {'ok' if ok else 'FAIL'}")
    return _emit(args, {"checks": results, "lines": lines}, ok)


def _cmd_is_regular(args) -> int:
    from .regular import is_flag_transitive, oracle_gap_reason, ruled_verdict

    d = _load_diagram(args.diagram)
    v = ruled_verdict(d)
    payload = {
        "regular": v.regular,
        "name": v.name,
        "reason": v.reason,
        "witness": list(v.witness) if v.witness else None,
    }
    lines = [
        f"regular: {'yes' if v.regular else 'no'}",
        f"name: {v.name}" if v.name else f"reason: {v.reason}",
    ]
    if v.witness:
        k, a, b = v.witness
        lines.append(f"witness: rank {k} has face types S={a} and S={b}")
    if args.oracle:
        flag = is_flag_transitive(d)
        payload["flag_transitive"] = flag
        lines.append(f"flag transitive under the generating group: {'yes' if flag else 'no'}")
        if v.regular and not flag:
            payload["gap"] = oracle_gap_reason(d)
            lines.append(f"gap: {payload['gap']}")
    return _emit(args, {**payload, "lines": lines}, v.regular)


def _cmd_classify(args) -> int:
    from .regular import known_f_vector, regular_catalog

    catalog = regular_catalog(args.dim, kmax=args.kmax)
    entries = []
    lines = []
    for name, constructions in catalog.items():
        refs = [_diagram_ref(c) for c in constructions]
        entries.append(
            {
                "name": name,
                "f_vector": list(known_f_vector(name)),
                "constructions": refs,
            }
        )
        lines.append(f"{name}  f={known_f_vector(name)}  constructions: {'; '.join(refs)}")
    return _emit(args, {"dimension": args.dim, "polytopes": entries, "lines": lines})


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wythoff",
        description="Wythoff polytopes from decorated Coxeter diagrams",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, diagram=True):
        sp = sub.add_parser(name, help=help_)
        if diagram:
            sp.add_argument("diagram", help="inline diagram like x4o3o, or @file")
        sp.add_argument("--json", action="store_true", help="JSON output envelope")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", _cmd_validate, "parse and identify the diagram")
    add("order", _cmd_order, "reflection group order by formula")
    sp = add("faces", _cmd_faces, "face types and counts by formula")
    sp.add_argument("--rank", type=int, default=None)
    sp = add("fvector", _cmd_fvector, "f-vector")
    sp.add_argument("--method", choices=("enum", "formula", "both"), default="both")
    sp = add("lattice", _cmd_lattice, "full face lattice as JSON")
    sp.add_argument("--out", default=None)
    add("vertices", _cmd_vertices, "vertex coordinates")
    sp = add("export", _cmd_export, "geometry export")
    sp.add_argument("--format", choices=("off", "json"), default="json")
    sp.add_argument("--out", default=None)
    add("check", _cmd_check, "run all structural and numeric checks")
    sp = add("is-regular", _cmd_is_regular, "regularity classification")
    sp.add_argument("--oracle", action="store_true", help="also run the flag-transitivity oracle")
    sp = add("classify", _cmd_classify, "catalog of regular polytopes", diagram=False)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--kmax", type=int, default=12)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # an unreadable @file or an unwritable --out: bad input, not a failure
        if e.filename is None:
            raise
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except WythoffError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
