"""Command line front end over the exact kernel.

Subcommands: ``check`` runs product identities on an algebra file, ``omega``
solves for or verifies compatible skew forms, ``star`` prints the induced
left-symmetric product as a new algebra file, ``core`` splits off the
degenerate part of the Leibniz kernel, ``extend`` checks double-extension
data and optionally builds the extended algebra, and ``catalog`` lists,
builds, and verifies the built-in families.

Exit codes: 0 when everything requested holds, 1 when a mathematical check
fails (a witness is printed), 2 on malformed input or bad usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import Any

from . import catalog, extension
from .algebra import (is_left_leibniz, is_left_symmetric, is_lie,
                      is_right_leibniz, is_symmetric_leibniz)
from .fileformat import (FileFormatError, algebra_to_dict, coords_to_entries,
                         form_to_entries, load_algebra, load_extension,
                         rational_from_json, rational_to_json, serialize_algebra)
from .reporting import Check, SystemReport
from .symplectic import (find_nondegenerate, is_bi_symplectic,
                         is_symplectic_left, is_symplectic_right,
                         solve_symplectic_forms, star_left, star_right)


class UsageError(ValueError):
    """Bad arguments or ill-formed input; maps to exit code 2."""


# each catalog sample is checked and its outcome kept until the report prints
MAX_SAMPLES = 10_000


# ---------------------------------------------------------------------------
# rendering helpers

def _vec(v) -> list:
    return [rational_to_json(x) for x in v]


def _vec_text(v) -> str:
    return "(" + ", ".join(str(rational_to_json(x)) for x in v) + ")"


def _entries_text(entries) -> str:
    if not entries:
        return "0"
    return "  ".join(f"({i},{j})={v}" for i, j, v in entries)


def _check_dict(c: Check) -> dict[str, Any]:
    d: dict[str, Any] = {"name": c.name, "ok": c.holds}
    if c.detail:
        d["detail"] = c.detail
    return d


def _report_dict(rep: SystemReport) -> dict[str, Any]:
    return {"title": rep.title, "ok": rep.ok,
            "checks": [_check_dict(c) for c in rep.checks]}


def _finish(args, code: int, lines: list[str], doc: dict[str, Any]) -> int:
    if args.json_out:
        doc.setdefault("ok", code == 0)
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _print_error(exc: Exception) -> None:
    """``error: exc`` on stderr; on a stream that encodes strictly, the
    characters it cannot encode (a lone surrogate of a path) backslash-escaped."""
    line = f"error: {exc}"
    try:
        print(line, file=sys.stderr)
    except UnicodeEncodeError:
        encoding = sys.stderr.encoding
        print(line.encode(encoding, "backslashreplace").decode(encoding), file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

_CHECKS = (
    ("left", is_left_leibniz),
    ("right", is_right_leibniz),
    ("symmetric", is_symmetric_leibniz),
    ("lsym", is_left_symmetric),
    ("lie", is_lie),
)


def cmd_check(args) -> int:
    algebra, _ = load_algebra(args.file)
    requested = [fn for name, fn in _CHECKS if getattr(args, name)]
    if not requested:
        requested = [is_left_leibniz]
    checks = [fn(algebra) for fn in requested]
    lines = [c.line() for c in checks]
    doc = {"command": "check", "checks": [_check_dict(c) for c in checks]}
    return _finish(args, 0 if all(c.holds for c in checks) else 1, lines, doc)


def cmd_omega(args) -> int:
    algebra, form = load_algebra(args.file)
    if args.mode == "solve":
        space = solve_symplectic_forms(algebra, args.side)
        # the nonzero positions of each basis row, read off the int basis
        basis = [coords_to_entries(algebra.dim, ((k, row[k]) for k, _ in nonzero))
                 for row, nonzero in zip(space.basis.entries, space.int_basis[1])]
        found = find_nondegenerate(space, algebra.dim, seed=args.seed)
        rep = None if found is None else form_to_entries(found)
        lines = [f"side: {args.side}",
                 f"solution space dimension: {space.dim}"]
        for k, entries in enumerate(basis, start=1):
            lines.append(f"basis {k}: {_entries_text(entries)}")
        lines.append("nondegenerate representative: "
                     + ("none found" if rep is None else _entries_text(rep)))
        doc = {"command": "omega", "mode": "solve", "side": args.side,
               "dimension": space.dim, "basis": basis, "nondegenerate": rep}
        return _finish(args, 0, lines, doc)

    if form is None:
        raise UsageError("omega verify needs a form in the file")
    check = {"left": is_symplectic_left, "right": is_symplectic_right,
             "bi": is_bi_symplectic}[args.side](algebra, form)
    doc = {"command": "omega", "mode": "verify", "side": args.side,
           "checks": [_check_dict(check)]}
    return _finish(args, 0 if check.holds else 1, [check.line()], doc)


def cmd_star(args) -> int:
    algebra, form = load_algebra(args.file)
    if form is None:
        raise UsageError("star needs a form in the file")
    star = star_left(algebra, form) if args.side == "left" \
        else star_right(algebra, form)
    print(serialize_algebra(star, form), end="")
    return 0


def cmd_core(args) -> int:
    algebra, form = load_algebra(args.file)
    if form is None:
        raise UsageError("core needs a form in the file")
    from .core import core  # at call time: the module runs on first use, and a rebinding shows
    dec = core(algebra, form)
    reduced_doc = algebra_to_dict(dec.reduced.algebra, dec.reduced.form)
    lines = [f"dim I: {dec.ideal.dim}"]
    for row in dec.ideal.basis.entries:
        lines.append(f"I basis: {_vec_text(row)}")
    for row in dec.ideal_perp.basis.entries:
        lines.append(f"I-perp basis: {_vec_text(row)}")
    lines.append(f"reduced dim: {dec.reduced.algebra.dim}")
    for item in reduced_doc["products"]:
        lines.append(f"reduced product {item['left']}.{item['right']}: "
                     + _vec_text(dec.reduced.algebra.c[item['left'] - 1][item['right'] - 1]))
    lines.append(f"reduced form: {_entries_text(reduced_doc.get('form', []))}")
    lines.append(f"h dim: {dec.h_dim}")
    doc = {"command": "core",
           "dim_I": dec.ideal.dim,
           "I_basis": [_vec(r) for r in dec.ideal.basis.entries],
           "I_perp_basis": [_vec(r) for r in dec.ideal_perp.basis.entries],
           "reduced": reduced_doc,
           "reduced_lift": [_vec(r) for r in dec.reduced_lift.entries],
           "h_dim": dec.h_dim}
    return _finish(args, 0, lines, doc)


def cmd_extend(args) -> int:
    gs, data = load_extension(args.file)
    checker = extension.check_full_system if args.system == "full" \
        else extension.check_reduced_system
    report = checker(gs, data)
    doc: dict[str, Any] = {"command": "extend", "system": args.system,
                           "report": _report_dict(report)}
    if not report.ok:
        return _finish(args, 1, report.lines(), doc)

    emitted = {}  # the algebras to print, each with the extension's form
    if args.build or args.star:
        # the reduced report just printed is the builder's gate; a full
        # report is a different check, so the builder runs the reduced one
        gate = report if args.system == "reduced" else None
        algebra, form = extension.build_double_extension(gs, data, gate)
        if args.build:
            emitted["product"] = algebra
        if args.star:
            emitted["star"] = extension.build_left_symmetric(gs, data)

    if args.json_out:
        doc.update((key, algebra_to_dict(a, form)) for key, a in emitted.items())
        return _finish(args, 0, [], doc)
    if emitted:
        # keep stdout clean for the emitted file so it can be piped back in
        for line in report.lines():
            print(line, file=sys.stderr)
        if len(emitted) == 1:
            print(serialize_algebra(next(iter(emitted.values())), form), end="")
        else:  # json.dumps(docs, indent=2): each file nested one level in
            print("{\n" + ",\n".join(f'  "{key}": {serialize_algebra(a, form, "  ")[:-1]}'
                                     for key, a in emitted.items()) + "\n}")
        return 0
    return _finish(args, 0, report.lines(), doc)


def _get_family(fid: str) -> catalog.FamilySpec:
    try:
        return catalog.get(fid)
    except ValueError:
        known = ", ".join(catalog.list_families())
        raise UsageError(f"unknown family {fid!r}; known ids: {known}") from None


def _parse_params(pairs) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"parameters look like name=value, got {item!r}")
        out[key] = rational_from_json(value, f"parameter {key}")
    return out


def cmd_catalog_list(args) -> int:
    lines = []
    docs = []
    for fid in catalog.list_families():
        spec = _get_family(fid)
        defaults = spec.default_params()
        params = ", ".join(f"{n}={rational_to_json(defaults[n])}"
                           for n in spec.param_names) or "none"
        constraints = ", ".join(c.name for c in spec.constraints) or "none"
        lines += [fid,
                  f"  {spec.description}",
                  f"  params: {params}",
                  f"  constraints: {constraints}",
                  f"  claims: {', '.join(spec.claims)}"]
        docs.append({"id": fid, "description": spec.description,
                     "params": {n: rational_to_json(defaults[n])
                                for n in spec.param_names},
                     "constraints": [c.name for c in spec.constraints],
                     "claims": list(spec.claims)})
    return _finish(args, 0, lines,
                   {"command": "catalog", "mode": "list", "families": docs})


def cmd_catalog_build(args) -> int:
    _get_family(args.id)
    try:
        algebra, form = catalog.instantiate(args.id, _parse_params(args.params))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(serialize_algebra(algebra, form), end="")
    return 0


def cmd_catalog_verify(args) -> int:
    _get_family(args.id)
    if args.samples < 0:
        raise UsageError("samples must be non-negative")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"samples {args.samples} exceeds the limit of {MAX_SAMPLES}")
    samples = catalog.sample_verify(args.id, seed=args.seed, count=args.samples)
    lines = []
    outcomes = []
    for index, (params, report) in enumerate(samples):
        shown = {k: rational_to_json(v) for k, v in params}
        ptext = " ".join(f"{k}={v}" for k, v in shown.items())
        lines.append(f"sample {index:>3} [{'ok' if report.ok else 'FAIL':>4}] {ptext}")
        lines += ["  " + c.line() for c in report.failed()]
        outcomes.append({"index": index, "ok": report.ok, "params": shown,
                         "checks": [_check_dict(c) for c in report.checks]})
    passes = sum(o["ok"] for o in outcomes)
    lines.append(f"{args.id}: {passes}/{args.samples} pass")
    doc = {"command": "catalog", "mode": "verify", "family": args.id,
           "seed": args.seed, "samples": args.samples, "passes": passes,
           "outcomes": outcomes}
    return _finish(args, 0 if passes == len(outcomes) else 1, lines, doc)


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(sp: argparse.ArgumentParser) -> None:
    # mirrored on every subcommand so the flags work in either position;
    # SUPPRESS keeps an absent flag from clobbering the global value
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="seed for randomized searches")
    sp.add_argument("--json-out", dest="json_out", action="store_true",
                    default=argparse.SUPPRESS,
                    help="emit one structured JSON document instead of text")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse gets a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="sympleib",
        description="Exact checks and constructions for algebras carrying "
                    "compatible skew forms.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized searches")
    parser.add_argument("--json-out", dest="json_out", action="store_true",
                        default=False,
                        help="emit one structured JSON document instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run product identities on an algebra file")
    p.add_argument("file")
    p.add_argument("--left", action="store_true", help="left Leibniz identity")
    p.add_argument("--right", action="store_true", help="right Leibniz identity")
    p.add_argument("--symmetric", action="store_true",
                   help="both Leibniz identities")
    p.add_argument("--lsym", action="store_true",
                   help="left symmetric associator identity")
    p.add_argument("--lie", action="store_true",
                   help="antisymmetry plus Jacobi")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("omega", help="solve for or verify compatible skew forms")
    p.add_argument("file")
    p.add_argument("mode", choices=("solve", "verify"))
    p.add_argument("--side", choices=("left", "right", "bi"), default="left")
    _add_common(p)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("star", help="print the induced product as an algebra file")
    p.add_argument("file")
    p.add_argument("--side", choices=("left", "right"), default="left")
    _add_common(p)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("core", help="split the degenerate part off a compatible pair")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("extend", help="check extension data, optionally build")
    p.add_argument("file")
    p.add_argument("--system", choices=("full", "reduced"), default="reduced",
                   help="which equation system to check")
    p.add_argument("--build", action="store_true",
                   help="emit the extended algebra with its form")
    p.add_argument("--star", action="store_true",
                   help="emit the left-symmetric product of the extension")
    _add_common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("catalog", help="built-in families: list, build, verify")
    csub = p.add_subparsers(dest="mode", required=True)
    c = csub.add_parser("list", help="describe every family")
    _add_common(c)
    c.set_defaults(func=cmd_catalog_list)
    c = csub.add_parser("build", help="emit one family instance as a file")
    c.add_argument("id")
    c.add_argument("--params", nargs="*", metavar="NAME=VALUE", default=[])
    _add_common(c)
    c.set_defaults(func=cmd_catalog_build)
    c = csub.add_parser("verify", help="re-check the claims on random samples")
    c.add_argument("id")
    c.add_argument("--samples", type=int, default=20)
    _add_common(c)
    c.set_defaults(func=cmd_catalog_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (FileFormatError, UsageError, OSError) as exc:
        _print_error(exc)
        return 2
    except ValueError as exc:
        _print_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
