"""Span tracing from outside the library, for the per-layer metrics.

``install`` wraps the public functions named in ``TARGETS`` and rebinds the
wrapper wherever a ``sympleib`` module holds the original: module globals
(the modules use ``from ... import``), tuples, lists and dicts in module
globals (``cli._CHECKS``, ``catalog._PREDICATES``), and class attributes for
methods.  Each call records one span ``(group, start, end, parent)`` in
memory.  A group's self time is the time its spans spend outside their child
spans, so self times never double count, even when a group calls itself.

Work counts are computed here from arguments and results, never read from
library internals: ``.cells`` is rows x cols handed to ``rref``, ``.triples``
is the basis triples a check scanned before its witness (every triple when it
holds), ``.rows``/``.cols`` the size of the form system, ``.found`` the share
of ``find_nondegenerate`` calls that found a form, ``.samples`` the samples
``catalog verify`` drew, and ``.bytes`` the text parsed or serialized.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time


def _scan_position(witness, n: int) -> int:
    i, j, k = witness.indices
    return i * n * n + j * n + k + 1


def _compat(passes: int):
    def count(work, args, kwargs, report):
        n = args[0].dim
        w = report.witness
        if w is None:
            work["triples"] += passes * n ** 3
        elif w.kind == "diamond-symmetry":
            work["triples"] += n ** 3 + _scan_position(w, n)
        elif w.kind != "degenerate-form":
            work["triples"] += _scan_position(w, n)
    return count


def _identity(work, args, kwargs, report):
    n = args[0].dim
    w = report.witness
    if w is None:
        work["triples"] += n ** 3
    elif w.kind != "antisymmetry":
        work["triples"] += _scan_position(w, n)


def _cells(work, args, kwargs, result):
    work["cells"] += args[0].rows * args[0].cols


def _form_system(work, args, kwargs, result):
    n = args[0].dim
    work["rows"] += n ** 3
    work["cols"] += n * (n - 1) // 2


def _found(work, args, kwargs, result):
    work["found"] += result is not None


def _samples(work, args, kwargs, result):
    work["samples"] += args[2] if len(args) > 2 else kwargs.get("count", 20)


def _text_in(work, args, kwargs, result):
    work["bytes"] += len(args[0])


def _text_out(work, args, kwargs, result):
    work["bytes"] += len(result)


# group -> [(module, attribute, work counter or None)]
TARGETS = {
    "exactlin.rref": [("exactlin", "rref", _cells)],
    "exactlin.kernel": [("exactlin", "kernel", None)],
    "exactlin.solve": [("exactlin", "solve", None), ("exactlin", "solve_unique", None)],
    "exactlin.det": [("exactlin", "Matrix.det", None)],
    "exactlin.inverse": [("exactlin", "Matrix.inverse", None)],
    "exactlin.subspace": [("exactlin", "span", None), ("exactlin", "intersect", None),
                          ("exactlin", "subspace_sum", None)],
    "symplectic.compat_check": [
        ("symplectic", "is_symplectic_left", _compat(1)),
        ("symplectic", "is_symplectic_right", _compat(1)),
        ("symplectic", "is_bi_symplectic", _compat(2)),
        ("symplectic", "is_symplectic_left_split", _compat(1)),
        ("symplectic", "is_symplectic_right_split", _compat(1))],
    "symplectic.omega": [("symplectic", "omega", None)],
    "symplectic.solve_forms": [("symplectic", "solve_symplectic_forms", _form_system)],
    "symplectic.find_nondegenerate": [("symplectic", "find_nondegenerate", _found)],
    "symplectic.star": [("symplectic", "star_left", None), ("symplectic", "star_right", None)],
    "symplectic.skewform": [("symplectic", "SkewForm.__init__", None)],
    "symplectic.orthogonal": [("symplectic", "orthogonal", None)],
    "algebra.identity": [("algebra", "is_left_leibniz", _identity),
                         ("algebra", "is_right_leibniz", _identity),
                         ("algebra", "is_symmetric_leibniz", None),
                         ("algebra", "is_left_symmetric", _identity),
                         ("algebra", "is_lie", _identity)],
    "algebra.structure": [("algebra", "leibniz_ideal", None), ("algebra", "center", None),
                          ("algebra", "derivations", None), ("algebra", "quotient", None),
                          ("algebra", "is_ideal", None)],
    "core.core": [("core", "core", None)],
    "core.verify_core_properties": [("core", "verify_core_properties", None)],
    "extension.criteria": [("extension", "check_full_system", None),
                           ("extension", "check_reduced_system", None),
                           ("extension", "check_rank_one", None),
                           ("extension", "check_isotropic_system", None)],
    "extension.build": [("extension", name, None) for name in (
        "build_double_extension", "build_left_symmetric", "build_lagrangian",
        "build_inner_extension", "build_rank_one", "build_bisymplectic_from_T",
        "build_commutative_bisymplectic", "rank_one_star")],
    "extension.symplectic_lie": [("extension", "SymplecticLie.__init__", None)],
    "catalog.verify": [("catalog", "sample_verify", _samples), ("catalog", "verify", None)],
    "fileformat.parse": [("fileformat", "parse_algebra", _text_in),
                         ("fileformat", "parse_extension", _text_in)],
    "fileformat.serialize": [("fileformat", "algebra_to_dict", None),
                             ("fileformat", "dumps", _text_out)],
    "cli.main": [("cli", "main", None)],
}

WORK_KEYS = {
    "exactlin.rref": ("cells",),
    "symplectic.compat_check": ("triples",),
    "symplectic.solve_forms": ("rows", "cols"),
    "symplectic.find_nondegenerate": ("found",),
    "algebra.identity": ("triples",),
    "catalog.verify": ("samples",),
    "fileformat.parse": ("bytes",),
    "fileformat.serialize": ("bytes",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for group in TARGETS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
        for key in WORK_KEYS.get(group, ()):
            units[f"{group}.{key}"] = "ratio" if key == "found" else "count"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.unattributed_share"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.groups = list(TARGETS)
        self.spans: list = []
        self.stack: list[int] = []
        self.work = {g: {k: 0 for k in WORK_KEYS.get(g, ())} for g in self.groups}

    def wrap(self, group: str, fn, counter):
        gid = self.groups.index(group)
        spans, stack, work, clock = self.spans, self.stack, self.work[group], time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(work, args, kwargs, result)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (gid, start, end, stack[-1] if stack else -1)
            return result
        return traced

    def install(self) -> None:
        swaps = {}
        for group, targets in TARGETS.items():
            for module, attr, counter in targets:
                owner = sys.modules[f"sympleib.{module}"]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                wrapper = self.wrap(group, original, counter)
                setattr(owner, attr, wrapper)
                swaps[id(original)] = (original, wrapper)
        for name, module in list(sys.modules.items()):
            if name == "sympleib" or name.startswith("sympleib."):
                for key, value in list(vars(module).items()):
                    if key.startswith("__"):
                        continue
                    new = _swap(value, swaps, 3)
                    if new is not value:
                        setattr(module, key, new)

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of each span in [lo, hi); the range must hold whole trees."""
        hi = len(self.spans) if hi is None else hi
        child = [0.0] * (hi - lo)
        for gid, start, end, parent in self.spans[lo:hi]:
            if parent >= 0:
                child[parent - lo] += end - start
        return [end - start - child[k]
                for k, (gid, start, end, parent) in enumerate(self.spans[lo:hi])]

    def summary(self) -> dict[str, float]:
        calls = [0] * len(self.groups)
        self_s = [0.0] * len(self.groups)
        for (gid, *_), t in zip(self.spans, self.self_times()):
            calls[gid] += 1
            self_s[gid] += t
        out: dict[str, float] = {}
        for gid, group in enumerate(self.groups):
            out[f"{group}.calls"] = calls[gid]
            out[f"{group}.self_s"] = self_s[gid]
            for key, value in self.work[group].items():
                out[f"{group}.{key}"] = value / calls[gid] if key == "found" and calls[gid] \
                    else value
        return out

    def write(self, path, requests) -> None:
        """Write every span, tagged with the id of the request it belongs to.

        ``requests`` lists (request id, first span, end span) in order.
        """
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("request\tspan\tgroup\tstart\tend\tparent\n")
            for rid, lo, hi in requests:
                for sid in range(lo, hi):
                    gid, start, end, parent = self.spans[sid]
                    fh.write(f"{rid}\t{sid}\t{self.groups[gid]}\t{start!r}\t{end!r}"
                             f"\t{parent}\n")


def _swap(value, swaps, depth):
    hit = swaps.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if depth == 0:
        return value
    if type(value) is tuple:
        new = tuple(_swap(v, swaps, depth - 1) for v in value)
        return new if any(a is not b for a, b in zip(new, value)) else value
    if type(value) is list:
        value[:] = [_swap(v, swaps, depth - 1) for v in value]
    elif type(value) is dict:
        for k, v in value.items():
            value[k] = _swap(v, swaps, depth - 1)
    return value
