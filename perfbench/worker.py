"""One workload process: a closed loop with one client over ``sympleib.cli.main``.

Run by ``run.py`` as a fresh interpreter with ``src`` on ``PYTHONPATH``; it
reads the request manifest, imports the library, answers one warm-up request
and then one of:

* ``probe``: stop, so the parent can time start-up alone;
* ``timed``: answer the pool in order, round and round, until ``--seconds``
  have passed, timing ``host_kernel`` after each request, then answer
  (untimed) any request the loop never reached so that every request's
  output is seen;
* ``trace``: one untraced pass over the pool, then one traced pass, with
  ``host_kernel`` timed after each request in both.

Requests run in this process with stdout and stderr captured; an exception
escaping ``main`` is recorded as the outcome ``raise:<type>``.  The result is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import time
from fractions import Fraction


def answer(cli, argv):
    """(exit code, stdout, wall seconds, CPU seconds) of one request."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is an outcome to record, not to stop on
        code = f"raise:{type(exc).__name__}"
    return code, out.getvalue(), time.perf_counter() - start, time.process_time() - cpu


def host_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python Fraction arithmetic.

    It shares nothing with the library, so its time moves only with the
    speed of the host; ``run.py`` uses it to scale request times to a
    reference host speed.  About 4 ms on a quiet host.
    """
    start = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class Outcomes:
    """Per-request records plus the first output text of each request."""

    def __init__(self):
        self.records: list = []
        self.texts: dict[str, list] = {}

    def add(self, rid, code, text, latency, cpu, kernel=None):
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.records.append([rid, latency, code, digest, cpu, kernel])
        self.texts.setdefault(rid, [code, text])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--mode", choices=("probe", "timed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    os.chdir(manifest["inputs"])
    pool = manifest["pool"]

    from sympleib import cli
    warm_code = answer(cli, manifest["warmup"])[0]
    result: dict = {"ready_at": time.perf_counter(), "warmup": warm_code,
                    "host_kernel": statistics.median(host_kernel() for _ in range(5))}

    if args.mode == "timed":
        seen = Outcomes()
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < args.seconds:
            rid, argv = pool[k % len(pool)]
            seen.add(rid, *answer(cli, argv), host_kernel())
            k += 1
        result["elapsed"] = time.perf_counter() - start
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["records"] = seen.records
        for rid, argv in pool[k:]:
            seen.texts.setdefault(rid, answer(cli, argv)[:2])
        result["texts"] = seen.texts
    elif args.mode == "trace":
        import tracer
        plain = Outcomes()
        for rid, argv in pool:
            plain.add(rid, *answer(cli, argv), host_kernel())

        t = tracer.Tracer()
        t.install()
        traced = Outcomes()
        bounds = []
        for rid, argv in pool:
            lo = len(t.spans)
            traced.add(rid, *answer(cli, argv), host_kernel())
            bounds.append((rid, lo, len(t.spans)))
        result["records"] = plain.records + traced.records
        result["texts"] = plain.texts
        result["layers"] = t.summary()
        result["accounting"] = account(t, bounds, [r[1] for r in traced.records],
                                       result["layers"])
        t.write(os.path.join(os.path.dirname(args.out), "spans.tsv.gz"), bounds)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def account(t, bounds, walls, layers) -> dict:
    """Check the trace against the requests' wall times.

    For each request, the self times of its spans plus the time no span
    covers must add up to its wall time, with no self time and no remainder
    below zero.  Every span must belong to a request, and the per-layer self
    times must add up to the same total as the per-request sums.
    """
    worst = negative = covered = 0
    unattributed = self_total = 0.0
    for (_, lo, hi), wall in zip(bounds, walls):
        selfs = t.self_times(lo, hi)
        roots = sum(end - start for _, start, end, parent in t.spans[lo:hi] if parent < 0)
        rest = wall - roots
        worst = max(worst, abs(sum(selfs) + rest - wall))
        negative += sum(s < -1e-9 for s in selfs) + (rest < -1e-9)
        unattributed += rest
        self_total += sum(selfs)
        covered += hi - lo
    layer_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    drift = abs(layer_total - self_total)
    return {"max_error_s": worst, "negative": negative, "layer_drift_s": drift,
            "uncovered_spans": len(t.spans) - covered,
            "unattributed_share": unattributed / sum(walls) if walls else 0.0,
            "ok": worst < 1e-6 and drift < 1e-6 and negative == 0
            and covered == len(t.spans)}


if __name__ == "__main__":
    main()
