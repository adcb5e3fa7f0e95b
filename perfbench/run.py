"""sympleib benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload solve --seed 3 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The steps:

1. generate the workload's input files from the seed (``gen.py``) and
   self-check them; none of this is timed;
2. ``--trace 0``: start five probe processes, the workload process and
   five more probes, each a fresh interpreter (``worker.py``), and report
   the end-to-end metrics; ``--trace 1``: one workload process runs an
   untraced and then a traced pass over the pool, and the per-layer metrics
   are reported;
3. judge every output against its request's check (any seed) and, on the
   default seed, against the committed references in ``references/``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` is the number of distinct requests in the pool, each answered
at least once, and ``failed`` the number of them whose answer was wrong at
any repeat: both are fixed by the pool and the code, not by how many passes
the host's speed allowed.  A request fails when it raises, or its exit code
or output is wrong; the malformed-input requests that the library does not
yet reject with exit 2 count as failed requests, not as a wrong run
(``correct`` stays true while every failure is one of them).
``--write-references`` regenerates the committed references for the
default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
PROBES = 5
HOST_REF_S = 0.004  # worker.host_kernel on a quiet 2-vCPU Xeon host, Python 3.11
SMOKE_REQUESTS = 6
TAIL_PASSES = 4


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with ten requests beyond it: the 11th largest.

    Returns (percentile, latency); with fewer than 11 requests, the largest.
    """
    n = len(latencies)
    if n <= 10:
        return 100.0, max(latencies)
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def environment(seed: int, pool_size: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sympleib").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "git_commit": commit,
            "source_sha256": src.hexdigest(), "seed": seed,
            "pool_requests": pool_size}


def spawn(manifest: Path, mode: str, seconds: float, out: Path,
          deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
           "--mode", mode, "--seconds", str(seconds), "--out", str(out)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), started


def judge(pool, result, refs) -> dict[str, str]:
    """Reasons per failing request id; every repeat of a request is judged."""
    by_id = {r.id: r for r in pool}
    bad: dict[str, str] = {}
    for rid, (code, text) in result["texts"].items():
        try:
            why = by_id[rid].check(code, text)
        except Exception as exc:  # a malformed answer can break the parser
            why = f"output could not be checked: {type(exc).__name__}: {exc}"
        if why is None and refs is not None:
            ref = refs["requests"].get(rid)
            if ref is None or [ref["exit"], ref["sha256"]] != [code, sha(text)]:
                why = "differs from the committed reference"
        if why:
            bad[rid] = why
    for rid, _, code, digest, *_ in result["records"]:
        first_code, first_text = result["texts"][rid]
        if [code, digest] != [first_code, sha(first_text)]:
            bad.setdefault(rid, "answer changed between repeats of the request")
    return bad


def output_digest(pool, texts) -> str:
    lines = "".join(f"{r.id} {texts[r.id][0]} {sha(texts[r.id][1])}\n" for r in pool)
    return sha(lines)


def host_factors(kernels, half: int = 2) -> list[float]:
    """Per-request factor that scales a time to the reference host speed.

    The factor is HOST_REF_S over the median ``host_kernel`` time of the
    five requests around this one, so it follows the host's speed closely
    without taking the noise of a single kernel run.
    """
    return [HOST_REF_S / statistics.median(kernels[max(0, i - half):i + half + 1])
            for i in range(len(kernels))]


def end_to_end(result, setups, failed, pool_size) -> tuple[dict, dict]:
    """End-to-end metrics from the timed records.

    Request times are scaled to the reference host speed (``host_factors``):
    on a shared 2-vCPU Xeon host the same work ran up to 2x slower for spells
    of seconds to minutes, which no run length averages out.  The
    unscaled values go to the notes.  Throughput and CPU time are medians over
    the whole passes of the run (every pass answers the same requests), and
    the median latency is taken over all requests.  The tail is taken over
    the first TAIL_PASSES whole passes: over all requests, its percentile
    would follow the number of requests, which follows the host's speed.
    Each answer in it counts with its request's median latency over the
    whole run, so the tail is the cost of the heavy requests, not the
    jitter of their slowest repeat; the tail of the single answers goes to
    the notes.  With no complete pass, the run as a whole stands in for one.
    """
    recs = result["records"]
    n = len(recs)
    factors = host_factors([r[5] for r in recs])

    def summary(scale):
        lat = [r[1] * f for r, f in zip(recs, scale)]
        cpu = [r[4] * f for r, f in zip(recs, scale)]
        passes = [range(p * pool_size, (p + 1) * pool_size)
                  for p in range(n // pool_size)] or [range(n)]
        by_id: dict[str, list[float]] = {}
        for r, x in zip(recs, lat):
            by_id.setdefault(r[0], []).append(x)
        typical = {rid: statistics.median(xs) for rid, xs in by_id.items()}
        first = recs[:TAIL_PASSES * pool_size]
        pct, tail_s = tail([typical[r[0]] for r in first])
        return pct, {
            "latency_tail_per_answer_ms": 1000 * tail(lat[:len(first)])[1],
            "throughput_rps": statistics.median(len(p) / sum(lat[i] for i in p)
                                                for p in passes),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * tail_s,
            "cpu_ms_per_request": 1000 * statistics.median(
                sum(cpu[i] for i in p) / len(p) for p in passes),
        }

    pct, scaled = summary(factors)
    _, raw = summary([1.0] * n)
    tail_per_answer = scaled.pop("latency_tail_per_answer_ms")
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "throughput_rps": (scaled["throughput_rps"], "1/s"),
               "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
               "latency_tail_ms": (scaled["latency_tail_ms"], "ms"),
               "cpu_ms_per_request": (scaled["cpu_ms_per_request"], "ms"),
               "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
               "success_rate": (1 - failed / pool_size, "ratio")}
    notes = {"tail_percentile": pct, "latency_samples": min(n, TAIL_PASSES * pool_size),
             "passes": max(1, n // pool_size), "unscaled": raw,
             "host_factor_median": statistics.median(factors),
             "latency_tail_per_answer_ms": tail_per_answer,
             "setup_samples_s": setups, "error_rate": failed / pool_size,
             "timed_requests": n}
    return metrics, notes


def per_layer(result, pool_size) -> tuple[dict, dict]:
    """Per-layer metrics; the overhead ratio compares host-scaled pass times."""
    import tracer
    units = tracer.metric_units()
    values = dict(result["layers"])
    untraced, traced = result["records"][:pool_size], result["records"][pool_size:]
    values["trace.overhead_ratio"] = (
        sum(r[1] * f for r, f in zip(traced, host_factors([r[5] for r in traced])))
        / sum(r[1] * f for r, f in zip(untraced, host_factors([r[5] for r in untraced]))))
    values["trace.unattributed_share"] = result["accounting"]["unattributed_share"]
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return metrics, {"accounting": result["accounting"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"only the first {SMOKE_REQUESTS} requests of the pool (tests)")
    ap.add_argument("--write-references", action="store_true",
                    help="rewrite references/<workload>.json from this run")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + 175
    if not (ROOT / "src" / "sympleib" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'sympleib'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.write_references and (args.seed != DEFAULT_SEED or args.smoke or args.trace):
        print(f"error: references are written from a full --trace 0 run at seed "
              f"{DEFAULT_SEED}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-out" / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                      + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    warm, pool = gen.generate(args.workload, args.seed, work / "inputs")
    if args.smoke:
        pool = pool[:SMOKE_REQUESTS]
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"inputs": str(work / "inputs"), "warmup": warm,
                                    "pool": [[r.id, r.argv] for r in pool]}))
    ref_path = HERE / "references" / f"{args.workload}.json"
    refs = None
    if args.seed == DEFAULT_SEED and not args.write_references:
        refs = json.loads(ref_path.read_text(encoding="utf-8"))

    try:
        if args.trace:
            result, _ = spawn(manifest, "trace", 0, work / "trace.json", deadline)
            metrics, notes = per_layer(result, len(pool))
        else:
            # start-up is sampled before and after the timed process too, so
            # that one slow spell of the host cannot move the median; each
            # sample is scaled by the host speed its own process measured
            setups, raw_setups = [], []
            for k in range(2 * PROBES + 1):
                mode = "timed" if k == PROBES else "probe"
                out, started = spawn(manifest, mode, args.seconds, work / f"{mode}{k}.json",
                                     deadline)
                raw_setups.append(out["ready_at"] - started)
                setups.append(raw_setups[-1] * HOST_REF_S / out["host_kernel"])
                if mode == "timed":
                    result = out
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bad = judge(pool, result, refs)
    failed = len(bad)
    if result["warmup"] != 0:
        bad["warmup"] = f"warm-up request exited {result['warmup']}"
    if not args.trace:
        metrics, notes = end_to_end(result, setups, failed, len(pool))
        notes["unscaled"]["setup_s"] = statistics.median(raw_setups)
    malformed = {r.id for r in pool if r.malformed}
    correct = all(rid in malformed for rid in bad) and \
        notes.get("accounting", {}).get("ok", True)
    digest = output_digest(pool, result["texts"])

    if args.write_references:
        if any(rid not in malformed for rid in bad):
            print(f"error: refusing to record failing answers: {bad}", file=sys.stderr)
            return 1
        reqs = {r.id: ({"exit": 2, "sha256": sha("")} if r.malformed else
                       {"exit": result["texts"][r.id][0],
                        "sha256": sha(result["texts"][r.id][1])}) for r in pool}
        ref_doc = {"seed": DEFAULT_SEED, "output_digest": digest, "requests": reqs}
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(ref_doc, indent=1) + "\n", encoding="utf-8")

    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed, len(pool)),
              "output_digest": digest,
              "reference_digest": refs and refs["output_digest"],
              "attempted": len(pool), "failed": failed,
              "failures": bad, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pool {len(pool)} requests  python {env['python']}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}  commit {env['git_commit'][:12]}")
    print(f"output_digest {digest}"
          + (f"  (reference {'matches' if digest == refs['output_digest'] else 'DIFFERS'})"
             if refs and not args.smoke else ""))
    print(f"attempted {report['attempted']} distinct requests  failed {failed}  "
          f"error_rate {failed / max(1, report['attempted']):.4f}  "
          f"({len(result['records'])} answers timed or traced)")
    for rid, why in sorted(bad.items()):
        print(f"  failed: {rid}: {why}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{notes['tail_percentile']:.1f} of {notes['latency_samples']} requests)"
        print(f"{name:40s} {value:14.6g} {unit}{extra}")
    if args.trace:
        print(f"trace accounting: {notes['accounting']}")
    else:
        print(f"unscaled: {notes['unscaled']}  (host factor {notes['host_factor_median']:.3f})")
    print(json.dumps({"correct": bool(correct), "attempted": report["attempted"],
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
