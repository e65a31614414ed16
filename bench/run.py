#!/usr/bin/env python3
"""Benchmark of the invsen package, one workload per run.

    python3 bench/run.py --workload train-debias --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports `invsen` from `src/` there
and reads the metric list from `BENCHMARK.json`. With `--trace 0` it prints
every end-to-end metric; with `--trace 1` it runs every other operation traced
and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. A wrong
output ends the run with `"correct": false` and exit code 1. Scratch files,
traces and the digest record go to `.bench_out/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train-debias", "cluster-large", "cli-roundtrip")
# Set-up is timed once in this process and up to this many times more in
# child processes spread over the run (run_ops).
SETUP_PROBES = 8
# Pinned before numpy loads. One thread, so that on a shared machine a stall
# of the other core does not hold up every eigensolver call. INVSEN_THREADS
# is pinned too: `invsen.cli.main` applies it to BLAS on every call.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "INVSEN_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float,
                   help="measure for this long (at least one operation)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, same code path (for the harness test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_record(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": blas_threads_in_use(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke}


def blas_threads_in_use() -> dict:
    """Thread count that each loaded OpenBLAS library reports, read back
    after the pin (numpy and scipy each bundle their own)."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def blas_pinned(counts: dict) -> bool:
    return bool(counts) and all(0 < n <= BLAS_THREADS for n in counts.values())


def new_workload(args):
    import workloads
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = os.path.join(OUT, "smoke" if args.smoke else "full", args.workload)
    return workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)


def setup_probe(args) -> int:
    """Child process: time import + set-up from a fresh interpreter."""
    t0 = time.perf_counter()
    digest = new_workload(args).setup()
    print(json.dumps({"seconds": time.perf_counter() - t0, "digest": digest}))
    return 0


def probe_setup_in_child(args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_ops(workload, seconds: float, probe=None, tracer=None) -> list[dict]:
    """Closed loop of operations for about `seconds` of operation time: at
    least one (three with `tracer`), and then the next only while, at the mean
    duration so far, it would end less than half an operation past
    `seconds`. Operations last up to 15 s, so this keeps a run's length
    within half an operation of `seconds`. Failures are counted and the
    loop goes on.

    `probe()` times one set-up in a child process. It runs before the first
    operation, before each later one that starts at least
    `seconds / (SETUP_PROBES - 1)` of operation time after the previous
    probe, and after the last. The set-up times then sample the whole run,
    not one burst at its start. Probe time is not operation time.

    With `tracer`, odd-numbered operations run traced, so that traced and
    untraced operations see the same drift of the machine's speed. The
    first operation also warms up caches and lazy imports; the tracer's
    overhead is measured on the operations after it."""
    import workloads
    ops = []
    busy = 0.0
    last_probe = None
    min_ops = 1 if tracer is None else 3
    while True:
        if len(ops) >= min_ops and busy * (1.0 + 0.5 / len(ops)) >= seconds:
            break
        if probe is not None and (last_probe is None or
                                  busy - last_probe >= seconds / (SETUP_PROBES - 1)):
            probe()
            last_probe = busy
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                tracer.op = index
                stack.enter_context(tracer)
                stack.enter_context(tracer.span(f"bench.{workload.name}"))
            t0 = time.perf_counter()
            try:
                out = workload.op(index)
            except workloads.FAILURES as exc:
                print(f"operation {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                out = None
            elapsed = time.perf_counter() - t0
        busy += elapsed
        ops.append({"index": index, "seconds": elapsed, "digest": out, "traced": traced})
    if probe is not None:
        probe()
    return ops


def check_digests(workload, ops, setup_digest, args) -> dict:
    """Same inputs must give the same outputs: within the run, and against
    every earlier run of the same code and seed recorded in .bench_out/."""
    from workloads import CheckFailed
    seen = {}
    for op in ops:
        if op["digest"] is None:
            continue
        key = "0" if workload.same_inputs else str(op["index"])
        if seen.setdefault(key, op["digest"]) != op["digest"]:
            raise CheckFailed(f"operation {op['index']}: output digest differs "
                              "from an earlier operation on the same inputs")
    record_path = os.path.join(OUT, "digests.json")
    record = {}
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    import numpy
    import scipy
    run_key = (f"{args.workload} seed={args.seed} smoke={int(args.smoke)} "
               f"code={code_hash()} numpy={numpy.__version__} scipy={scipy.__version__} "
               f"blas_threads={BLAS_THREADS}")
    earlier = record.setdefault(run_key, {"setup": setup_digest, "ops": {}})
    if earlier["setup"] != setup_digest:
        raise CheckFailed("set-up digest differs from an earlier run of this code and seed")
    for key, value in seen.items():
        if earlier["ops"].setdefault(key, value) != value:
            raise CheckFailed(f"operation {key}: output digest differs from an "
                              "earlier run of this code and seed")
    os.makedirs(OUT, exist_ok=True)
    with open(record_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(record_path + ".tmp", record_path)
    return seen


def code_hash() -> str:
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "invsen"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(workload, ops, setup_s) -> dict:
    s = workload.samples
    attempted = len(ops)
    failed = sum(op["digest"] is None for op in ops)
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "train_samples_per_s": sum(s["epoch_samples"]) / sum(s["epoch_s"]),
        "epoch_ms_p90": 1e3 * percentile(s["epoch_s"], 90),
        "eval_s_p50": percentile(s["eval_s"], 50),
        "pipeline_s_p50": percentile(s["pipeline_s"], 50),
    }


def per_layer(tracer, workload, ops) -> dict:
    from tracer import layer_metrics
    # Only the timed operations: the set-up and the final checks run other
    # sizes (the CLI check clusters 600 samples on cluster-large).
    m = layer_metrics([s for s in tracer.spans if s.op is not None])

    def op_median(traced):
        return statistics.median(op["seconds"] for op in ops[1:] if op["traced"] == traced)

    m["trace.overhead_frac"] = op_median(True) / op_median(False) - 1.0
    m["failed_frac"] = sum(op["digest"] is None for op in ops) / len(ops)
    for key in ("acc", "mi_pred_bias"):
        m[key] = statistics.fmean(q[key] for q in workload.quality)
    return m


def finish(workload, ops) -> None:
    from workloads import CheckFailed
    if all(op["digest"] is None for op in ops):
        raise CheckFailed("every operation failed")
    workload.finish()


def write_trace(tracer, args) -> str:
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    spans = [{"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
              "start": s.start, "end": s.end, "counts": s.counts} for s in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans}, fh)
    return path


def report(spec_metrics, values, counts) -> dict:
    """Print one line per metric; return the result line's metrics object."""
    from workloads import CheckFailed
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(values):
        raise CheckFailed(f"metrics computed {sorted(values)} != declared {sorted(names)}")
    out = {}
    for m in spec_metrics:
        value = float(values[m["name"]])
        if value != value:
            raise CheckFailed(f"{m['name']} is NaN")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<42} {value:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    print("samples: " + json.dumps(counts, sort_keys=True))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    if not (os.path.isfile(os.path.join(SRC, "invsen", "__init__.py"))
            and os.path.isfile(SPEC)):
        print(f"error: {ROOT} is not a checkout of invsen "
              "(src/invsen/ and BENCHMARK.json are required)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()  # like the probes, this set-up includes the imports
    from workloads import CheckFailed
    workload = new_workload(args)
    setup_digest = workload.setup()
    setup_s = [time.perf_counter() - t0]
    machine = machine_record(args)
    print("machine: " + json.dumps(machine, sort_keys=True))
    if not blas_pinned(machine["blas_threads"]):
        print(f"error: BLAS threads are not pinned to {BLAS_THREADS}", file=sys.stderr)
        return 2

    def probe():
        p = probe_setup_in_child(args)
        if p["digest"] != setup_digest:
            raise CheckFailed("set-up gave different inputs in different processes")
        setup_s.append(p["seconds"])

    ops, failed = [], 0
    try:
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            ops = run_ops(workload, args.seconds, tracer=tracer)
            tracer.op = None
            with tracer, tracer.span("bench.finish"):
                finish(workload, ops)
        else:
            ops = run_ops(workload, args.seconds, probe=probe)
            finish(workload, ops)
        failed = sum(op["digest"] is None for op in ops)
        if not blas_pinned(blas_threads_in_use()):
            print(f"error: BLAS threads left {BLAS_THREADS} during the run", file=sys.stderr)
            return 2
        digests = check_digests(workload, ops, setup_digest, args)
        print(f"digest: {list(digests.values())[-1]}")
        if args.trace:
            print(f"trace: {write_trace(tracer, args)}")
            metrics = report(spec["per_layer"], per_layer(tracer, workload, ops),
                             {"spans": len(tracer.spans),
                              "ops_traced": sum(op["traced"] for op in ops),
                              "ops_untraced": sum(not op["traced"] for op in ops)})
        else:
            counts = {k: len(v) for k, v in workload.samples.items()}
            counts.update(ops=len(ops), setup=len(setup_s))
            metrics = report(spec["end_to_end"], end_to_end(workload, ops, setup_s), counts)
            # Printed but not declared, so it carries no bound: the machine's
            # speed switches between two states and the median epoch flips
            # between them from run to run (bench/README.md).
            print(f"{'epoch_ms_p50':<42} "
                  f"{1e3 * percentile(workload.samples['epoch_s'], 50):>14.6g} ms     "
                  "(lower is better; not in BENCHMARK.json)")
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(len(ops), 1),
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
