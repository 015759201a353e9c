"""Write one ``BENCH_<pr>.json``: the benchmark's records and a scale section.

    python3 tools/bench.py --out BENCH_<pr>.json [--seconds 10] [--scale cam1000 ...]

It runs ``benchmark/run.py`` unchanged, as a subprocess, at ``--seed 1`` on
each workload, with ``--trace 0`` and then ``--trace 1``, and keeps, per
workload, the end-to-end and per-layer metrics, the ``env`` and ``host``
lines, ``correct`` and ``failed``.  The workloads, and the end-to-end and
per-layer metric names that each run must report, are those that
``BENCHMARK.json`` declares; this file keeps no list of its own.

The scale section runs each robustness-suite graph (``--scale``; sparse2.5,
cam1000 and cam5000 by default) at seed 1 in a process of its own, so that
its peak RSS is its own.  It times the generation of the graph, its
serialisation and parse, and three solves of the parsed graph through the
benchmark's own adapter: NeuRoRA with the benchmark's checkpoints, IRLS
(5, 20) from the BFS bootstrap, and one Weiszfeld sweep.  Each stage is
called ``REPEATS`` times, and its time is the median of the calls' CPU
seconds, each scaled, as the benchmark scales its own, by the host speed
that ``benchmark/hostspeed.py`` samples before and after the call.  Each
call of a solve leaves a :func:`fingerprint` of its output: NeuRoRA's rows
and node ids, IRLS's rows, iteration count and summed CG iterations, or
Weiszfeld's rows and objective trace; equal fingerprints across commits mean
equal outputs, bit for bit.  The IRLS record also keeps the CG iterations of
each inner solve (0 for a dense one), so that the CG path, whose rows may
move at rounding level, can be compared step by step.  Errors are ``benchmark/score.errors_deg``:
median and mean, in degrees, over the returned nodes.  Every child process
runs with one BLAS thread.

It measures the checkout that holds it; a copy placed in a checkout of an
earlier commit measures that commit.  It exits 1 when :func:`problems`,
whose docstring lists the gate's checks, finds a fault.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SCALE_CONFIGS = ("sparse2.5", "cam1000", "cam5000")
MAX_CAM1000_MEDIAN_DEG = 1.0
REPEATS = 3  # calls of each scale stage
SOLVES = ("neurora", "irls", "weiszfeld_sweep")  # the scale stages that leave fingerprints
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def declared() -> dict[str, list[str]]:
    """``BENCHMARK.json``'s workload names and its end-to-end and per-layer
    metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: [entry["name"] for entry in spec[kind]]
            for kind in ("workloads", "end_to_end", "per_layer")}


def run_workload(workload: str, seconds: float, trace: int) -> dict:
    """One ``benchmark/run.py`` call, read from its ``env``, ``host`` and last JSON lines."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
    lines = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            lines.update(record if "metrics" not in record else {"final": record})
    final = lines.get("final", {"correct": False, "failed": None, "metrics": {}})
    if proc.returncode != 0:
        final["correct"] = False
        sys.stderr.write(proc.stderr)
    return {"env": lines.get("env"), "host": lines.get("host"), "correct": final["correct"],
            "failed": final["failed"],
            "metrics": {name: m.get("value") for name, m in final["metrics"].items()}}


def workload_record(workload: str, seconds: float) -> dict:
    untraced, traced = (run_workload(workload, seconds, trace) for trace in (0, 1))
    return {
        "end_to_end": untraced["metrics"], "per_layer": traced["metrics"],
        "env": untraced["env"], "host": untraced["host"], "traced_host": traced["host"],
        "correct": untraced["correct"] is True and traced["correct"] is True,
        "failed": [untraced["failed"], traced["failed"]],
    }


def errors(score, q: np.ndarray, gt: np.ndarray) -> dict:
    """``score.errors_deg``'s median and mean."""
    err = score.errors_deg(q, gt)
    return {"err_median_deg": float(np.median(err)), "err_mean_deg": float(np.mean(err))}


def fingerprint(*parts) -> str:
    """The first 16 hex digits of the sha256 of ``parts``, arrays or numbers,
    each by its dtype, shape and bytes."""
    digest = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(part)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def timed(speed, fn, *args, digest=None):
    """``fn(*args)`` called ``REPEATS`` times: the last output, the median of
    the calls' CPU seconds at the nominal host speed, and ``digest`` of each
    call's output (none without a ``digest``)."""
    times, prints = [], []
    for _ in range(REPEATS):
        out = None  # one output alive at a time
        mark = speed.sample()
        t0 = process_time()
        out = fn(*args)
        cpu_s = process_time() - t0
        speed.sample()
        times.append(speed.scale(cpu_s, mark))
        if digest is not None:
            prints.append(digest(out))
    return out, statistics.median(times), prints


def scale_record(name: str) -> dict:
    """One robustness-suite graph, generated, serialised, parsed and solved
    in this process."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import adapter  # puts the checkout's src first on sys.path
    import score
    from hostspeed import HostSpeed
    from rotavg import synthgen, viewgraph

    nets = adapter.load_nets(ROOT / "benchmark" / "checkpoints")
    speed = HostSpeed()
    cfg = synthgen.robustness_suite(name, seed=SEED)
    made, generate_s, _ = timed(speed, lambda: synthgen.generate_graph(
        cfg, np.random.default_rng(SEED)))
    text, serialize_s, _ = timed(speed, viewgraph.serialize, made)
    g, parse_s, _ = timed(speed, viewgraph.parse, text)
    del made, text
    gt = g.gt_array()

    def neurora_print(raw):
        out = adapter.neurora_result(raw)
        return fingerprint(out.q, out.node_ids)

    def irls_print(raw):
        return fingerprint(np.asarray(raw.orientations), raw.iterations, sum(raw.cg_iterations))

    def weiszfeld_print(raw):
        return fingerprint(np.asarray(raw.orientations), raw.objective_trace)

    raw, neurora_s, neurora_prints = timed(speed, adapter.solve_neurora, g, nets,
                                           digest=neurora_print)
    neurora = adapter.neurora_result(raw)
    irls_raw, irls_s, irls_prints = timed(speed, adapter.solve_irls, g, digest=irls_print)
    irls = adapter.irls_result(irls_raw)
    raw, weiszfeld_s, weiszfeld_prints = timed(speed, adapter.solve_weiszfeld, g, 1,
                                               digest=weiszfeld_print)
    weiszfeld = adapter.weiszfeld_result(raw)
    return {
        "n_nodes": g.n_nodes, "n_edges": g.n_edges,
        "generate_s": generate_s, "serialize_s": serialize_s, "parse_s": parse_s,
        "neurora": {"s": neurora_s, **errors(score, neurora.q, gt[neurora.node_ids]),
                    "fingerprints": neurora_prints},
        "irls": {"s": irls_s, **errors(score, irls.q, gt), "iterations": irls.iterations,
                 "converged": bool(irls_raw.converged),
                 "cg_iterations": int(sum(irls_raw.cg_iterations)),
                 "cg_iterations_per_step": [int(k) for k in irls_raw.cg_iterations],
                 "fingerprints": irls_prints},
        "weiszfeld_sweep": {"s": weiszfeld_s, **errors(score, weiszfeld.q, gt),
                            "fingerprints": weiszfeld_prints},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": {"kernel_median_s": statistics.median(speed.samples), "scale": speed.factor()},
    }


def run_scale(name: str) -> dict:
    """:func:`scale_record` of ``name`` in a process of its own."""
    proc = subprocess.run([sys.executable, __file__, "--scale-one", name],
                          capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"error": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout.splitlines()[-1])


def numbers(record, path=""):
    """Every numeric leaf of ``record`` as (path, value); bools are flags, not metrics."""
    if isinstance(record, dict):
        for key, value in record.items():
            yield from numbers(value, f"{path}.{key}" if path else key)
    elif isinstance(record, (int, float)) and not isinstance(record, bool):
        yield path, record


def is_finite_number(value) -> bool:
    """A finite int or float; bools are flags, not metrics."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def problems(bench: dict) -> list[str]:
    """Why ``bench`` fails the file's gate; empty if it passes.

    It passes if every declared workload ran, exited 0 and is correct with
    no failed operation in both runs; every declared end-to-end metric is a
    finite number in the untraced run and every declared per-layer metric in
    the traced one; every scale graph ran and every number it gives is
    finite; every solve's ``REPEATS`` calls left one fingerprint, a
    determinism gate; and NeuRoRA's median error on cam1000, where it runs,
    is under ``MAX_CAM1000_MEDIAN_DEG``.
    """
    spec = declared()
    found = []
    for workload in spec["workloads"]:
        rec = bench["workloads"].get(workload)
        if rec is None:
            found.append(f"{workload}: not run")
            continue
        if rec["correct"] is not True or rec["failed"] != [0, 0]:
            found.append(f"{workload}: correct {rec['correct']}, failed {rec['failed']}")
        for kind in ("end_to_end", "per_layer"):  # from the untraced and the traced run
            values = rec[kind]  # the declared names first, then any other the run gave
            found += [f"{workload}.{kind}.{name} = {values.get(name)}"
                      for name in dict.fromkeys([*spec[kind], *values])
                      if not is_finite_number(values.get(name))]
    for name, rec in bench["scale"].items():
        if "error" in rec:
            found.append(f"{name}: {rec['error']}")
            continue
        for solve in SOLVES:  # a determinism gate: every repeat gave the same output
            prints = rec.get(solve, {}).get("fingerprints")
            if not isinstance(prints, list) or len(prints) != REPEATS or len(set(prints)) != 1:
                found.append(f"{name}.{solve}: repeats' fingerprints {prints}")
    found += [f"scale.{path} = {value}" for path, value in numbers(bench["scale"])
              if not math.isfinite(value)]
    median = bench["scale"].get("cam1000", {}).get("neurora", {}).get("err_median_deg", 0.0)
    if not median < MAX_CAM1000_MEDIAN_DEG:
        found.append(f"NeuRoRA's cam1000 median error {median} deg >= {MAX_CAM1000_MEDIAN_DEG}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="benchmark/run.py --seconds of each workload run")
    parser.add_argument("--scale", nargs="*", default=list(SCALE_CONFIGS),
                        help="robustness-suite graphs of the scale section")
    parser.add_argument("--scale-one", help=argparse.SUPPRESS)  # run_scale's child process
    args = parser.parse_args(argv)
    if args.scale_one:
        print(json.dumps(scale_record(args.scale_one)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    bench = {
        "seed": SEED, "seconds": args.seconds,
        "workloads": {w: workload_record(w, args.seconds) for w in declared()["workloads"]},
        "scale": {name: run_scale(name) for name in args.scale},
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    found = problems(bench)
    for line in found:
        print(f"bench: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
