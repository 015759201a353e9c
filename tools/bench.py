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
serialisation and parse, and three of ``rotavg.pipeline``'s solve chains on
the parsed graph: ``run`` (NeuRoRA) with the benchmark's checkpoints,
``irls`` (5, 20) and ``weiszfeld`` for one sweep, both from the BFS
bootstrap.  Each stage is called ``REPEATS`` times, and its time is the
median of the calls' CPU seconds, each scaled, as the benchmark scales its
own, by the host speed that ``benchmark/hostspeed.py`` samples before and
after the call.  Each call of a solve leaves a :func:`fingerprint` of its
output: NeuRoRA's rows and node ids, IRLS's rows, iteration count and summed
CG iterations, or Weiszfeld's rows and objective trace; equal fingerprints
across commits mean equal outputs, bit for bit.  The IRLS record also keeps
the CG iterations of each inner solve (0 for a dense one), so that the CG
path, whose rows may move at rounding level, can be compared step by step,
and the largest node update of each step (``max_step_trace``), which shows
where a run stopped.  The Weiszfeld record keeps its objective before and
after each sweep (``objective_trace``).  Errors are
``benchmark/score.errors_deg``: median and mean, in degrees, over the
returned nodes.  Every child process runs with one BLAS thread.

It measures the checkout that holds it; a copy placed in a checkout of an
earlier commit measures that commit.  It exits 1 when :func:`problems`,
whose docstring lists the gate's checks, finds a fault.

    python3 tools/bench.py --out FILE --against REV [--scale]

adds a ``paired`` section that compares this checkout with the commit REV.
Both sides run from the same kind of tree, a temporary directory that is
removed afterwards, also on failure: ``git archive`` writes REV's files
(:func:`checkout`), and this checkout's tracked files and its untracked
files that git does not ignore are copied as they are on disk
(:func:`working_tree`).  Each declared
workload runs ``benchmark/run.py --trace 0`` in both trees ``PAIRS``
times, alternating which side goes first (:func:`paired_runs`); per
end-to-end metric the section gives both sides' medians and quartiles, the
ratio of the medians and the number of pairs the checkout won
(:func:`paired_stats`), and it records the seeds that the runs printed.
The scale section measures this checkout alone (``--scale`` with no name
skips it).  A paired section at a held-out seed needs no flag:

    paired_record(rev, PAIRS, seconds, run=functools.partial(run_workload, seed=7))
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import process_time

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SCALE_CONFIGS = ("sparse2.5", "cam1000", "cam5000")
MAX_CAM1000_MEDIAN_DEG = 1.0
MAX_CAM1000_WEISZFELD_MEDIAN_DEG = 1.2  # one sweep: its medoid rule at degree ~250
REPEATS = 3  # calls of each scale stage
WEISZFELD_SWEEPS = 1  # sweeps of the scale section's Weiszfeld solve
PAIRS = 10  # --against's pairs of runs per workload, the fewest a claim rests on
SOLVES = ("neurora", "irls", "weiszfeld_sweep")  # the scale stages that leave fingerprints
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def declared() -> dict[str, list[str]]:
    """``BENCHMARK.json``'s workload names and its end-to-end and per-layer
    metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: [entry["name"] for entry in spec[kind]]
            for kind in ("workloads", "end_to_end", "per_layer")}


def run_workload(workload: str, seconds: float, trace: int, root: Path = ROOT,
                 seed: int = SEED) -> dict:
    """One ``benchmark/run.py --seed seed`` call in the checkout ``root``, read
    from its ``env``, ``host`` and last JSON lines."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
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


def git(*args: str) -> bytes:
    """``git args`` in this checkout; its standard output."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


@contextlib.contextmanager
def checkout(rev: str):
    """The files of the commit ``rev``, written by ``git archive`` into a
    temporary directory, yielded as ``(path, commit id)``; the directory is
    removed afterwards, also when the body fails.  The tree is no git
    checkout, so git holds no record of it and removing the directory
    cannot fail halfway."""
    with tempfile.TemporaryDirectory(prefix="bench-against-", ignore_cleanup_errors=True) as tmp:
        commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tree:
            tree.extractall(tmp, filter="data")
        yield Path(tmp), commit


@contextlib.contextmanager
def working_tree():
    """This checkout's tracked files and its untracked files that git does
    not ignore, copied as they are on disk into a temporary directory,
    yielded as its path; a tracked file deleted from the checkout is left
    out.  The directory is removed afterwards, also when the body fails."""
    with tempfile.TemporaryDirectory(prefix="bench-against-", ignore_cleanup_errors=True) as path:
        tmp = Path(path)
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
        for name in filter(None, names.split("\0")):
            if (ROOT / name).is_file():
                (tmp / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, tmp / name)
        yield tmp


def paired_runs(workload: str, pairs: int, seconds: float, base: Path, change: Path,
                run=run_workload) -> tuple[list[dict], list[dict]]:
    """``pairs`` untraced runs of ``workload`` in the tree ``base`` and in
    the tree ``change``, each pair run back to back, the base first in even
    pairs and the change first in odd ones: ``(base_runs, runs)``."""
    base_runs, runs = [], []
    for i in range(pairs):
        sides = [(base_runs, base), (runs, change)]
        for out, root in sides[::-1] if i % 2 else sides:
            out.append(run(workload, seconds, 0, root))
    return base_runs, runs


def quartiles(values: list[float]) -> dict:
    """The median and the quartiles of ``values`` (numpy's linear percentiles)."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def paired_stats(base: list, change: list, better: str) -> dict:
    """One metric over paired runs: both sides' median and quartiles, the
    ratio of the medians (this checkout over the base) and the number of
    pairs this checkout won, strictly better in the direction ``better``
    (``"lower"`` or ``"higher"``).  Pairs with a missing or non-finite value
    on either side are left out."""
    kept = [(b, c) for b, c in zip(base, change) if is_finite_number(b) and is_finite_number(c)]
    if not kept:
        return {"pairs": 0}
    b, c = (list(side) for side in zip(*kept))
    stats = {"pairs": len(kept), "base": quartiles(b), "change": quartiles(c),
             "won": sum(y < x if better == "lower" else y > x for x, y in kept)}
    base_median = stats["base"]["median"]
    stats["ratio"] = stats["change"]["median"] / base_median if base_median else None
    return stats


def paired_record(rev: str, pairs: int, seconds: float, run=run_workload) -> dict:
    """The ``paired`` section: every declared workload's :func:`paired_runs`
    of this checkout's :func:`working_tree` against the commit ``rev``, each
    end-to-end metric's :func:`paired_stats` and the ``seeds`` that the runs
    printed on their ``env`` lines, each once."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    record = {"pairs": pairs, "seconds": seconds, "workloads": {}}
    seeds = []
    with checkout(rev) as (base, commit), working_tree() as change:
        record["against"] = {"rev": rev, "commit": commit}
        for workload in declared()["workloads"]:
            base_runs, runs = paired_runs(workload, pairs, seconds, base, change, run)
            seeds += [(r["env"] or {}).get("seed") for r in base_runs + runs]
            record["workloads"][workload] = {
                "correct": all(r["correct"] is True and r["failed"] == 0
                               for r in base_runs + runs),
                "metrics": {name: paired_stats([r["metrics"].get(name) for r in base_runs],
                                               [r["metrics"].get(name) for r in runs], direction)
                            for name, direction in better.items()},
            }
    record["seeds"] = list(dict.fromkeys(seeds))
    return record


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
    from rotavg import pipeline, synthgen, viewgraph

    nets = adapter.load_nets(ROOT / "benchmark" / "checkpoints")
    speed = HostSpeed()
    cfg = synthgen.robustness_suite(name, seed=SEED)
    made, generate_s, _ = timed(speed, lambda: synthgen.generate_graph(
        cfg, np.random.default_rng(SEED)))
    text, serialize_s, _ = timed(speed, viewgraph.serialize, made)
    g, parse_s, _ = timed(speed, viewgraph.parse, text)
    del made, text
    gt = g.gt_array()

    def irls_print(res):
        return fingerprint(np.asarray(res.orientations), res.iterations, sum(res.cg_iterations))

    def weiszfeld_print(res):
        return fingerprint(np.asarray(res.orientations), res.objective_trace)

    neurora, neurora_s, neurora_prints = timed(speed, pipeline.run, g, nets.clean, nets.fine,
                                               digest=lambda run: fingerprint(run.rows, run.node_ids))
    irls, irls_s, irls_prints = timed(speed, pipeline.irls, g, digest=irls_print)
    weiszfeld, weiszfeld_s, weiszfeld_prints = timed(speed, pipeline.weiszfeld, g,
                                                     WEISZFELD_SWEEPS, digest=weiszfeld_print)
    return {
        "n_nodes": g.n_nodes, "n_edges": g.n_edges,
        "generate_s": generate_s, "serialize_s": serialize_s, "parse_s": parse_s,
        "neurora": {"s": neurora_s, **errors(score, neurora.rows, gt[neurora.node_ids]),
                    "fingerprints": neurora_prints},
        "irls": {"s": irls_s, **errors(score, irls.orientations, gt), "iterations": irls.iterations,
                 "converged": bool(irls.converged), "cg_iterations": int(sum(irls.cg_iterations)),
                 "cg_iterations_per_step": [int(k) for k in irls.cg_iterations],
                 "max_step_trace": [float(step) for step in irls.max_step_trace],
                 "fingerprints": irls_prints},
        "weiszfeld_sweep": {"s": weiszfeld_s, **errors(score, weiszfeld.orientations, gt),
                            "objective_trace": [float(f) for f in weiszfeld.objective_trace],
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
    determinism gate; IRLS's ``max_step_trace`` has one step per iteration;
    Weiszfeld's ``objective_trace`` has ``WEISZFELD_SWEEPS + 1`` finite
    entries, the last below the first; NeuRoRA's and Weiszfeld's median
    errors on cam1000, where it runs, are under ``MAX_CAM1000_MEDIAN_DEG``
    and ``MAX_CAM1000_WEISZFELD_MEDIAN_DEG``; and, with a
    ``paired`` section, every paired run on both sides is correct with no
    failed operation and all of them printed one seed.
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
        irls = rec.get("irls", {})
        steps = len(irls.get("max_step_trace", []))
        if steps != irls.get("iterations"):
            found.append(f"{name}.irls: {steps} steps traced, {irls.get('iterations')} iterations")
        trace = rec.get("weiszfeld_sweep", {}).get("objective_trace")
        if (not isinstance(trace, list) or len(trace) != WEISZFELD_SWEEPS + 1
                or not all(map(is_finite_number, trace))):
            found.append(f"{name}.weiszfeld_sweep: objective trace {trace}, "
                         f"not {WEISZFELD_SWEEPS + 1} finite entries")
        elif not trace[-1] < trace[0]:
            found.append(f"{name}.weiszfeld_sweep: objective {trace[-1]} not below its start {trace[0]}")
    found += [f"scale.{path} = {value}" for path, value in numbers(bench["scale"])
              if not math.isfinite(value)]
    found += [f"paired.{workload}: a run not correct or with a failed operation"
              for workload, rec in bench.get("paired", {}).get("workloads", {}).items()
              if rec["correct"] is not True]
    seeds = bench.get("paired", {}).get("seeds", [])
    if len(seeds) > 1:
        found.append(f"paired: runs of seeds {seeds}")
    cam1000 = bench["scale"].get("cam1000", {})
    for solve, ceiling in (("neurora", MAX_CAM1000_MEDIAN_DEG),
                           ("weiszfeld_sweep", MAX_CAM1000_WEISZFELD_MEDIAN_DEG)):
        median = cam1000.get(solve, {}).get("err_median_deg", 0.0)
        if not median < ceiling:
            found.append(f"cam1000.{solve}: median error {median} deg >= {ceiling}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="benchmark/run.py --seconds of each workload run")
    parser.add_argument("--scale", nargs="*", default=list(SCALE_CONFIGS),
                        help="robustness-suite graphs of the scale section")
    parser.add_argument("--against", metavar="REV",
                        help="also run the workloads in pairs against the commit REV")
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
    if args.against:
        bench["paired"] = paired_record(args.against, PAIRS, args.seconds)
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    found = problems(bench)
    for line in found:
        print(f"bench: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
