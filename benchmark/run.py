"""The rotavg benchmark: one workload per invocation.

    python3 benchmark/run.py --workload dense --seed 1 --seconds 10 --trace 0

Every workload runs the same stages on inputs made from ``--seed`` by the
benchmark's own generator (``inputs.py``):

* solve: NeuRoRA (clean -> largest component -> BFS bootstrap -> refine),
  IRLS and Weiszfeld, each on its own parsed copy of every solve graph;
* corpus: ``synthgen.generate_graph`` -> ``serialize`` -> ``parse`` ->
  ``graph_stats`` on fixed-size desk graphs;
* train: three splits of desk graphs, each trained with one short CleanNet
  and one short FineNet schedule.

After a correctness gate and three timed set-ups, the stages run in passes
until ``--seconds`` have elapsed (at least one full pass).  Accuracy and
losses come from the first pass; later passes must reproduce its outputs
exactly.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
WORKLOADS.md gives the reason for each workload and metric.
"""

from __future__ import annotations

import os

# One process, single-threaded BLAS (<= nproc), pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

try:
    import adapter  # noqa: E402
except ImportError as exc:  # the checkout lacks the package sources
    sys.exit(f"error: {exc}")
import score  # noqa: E402
from inputs import DESK, SIGMA_MAX_DEG, Shape, make_graph, make_graphs  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from score import is_unit_finite  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CKPT_DIR = BENCH_DIR / "checkpoints"
TRACE_DIR = ROOT / "bench_traces"
SETUP_REPS = 3
GATE_TOL_DEG = 1e-4
METHODS = ("neurora", "irls", "weiszfeld")
NETS = ("cleannet", "finenet")
# Operations are timed in CPU seconds of this single-threaded process, which
# other tenants of a shared host cannot inflate by preempting it, and then
# scaled to a nominal host speed (hostspeed.py).
clock = time.process_time


@dataclass(frozen=True)
class Workload:
    solve_n: int
    solve_edge_fraction: float
    n_solve: int          # solve graphs, noise levels on a grid over (0, sigma_max]
    sigma_max_deg: float
    weiszfeld_sweeps: int


# Why each workload exists: WORKLOADS.md.
WORKLOADS = {
    "dense": Workload(150, 0.66, 6, 15.0, 1),
    "sparse": Workload(250, 0.1, 4, SIGMA_MAX_DEG, 3),
}
OUTLIER_FRACTION = 0.10
# Train stage of every pass: TRAIN_SPLITS short trainings of each net, each on
# its own desk graphs.  The validation graphs set how much the losses move
# between seeds, so there are many of them.
TRAIN_SPLITS, N_TRAIN, N_VAL, EPOCHS = 3, 4, 8, 1
N_CORPUS = 4  # synthgen graphs per pass
# Fixed-size synthgen config of the corpus stage: desk shape, sigma 15 deg.
CORPUS = dict(n=100, edge_fraction=0.2, sigma_deg=15.0, outlier_fraction=OUTLIER_FRACTION)
# Input streams under one --seed.
SOLVE_STREAM, TRAIN_STREAM, VAL_STREAM, CORPUS_STREAM, GATE_STREAM = range(5)

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "neurora_s": "s", "irls_s": "s", "weiszfeld_s": "s",
    "neurora_err_mean_deg": "deg", "neurora_err_median_deg": "deg",
    "irls_err_mean_deg": "deg", "irls_err_median_deg": "deg",
    "weiszfeld_err_mean_deg": "deg", "weiszfeld_err_median_deg": "deg",
    "train_graphs_per_s": "1/s", "cleannet_val_loss": "loss", "finenet_val_loss": "loss",
    "corpus_graph_s": "s",
}
PER_LAYER_UNITS = {
    "viewgraph.parse_s": "s", "cleaning.clean_forward_s": "s",
    "refinement.refine_forward_s": "s", "mpnn.forward_s": "s",
    "cleaning.clean_graph_s": "s", "viewgraph.bootstrap_s": "s",
    "baselines.irls_mra_s": "s", "baselines.irls_iterations": "count",
    "baselines.irls_capped": "fraction", "baselines.weiszfeld_sweep_s": "s",
    "so3.qmul_calls": "count", "synthgen.generate_graph_s": "s",
    "viewgraph.serialize_s": "s", "viewgraph.graph_stats_s": "s",
    "autodiff.backward_s": "s", "autodiff.adam_step_s": "s",
    "trainer.prepare_refinement_sample_s": "s",
    "cleaning.edges_removed": "count", "cleaning.nodes_dropped": "count",
    "cleaning.outlier_precision": "fraction", "cleaning.outlier_recall": "fraction",
    "viewgraph.bootstrap_err_mean_deg": "deg",
    "baselines.weiszfeld_objective_ratio": "ratio", "trace.overhead_pct": "%",
}
# Per-pass self time of these spans gives the per-layer ``_s`` metrics.
SPAN_METRICS = {
    "viewgraph.parse_s": ("viewgraph.parse",),
    "cleaning.clean_forward_s": ("cleaning.clean_forward",),
    "refinement.refine_forward_s": ("refinement.refine_forward",),
    "mpnn.forward_s": ("mpnn.forward",),
    "cleaning.clean_graph_s": ("cleaning.clean_graph",),
    "viewgraph.bootstrap_s": ("viewgraph.select_root", "viewgraph.shortest_path_tree",
                              "viewgraph.bootstrap_orientations"),
    "baselines.irls_mra_s": ("baselines.irls_mra",),
    "synthgen.generate_graph_s": ("synthgen.generate_graph",),
    "viewgraph.serialize_s": ("viewgraph.serialize",),
    "viewgraph.graph_stats_s": ("viewgraph.graph_stats",),
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.adam_step_s": ("autodiff.adam_step",),
    "trainer.prepare_refinement_sample_s": ("trainer.prepare_refinement_sample",),
}


def environment(args, workload: Workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "cpu": cpu, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "weiszfeld_sweeps": workload.weiszfeld_sweeps,
        "irls_max_iters": list(adapter.IRLS_BUDGET),
    }


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def gate(seed: int) -> list[tuple[str, bool, str]]:
    """Noise-free, outlier-free graph: every solver recovers ground truth."""
    g = make_graph(Shape(30, 0.3, 0.0), 0.0, np.random.default_rng([seed, GATE_STREAM]))
    outputs = {
        "bootstrap": lambda h: adapter.bootstrap_result(adapter.solve_bootstrap(h)),
        "irls": lambda h: adapter.irls_result(adapter.solve_irls(h)).q,
        "weiszfeld": lambda h: adapter.weiszfeld_result(adapter.solve_weiszfeld(h, 3)).q,
    }
    checks = []
    for name, solve in outputs.items():
        try:
            q = solve(adapter.parse(g.text))
        except adapter.PACKAGE_ERRORS as exc:
            checks.append((name, False, f"raised {type(exc).__name__}: {exc}"))
            continue
        if q.shape != g.gt.shape or not is_unit_finite(q):
            checks.append((name, False, "output not finite unit rows over every node"))
            continue
        worst = float(np.max(score.errors_deg(q, g.gt)))
        checks.append((name, worst <= GATE_TOL_DEG, f"max error {worst:.3g} deg (tol {GATE_TOL_DEG})"))
    return checks


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    solve: list           # SynthGraph per solve graph
    parsed: dict          # method -> parsed handle of solve graph 0
    train_text: list
    val_text: list
    nets: object


def setup(w: Workload, seed: int) -> Inputs:
    """Generate every input, parse solve graph 0 once per method, load the
    checkpoints.  Other graphs are parsed, untimed, just before their use."""
    shape = Shape(w.solve_n, w.solve_edge_fraction, OUTLIER_FRACTION)
    solve = make_graphs(shape, w.sigma_max_deg, w.n_solve, seed, SOLVE_STREAM)
    train_text = [g.text for g in make_graphs(DESK, SIGMA_MAX_DEG, TRAIN_SPLITS * N_TRAIN,
                                              seed, TRAIN_STREAM)]
    val_text = [g.text for g in make_graphs(DESK, SIGMA_MAX_DEG, TRAIN_SPLITS * N_VAL,
                                            seed, VAL_STREAM)]
    parsed = {m: adapter.parse(solve[0].text) for m in METHODS}
    return Inputs(solve, parsed, train_text, val_text, adapter.load_nets(CKPT_DIR))


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """Executes operations, times them and checks their outputs."""

    def __init__(self, w: Workload, seed: int, inputs: Inputs, speed: HostSpeed):
        self.w, self.seed, self.inputs, self.speed = w, seed, inputs, speed
        self.attempted = 0
        self.failures: list[str] = []
        # per operation kind: (pass, CPU seconds, host-speed mark before it)
        self.times: dict[str, list[tuple[int, float, int]]] = {
            k: [] for k in METHODS + ("corpus",) + NETS
        }
        self.first: dict[tuple, object] = {}   # pass-0 outputs, the reference for later passes
        self.mark = -1
        self._train_parsed: dict[tuple[int, int], tuple] = {}

    def ops(self) -> list[tuple[str, int]]:
        """One pass.  Corpus and train operations are spread between the
        solve graphs, so that each kind samples the whole pass."""
        ops = []
        for i in range(max(self.w.n_solve, N_CORPUS, TRAIN_SPLITS)):
            if i < self.w.n_solve:
                ops += [(m, i) for m in METHODS]
            if i < N_CORPUS:
                ops.append(("corpus", i))
            if i < TRAIN_SPLITS:
                ops += [(net, i) for net in NETS]
        return ops

    def execute(self, op: tuple, pass_index: int) -> None:
        self.mark = self.speed.sample()
        self.attempted += 1
        try:
            ok, why = getattr(self, f"_{op[0]}")(op[1], pass_index)
        except adapter.PACKAGE_ERRORS as exc:
            ok, why = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(f"pass {pass_index} {op[0]}[{op[1]}]: {why}")

    def _graph(self, method: str, k: int, pass_index: int):
        if pass_index == 0 and k == 0:
            return self.inputs.parsed[method]
        return adapter.parse(self.inputs.solve[k].text)

    def _check_repeat(self, key: tuple, value, same) -> tuple[bool, str]:
        """The first output under ``key`` is the reference; later ones must match it."""
        if key not in self.first:
            self.first[key] = value
            return True, ""
        return (True, "") if same(self.first[key], value) else (False, "output differs from pass 0")

    def _solve(self, method: str, k: int, pass_index: int, solve, result):
        g = self._graph(method, k, pass_index)
        t0 = clock()
        raw = solve(g)
        self.times[method].append((pass_index, clock() - t0, self.mark))
        out = result(raw)
        n = len(self.inputs.solve[k].gt)
        ids = out.node_ids if method == "neurora" else np.arange(n)
        if not is_unit_finite(out.q):
            return False, "orientations are not finite unit rows"
        if len(out.q) != len(ids) or len(ids) == 0 or ids.min() < 0 or ids.max() >= n:
            return False, f"{len(out.q)} orientations for {len(ids)} nodes of {n}"
        return self._check_repeat((method, k), out, lambda a, b: np.array_equal(a.q, b.q))

    def _neurora(self, k: int, pass_index: int):
        return self._solve("neurora", k, pass_index,
                           lambda g: adapter.solve_neurora(g, self.inputs.nets),
                           adapter.neurora_result)

    def _irls(self, k: int, pass_index: int):
        return self._solve("irls", k, pass_index, adapter.solve_irls, adapter.irls_result)

    def _weiszfeld(self, k: int, pass_index: int):
        return self._solve("weiszfeld", k, pass_index,
                           lambda g: adapter.solve_weiszfeld(g, self.w.weiszfeld_sweeps),
                           adapter.weiszfeld_result)

    def _corpus(self, j: int, pass_index: int):
        seed = int(np.random.default_rng([self.seed, CORPUS_STREAM, j]).integers(2**31))
        t0 = clock()
        n, e, stats_e = adapter.corpus_graph(seed=seed, **CORPUS)
        self.times["corpus"].append((pass_index, clock() - t0, self.mark))
        want_e = Shape(CORPUS["n"], CORPUS["edge_fraction"], 0.0).n_edges()
        if (n, e, stats_e) != (CORPUS["n"], want_e, want_e):
            return False, f"corpus graph has N={n}, E={e}, stats over {stats_e} edges"
        return True, ""

    def _train_data(self, j: int, pass_index: int) -> tuple:
        """Graphs of training split ``j``, parsed once per pass, shared by both nets."""
        key = (j, pass_index)
        if key not in self._train_parsed:
            self._train_parsed = {key: (
                [adapter.parse(t) for t in self.inputs.train_text[j * N_TRAIN:(j + 1) * N_TRAIN]],
                [adapter.parse(t) for t in self.inputs.val_text[j * N_VAL:(j + 1) * N_VAL]],
            )}
        return self._train_parsed[key]

    def _train(self, net: str, j: int, pass_index: int, train_fn):
        train, val = self._train_data(j, pass_index)
        t0 = clock()
        loss = train_fn(train, val)
        self.times[net].append((pass_index, clock() - t0, self.mark))
        if not np.isfinite(loss):
            return False, f"non-finite validation loss {loss}"
        return self._check_repeat((net, j), loss, lambda a, b: a == b)

    def _cleannet(self, j: int, pass_index: int):
        return self._train("cleannet", j, pass_index, lambda train, val: adapter.train_cleannet(
            train, val, EPOCHS)[1])

    def _finenet(self, j: int, pass_index: int):
        return self._train("finenet", j, pass_index, lambda train, val: adapter.train_finenet(
            train, val, EPOCHS, self.inputs.nets.clean)[1])


def run_passes(run: Run, start_pass: int, deadline: float, tracer=None) -> int:
    """Run whole passes until ``deadline`` (at least one); returns passes run."""
    p = start_pass
    while True:
        if tracer is not None:
            tracer.pass_index = p
        for op in run.ops():
            if tracer is None:
                run.execute(op, p)
            else:
                with tracer.span(f"bench.{op[0]}"):
                    run.execute(op, p)
        p += 1
        if time.perf_counter() >= deadline:
            return p - start_pass


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def scaled_times(run: Run, key: str, passes=None) -> list[float]:
    return [run.speed.scale(t, mark) for p, t, mark in run.times[key]
            if passes is None or p in passes]


def median_time(run: Run, key: str, passes=None) -> float:
    return statistics.median(scaled_times(run, key, passes))


def mean_time(run: Run, key: str, passes=None) -> float:
    """Mean over the solve graphs: their noise levels differ, and the mean of
    their work moves less between seeds than the work of the middle one."""
    return statistics.fmean(scaled_times(run, key, passes))


def accuracy(run: Run) -> tuple[dict, dict]:
    """Errors, and cleaning and solver statistics, from the pass-0 outputs.

    Errors are pooled over the returned nodes of every solve graph; the
    other statistics are averaged over the solve graphs."""
    errs = {m: [] for m in METHODS}
    layer = {"removed": [], "dropped": [], "precision": [], "recall": [], "boot": [],
             "ratio": [], "iters": [], "capped": []}
    for k, g in enumerate(run.inputs.solve):
        nr = run.first.get(("neurora", k))
        if nr is not None:
            errs["neurora"].append(score.errors_deg(nr.q, g.gt[nr.node_ids]))
            layer["boot"].append(float(np.mean(score.errors_deg(nr.boot_q, g.gt[nr.node_ids]))))
            removed = int(nr.removed.sum())
            hits = int((nr.removed & g.outlier).sum())
            layer["removed"].append(removed)
            layer["dropped"].append(nr.dropped_nodes)
            layer["precision"].append(hits / removed if removed else 0.0)
            layer["recall"].append(hits / max(int(g.outlier.sum()), 1))
        ir = run.first.get(("irls", k))
        if ir is not None:
            errs["irls"].append(score.errors_deg(ir.q, g.gt))
            layer["iters"].append(ir.iterations)
            layer["capped"].append(float(ir.capped))
        wz = run.first.get(("weiszfeld", k))
        if wz is not None:
            errs["weiszfeld"].append(score.errors_deg(wz.q, g.gt))
            layer["ratio"].append(wz.objective_ratio)
    out = {}
    for m in METHODS:
        pooled = np.concatenate(errs[m]) if errs[m] else np.array([np.nan])
        out[f"{m}_err_mean_deg"] = float(np.mean(pooled))
        out[f"{m}_err_median_deg"] = float(np.median(pooled))
    return out, {k: float(np.mean(v)) for k, v in layer.items()}


def end_to_end(run: Run, setup_times: list[tuple[float, int]]) -> tuple[dict, dict]:
    """Metrics at the nominal host speed, plus the raw CPU timings."""
    errs, _ = accuracy(run)
    clean_loss, fine_loss = (
        statistics.fmean(run.first.get((net, j), float("nan")) for j in range(TRAIN_SPLITS))
        for net in NETS
    )
    raw = {key: statistics.median(t for _, t, _ in run.times[key])
           for key in METHODS + ("corpus",) + NETS}
    raw["setup"] = statistics.median(t for t, _ in setup_times)
    steps = 2 * EPOCHS * N_TRAIN  # CleanNet plus FineNet graph steps of one split
    metrics = {
        "setup_s": statistics.median(run.speed.scale(t, mark) for t, mark in setup_times),
        "neurora_s": mean_time(run, "neurora"),
        "irls_s": mean_time(run, "irls"),
        "weiszfeld_s": mean_time(run, "weiszfeld"),
        "train_graphs_per_s": steps / sum(median_time(run, net) for net in NETS),
        "corpus_graph_s": median_time(run, "corpus"),
        **errs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cleannet_val_loss": float(clean_loss),
        "finenet_val_loss": float(fine_loss),
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}, raw


def per_layer(run: Run, tracer, traced_passes: range) -> dict:
    per_pass: dict[tuple[str, int], float] = {}
    for name, p, self_s in tracer.self_times():
        per_pass[(name, p)] = per_pass.get((name, p), 0.0) + self_s

    def pass_median(names) -> float:
        return statistics.median(sum(per_pass.get((n, p), 0.0) for n in names) for p in traced_passes)

    w = run.w
    f = run.speed.factor()
    _, layer = accuracy(run)
    traced = set(traced_passes)
    untraced_s = sum(mean_time(run, m, {0}) for m in METHODS)
    traced_s = sum(mean_time(run, m, traced) for m in METHODS)
    metrics = {name: pass_median(spans) * f for name, spans in SPAN_METRICS.items()}
    metrics.update({
        "baselines.irls_iterations": layer["iters"],
        "baselines.irls_capped": layer["capped"],
        "baselines.weiszfeld_sweep_s": pass_median(("baselines.weiszfeld_mra",)) * f
        / (w.weiszfeld_sweeps * w.n_solve),
        "so3.qmul_calls": statistics.median(tracer.counts.get(("so3.qmul_calls", p), 0)
                                            for p in traced_passes),
        "cleaning.edges_removed": layer["removed"],
        "cleaning.nodes_dropped": layer["dropped"],
        "cleaning.outlier_precision": layer["precision"],
        "cleaning.outlier_recall": layer["recall"],
        "viewgraph.bootstrap_err_mean_deg": layer["boot"],
        "baselines.weiszfeld_objective_ratio": layer["ratio"],
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    })
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    print(json.dumps({"env": environment(args, w)}), flush=True)
    checks = gate(args.seed)
    for name, ok, detail in checks:
        print(f"gate {name}: {'ok' if ok else 'FAILED'} ({detail})", flush=True)
    if not all(ok for _, ok, _ in checks):
        print("correctness gate failed", file=sys.stderr)
        return 1

    speed = HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPS):
        mark = speed.sample()
        t0 = clock()
        inputs = setup(w, args.seed)
        setup_times.append((clock() - t0, mark))

    run = Run(w, args.seed, inputs, speed)
    start = time.perf_counter()
    if args.trace:
        # pass 0 untraced, for the outputs and the overhead baseline
        run_passes(run, 0, start)
        tracer = Tracer()
        tracer.install(adapter.TRACED_FUNCTIONS, adapter.COUNTED_FUNCTIONS)
        try:
            n = run_passes(run, 1, start + args.seconds, tracer)
        finally:
            tracer.uninstall()
        speed.sample()
        metrics = per_layer(run, tracer, range(1, 1 + n))
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "passes": n + 1,
                      "metrics": metrics})
    else:
        run_passes(run, 0, start + args.seconds)
        speed.sample()  # closes the last operation's interval
        metrics, raw = end_to_end(run, setup_times)
        print(json.dumps({"raw_cpu_s": raw}), flush=True)
    print(json.dumps({"host": {"kernel_median_s": statistics.median(speed.samples),
                               "kernel_samples": len(speed.samples),
                               "scale": speed.factor()}}), flush=True)

    for failure in run.failures:
        print(f"failed: {failure}", flush=True)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
