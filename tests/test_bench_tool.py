"""The benchmark gate, ``tools/bench.py``.

:func:`problems` must refuse every fault a run can show: a run that exited
non-zero or is not correct, a failed operation, a declared end-to-end or
per-layer metric that is missing, ``None`` or not finite, a scale graph that
did not run, a scale solve whose repeated calls left different (or missing)
fingerprints, an IRLS step trace whose length is not its iteration count,
a Weiszfeld objective trace without one finite entry more than its sweeps,
NeuRoRA's cam1000 median error at or above 1 degree and Weiszfeld's at or
above 1.2 degrees, a paired run that is not correct, and paired runs of
more than one seed.  :func:`main` must run every workload that
``BENCHMARK.json`` declares, and the real scale section, run in this
process on cam250, must pass the gate.  The paired runs of
``--against`` alternate which side goes first, their statistics are checked
on known values, both sides run from temporary trees, the checkout's
holding its listed files, and both trees are removed also when a run or the
checkout fails.  The tool is loaded from its path with the environment
restored after its import, and no test starts a process: git and the runs
are injected.
"""

from __future__ import annotations

import copy
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SPEC_BY_NAME = {m["name"]: m for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def bench():
    environ = dict(os.environ)
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return module


@pytest.fixture(autouse=True)
def no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a test started a process: {args}")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def run_record(trace: int) -> dict:
    """What ``run_workload`` gives for a good run."""
    names = PER_LAYER if trace else END_TO_END
    return {"env": {"python": "3"}, "host": {"scale": 1.0}, "correct": True, "failed": 0,
            "metrics": {name: 0.25 for name in names}}


def scale_record() -> dict:
    """What ``run_scale`` gives for a good cam1000 run."""
    return {
        "n_nodes": 1000, "n_edges": 124875, "generate_s": 3.0, "serialize_s": 0.3, "parse_s": 0.2,
        "neurora": {"s": 0.4, "err_median_deg": 0.494, "err_mean_deg": 0.6,
                    "fingerprints": ["0123456789abcdef"] * 3},
        "irls": {"s": 2.0, "err_median_deg": 0.5, "err_mean_deg": 0.6, "iterations": 25,
                 "converged": True, "cg_iterations": 400, "cg_iterations_per_step": [16] * 25,
                 "max_step_trace": [0.01] * 24 + [5e-4],
                 "fingerprints": ["a" * 16] * 3},
        "weiszfeld_sweep": {"s": 1.0, "err_median_deg": 0.97, "err_mean_deg": 1.28,
                            "objective_trace": [9000.0, 4000.0], "fingerprints": ["b" * 16] * 3},
        "peak_rss_mb": 400.0, "host": {"kernel_median_s": 0.01, "scale": 1.0},
    }


def complete_bench() -> dict:
    untraced, traced = run_record(0), run_record(1)
    workload = {"end_to_end": untraced["metrics"], "per_layer": traced["metrics"],
                "env": untraced["env"], "host": untraced["host"], "traced_host": traced["host"],
                "correct": True, "failed": [0, 0]}
    return {"seed": 1, "seconds": 0.1,
            "workloads": {w: copy.deepcopy(workload) for w in WORKLOADS},
            "scale": {"cam1000": scale_record()}}


def test_declared_names_are_benchmark_json(bench):
    assert bench.declared() == {"workloads": WORKLOADS, "end_to_end": END_TO_END,
                                "per_layer": PER_LAYER}


def test_complete_record_passes(bench):
    assert bench.problems(complete_bench()) == []


BAD_VALUES = {"None": None, "NaN": float("nan"), "inf": float("inf"), "a bool": True}


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
@pytest.mark.parametrize("fault", ["missing", *BAD_VALUES])
def test_declared_metric_must_be_a_finite_number(bench, kind, fault):
    # in each workload: the untraced run's end-to-end metrics, the traced run's per-layer ones
    for workload in WORKLOADS:
        for entry in SPEC[kind]:
            name = entry["name"]
            record = complete_bench()
            metrics = record["workloads"][workload][kind]
            if fault == "missing":
                del metrics[name]
            else:
                metrics[name] = BAD_VALUES[fault]
            assert bench.problems(record) == [f"{workload}.{kind}.{name} = {metrics.get(name)}"]


def test_undeclared_metric_must_be_finite(bench):
    record = complete_bench()
    record["workloads"][WORKLOADS[0]]["end_to_end"]["extra_s"] = float("nan")
    assert bench.problems(record) == [f"{WORKLOADS[0]}.end_to_end.extra_s = nan"]


FAULTS = {
    "not correct": lambda r: r["workloads"][WORKLOADS[0]].update(correct=False),
    "a failed operation": lambda r: r["workloads"][WORKLOADS[-1]].update(failed=[0, 1]),
    "a workload not run": lambda r: r["workloads"].pop(WORKLOADS[-1]),
    "a scale error": lambda r: r["scale"].update(cam1000={"error": ["MemoryError"]}),
    "a scale NaN": lambda r: r["scale"]["cam1000"]["irls"].update(err_mean_deg=float("nan")),
    "cam1000 median 1.0": lambda r: r["scale"]["cam1000"]["neurora"].update(err_median_deg=1.0),
    "cam1000 Weiszfeld median 1.2": lambda r: r["scale"]["cam1000"]["weiszfeld_sweep"].update(
        err_median_deg=1.2),
    "repeats disagree": lambda r: r["scale"]["cam1000"]["irls"].update(
        fingerprints=["a" * 16, "a" * 16, "c" * 16]),
    "a repeat missing": lambda r: r["scale"]["cam1000"]["weiszfeld_sweep"].update(
        fingerprints=["b" * 16] * 2),
    "no fingerprints": lambda r: r["scale"]["cam1000"]["neurora"].pop("fingerprints"),
    "a step short": lambda r: r["scale"]["cam1000"]["irls"]["max_step_trace"].pop(),
    "no step trace": lambda r: r["scale"]["cam1000"]["irls"].pop("max_step_trace"),
    "no objective trace": lambda r: r["scale"]["cam1000"]["weiszfeld_sweep"].pop(
        "objective_trace"),
    "an entry short": lambda r: r["scale"]["cam1000"]["weiszfeld_sweep"]["objective_trace"].pop(),
    "a NaN objective": lambda r: r["scale"]["cam1000"]["weiszfeld_sweep"].update(
        objective_trace=[9000.0, float("nan")]),
    "an objective not lowered": lambda r: r["scale"]["cam1000"]["weiszfeld_sweep"].update(
        objective_trace=[9000.0, 9000.0]),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_fault_is_refused(bench, fault):
    record = complete_bench()
    fault(record)
    assert len(bench.problems(record)) == 1


def test_irls_step_trace_has_one_step_per_iteration(bench):
    # a growth stop ends a run below its budget: the trace shows where
    record = complete_bench()
    irls = record["scale"]["cam1000"]["irls"]
    irls.update(iterations=13, converged=False, max_step_trace=[0.02] * 12 + [0.03])
    assert bench.problems(record) == []
    irls["iterations"] = 25
    assert bench.problems(record) == ["cam1000.irls: 13 steps traced, 25 iterations"]


def completed(returncode: int, stdout: str) -> subprocess.CompletedProcess:
    return subprocess.CompletedProcess([], returncode, stdout=stdout, stderr="")


def test_run_workload_reads_the_final_record(bench, monkeypatch):
    final = {"correct": True, "attempted": 9, "failed": 0,
             "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "irls_s": {"unit": "s"}}}
    stdout = "\n".join([json.dumps({"env": {"python": "3"}}), "gate parse: ok (x)",
                        json.dumps({"host": {"scale": 1.0}}), "setup_s = 0.5 s",
                        json.dumps(final)]) + "\n"
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs["env"]["OPENBLAS_NUM_THREADS"]))
        return completed(0, stdout)

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    got = bench.run_workload("dense", 0.1, 1)
    assert got == {"env": {"python": "3"}, "host": {"scale": 1.0}, "correct": True, "failed": 0,
                   "metrics": {"setup_s": 0.5, "irls_s": None}}
    assert calls[0][0][1:] == ["benchmark/run.py", "--workload", "dense", "--seed", "1",
                               "--seconds", "0.1", "--trace", "1"]
    assert calls[0][1] == "1"

    # a run that exits non-zero is not correct, whatever it printed
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kwargs: completed(1, stdout))
    assert bench.run_workload("dense", 0.1, 0)["correct"] is False
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kwargs: completed(1, ""))
    assert bench.run_workload("dense", 0.1, 0) == {"env": None, "host": None, "correct": False,
                                                   "failed": None, "metrics": {}}


def test_main_runs_every_declared_workload(bench, monkeypatch, tmp_path):
    runs, scales = [], []

    def run_workload(workload, seconds, trace):
        runs.append((workload, seconds, trace))
        return run_record(trace)

    def run_scale(name):
        scales.append(name)
        return scale_record()

    monkeypatch.setattr(bench, "run_workload", run_workload)
    monkeypatch.setattr(bench, "run_scale", run_scale)
    out = tmp_path / "bench.json"
    assert bench.main(["--seconds", "0.1", "--scale", "cam1000", "--out", str(out)]) == 0
    assert runs == [(w, 0.1, trace) for w in WORKLOADS for trace in (0, 1)]
    assert scales == ["cam1000"]
    written = json.loads(out.read_text(encoding="utf-8"))
    assert list(written["workloads"]) == WORKLOADS
    assert bench.problems(written) == []


def test_fingerprint_reads_dtype_shape_and_bits(bench):
    rows = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    first = bench.fingerprint(rows, 25, [1.5, 2.5])
    assert len(first) == 16 and int(first, 16) >= 0
    assert bench.fingerprint(rows.copy(), 25, np.array([1.5, 2.5])) == first
    assert bench.fingerprint(np.asfortranarray(rows), 25, [1.5, 2.5]) == first  # values, not layout
    nudged = rows.copy()
    nudged[1, 2] = np.nextafter(nudged[1, 2], 2.0)  # one bit
    others = [bench.fingerprint(nudged, 25, [1.5, 2.5]), bench.fingerprint(rows, 24, [1.5, 2.5]),
              bench.fingerprint(rows.reshape(4, 3), 25, [1.5, 2.5]),
              bench.fingerprint(rows.astype(np.float32), 25, [1.5, 2.5]),
              bench.fingerprint(rows, 25, [2.5, 1.5]), bench.fingerprint(rows, 25)]
    assert len({first, *others}) == len(others) + 1


class FakeSpeed:
    """A host speed whose scaled times are given in advance."""

    def __init__(self, scaled):
        self.scaled = list(scaled)

    def sample(self):
        return None

    def scale(self, cpu_s, mark):
        return self.scaled.pop(0)


def test_timed_takes_the_median_of_the_repeats(bench):
    calls = []

    def solve(x):
        calls.append(x)
        return len(calls) * x

    out, seconds, prints = bench.timed(FakeSpeed([0.5, 0.2, 0.9]), solve, 10, digest=str)
    assert calls == [10] * bench.REPEATS == [10, 10, 10]
    assert out == 30 and seconds == 0.5 and prints == ["10", "20", "30"]
    # the calls' outputs differ, so these repeats fail the determinism gate
    record = complete_bench()
    record["scale"]["cam1000"]["irls"]["fingerprints"] = prints
    assert bench.problems(record) == [f"cam1000.irls: repeats' fingerprints {prints}"]
    assert bench.timed(FakeSpeed([0.3, 0.1, 0.2]), lambda: 7) == (7, 0.2, [])


def test_scale_record_runs_in_process(bench, monkeypatch):
    # the real scale section on the smallest suite graph: each solve's
    # repeats left one fingerprint, every number is finite and IRLS traced
    # one step per iteration, the gate's scale checks
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        record = bench.scale_record("cam250")
    finally:  # the benchmark's modules, imported by their bare names
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == ROOT / "benchmark":
                del sys.modules[name]
    assert record["n_nodes"] == 250 and set(bench.SOLVES) <= set(record)
    bench_record = complete_bench()
    bench_record["scale"] = {"cam250": record}
    assert bench.problems(bench_record) == []


def test_pairs_alternate_which_side_runs_first(bench):
    calls = []

    def run(workload, seconds, trace, root):
        calls.append((workload, seconds, trace, root))
        return {"side": root, "n": len(calls)}

    base, change = Path("/base-tree"), Path("/change-tree")
    base_runs, runs = bench.paired_runs("dense", 4, 0.5, base, change, run)
    sides = [root for *_, root in calls]
    assert sides == [base, change, change, base, base, change, change, base]
    assert all(call[:3] == ("dense", 0.5, 0) for call in calls)  # untraced runs only
    # each side's runs in pair order, one per pair
    assert [r["n"] for r in base_runs] == [1, 4, 5, 8] and [r["n"] for r in runs] == [2, 3, 6, 7]


def test_paired_stats(bench):
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.0]
    lower = bench.paired_stats(base, change, "lower")
    assert lower["pairs"] == 5 and lower["won"] == 4  # the second pair is lost
    assert lower["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert lower["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0}
    assert lower["ratio"] == 2.5 / 3.0
    higher = bench.paired_stats(base, change, "higher")
    assert higher["won"] == 1 and higher["base"] == lower["base"]
    # a tie is not a win, and a pair with a missing or non-finite side is left out
    kept = bench.paired_stats([1.0, 2.0, None, 4.0], [1.0, float("nan"), 1.0, 3.0], "lower")
    assert kept["pairs"] == 2 and kept["won"] == 1 and kept["base"]["median"] == 2.5
    assert bench.paired_stats([None], [1.0], "lower") == {"pairs": 0}
    assert bench.paired_stats([0.0, 0.0], [1.0, 1.0], "lower")["ratio"] is None


def tar_of(files: dict[str, str]) -> bytes:
    """A tar archive of the text ``files``, as ``git archive`` writes one."""
    out = io.BytesIO()
    with tarfile.open(fileobj=out, mode="w") as tar:
        for name, text in files.items():
            data = text.encode()
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return out.getvalue()


# what ``git ls-files`` lists of the checkout: two of its files, and a
# tracked file deleted from it
LISTED = ["benchmark/run.py", "tools/bench.py", "deleted.py"]


class FakeGit:
    """``subprocess.run`` for ``git``: records each command, resolves every
    revision to one commit id, archives ``archive`` as that commit and lists
    ``LISTED`` as the checkout's files."""

    def __init__(self, archive: bytes = b""):
        self.calls = []
        self.archive = archive or tar_of({"benchmark/run.py": "# the base commit\n"})

    def __call__(self, cmd, **kwargs):
        assert cmd[0] == "git" and kwargs["cwd"] == ROOT and kwargs["check"] is True
        self.calls.append(cmd[1:])
        out = {"rev-parse": b"0123abc\n", "archive": self.archive,
               "ls-files": "".join(f"{name}\0" for name in LISTED).encode()}[cmd[1]]
        return completed(0, out)


def is_base(root: Path) -> bool:
    return (root / "benchmark" / "run.py").read_text() == "# the base commit\n"


def paired_run(workload, seconds, trace, root):
    good = run_record(0)
    good["metrics"] = {name: (3.0 if is_base(root) else 2.0) for name in END_TO_END}
    return good


def test_paired_record_runs_in_a_removed_tree(bench, monkeypatch):
    fake = FakeGit()
    monkeypatch.setattr(bench.subprocess, "run", fake)
    roots = set()

    def run(workload, seconds, trace, root):
        # each side's files exist while it runs: the base commit's, and the
        # checkout's listed files but the deleted one
        roots.add(root)
        if not is_base(root):
            files = sorted(str(f.relative_to(root)) for f in root.rglob("*") if f.is_file())
            assert files == LISTED[:2]
            assert all((root / name).read_bytes() == (ROOT / name).read_bytes() for name in files)
        return paired_run(workload, seconds, trace, root)

    record = bench.paired_record("HEAD~1", 3, 0.1, run)
    assert len(roots) == 2 and ROOT not in roots
    assert fake.calls == [["rev-parse", "--verify", "HEAD~1^{commit}"], ["archive", "0123abc"],
                          ["ls-files", "-z", "--cached", "--others", "--exclude-standard"]]
    assert not any(root.exists() for root in roots)
    assert record["against"] == {"rev": "HEAD~1", "commit": "0123abc"} and record["pairs"] == 3
    assert list(record["workloads"]) == WORKLOADS
    for rec in record["workloads"].values():
        assert rec["correct"] is True and list(rec["metrics"]) == END_TO_END
        for name, entry in SPEC_BY_NAME.items():
            stats = rec["metrics"][name]
            assert stats["ratio"] == 2.0 / 3.0
            assert stats["won"] == (3 if entry["better"] == "lower" else 0)
    bench_file = complete_bench()
    bench_file["paired"] = record
    assert bench.problems(bench_file) == []
    record["workloads"][WORKLOADS[0]]["correct"] = False
    assert bench.problems(bench_file) == [
        f"paired.{WORKLOADS[0]}: a run not correct or with a failed operation"]


def test_a_partial_runs_at_another_seed(bench, monkeypatch):
    calls = []
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda cmd, **kwargs: calls.append(cmd) or completed(0, ""))
    functools.partial(bench.run_workload, seed=7)("dense", 0.1, 0, ROOT)
    assert calls[0][1:] == ["benchmark/run.py", "--workload", "dense", "--seed", "7",
                            "--seconds", "0.1", "--trace", "0"]


@pytest.mark.parametrize("base_seed, seeds", [(7, [7]), (1, [1, 7])])
def test_paired_record_keeps_the_printed_seeds(bench, monkeypatch, base_seed, seeds):
    monkeypatch.setattr(bench.subprocess, "run", FakeGit())

    def run(workload, seconds, trace, root):
        out = paired_run(workload, seconds, trace, root)
        out["env"] = {"seed": base_seed if is_base(root) else 7}
        return out

    bench_file = complete_bench()
    bench_file["paired"] = bench.paired_record("HEAD~1", 2, 0.1, run)
    # the base runs first in the first pair
    assert bench_file["paired"]["seeds"] == seeds
    assert bench.problems(bench_file) == ([] if len(seeds) == 1 else
                                          [f"paired: runs of seeds {seeds}"])


def made_dirs(bench, monkeypatch) -> list[Path]:
    """Every directory ``tempfile.mkdtemp`` makes from now on."""
    made, mkdtemp = [], bench.tempfile.mkdtemp

    def record(*args, **kwargs):
        made.append(Path(mkdtemp(*args, **kwargs)))
        return str(made[-1])

    monkeypatch.setattr(bench.tempfile, "mkdtemp", record)
    return made


def test_paired_record_removes_the_tree_when_a_run_fails(bench, monkeypatch):
    monkeypatch.setattr(bench.subprocess, "run", FakeGit())
    made = made_dirs(bench, monkeypatch)
    bases = []

    def run(workload, seconds, trace, root):
        bases.append(root)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        bench.paired_record("HEAD~1", 2, 0.1, run)
    # the base's run fails first; both trees were made, and both are removed
    assert len(made) == 2 and bases == made[:1]
    assert not any(tree.exists() for tree in made)


@pytest.mark.parametrize("step", ["rev-parse", "archive", "extract", "ls-files"])
def test_a_failed_checkout_leaves_no_directory(bench, monkeypatch, step):
    fake = FakeGit(b"not a tar archive" if step == "extract" else b"")

    def git(cmd, **kwargs):
        if cmd[1] == step:
            raise subprocess.CalledProcessError(128, cmd)
        return fake(cmd, **kwargs)

    monkeypatch.setattr(bench.subprocess, "run", git)
    made = made_dirs(bench, monkeypatch)
    with pytest.raises(tarfile.ReadError if step == "extract" else subprocess.CalledProcessError):
        bench.paired_record("no-such-rev", 2, 0.1, paired_run)
    # the checkout's tree is made after the base's
    assert len(made) == (2 if step == "ls-files" else 1)
    assert not any(tree.exists() for tree in made)


def test_main_adds_the_paired_section(bench, monkeypatch, tmp_path):
    asked = []
    monkeypatch.setattr(bench, "run_workload", lambda workload, seconds, trace: run_record(trace))
    monkeypatch.setattr(bench, "run_scale", lambda name: scale_record())
    monkeypatch.setattr(bench, "paired_record",
                        lambda rev, pairs, seconds: asked.append((rev, pairs, seconds)) or {})
    out = tmp_path / "bench.json"
    assert bench.main(["--seconds", "0.1", "--scale", "--out", str(out),
                       "--against", "HEAD~1"]) == 0
    assert asked == [("HEAD~1", bench.PAIRS, 0.1)] and bench.PAIRS >= 10
    assert json.loads(out.read_text(encoding="utf-8"))["paired"] == {}
