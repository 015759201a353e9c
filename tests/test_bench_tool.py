"""The benchmark gate, ``tools/bench.py``.

:func:`problems` must refuse every fault a run can show: a run that exited
non-zero or is not correct, a failed operation, a declared end-to-end or
per-layer metric that is missing, ``None`` or not finite, a scale graph that
did not run, a scale solve whose repeated calls left different (or missing)
fingerprints, and NeuRoRA's cam1000 median error at or above 1 degree.
:func:`main` must run every workload that ``BENCHMARK.json`` declares.  The
tool is loaded from its path with the environment restored after its import,
and no test starts a process.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


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
                 "converged": True, "cg_iterations": 400, "fingerprints": ["a" * 16] * 3},
        "weiszfeld_sweep": {"s": 1.0, "err_median_deg": 2.0, "err_mean_deg": 3.0,
                            "fingerprints": ["b" * 16] * 3},
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
    "repeats disagree": lambda r: r["scale"]["cam1000"]["irls"].update(
        fingerprints=["a" * 16, "a" * 16, "c" * 16]),
    "a repeat missing": lambda r: r["scale"]["cam1000"]["weiszfeld_sweep"].update(
        fingerprints=["b" * 16] * 2),
    "no fingerprints": lambda r: r["scale"]["cam1000"]["neurora"].pop("fingerprints"),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_fault_is_refused(bench, fault):
    record = complete_bench()
    fault(record)
    assert len(bench.problems(record)) == 1


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
