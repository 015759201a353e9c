"""Train the desk-scale CleanNet/FineNet checkpoints the benchmark loads.

Run from the repository root::

    python3 benchmark/train_checkpoints.py

Training graphs come from the benchmark's own generator (``inputs.py``) at
the desk shape, so the checkpoints do not depend on ``rotavg.synthgen``.
CleanNet trains first; FineNet then trains on inits produced by the trained
CleanNet, as in the full pipeline.  The seeds, schedule and final
validation losses are written next to the weights in ``manifest.json``.
Single-threaded BLAS keeps the run reproducible.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import adapter  # noqa: E402
from inputs import DESK, SIGMA_MAX_DEG, make_graphs  # noqa: E402

CKPT_DIR = Path(__file__).resolve().parent / "checkpoints"
SEED = 20191209          # input seed of the training corpus
TRAIN_STREAM, VAL_STREAM = 100, 101  # disjoint from the streams run.py uses
N_TRAIN, N_VAL = 32, 8
EPOCHS = 60
NET_SEED = 0             # weight init and dropout seed (TrainConfig.seed)


def main() -> None:
    train = [adapter.parse(g.text) for g in make_graphs(DESK, SIGMA_MAX_DEG, N_TRAIN, SEED, TRAIN_STREAM)]
    val = [adapter.parse(g.text) for g in make_graphs(DESK, SIGMA_MAX_DEG, N_VAL, SEED, VAL_STREAM)]
    t0 = time.perf_counter()
    clean, clean_loss = adapter.train_cleannet(train, val, EPOCHS, NET_SEED)
    t1 = time.perf_counter()
    print(f"cleannet: best val loss {clean_loss:.6g} in {t1 - t0:.1f} s", flush=True)
    fine, fine_loss = adapter.train_finenet(train, val, EPOCHS, clean, NET_SEED)
    t2 = time.perf_counter()
    print(f"finenet: best val loss {fine_loss:.6g} in {t2 - t1:.1f} s", flush=True)
    CKPT_DIR.mkdir(exist_ok=True)
    adapter.save_nets(adapter.Nets(clean=clean, fine=fine), CKPT_DIR)
    manifest = {
        "script": "benchmark/train_checkpoints.py",
        "shape": {"n": DESK.n, "edge_fraction": DESK.edge_fraction,
                  "outlier_fraction": DESK.outlier_fraction, "sigma_max_deg": SIGMA_MAX_DEG},
        "seed": SEED, "train_stream": TRAIN_STREAM, "val_stream": VAL_STREAM,
        "n_train": N_TRAIN, "n_val": N_VAL,
        "schedule": {"epochs": EPOCHS, "lr": adapter.trainer.DESK_LR,
                     "weight_decay": adapter.train_config(EPOCHS).weight_decay,
                     "edge_dropout": adapter.train_config(EPOCHS).edge_dropout,
                     "net_seed": NET_SEED},
        "best_val_loss": {"cleannet": clean_loss, "finenet": fine_loss},
    }
    (CKPT_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
