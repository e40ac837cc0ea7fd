"""A fixed reference job that measures how fast the host runs right now.

It does a small share of each kind of work the pipeline does, without any
ordchange code: start an interpreter and import numpy, write floats as CSV
text and parse them back, run small matrix products, and loop over a dict in
plain Python. run.py times it between repetitions and scales the measured
seconds by it (see ``REFERENCE_S`` there).

    python3 perfbench/reference.py <scratch csv path>
"""

from __future__ import annotations

import csv
import os
import sys

import numpy as np


def main(path: str) -> int:
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((1000, 64))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(64)])
        writer.writerows([f"{v:.6f}" for v in row] for row in x)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        y = np.array([[float(v) for v in row] for row in reader])
    os.remove(path)
    w = rng.standard_normal((64, 64)) / 8.0
    h = y[:64]
    for _ in range(1000):
        h = np.tanh(h @ w)
    sums: dict[int, float] = {}
    for i in range(60_000):
        sums[i % 97] = sums.get(i % 97, 0.0) + i * 0.5
    return 0 if np.isfinite(h).all() and abs(y - x).max() < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
