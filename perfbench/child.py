"""Run one ordchange command the way ``python -m ordchange.cli`` does.

It also counts the training rows the command's batches held, through one
wrapper around ``ordchange.model.make_batches`` (called once per epoch and
fold), and writes the count to the file named by PERFBENCH_ROWS_FILE.

    PYTHONPATH=src python3 perfbench/child.py train --config ... --data ...
"""

from __future__ import annotations

import os
import sys

import ordchange.cli
import ordchange.model


def main() -> int:
    sizes: list[int] = []
    make_batches = ordchange.model.make_batches

    def counted(*args, **kwargs):
        batches = make_batches(*args, **kwargs)
        sizes.append(sum(len(b) for b in batches))  # append is atomic across fold threads
        return batches

    ordchange.model.make_batches = counted
    code = ordchange.cli.main(sys.argv[1:])
    target = os.environ.get("PERFBENCH_ROWS_FILE")
    if sizes and target:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(f"{sum(sizes)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
