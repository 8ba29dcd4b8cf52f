"""Generate (or find cached) the benchmark inputs for one seed.

    python3 layerbench/prepare.py --seed 1

``run.py`` calls the same code before it starts Ray, so running this first
is optional; it moves generation out of the first benchmark run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    from layerbench import inputs

    t0 = time.perf_counter()
    for name, path in inputs.prepare(args.seed).items():
        print(f"{name:15s} {os.path.relpath(path, inputs.root_dir())}")
    print(f"ready in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
