"""Quick self-test of the benchmark.

    python3 layerbench/selftest.py [--seed 0]

Runs one job of every workload on tiny inputs (the warm-up inputs of the
seed), a few parse calls and every relational query of the traced run's
probes, and checks their outputs, which must pass. Then feeds every check
deliberately corrupted copies of those outputs, which it must reject, and
makes sure an expired deadline ends a hung operation with exit status 3. Prints one line per case; exits 1 if any case fails.
"""

from __future__ import annotations

import argparse
import copy
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


class Cases:
    def __init__(self) -> None:
        self.failed: list[str] = []

    def expect(self, name: str, problems: list[str], accept: bool) -> None:
        ok = (not problems) == accept
        verdict = "accepted" if not problems else f"rejected: {problems[0]}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}", flush=True)
        if not ok:
            self.failed.append(name)


def _first(rows: list[dict], pred) -> int:
    return next(i for i, r in enumerate(rows) if pred(r))


def _with(rows: list[dict], i: int, **changes) -> list[dict]:
    out = copy.deepcopy(rows)
    out[i].update(changes)
    return out


def extraction_corruptions(rows: list[dict], expected: list[dict]) -> dict:
    from layerbench.checks import LANG_MIN_CHARS

    exp = {e["url"]: e for e in expected}
    text = _first(rows, lambda r: r["content"])
    err = _first(rows, lambda r: r["error_type"] is not None)
    lang = _first(
        rows,
        lambda r: r["language"]
        and len((exp[r["url"]]["content"] or "").strip()) >= LANG_MIN_CHARS,
    )
    return {
        "content changed": _with(rows, text, content=rows[text]["content"] + "x"),
        "media_type changed": _with(rows, text, media_type="application/x-corrupt"),
        "error_type dropped": _with(rows, err, error_type=None, content=""),
        "language changed": _with(rows, lang, language="xx"),
        "row missing": rows[1:],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    import pyarrow.parquet as pq

    from layerbench import checks, harness, inputs, layers, workloads
    from rika_ray.schema import ERROR_TYPES

    cases = Cases()
    out_dir = os.path.join(harness.work_dir(), "out", f"selftest-{os.getpid()}")
    inputs.prepare(args.seed)
    harness.ray_init()
    try:
        # extract_mixed: one job on the one-document-per-family corpus
        d = inputs.mixed_warmup_dir(args.seed)
        dst = os.path.join(out_dir, "mixed")
        workloads._extract_job(os.path.join(d, "web_pages.parquet"), dst)
        rows = workloads._read_outputs(dst)
        expected = pq.read_table(os.path.join(d, "expected.parquet")).to_pylist()
        cases.expect("extract_mixed output", checks.compare_extractions(rows, expected), True)
        for label, bad in extraction_corruptions(rows, expected).items():
            cases.expect(f"extract_mixed {label}", checks.compare_extractions(bad, expected), False)

        # parse probe: the first few loose files
        from rika_ray.shortcuts import parse

        d = inputs.files_dir(args.seed)
        exp_files = pq.read_table(os.path.join(d, "expected.parquet")).to_pylist()[:4]
        rows = []
        for e in exp_files:
            row = parse(os.path.join(d, "files", e["file"]))
            rows.append({**{k: row[k] for k in workloads.OUTPUT_FIELDS}, "url": e["url"]})
        cases.expect("parse output", checks.compare_extractions(rows, exp_files), True)
        text = _first(rows, lambda r: r["content"])
        cases.expect(
            "parse content changed",
            checks.compare_extractions(
                _with(rows, text, content=rows[text]["content"][:-1]), exp_files
            ),
            False,
        )

        # extract_hostile: one mutated document per family
        d = inputs.hostile_warmup_dir(args.seed)
        src = os.path.join(d, "web_pages.parquet")
        dst = os.path.join(out_dir, "hostile")
        workloads._extract_job(src, dst)
        rows = workloads._read_outputs(dst)
        urls = pq.read_table(src, columns=["url"])["url"].to_pylist()
        cases.expect("extract_hostile output", checks.check_hostile(rows, urls, ERROR_TYPES), True)
        for label, bad in {
            "row missing": rows[:-1],
            "row duplicated": rows + rows[:1],
            "neither content nor error": _with(rows, 0, content=None, error_type=None),
            "error outside taxonomy": _with(rows, 0, error_type="exploded"),
        }.items():
            cases.expect(f"extract_hostile {label}", checks.check_hostile(bad, urls, ERROR_TYPES), False)

        # relational probe: every query on the small tables vs DuckDB
        import __ray_entry__

        tables = inputs.tables_warmup_dir(args.seed)
        queries = __ray_entry__.queries()
        oracle = checks.oracle_frames(tables, list(layers.QUERIES))
        for name in layers.QUERIES:
            got = queries[name](tables).to_pandas()
            cases.expect(f"relational {name}", checks.compare_frames(got, oracle[name]), True)
        got = queries["pricing_summary"](tables).to_pandas()
        bad = got.copy()
        bad.loc[0, "sum_qty"] += 1.0
        cases.expect("relational value changed", checks.compare_frames(bad, oracle["pricing_summary"]), False)
        cases.expect("relational row missing", checks.compare_frames(got.iloc[1:], oracle["pricing_summary"]), False)
    finally:
        harness.stop_all()
        shutil.rmtree(out_dir, ignore_errors=True)

    # a hung operation: the deadline must end the process with status 3
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, time; sys.path.insert(0, sys.argv[1]);"
            "from layerbench.harness import deadline\n"
            "with deadline('sleep', 1): time.sleep(60)",
            ROOT,
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    waited = time.perf_counter() - t0
    cases.expect(
        "deadline ends a hung operation",
        [] if proc.returncode == 3 and waited < 30 else [f"exit {proc.returncode} after {waited:.0f} s"],
        True,
    )
    print(f"{'FAILED: ' + ', '.join(cases.failed) if cases.failed else 'all cases passed'}")
    return 1 if cases.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
