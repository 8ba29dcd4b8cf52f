"""The closed-loop workloads.

A workload is driven by one client that sends its next request only after
the previous one has returned. A request, on both workloads, is one
extraction job over the seed's corpus: ``read_web_pages`` ->
``build_extraction_pipeline`` -> ``write_parquet``. A run attempts whole
jobs only.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow.parquet as pq

from layerbench import checks, inputs
from layerbench.harness import deadline

JOB_DEADLINE_S = 120

OUTPUT_FIELDS = ["url", "content", "media_type", "error_type", "language"]


def _extract_job(src: str, dst: str):
    from rika_ray.pipelines.extraction import (
        ExtractionConfig,
        build_extraction_pipeline,
        read_web_pages,
    )

    shutil.rmtree(dst, ignore_errors=True)
    ds = build_extraction_pipeline(read_web_pages(src), ExtractionConfig())
    ds.write_parquet(dst)


def _read_outputs(path: str) -> list[dict]:
    return pq.read_table(path, columns=OUTPUT_FIELDS).to_pylist()


class _ExtractJobs:
    name = ""

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def _inputs(self) -> tuple[str, str]:
        """The seed's input directory and its warm-up input directory."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate or find the cached inputs (never timed)."""
        src, warm = self._inputs()
        self.src = os.path.join(src, "web_pages.parquet")
        self.warm_src = os.path.join(warm, "web_pages.parquet")
        self.n_docs = pq.ParquetFile(self.src).metadata.num_rows
        self.outputs: list[str] = []

    def warmup(self) -> None:
        """One untimed job on inputs from another seed."""
        with deadline(f"{self.name} warm-up job", JOB_DEADLINE_S):
            _extract_job(self.warm_src, os.path.join(self.out_dir, "warmup"))

    def job(self, tracer) -> float:
        """One timed job; returns its wall time in seconds."""
        dst = os.path.join(self.out_dir, f"job-{len(self.outputs)}")
        with deadline(f"{self.name} extraction job", JOB_DEADLINE_S):
            with tracer.span("request", workload=self.name):
                t0 = time.perf_counter()
                _extract_job(self.src, dst)
                dt = time.perf_counter() - t0
        self.outputs.append(dst)
        return dt

    def check(self) -> list[str]:
        """Check every output kept since the last call."""
        raise NotImplementedError


class ExtractMixed(_ExtractJobs):
    name = "extract_mixed"

    def _inputs(self):
        return inputs.mixed_dir(self.seed), inputs.mixed_warmup_dir(self.seed)

    def check(self) -> list[str]:
        d = inputs.mixed_dir(self.seed)
        expected = pq.read_table(os.path.join(d, "expected.parquet")).to_pylist()
        problems = []
        for out in self.outputs:
            problems += checks.compare_extractions(_read_outputs(out), expected)
        self.outputs.clear()
        return problems


class ExtractHostile(_ExtractJobs):
    name = "extract_hostile"

    def _inputs(self):
        return inputs.hostile_dir(self.seed), inputs.hostile_warmup_dir(self.seed)

    def check(self) -> list[str]:
        from rika_ray.schema import ERROR_TYPES

        urls = pq.read_table(self.src, columns=["url"])["url"].to_pylist()
        problems = []
        for out in self.outputs:
            problems += checks.check_hostile(_read_outputs(out), urls, ERROR_TYPES)
        self.outputs.clear()
        return problems


WORKLOADS = {w.name: w for w in (ExtractMixed, ExtractHostile)}
