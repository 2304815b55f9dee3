"""Shared helpers for the benchmark harness.

Every ``bench_*`` module regenerates one paper table or figure: it
benchmarks the computation with pytest-benchmark, asserts the paper's
numbers (shape, not wall-clock), prints the rendered artifact, and
saves it under ``benchmarks/results/``.
"""

from __future__ import annotations

import os

import pytest


RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def emit(name: str, text: str) -> None:
    """Print a rendered artifact and persist it under results/."""
    print(f"\n{text}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), which is what a
    parallel run can use; ``os.cpu_count()`` reports the host's count
    even under ``taskset``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@pytest.fixture(scope="session", autouse=True)
def _isolated_ir_cache(tmp_path_factory):
    """Benchmarks must never read a pre-warmed IR cache from the
    developer's machine — cold numbers would silently stop being cold."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("ir-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def extraction_report():
    from repro.analysis.extractor import extract_all

    return extract_all()
