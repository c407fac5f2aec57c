"""Shared fixtures and reporting helpers for the benchmark suite.

Every bench target regenerates one table or figure of the paper: it runs the
experiment (real SGD over real index streams; wall-clock charged through the
device models), prints the same rows/series the paper reports, saves the raw
records under ``benchmarks/results/``, and asserts the paper's *shape* claims
(who wins, by roughly what factor).

The printed tables are written with pytest's output capture suspended, so
they appear in the pytest output even without ``-s``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import format_table, save_records
from repro.data import DATASETS, clustered_by_label

RESULTS_DIR = Path(__file__).parent / "results"

GLM_DATASETS = ("higgs", "susy", "epsilon", "criteo", "yfcc")

# Scaled-down physical parameters: the paper uses 10 MB blocks on multi-GB
# tables (thousands of blocks); our tables are ~10^3 smaller, so blocks are
# ~100 tuples and the engine runs 1 KB pages with 8 KB blocks.
TUPLES_PER_BLOCK = 40
ENGINE_BLOCK_BYTES = 8 * 1024


#: The running pytest's config (set by ``pytest_configure``), whose capture
#: manager :func:`emit` suspends.
_config = None


def pytest_configure(config) -> None:
    global _config
    _config = config


def emit(text: str) -> None:
    """Print report text past pytest's output capture (``--capture=fd`` too)."""
    capture = _config.pluginmanager.getplugin("capturemanager") if _config else None
    if capture is None:
        print(text, flush=True)
        return
    with capture.global_and_fixture_disabled():
        print(text, flush=True)


def report_table(rows, columns=None, title=None, json_name=None) -> None:
    emit("")
    emit(format_table(rows, columns, title))
    if json_name:
        save_records(list(rows), RESULTS_DIR / json_name)


def report_loader_stats(stats_list, title, json_name=None) -> None:
    """Print the measured loader-observability counters for a bench target.

    Each element of ``stats_list`` is a :class:`repro.obs.LoaderMetrics` (or
    a snapshot dict); rows show queue depth, producer stall / consumer wait,
    buffers filled/drained, thread counts, and the measured overlap
    fraction, so figures that previously only had the analytic
    ``pipelined_time`` model can report what the real threads did.
    """
    from repro.db.timing import overlap_report

    report_table([overlap_report(s) for s in stats_list], title=title, json_name=json_name)


@pytest.fixture(scope="session")
def glm_problems():
    """name -> (clustered train, test) for the five Table 2 GLM datasets."""
    problems = {}
    for name in GLM_DATASETS:
        train, test = DATASETS[name].build_split(seed=0)
        problems[name] = (clustered_by_label(train, seed=0), test)
    return problems


@pytest.fixture(scope="session")
def small_glm_problems(glm_problems):
    """The low-dimensional subset used by the heavier sweeps."""
    return {name: glm_problems[name] for name in ("higgs", "susy")}
