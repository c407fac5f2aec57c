"""Index durability: faulty node reads, SIGKILL mid-DML, CRC-clean recovery."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.faults.store import FaultyIndexReader
from repro.faults.plan import FaultSpec
from repro.obs import StorageMetrics
from repro.storage.index import BPlusTree, IndexFileReader, load_index, save_index
from repro.storage.retry import ReadExhaustedError, RetryPolicy
from repro.storage.rid import RID

from tests import _dml_workload as workload

REPO_ROOT = Path(__file__).resolve().parent.parent


def _saved_index(tmp_path, n: int = 300):
    pairs = [(float(i % 40), RID(i // 8, i % 8)) for i in range(n)]
    tree = BPlusTree.bulk_load(pairs, order=8)
    return save_index(tree, "f0", tmp_path / "t.ix.idx"), sorted(pairs)


class TestFaultyIndexReader:
    def test_transient_and_torn_reads_absorbed(self, tmp_path):
        path, pairs = _saved_index(tmp_path)
        stats = StorageMetrics("ix")
        plan = FaultPlan(seed=1, p_transient=0.3, p_torn=0.4, max_failures=2)
        reader = FaultyIndexReader(path, plan, storage_stats=stats)
        assert list(reader.items()) == pairs
        assert stats.faults_injected > 0
        assert stats.retries > 0

    def test_pinned_torn_leaf_retries_clean(self, tmp_path):
        path, pairs = _saved_index(tmp_path)
        header_nodes = IndexFileReader(path).n_nodes
        # Tear the last node (a leaf) once; the retry must read it clean.
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(kind="torn", unit="index_node", target=header_nodes - 1)],
        )
        reader = FaultyIndexReader(path, plan)
        assert list(reader.items()) == pairs

    def test_persistent_tear_exhausts_retries(self, tmp_path):
        path, _pairs = _saved_index(tmp_path)
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(kind="torn", unit="index_node", target=0, times=10)],
        )
        # A retry budget smaller than the tear window must give up loudly.
        reader = FaultyIndexReader(path, plan, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(ReadExhaustedError):
            list(reader.items())

    def test_faulty_validate_still_passes(self, tmp_path):
        path, _pairs = _saved_index(tmp_path)
        plan = FaultPlan(seed=3, p_torn=0.5, max_failures=1)
        report = FaultyIndexReader(path, plan).validate()
        assert report["entries"] == 300


class TestSigkillRecovery:
    def test_sigkill_mid_dml_leaves_crc_clean_consistent_index(self, tmp_path):
        """Kill -9 a DML stream; the surviving ``.idx`` base must validate,
        and base + log must recover the index state after *some* completed
        prefix of the ops."""
        n_ops = 5000
        child = subprocess.Popen(
            [sys.executable, str(REPO_ROOT / "tests" / "_dml_workload.py"),
             str(tmp_path), str(n_ops)],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.time() + 60
            ready = tmp_path / "ready"
            while not ready.exists():
                if child.poll() is not None:
                    raise AssertionError(
                        f"child exited early: {child.stderr.read().decode()}"
                    )
                if time.time() > deadline:
                    raise AssertionError("child never reached the ready mark")
                time.sleep(0.01)
            time.sleep(0.05)  # let it get properly mid-stream
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert not (tmp_path / "done").exists(), "child finished before the kill"

        idx_path = tmp_path / "t.ix.idx"
        assert idx_path.exists()
        # 1. CRC-clean: durable_write's old-or-new guarantee means the base
        #    always validates, kill or no kill; a frame torn by the kill
        #    just ends the log.
        IndexFileReader(idx_path).validate()
        recovered = load_index(idx_path)
        file_entries = set(recovered.items())

        # 2. Consistent: replay the deterministic op stream; the recovered
        #    tree must equal the in-memory index after some prefix at or
        #    past the ready mark (each op's frame is durable before the
        #    next op starts).
        _catalog, info = workload.make_table(None)
        tree = info.indexes["ix"].tree

        class _Matched(Exception):
            pass

        matched = -1
        if set(tree.items()) == file_entries:
            matched = 0

        def probe(completed: int) -> None:
            nonlocal matched
            if set(tree.items()) == file_entries:
                matched = completed
                raise _Matched

        if matched < 0:
            try:
                workload.apply_ops(info, n_ops, progress=probe)
            except _Matched:
                pass
        assert matched >= workload.READY_AT, (
            f"persisted index matches no replayed DML state "
            f"({len(file_entries)} entries on disk)"
        )
        # And the matched state is itself heap-consistent by construction;
        # the recovered tree must also be structurally sound.
        recovered.check_invariants()
        assert recovered.n_entries == len(file_entries)
