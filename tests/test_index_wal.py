"""The index redo log: format, recovery, and the deterministic crash matrix.

Every DML statement appends one fsynced frame to ``<index>.idx.wal``;
``load_index`` = base + replay.  The matrix below crashes the seeded
``_dml_workload`` stream at every place a crash can land — each byte of
each frame, a corrupted frame, each step of each checkpoint — and requires
recovery to yield the index of a completed prefix: state ``k`` or ``k - 1``,
never part of a statement.  In-process, seeded, no sleeps.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.db import MiniDB, parse_query
from repro.storage.index import BPlusTree, IndexFileReader, idxlog, load_index, save_index
from repro.storage.rid import RID

from tests import _dml_workload as workload

N_OPS = 300
#: A 48-row table keeps one recovery (read the base, replay the log) near
#: 0.2 ms, so recovering at every byte of every frame stays a few seconds;
#: its smaller base also means a checkpoint every ~25 ops instead of ~80.
N_ROWS = 48
TRAIN_EVERY = 30  # ops between the (slower) TRAIN ... WHERE equivalence checks
TRAIN_SQL = (
    "SELECT * FROM t WHERE f0 >= -0.25 TRAIN BY lr "
    "WITH max_epoch_num = 1, block_size = 1KB, seed = 3"
)


class _Crash(Exception):
    """Stands in for the process dying at the patched call."""


def _train_through(catalog, tree) -> np.ndarray:
    """Weights of ``TRAIN ... WHERE f0 >= c`` planned through ``tree``."""
    index = catalog.get("t").indexes["ix"]
    db = MiniDB(page_bytes=catalog.page_bytes)
    db.catalog = catalog
    live, index.tree = index.tree, tree
    try:
        return db.train(parse_query(TRAIN_SQL)).model.parameter_vector()
    finally:
        index.tree = live


def _assert_recovers(path: Path, info, catalog=None) -> None:
    """``load_index(path)`` is exactly the table's own tree — the one the
    prefix applied fresh maintains — and (``catalog`` given) trains alike."""
    recovered = load_index(path)
    recovered.check_invariants()
    live = info.indexes["ix"].tree
    assert list(recovered.items()) == list(live.items())
    if catalog is not None:
        np.testing.assert_array_equal(
            _train_through(catalog, recovered), _train_through(catalog, live)
        )


# ----------------------------------------------------------------------
# Format
class TestLogFormat:
    def _base(self, tmp_path, lsn=0):
        tree = BPlusTree.bulk_load([(float(i), RID(0, i)) for i in range(10)], order=4)
        path = tmp_path / "t.ix.idx"
        idxlog.checkpoint(tree, "f0", path, lsn)
        return path

    def test_frame_layout_and_replay(self, tmp_path):
        path = self._base(tmp_path)
        ops = [(idxlog.DELETE, 3.0, RID(0, 3)), (idxlog.INSERT, 3.5, RID(7, 2))]
        assert idxlog.append_frame(path, 1, ops) == 16 + 15 * len(ops)
        raw = idxlog.log_path(path).read_bytes()
        crc, length, lsn = struct.unpack_from(">IIQ", raw)
        assert (length, lsn, crc) == (30, 1, zlib.crc32(raw[4:]))
        assert struct.unpack_from(">BdIH", raw, 16) == (idxlog.DELETE, 3.0, 0, 3)
        assert list(idxlog.read_frames(path)) == [(1, ops)]
        items = list(load_index(path).items())
        assert (3.5, RID(7, 2)) in items and (3.0, RID(0, 3)) not in items

    def test_frames_at_or_below_the_base_lsn_are_skipped(self, tmp_path):
        """The log a crash leaves between "base renamed" and "log reset"."""
        path = self._base(tmp_path, lsn=2)
        idxlog.append_frame(path, 1, [(idxlog.DELETE, 1.0, RID(0, 1))])
        idxlog.append_frame(path, 2, [(idxlog.DELETE, 2.0, RID(0, 2))])
        idxlog.append_frame(path, 3, [(idxlog.DELETE, 4.0, RID(0, 4))])
        assert IndexFileReader(path).lsn == 2
        assert [k for k, _ in load_index(path).items()] == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    def test_header_without_lsn_reads_as_zero(self, tmp_path):
        """A v1 base written before the log existed carries no ``lsn`` key."""
        path = self._base(tmp_path, lsn=5)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from(">I", raw, 8)
        header = raw[12 : 12 + header_len].replace(b', "lsn": 5', b"")
        path.write_bytes(
            raw[:8] + struct.pack(">I", len(header)) + header
            + struct.pack(">I", zlib.crc32(header)) + raw[12 + header_len + 4 :]
        )
        assert IndexFileReader(path).lsn == 0
        assert load_index(path).n_entries == 10

    def test_missing_log_is_the_base(self, tmp_path):
        path = save_index(BPlusTree.bulk_load([(1.0, RID(0, 0))]), "f0", tmp_path / "x.idx")
        assert list(load_index(path).items()) == [(1.0, RID(0, 0))]

    def test_unchanged_index_writes_no_frame(self, tmp_path):
        """An in-place UPDATE of a non-key column is zero index ops."""
        _catalog, info = workload.make_table(tmp_path)
        before = obs.get_registry().counter("storage.index.wal_frames")
        info.update_rids([info.heap.rid_of(4)], [("f3", 9.0)])
        assert obs.get_registry().counter("storage.index.wal_frames") == before
        assert idxlog.log_path(info.indexes["ix"].path).stat().st_size == 0


# ----------------------------------------------------------------------
# The crash matrix
@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Pass 1: the stream against a durable table.  Records the files as
    they stood when frame ``k`` became durable, and crashes every
    checkpoint at each of its three boundaries on the way."""
    data_dir = tmp_path_factory.mktemp("wal")
    catalog, info = workload.make_table(data_dir, n_rows=N_ROWS)
    index = info.indexes["ix"]
    frames: list[tuple[bytes, bytes, int]] = []  # (base, log incl. frame k, len(frame k))
    checkpoints: list[int] = []
    mp = pytest.MonkeyPatch()

    real_append = idxlog.append_frame

    def recording_append(path, lsn, ops):
        n = real_append(path, lsn, ops)
        frames.append((Path(path).read_bytes(), idxlog.log_path(path).read_bytes(), n))
        return n

    real_checkpoint, real_reset = idxlog.checkpoint, idxlog._reset_log

    def crashing_checkpoint(tree, column, path, lsn):
        """Die at each boundary in turn, recover, then let it through.

        Frame ``lsn`` was fsynced before the checkpoint began, so every
        boundary must recover to exactly the current state."""

        def dies(*_a, **_k):
            raise _Crash

        def resets_then_dies(log):
            real_reset(log)
            raise _Crash

        boundaries = [
            # new base written to its tmp file, not yet renamed
            ("repro.ml.persistence.os.replace", dies),
            # new base renamed, the old log still present
            ("repro.storage.index.idxlog._reset_log", dies),
            # log emptied, nothing after it done
            ("repro.storage.index.idxlog._reset_log", resets_then_dies),
        ]
        for target, replacement in boundaries:
            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(target, replacement)
                with pytest.raises(_Crash):
                    real_checkpoint(tree, column, path, lsn)
            _assert_recovers(Path(path), info, catalog)
        checkpoints.append(lsn)
        return real_checkpoint(tree, column, path, lsn)

    mp.setattr(idxlog, "append_frame", recording_append)
    mp.setattr(idxlog, "checkpoint", crashing_checkpoint)
    try:
        workload.apply_ops(info, N_OPS)
    finally:
        mp.undo()
    info.verify_indexes()
    assert index.lsn == N_OPS == len(frames)  # every op of this stream moves a key
    return frames, checkpoints


class TestCrashMatrix:
    def test_checkpoints_were_crashed_at_every_boundary(self, recorded):
        _frames, checkpoints = recorded
        assert len(checkpoints) >= 3

    def test_every_truncation_and_corruption_recovers_a_prefix(self, recorded, tmp_path):
        """Pass 2: replay the stream on a memory-only twin.  While the twin
        stands at state ``k``, everything that must recover to ``k`` is
        tried: the complete log after op ``k``, the log cut at every byte
        inside frame ``k + 1``, and frame ``k + 1`` with one byte flipped."""
        frames, _checkpoints = recorded
        catalog, info = workload.make_table(None, n_rows=N_ROWS)
        path = tmp_path / "t.ix.idx"
        log = idxlog.log_path(path)
        rng = np.random.default_rng(11)
        cases = 0

        def recovers_to_current_state(completed: int) -> None:
            nonlocal cases
            train = catalog if completed % TRAIN_EVERY == 0 else None
            if completed:
                base, log_bytes, _n = frames[completed - 1]
                path.write_bytes(base)
                log.write_bytes(log_bytes)
                _assert_recovers(path, info, train)
                cases += 1
            if completed == len(frames):
                return
            base, log_bytes, n = frames[completed]  # op completed + 1 in flight
            path.write_bytes(base)
            start = len(log_bytes) - n
            flipped = bytearray(log_bytes)
            flipped[start + int(rng.integers(n))] ^= 0x5A
            log.write_bytes(bytes(flipped))
            _assert_recovers(path, info, train)
            log.write_bytes(log_bytes)
            for cut in range(len(log_bytes) - 1, start - 1, -1):
                os.truncate(log, cut)
                _assert_recovers(path, info)
            cases += 1 + n

        recovers_to_current_state(0)
        workload.apply_ops(info, N_OPS, progress=recovers_to_current_state)
        assert cases > N_OPS * 30
