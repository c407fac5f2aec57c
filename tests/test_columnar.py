"""Tests for the columnar page format: codec round-trips, lazy views, run
decodes of page runs, byte-budget buffer pooling, and SQL column
projection."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_binary_sparse, sparse
from repro.db import MiniDB, ParseError, SelectQuery, parse_query
from repro.storage import (
    BufferPool,
    ChecksumError,
    HeapFile,
    TupleBatch,
    TupleSchema,
    decode_block_columnar,
    encode_block_columnar,
)
from repro.storage import columnar
from repro.storage.codec import RowStream, encode_rows
from repro.storage.columnar import (
    COL_DENSE,
    COL_IDS,
    COL_INDICES,
    COL_INDPTR,
    COLUMN_NAMES,
    ENC_I64,
    ENC_PACKED,
    CheckedRun,
    LazyTupleBatch,
    read_columnar_header,
)

from .conftest import CopyCountingLib


def _random_batch(seed: int, n: int, d: int, sparse: bool) -> TupleBatch:
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * n + 10, size=n, replace=False)).astype(np.int64)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if not sparse:
        return TupleBatch(ids, labels, d, dense=rng.standard_normal((n, d)))
    nnz = rng.integers(0, min(d, 6), size=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(d, size=k, replace=False)) for k in nnz]
    ).astype(np.int64) if indptr[-1] else np.zeros(0, dtype=np.int64)
    values = rng.standard_normal(int(indptr[-1]))
    return TupleBatch(ids, labels, d, indptr=indptr, indices=indices, values=values)


def _assert_batches_equal(a: TupleBatch, b) -> None:
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.labels, b.labels)
    if a.is_sparse:
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
    else:
        np.testing.assert_array_equal(a.dense, b.dense)


class TestRoundTrip:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        d=st.integers(1, 64),
        sparse=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, seed, n, d, sparse):
        batch = _random_batch(seed, n, d, sparse)
        schema = TupleSchema(d, sparse=sparse)
        payload = encode_block_columnar(batch, schema)
        decoded = decode_block_columnar(payload, schema, verify_chunks=True)
        assert len(decoded) == n and decoded.is_sparse == sparse
        _assert_batches_equal(batch, decoded)

    def test_roundtrip_matches_scalar_rows(self):
        batch = _random_batch(3, 25, 30, sparse=True)
        decoded = decode_block_columnar(
            encode_block_columnar(batch), TupleSchema(30, sparse=True)
        )
        for i in range(len(decoded)):
            assert decoded.ids[i] == batch.ids[i] and decoded.labels[i] == batch.labels[i]
            got, row = decoded.row(i), batch.row(i)
            np.testing.assert_array_equal(got.indices, row.indices)
            np.testing.assert_array_equal(got.values, row.values)

    def test_monotone_ids_are_delta_packed(self):
        batch = _random_batch(0, 64, 8, sparse=False)
        refs = read_columnar_header(encode_block_columnar(batch))[3]
        ids_ref = next(r for r in refs if r.col == COL_IDS)
        assert ids_ref.enc == ENC_PACKED and ids_ref.delta == 1
        assert ids_ref.length < 64 * 8  # strictly smaller than raw int64

    @pytest.mark.parametrize("sparse, bound", [(False, 0.97), (True, 0.80)])
    def test_columnar_payload_is_smaller_than_the_row_payload(self, sparse, bound):
        """A block of 2048 sequential-id tuples (dense d=32; sparse d=4096 with
        10 nnz): delta-packed ids and one header per block instead of one per
        tuple make the columnar bytes ~0.96x / ~0.79x the row bytes."""
        n, rng = 2048, np.random.default_rng(0)
        ids = np.arange(n, dtype=np.int64)
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if sparse:
            d, nnz = 4096, 10
            indptr = np.arange(0, nnz * (n + 1), nnz, dtype=np.int64)
            indices = np.concatenate(
                [np.sort(rng.choice(d, size=nnz, replace=False)) for _ in range(n)]
            ).astype(np.int64)
            batch = TupleBatch(
                ids, labels, d, indptr=indptr, indices=indices,
                values=rng.standard_normal(n * nnz),
            )
        else:
            d = 32
            batch = TupleBatch(ids, labels, d, dense=rng.standard_normal((n, d)))
        row_bytes = len(encode_rows(batch))
        col_bytes = len(encode_block_columnar(batch, TupleSchema(d, sparse=sparse)))
        assert col_bytes < bound * row_bytes

    def test_bad_magic_rejected(self):
        payload = encode_block_columnar(_random_batch(1, 4, 3, False))
        with pytest.raises(ValueError):
            decode_block_columnar(b"XXXX" + payload[4:], TupleSchema(3))

    def test_corrupted_chunk_fails_crc(self):
        batch = _random_batch(2, 16, 12, sparse=False)
        payload = bytearray(encode_block_columnar(batch))
        refs = read_columnar_header(bytes(payload))[3]
        dense_ref = max(refs, key=lambda r: r.offset)
        payload[dense_ref.offset + 1] ^= 0xFF
        lazy = decode_block_columnar(bytes(payload), TupleSchema(12), verify_chunks=True)
        with pytest.raises(ChecksumError):
            lazy.dense  # noqa: B018 - materialisation triggers the CRC check

    def test_truncated_directory_raises_value_error(self):
        payload = encode_block_columnar(_random_batch(1, 4, 3, False))
        for cut in (16, 20, 35):
            with pytest.raises(ValueError, match="truncated"):
                read_columnar_header(payload[:cut])
            with pytest.raises(ValueError, match="truncated"):
                decode_block_columnar(payload[:cut])

    def test_chunk_past_the_payload_raises_value_error(self):
        payload = encode_block_columnar(_random_batch(2, 6, 3, True))
        last = max(read_columnar_header(payload)[3], key=lambda r: r.offset)
        cut = payload[: last.offset + last.length - 1]
        with pytest.raises(ValueError, match=f"{last.name}.*runs past"):
            read_columnar_header(cut)
        with pytest.raises(ValueError, match="runs past"):
            decode_block_columnar(cut, verify_chunks=True)

    def test_values_past_the_chunk_range_raise_value_error(self):
        # A directory whose n_values overruns the chunk's byte range must not
        # decode the neighbouring chunk's bytes.
        payload = bytearray(encode_block_columnar(_random_batch(3, 8, 4, False)))
        refs = read_columnar_header(bytes(payload))[3]
        i = next(k for k, r in enumerate(refs) if r.col == COL_IDS)
        n_values_at = 16 + 20 * i + 12
        payload[n_values_at : n_values_at + 4] = (refs[i].n_values + 1).to_bytes(4, "little")
        pages = [decode_block_columnar(bytes(payload)) for _ in range(2)]
        with pytest.raises(ValueError, match="'ids'.*overrun"):
            pages[0].ids  # noqa: B018
        with pytest.raises(ValueError, match="'ids'.*overrun"):
            TupleBatch.concat(pages)


class TestLazyViews:
    def test_columns_materialize_on_touch(self):
        batch = _random_batch(5, 20, 40, sparse=True)
        lazy = decode_block_columnar(encode_block_columnar(batch))
        assert lazy.materialized_columns == frozenset()
        assert lazy.decoded_nbytes == 0
        lazy.labels  # noqa: B018
        assert lazy.materialized_columns == frozenset({"labels"})
        assert lazy.decoded_nbytes == 20 * 8
        lazy.materialize()
        assert "values" in lazy.materialized_columns

    def test_raw_float_chunks_are_zero_copy_views(self):
        batch = _random_batch(6, 10, 4, sparse=False)
        lazy = decode_block_columnar(encode_block_columnar(batch))
        assert not lazy.labels.flags.owndata  # np.frombuffer view, no copy


# ----------------------------------------------------------------------
# Run decode: TupleBatch.concat over lazy pages
# ----------------------------------------------------------------------

_WIDE = 70_000  # sparse indices above 2**16 pack to width 4


@st.composite
def _page(draw, sparse: bool, d: int) -> TupleBatch:
    """One page's batch: empty pages, zero-nnz rows, every ids encoding."""
    n = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ids_kind = draw(st.sampled_from(["sorted", "shuffled", "negative", "wide"]))
    base = {"sorted": 0, "shuffled": 0, "negative": -50, "wide": 1 << 33}[ids_kind]
    ids = base + np.sort(rng.choice(400, size=n, replace=False)).astype(np.int64)
    if ids_kind == "shuffled":
        ids = rng.permutation(ids)
    labels = rng.standard_normal(n)
    if not sparse:
        return TupleBatch(ids, labels, d, dense=rng.standard_normal((n, d)))
    high = draw(st.sampled_from([d, min(d, 200)]))  # mixed packed widths
    nnz = rng.integers(0, min(high, 4) + 1, size=n) * (rng.random(n) < 0.8)  # zero-nnz rows too
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(high, size=k, replace=False)) for k in nnz] + [np.zeros(0, int)]
    ).astype(np.int64)
    return TupleBatch(
        ids, labels, d, indptr=indptr, indices=indices, values=rng.standard_normal(indices.size)
    )


@st.composite
def _run(draw):
    sparse = draw(st.booleans())
    d = draw(st.sampled_from([3, 40, _WIDE])) if sparse else draw(st.integers(1, 6))
    return [draw(_page(sparse, d)) for _ in range(draw(st.integers(1, 12)))]


def _lazy_pages(payloads, touched=(), verify=False):
    pages = [decode_block_columnar(p, verify_chunks=verify) for p in payloads]
    for i, name in touched:
        getattr(pages[i], name)  # a column some single-page consumer materialised
    return pages


class TestRunDecode:
    """A run of lazy pages decodes column by column in one pass, equal to
    materialising every page and concatenating."""

    @given(batches=_run(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_page_materialize_then_concat(self, batches, data):
        payloads = [encode_block_columnar(b) for b in batches]
        sparse = batches[0].is_sparse
        names = ("ids", "labels") + (("indptr", "indices", "values") if sparse else ("dense",))
        page_column = st.tuples(st.integers(0, len(batches) - 1), st.sampled_from(names))
        touched = data.draw(st.lists(page_column, max_size=4))
        pages = _lazy_pages(payloads, touched)
        got = TupleBatch.concat(pages)
        want = TupleBatch.concat([p.materialize() for p in _lazy_pages(payloads)])
        if len(pages) == 1:
            assert got is pages[0]  # a one-page run stays the lazy page
            got = got.materialize()
        for name in names:
            a, b = getattr(got, name), getattr(want, name)
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            if len(pages) > 1:
                assert a.flags.c_contiguous and a.flags.writeable, name
        if len(pages) > 1:  # the run's arrays belong to the block, not the pages
            assert [p.materialized_columns for p in pages] == [
                p.materialized_columns for p in _lazy_pages(payloads, touched)
            ]

    def test_mixed_encodings_in_one_run(self):
        """Raw int64 ids, packed widths 1/2/4/8 and delta/plain pages side by side."""
        batches = [
            _random_batch(0, 5, 3, False),
            TupleBatch(np.array([7, -3, 2]), np.zeros(3), 3, dense=np.ones((3, 3))),
            TupleBatch(np.array([9]), np.zeros(1), 3, dense=np.ones((1, 3))),
            TupleBatch(np.array([1 << 40, 5]), np.zeros(2), 3, dense=np.ones((2, 3))),
            TupleBatch(np.zeros(0, np.int64), np.zeros(0), 3, dense=np.ones((0, 3))),
            TupleBatch(np.array([300, 70_000]), np.zeros(2), 3, dense=np.ones((2, 3))),
        ]
        refs = [read_columnar_header(encode_block_columnar(b))[3][0] for b in batches]
        assert {(r.enc, r.width, r.delta) for r in refs} >= {(ENC_I64, 8, 0), (ENC_PACKED, 8, 0)}
        payloads = [encode_block_columnar(b) for b in batches]
        got = TupleBatch.concat(_lazy_pages(payloads))
        np.testing.assert_array_equal(got.ids, np.concatenate([b.ids for b in batches]))
        np.testing.assert_array_equal(got.dense, np.concatenate([b.dense for b in batches]))

    def test_eager_batches_in_a_lazy_run(self):
        batches = [_random_batch(s, 6, 30, True) for s in range(4)]
        pages = _lazy_pages([encode_block_columnar(b) for b in batches])
        run = [pages[0].slice(2, 6), pages[1], batches[2], pages[3]]
        got = TupleBatch.concat(run)
        want = TupleBatch.concat([p if isinstance(p, TupleBatch) else p.materialize() for p in run])
        _assert_batches_equal(want, got)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_kept_pages_decode_again_and_stack_materialised_columns(self, sparse):
        """Pages a pool keeps are run-decoded again on every use, and once
        every page holds a column its arrays are stacked instead."""
        batches = [_random_batch(s, 9, 30, sparse) for s in range(5)]
        pages = _lazy_pages([encode_block_columnar(b) for b in batches])
        want = TupleBatch.concat(batches)
        first, second = TupleBatch.concat(pages), TupleBatch.concat(pages)
        assert not any(p.materialized_columns for p in pages)
        for page in pages:
            page.materialize()
        third = TupleBatch.concat(pages)
        for got in (first, second, third):
            _assert_batches_equal(want, got)
            assert got.ids.flags.writeable
        assert not np.shares_memory(first.labels, second.labels)
        assert not np.shares_memory(third.labels, pages[0].labels)

    @given(batches=_run(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_flipped_chunk_byte_fails_its_crc(self, batches, data):
        payloads = [bytearray(encode_block_columnar(b)) for b in batches]
        chunks = [
            (i, ref)
            for i, p in enumerate(payloads)
            for ref in read_columnar_header(bytes(p))[3]
            if ref.length
        ]
        if not chunks:
            return
        i, ref = data.draw(st.sampled_from(chunks))
        payloads[i][ref.offset + data.draw(st.integers(0, ref.length - 1))] ^= 0x5A
        pages = _lazy_pages([bytes(p) for p in payloads], verify=True)
        with pytest.raises(ChecksumError, match=f"column chunk {COLUMN_NAMES[ref.col]!r}"):
            if len(pages) > 1:
                TupleBatch.concat(pages)
            else:
                pages[0].materialize()


# ----------------------------------------------------------------------
# The compiled run decode: the same arrays as the Python one, or a refusal
# ----------------------------------------------------------------------

requires_lib = pytest.mark.skipif(columnar._LIB is None, reason="compiled library not loaded")
_IMPLS = ("compiled", "python") if columnar._LIB is not None else ("python",)


def _concat_on(impl, pages):
    """``TupleBatch.concat(pages)`` with the run decode on ``impl``."""
    with pytest.MonkeyPatch.context() as patch:
        if impl == "python":
            patch.setattr(columnar, "_LIB", None)
        return TupleBatch.concat(pages)


def _compiled(pages):
    """The compiled decode of ``pages`` as a batch, or ``None`` where it refuses."""
    first = pages[0]
    arrays = columnar._compiled_run(columnar._LIB, pages, first.is_sparse, first.n_features)
    if arrays is None:
        return None
    ids, labels, *features = arrays
    names = ("indptr", "indices", "values") if first.is_sparse else ("dense",)
    return TupleBatch(ids, labels, first.n_features, **dict(zip(names, features)))


def _assert_run_equal(got, want) -> None:
    """Equal values, dtypes and shapes; the run's arrays writable and C-contiguous."""
    names = ("ids", "labels") + (("indptr", "indices", "values") if want.is_sparse else ("dense",))
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous and a.flags.writeable, name


def _sparse_page(ids, rows, d=5000) -> TupleBatch:
    """A sparse batch of ``ids`` whose row ``i`` stores column indices ``rows[i]``."""
    lengths = [len(row) for row in rows]
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    indices = np.array([c for row in rows for c in row], dtype=np.int64)
    return TupleBatch(
        np.array(ids, dtype=np.int64), np.cos(np.arange(len(ids), dtype=float)), d,
        indptr=indptr, indices=indices, values=np.sin(np.arange(indices.size, dtype=float)),
    )


def _one_kind_run(width: int, delta: bool) -> list[TupleBatch]:
    """Four sparse pages whose ids chunks all pack to ``width`` bytes, delta-coded
    (ascending ids) or not (descending), and whose indices all pack to 2 bytes."""
    base = {1: 0, 2: 300, 4: 70_000, 8: 1 << 40}[width]
    pages = []
    for p in range(4):
        ids = [base + 10 * p + k for k in range(3)]
        ids = ids if delta else ids[::-1]
        pages.append(_sparse_page(ids, [[4000 - p, 7], [], [12, 300 + p, 9]]))
    return pages


def _patched(payload: bytes, col: int, **fields) -> bytes:
    """``payload`` with column ``col``'s directory entry fields replaced."""
    refs = read_columnar_header(payload)[3]
    at = 16 + 20 * next(i for i, ref in enumerate(refs) if ref.col == col)
    entry = dict(zip(refs[0]._fields, struct.unpack_from("<BBBBIIII", payload, at)))
    entry.update(fields)
    out = bytearray(payload)
    struct.pack_into("<BBBBIIII", out, at, *entry.values())
    return bytes(out)


class TestCompiledRunDecode:
    """The run decode in the compiled library equals the Python one — the
    reference, per-page ``materialize()`` + concat — or refuses the run, which
    then decodes (and raises) through the Python path."""

    @given(batches=_run(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_both_paths_equal_per_page_materialize_then_concat(self, batches, data):
        payloads = [encode_block_columnar(b) for b in batches]
        sparse_run = batches[0].is_sparse
        names = ("ids", "labels") + (("indptr", "indices", "values") if sparse_run else ("dense",))
        page_column = st.tuples(st.integers(0, len(batches) - 1), st.sampled_from(names))
        touched = data.draw(st.lists(page_column, max_size=2))
        want = TupleBatch.concat([p.materialize() for p in _lazy_pages(payloads)])
        for impl in _IMPLS:
            pages = _lazy_pages(payloads, touched)
            caches = [dict(p._cache) for p in pages]
            got = _concat_on(impl, pages)
            assert [p._cache for p in pages] == caches
            if len(pages) == 1:
                assert got is pages[0]
                continue
            _assert_run_equal(got, want)
        if columnar._LIB is not None and len(batches) > 1:
            compiled = _compiled(_lazy_pages(payloads))
            if compiled is not None:
                _assert_run_equal(compiled, want)

    @requires_lib
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("delta", [False, True])
    def test_packed_widths(self, width, delta):
        batches = _one_kind_run(width, delta)
        payloads = [encode_block_columnar(b) for b in batches]
        refs = [read_columnar_header(p)[3][0] for p in payloads]
        assert {(ref.enc, ref.width, ref.delta) for ref in refs} == {(ENC_PACKED, width, int(delta))}
        want = TupleBatch.concat(batches)
        got = _compiled(_lazy_pages(payloads))
        assert got is not None
        _assert_run_equal(got, want)

    @requires_lib
    @pytest.mark.parametrize("delta", [False, True])
    def test_u8_wraps_to_int64(self, delta):
        """A stored 8-byte value past 2**63 wraps, as numpy's int64 does."""
        payloads = []
        for batch in _one_kind_run(8, delta):
            payload = bytearray(encode_block_columnar(batch))
            ref = read_columnar_header(bytes(payload))[3][0]
            payload[ref.offset + 8 + 7] |= 0x80  # the second stored id's top byte
            payloads.append(bytes(payload))
        want = TupleBatch.concat([p.materialize() for p in _lazy_pages(payloads)])
        assert want.ids.min() < 0
        for impl in _IMPLS:
            _assert_run_equal(_concat_on(impl, _lazy_pages(payloads)), want)
        _assert_run_equal(_compiled(_lazy_pages(payloads)), want)

    @requires_lib
    def test_delta_chunks_with_one_value_pages(self):
        """A one-value packed chunk (stored without the delta flag) decodes
        in one run with delta-coded ones."""
        batches = [
            _sparse_page([3, 5, 9], [[1, 2], [3], [4]]),
            _sparse_page([11], [[8, 40]]),
            _sparse_page([20, 21, 30, 31], [[5], [6], [7], [200]]),
            _sparse_page([40], [[250]]),
        ]
        payloads = [encode_block_columnar(b) for b in batches]
        flags = [read_columnar_header(p)[3][0].delta for p in payloads]
        assert flags == [1, 0, 1, 0]
        got = _compiled(_lazy_pages(payloads))
        assert got is not None
        _assert_run_equal(got, TupleBatch.concat(batches))

    @requires_lib
    def test_empty_pages_and_zero_nnz_rows(self):
        empty = _sparse_page([], [])
        runs = [
            [empty, empty, empty],
            [empty, _sparse_page([1, 2], [[], []]), empty, _sparse_page([7], [[3, 4]])],
            [_sparse_page([4, 6], [[], [9]]), _sparse_page([8, 9, 10], [[], [], []])],
        ]
        for batches in runs:
            payloads = [encode_block_columnar(b) for b in batches]
            got = _compiled(_lazy_pages(payloads))
            assert got is not None
            want = TupleBatch.concat([p.materialize() for p in _lazy_pages(payloads)])
            _assert_run_equal(got, want)
            for impl in _IMPLS:
                _assert_run_equal(_concat_on(impl, _lazy_pages(payloads)), want)

    @requires_lib
    def test_dense_runs(self):
        for d in (1, 3, 28):
            batches = [_random_batch(s, n, d, False) for s, n in enumerate((5, 0, 9, 1))]
            payloads = [encode_block_columnar(b) for b in batches]
            got = _compiled(_lazy_pages(payloads))
            assert got is not None and got.dense.shape == (15, d)
            _assert_run_equal(got, TupleBatch.concat(batches))

    @requires_lib
    def test_mixed_packed_widths_decode_page_by_page(self):
        """ids in 1 byte beside ids in 8, indices in 1 byte beside 2, raw int64
        ids and delta flags that differ: each page's chunk decodes by its own
        kind, as the Python path's page-by-page stack does."""
        batches = [
            _sparse_page([3, 1], [[1], [2]]),
            _sparse_page([900, 4], [[3], [4000]]),
            _sparse_page([5, 6, 7], [[5, 9], [], [250]]),
            _sparse_page([1 << 40, 5], [[1, 2, 3], []]),
            _sparse_page([-4, 2], [[8], [9]]),
        ]
        payloads = [encode_block_columnar(b) for b in batches]
        ids = {(r.enc, r.width, r.delta) for r in (read_columnar_header(p)[3][0] for p in payloads)}
        assert len(ids) == 5
        assert columnar._checked_chunks(_lazy_pages(payloads), COL_IDS)[0] is None  # mixed
        got = _compiled(_lazy_pages(payloads))
        assert got is not None
        _assert_run_equal(got, TupleBatch.concat(batches))
        _assert_run_equal(got, _concat_on("python", _lazy_pages(payloads)))

    @requires_lib
    def test_a_run_the_compiled_decode_refuses_falls_back(self, monkeypatch):
        """One page's indptr stored without delta coding: the compiled decode
        refuses the run, and the Python path decodes it as it always has."""
        batches = [_sparse_page([p, p + 1], [[1, 5], [2]]) for p in range(4)]
        payloads = [encode_block_columnar(b) for b in batches]
        payloads[1] = _patched(payloads[1], COL_INDPTR, delta=0)
        assert _compiled(_lazy_pages(payloads)) is None
        runs = []
        decode_run = columnar._decode_run
        monkeypatch.setattr(
            columnar, "_decode_run", lambda pages, name: runs.append(name) or decode_run(pages, name)
        )
        got = TupleBatch.concat(_lazy_pages(payloads))
        # (the mixed indptr column stacks its pages, each a one-page _decode_run)
        assert list(dict.fromkeys(runs)) == ["ids", "labels", "indptr", "indices", "values"]
        monkeypatch.undo()
        _assert_run_equal(got, TupleBatch.concat([p.materialize() for p in _lazy_pages(payloads)]))

    @pytest.mark.parametrize(
        "how, col, problem",
        [
            ("encoding", COL_INDICES, "unknown encoding 7 (width 2)"),
            ("overrun", COL_INDICES, "values overrun its"),
            ("shape", COL_DENSE, "values for 3 x 4"),
        ],
    )
    def test_a_bad_page_raises_the_reference_error(self, how, col, problem):
        """One bad page inside a 4-page run: both paths raise the Python
        path's ValueError, word for word."""
        if col == COL_DENSE:
            batches = [_random_batch(s, 3, 4, False) for s in range(4)]
        else:
            batches = [_sparse_page([p, p + 1, p + 2], [[300, 2], [], [4000]]) for p in range(4)]
        payloads = [encode_block_columnar(b) for b in batches]
        ref = next(r for r in read_columnar_header(payloads[2])[3] if r.col == col)
        fields = {
            "encoding": {"enc": 7},
            "overrun": {"n_values": ref.length // 2 + 1},
            "shape": {"n_values": ref.n_values - 1},
        }[how]
        payloads[2] = _patched(payloads[2], col, **fields)
        errors = []
        for impl in ("python",) + _IMPLS:
            with pytest.raises(ValueError) as got:
                _concat_on(impl, _lazy_pages(payloads))
            errors.append(str(got.value))
        assert problem in errors[0]
        assert errors == [errors[0]] * len(errors)

    def test_a_cold_train_runs_no_python_chunk_walk_or_gather(self, monkeypatch):
        """A cold 2-epoch sparse columnar TRAIN with a 4-page pool: with the
        library loaded, no chunk is checked and no row gathered in Python, and
        the weights equal the same TRAIN with every compiled loop off."""
        data = make_binary_sparse(600, 300, nnz_per_row=8, separation=1.0, seed=11)
        sql = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 4KB, seed = 1"

        def train():
            db = MiniDB(page_bytes=1024, pool_pages=4)
            db.create_table("t", data, layout="columnar")
            heap = db.catalog.get("t").heap
            assert heap.n_pages > 8 and heap.n_pages % 4 != 1  # no one-page block
            return db.execute(sql).model.parameter_vector()

        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for module, name in ((columnar, "_checked_chunks"), (sparse, "segment_positions")):
                fn = getattr(module, name)
                patch.setattr(module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
            weights = train()
        if columnar._LIB is not None and sparse._LIB is not None:
            assert calls == []
        for module in (columnar, sparse):
            monkeypatch.setattr(module, "_LIB", None)
        np.testing.assert_array_equal(weights, train())


class TestMissedPageBytes:
    """A columnar page read on a pool miss is its verified payload with its
    header checked in one compiled call: a block of such pages goes to the
    compiled run decode as their bytes, and only a single-page reader parses
    a directory.  The oracle is the same table with the library off, whose
    every miss parses the page in Python."""

    SQL = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 4KB, seed = 1"

    @staticmethod
    def _db():
        db = MiniDB(page_bytes=1024, pool_pages=4)
        data = make_binary_sparse(600, 300, nnz_per_row=8, separation=1.0, seed=11)
        db.create_table("t", data, layout="columnar")
        return db

    @requires_lib
    def test_a_cold_train_parses_no_directory_in_python(self, monkeypatch):
        db = self._db()
        table = db.catalog.get("t")
        assert table.heap.n_pages > 2 * table.pool.capacity_pages  # the table outgrows its pool
        parses = []
        read_directory = columnar._read_directory
        monkeypatch.setattr(
            columnar, "_read_directory", lambda *a: parses.append(a) or read_directory(*a)
        )
        db.execute(self.SQL)
        assert table.pool.misses >= 2 * table.heap.n_pages
        assert parses == []

    def _single_page_reads(self):
        """A TRAIN, then what every single-page reader answers on its table."""
        db = self._db()
        result = db.execute(self.SQL)
        table = db.catalog.get("t")
        heap = table.heap
        pages = [table.pool.get_batch(p).materialize() for p in range(heap.n_pages)]
        rids = [heap.rid_of(position) for position in (0, 7, 299, heap.n_tuples - 1)]
        tuples = [heap.read_rid(rid) for rid in rids]
        return {
            "select": db.execute("SELECT * FROM t LIMIT 30"),
            "projection": db.execute("SELECT label, f3 FROM t LIMIT 30"),
            "pages": pages,
            "rid_ids": [t.tuple_id for t in tuples],
            "rid_labels": [t.label for t in tuples],
            "rid_features": [(t.features.indices, t.features.values) for t in tuples],
            "predict": db.execute(f"SELECT * FROM t PREDICT BY {result.model_id}"),
            "weights": result.model.parameter_vector(),
            "decode_count": heap.decode_count,
        }

    def test_single_page_readers_and_decode_count_equal_the_parsing_miss(self, monkeypatch):
        got = self._single_page_reads()
        monkeypatch.setattr(columnar, "_LIB", None)
        want = self._single_page_reads()
        assert got["select"] == want["select"] and got["projection"] == want["projection"]
        for a, b in zip(got["pages"], want["pages"]):
            for name in ("ids", "labels", "indptr", "indices", "values"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        assert got["rid_ids"] == want["rid_ids"] and got["rid_labels"] == want["rid_labels"]
        for (indices, values), (want_indices, want_values) in zip(
            got["rid_features"], want["rid_features"]
        ):
            np.testing.assert_array_equal(indices, want_indices)
            np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(got["predict"], want["predict"])
        np.testing.assert_array_equal(got["weights"], want["weights"])
        assert got["decode_count"] == want["decode_count"] > 0

    @pytest.mark.parametrize("lib", ["loaded", "unloaded"])
    @pytest.mark.parametrize(
        "fields, problem",
        [({"enc": 7}, "unknown encoding 7"), ({"n_values": 10_000}, "values overrun its")],
    )
    def test_a_block_the_run_decode_refuses_raises_the_reference_error(
        self, lib, fields, problem, monkeypatch
    ):
        """A page whose header passes but whose indices chunk the run decode
        refuses: the block read raises what a single-page read of it raises,
        with the library loaded (the compiled run refuses, the Python run
        raises) or unloaded (the miss parses, the Python run raises)."""
        heap = HeapFile.from_dataset(
            make_binary_sparse(200, 300, nnz_per_row=8, seed=3), page_bytes=1024, layout="columnar"
        )
        bad = 2
        broken = _patched(heap.pages[bad].tuple_payloads()[0], COL_INDICES, **fields)
        read = heap._read_page_payloads  # the fault seam

        def seam(page_id: int, attempt: int = 1) -> list[bytes]:
            return [broken] if page_id == bad else read(page_id, attempt)

        heap._read_page_payloads = seam
        with pytest.raises(ValueError) as want:
            heap.read_page_batch(bad).materialize()
        if lib == "unloaded":
            monkeypatch.setattr(columnar, "_LIB", None)
        with pytest.raises(ValueError) as got:
            BufferPool(heap, capacity_pages=8).get_run(range(0, 4))
        assert problem in str(want.value)
        assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------
# Cold blocks are checked runs: a fill of them is one compiled copy from the
# pages' bytes.  The oracle is per-page materialize() + TupleBatch.concat.
# ----------------------------------------------------------------------


@st.composite
def _blocks(draw):
    """1-6 blocks of 1-4 pages each, one sparsity and width: empty pages
    (what DELETE leaves of a page; columnar heaps refuse DML, so it is
    encoded directly), zero-nnz rows, mixed packed widths."""
    sparse = draw(st.booleans())
    d = draw(st.sampled_from([3, 40, _WIDE])) if sparse else draw(st.integers(1, 6))
    n_blocks = draw(st.integers(1, 6))
    return [[draw(_page(sparse, d)) for _ in range(draw(st.integers(1, 4)))] for _ in range(n_blocks)]


def _checked_blocks(blocks):
    """Each block's pages read as a pool miss reads them, checked as one run."""
    schema = TupleSchema(blocks[0][0].n_features, sparse=blocks[0][0].is_sparse)
    runs = []
    for block in blocks:
        pages = [
            LazyTupleBatch.of_checked_block(encode_block_columnar(b), schema) for b in block
        ]
        run = columnar.checked_run(pages)
        assert type(run) is CheckedRun and len(run) == sum(map(len, block))
        runs.append(run)
    return runs


def _per_page(blocks) -> TupleBatch:
    return TupleBatch.concat(
        [decode_block_columnar(encode_block_columnar(b)).materialize() for block in blocks for b in block]
    )


def _fill(runs, lo: int, hi: int):
    """Rows ``[lo, hi)`` of the runs end to end, cut as a TupleShuffle fill is."""
    source = iter(runs)
    stream = RowStream(lambda: next(source, None))
    stream.skip(lo)
    return stream.take(hi - lo)


@requires_lib
class TestCheckedRunFills:
    @given(blocks=_blocks(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_fill_of_cold_blocks_equals_per_page_materialize(self, blocks, data):
        want = _per_page(blocks)
        lo = data.draw(st.integers(0, max(0, len(want) - 1)))
        hi = data.draw(st.integers(min(lo + 1, len(want)), len(want)))
        if hi == lo:
            return
        with pytest.MonkeyPatch.context() as patch:
            lib = CopyCountingLib(columnar._LIB)
            patch.setattr(columnar, "_LIB", lib)
            fill = _fill(_checked_blocks(blocks), lo, hi)
            _assert_run_equal(fill.rows if type(fill) is CheckedRun else fill, want.slice(lo, hi))
        assert lib.copies == 1  # one pass, whatever the fill's blocks

    @given(blocks=_blocks(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_run_touched_column_by_column_equals_the_eager_decode(self, blocks, data):
        (run,) = _checked_blocks(blocks[:1])
        want = _per_page(blocks[:1])
        names = ("ids", "labels") + (("indptr", "indices", "values") if want.is_sparse else ("dense",))
        lo = data.draw(st.integers(0, len(want)))
        hi = data.draw(st.integers(lo, len(want)))
        cut = data.draw(st.integers(0, lo))  # a slice of a slice
        part, want_part = run.slice(cut, len(want)).slice(lo - cut, hi - cut), want.slice(lo, hi)
        for name in data.draw(st.permutations(names)):
            np.testing.assert_array_equal(getattr(part, name), getattr(want_part, name))
            np.testing.assert_array_equal(getattr(run, name), getattr(want, name))
        assert run.dense is None if want.is_sparse else run.indptr is None
        rows = np.arange(len(want))[::-1]
        _assert_batches_equal(run.take(rows), want.take(rows))
        if len(want):
            np.testing.assert_array_equal(
                np.asarray(run.features_matrix().dot(np.ones(want.n_features))),
                np.asarray(want.features_matrix().dot(np.ones(want.n_features))),
            )

    @pytest.mark.parametrize("kept_at", [0, 1, 2])
    def test_a_fill_mixing_a_kept_warm_run_with_cold_blocks(self, kept_at):
        heap = HeapFile.from_dataset(
            make_binary_sparse(300, 3000, nnz_per_row=12, seed=4), page_bytes=1024, layout="columnar"
        )
        pool = BufferPool(heap, capacity_pages=heap.n_pages)
        blocks = [range(4 * b, 4 * b + 4) for b in range(3)]
        pool.get_run(blocks[kept_at])
        runs = []
        for b, block in enumerate(blocks):
            run, hits = pool.get_run(block)
            assert (type(run) is TupleBatch) == (b == kept_at) == all(hits)
            runs.append(run)
        want = TupleBatch.concat([heap.read_page_batch(p).materialize() for p in range(12)])
        n = len(want)
        for lo, hi in ((0, n), (5, n - 3), (len(runs[0]) + 1, n - 1), (2, len(runs[0]) + 2)):
            _assert_batches_equal(want.slice(lo, hi), _fill(runs, lo, hi))

    def test_without_the_library_a_cold_block_decodes_as_the_parent_did(self, monkeypatch):
        heap = HeapFile.from_dataset(
            make_binary_sparse(200, 300, nnz_per_row=8, seed=3), page_bytes=1024, layout="columnar"
        )
        monkeypatch.setattr(columnar, "_LIB", None)
        run, hits = BufferPool(heap, capacity_pages=8).get_run(range(0, 4))
        assert type(run) is TupleBatch and hits == [False] * 4
        _assert_batches_equal(
            run, TupleBatch.concat([heap.read_page_batch(p).materialize() for p in range(4)])
        )


class TestBufferPoolDecodedBytes:
    def test_lazy_entries_charge_only_touched_columns(self):
        ds = make_binary_sparse(120, 2000, nnz_per_row=10, separation=1.0, seed=6)
        heap = HeapFile.from_dataset(ds, page_bytes=2048, layout="columnar")
        pool = BufferPool(heap, capacity_pages=64)
        batch = pool.get_batch(0)
        assert batch.decoded_nbytes == 0
        batch.labels  # noqa: B018
        assert batch.decoded_nbytes == batch.labels.nbytes
        assert pool.get_batch(0) is batch  # the cached entry is what grew


class TestSelectProjection:
    def test_parse_column_list(self):
        query = parse_query("SELECT label, id FROM t LIMIT 5")
        assert query == SelectQuery(table="t", limit=5, columns=("label", "rid"))

    def test_parse_feature_column(self):
        assert parse_query("SELECT f3 FROM t").columns == ("f3",)

    def test_parse_star_keeps_default(self):
        assert parse_query("SELECT * FROM t LIMIT 2").columns is None

    def test_unknown_column_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT bogus FROM t")

    def test_projection_prunes_columnar_table(self, sparse_binary):
        db = MiniDB(page_bytes=2048)
        db.create_table("t", sparse_binary, layout="columnar")
        response = db.execute("SELECT label, rid FROM t LIMIT 4")
        assert response["columns"] == ["label", "rid"]
        assert all(set(r) == {"label", "rid"} for r in response["rows"])
        # The lazy batch in the pool never decoded the feature chunks.
        batch = db.catalog.get("t").pool.get_batch(0)
        assert "values" not in batch.materialized_columns

    def test_feature_column_values(self, dense_binary):
        db = MiniDB(page_bytes=4096)
        db.create_table("t", dense_binary, layout="columnar")
        rows = db.execute("SELECT f3 FROM t LIMIT 2")["rows"]
        assert rows[0]["f3"] == pytest.approx(float(dense_binary.X[0, 3]))
        with pytest.raises(Exception):
            db.execute("SELECT f99 FROM t LIMIT 1")


class TestColumnarHeap:
    def test_scan_matches_row_layout(self, sparse_binary):
        row = HeapFile.from_dataset(sparse_binary, page_bytes=2048)
        col = HeapFile.from_dataset(sparse_binary, page_bytes=2048, layout="columnar")
        def scan(heap):
            batches = [heap.read_page_batch(p) for p in range(heap.n_pages)]
            return [(int(i), float(y)) for b in batches for i, y in zip(b.ids, b.labels)]

        assert scan(col) == scan(row)

    def test_compress_plus_columnar_rejected(self):
        with pytest.raises(ValueError):
            HeapFile(TupleSchema(4), compress=True, layout="columnar")
