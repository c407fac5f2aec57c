"""A *really* threaded double-buffered TupleShuffle operator.

The analytic engine models double buffering's wall-clock; this operator
implements the mechanism itself, exactly as Section 6.3 describes: a write
thread pulls the child operator's batches into one buffer and shuffles it,
while the read side hands the other buffer to SGD; the buffers swap when
one is full and the other consumed.

It is a drop-in replacement for
:class:`~repro.db.operators.TupleShuffleOperator` (same Volcano interface,
same per-epoch tuple order given the same seed — verified by test), so the
engine's statistical behaviour is identical; what changes is that filling
genuinely overlaps consumption on a second OS thread.

The writer thread rides on :class:`~repro.core.lifecycle.ManagedProducer`:
``rescan()`` and ``close()`` cancel, drain, and join it deterministically
(asserting it died — a zombie raises rather than leaking), the error-path
terminal put is cancellable, and ``open()`` after ``close()`` restarts from
epoch 0 so a reopened operator replays the first epoch's order instead of
silently resuming mid-sequence.  Fill/drain counts and stall/wait times are
recorded in a :class:`~repro.obs.LoaderMetrics` so benchmarks can
report the *measured* loading/compute overlap next to the analytic
:func:`~repro.core.buffer.pipelined_time` model.
"""

from __future__ import annotations

from ..core.lifecycle import END, Failure, ManagedProducer, ProducerChannel
from ..core.seeding import TUPLE_SHUFFLE_STREAM, stream_rng
from ..obs import LoaderMetrics
from ..storage.codec import RowStream, TupleBatch
from .operators import PhysicalOperator, shuffled_fill

__all__ = ["ThreadedTupleShuffleOperator"]


class ThreadedTupleShuffleOperator(PhysicalOperator):
    """Double-buffered tuple shuffle with a real, managed producer thread.

    The producer runs the same :func:`~repro.db.operators.shuffled_fill` as
    the synchronous operator and hands each shuffled batch over a depth-1
    queue — so at any moment one buffer is being consumed while the next is
    being produced, the two-buffer scheme of Section 6.3.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        buffer_tuples: int,
        seed: int = 0,
        stats: LoaderMetrics | None = None,
    ):
        if buffer_tuples <= 0:
            raise ValueError("buffer_tuples must be positive")
        self.child = child
        self.buffer_tuples = int(buffer_tuples)
        self.seed = int(seed)
        self.stats = stats if stats is not None else LoaderMetrics("tuple-shuffle")
        self._producer: ManagedProducer | None = None
        self._finished = False

    # ------------------------------------------------------------------
    def _produce(self, channel: ProducerChannel, epoch: int) -> None:
        rng = stream_rng(self.seed, epoch, TUPLE_SHUFFLE_STREAM)
        stream = RowStream(self.child.next_batch)
        while not channel.cancelled:
            fill = shuffled_fill(
                stream, self.buffer_tuples, rng, loader=self.stats.name, epoch=epoch
            )
            if fill is None:
                return
            self.stats.record_buffer_filled(len(fill))
            if not channel.put(fill) or len(fill) < self.buffer_tuples:
                return  # cancelled, or the child ran dry mid-fill

    def _start_producer(self) -> None:
        self._finished = False
        epoch = self._epoch

        self._producer = ManagedProducer(
            lambda channel: self._produce(channel, epoch),
            depth=1,  # one buffer in flight + one consumed
            name="tuple-shuffle-writer",
            stats=self.stats,
        ).start()

    def _stop_producer(self) -> None:
        """Cancel + join the writer; ``ManagedProducer.stop`` asserts death."""
        if self._producer is not None:
            self._producer.stop()
        self._producer = None

    # ------------------------------------------------------------------
    def open(self) -> None:
        self.child.open()
        # A reopened operator replays the first epoch, never a later one.
        self._epoch = 0
        self._start_producer()

    def next_batch(self) -> TupleBatch | None:
        """Take the next shuffled batch off the queue."""
        if self._finished:
            return None
        batch = self._producer.get()
        if batch is END or isinstance(batch, Failure):
            self._finished = True
            self._stop_producer()
            if isinstance(batch, Failure):
                raise batch.error
            return None
        self.stats.record_buffer_drained(len(batch))
        return batch

    def rescan(self) -> None:
        self._stop_producer()
        self._epoch += 1
        self.child.rescan()
        self._start_producer()

    def close(self) -> None:
        self._stop_producer()
        self.child.close()
