"""Dynamic micro-batching: coalesce queued requests without changing answers.

The whole reason serving can batch at all is the eval pipeline's
invariant: ``batch_invariant_matmul`` gives every image its own
fixed-shape GEMM (stacked ``@``, with an einsum fallback guarded by a
startup self-check) and fault masks are seeded per image, so a prediction
does not depend on which other images share its forward pass and the
batcher is free to group whatever happens to be waiting.  Batching is then purely a
throughput/latency trade:

* flush at ``max_batch`` — bounds per-request queueing behind a big batch,
* flush at ``max_wait_ms`` after the first request — bounds the latency a
  lone request pays waiting for company,

whichever comes first.  Under load the queue is never empty, batches fill
to ``max_batch`` instantly and the wait timer never fires; at low traffic
every request ships after at most ``max_wait_ms`` alone or with whatever
arrived in the window.  ``max_wait_ms=0`` degenerates to "drain whatever is
already queued", which is the lowest-latency configuration.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional

__all__ = ["DynamicBatcher", "SHUTDOWN"]

#: Sentinel enqueued by the service to unblock and stop the batcher.
SHUTDOWN = object()


class DynamicBatcher:
    """Pull micro-batches off an :class:`asyncio.Queue`.

    Parameters
    ----------
    queue:
        The service's bounded request queue; items are opaque to the
        batcher except for the :data:`SHUTDOWN` sentinel.
    max_batch:
        Flush threshold: a batch never exceeds this many requests.
    max_wait_ms:
        Flush deadline: measured from when the batch's *first* request is
        picked up, so it is exactly the extra latency batching can add.
    """

    def __init__(self, queue: "asyncio.Queue", max_batch: int, max_wait_ms: float) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self._queue = queue
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once the shutdown sentinel has been consumed."""
        return self._closed

    async def next_batch(self) -> Optional[List[Any]]:
        """The next micro-batch, or ``None`` after shutdown.

        Blocks until at least one request is available, then takes what is
        already queued and waits (only while the queue is empty) for more,
        until ``max_batch`` or ``max_wait_ms``.  A shutdown sentinel seen
        mid-collection flushes the partial batch first; the following call
        returns ``None``.
        """
        if self._closed:
            return None
        first = await self._queue.get()
        if first is SHUTDOWN:
            self._closed = True
            return None
        batch = [first]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_wait_ms / 1000.0
        while len(batch) < self.max_batch:
            try:
                # Ready requests cost no task, waiter or timer each.
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item is SHUTDOWN:
                self._closed = True
                break
            batch.append(item)
        return batch
