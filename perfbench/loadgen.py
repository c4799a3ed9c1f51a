"""An open-loop load generator over newline-delimited JSON connections.

Requests go out on a fixed schedule whatever the server is doing, each on its
own connection in turn; replies on one connection come back in request order
(the server answers one line at a time per connection), so a FIFO of
outstanding requests per connection pairs every reply with its request.  Each
request is timed from the moment it was *due*, which charges a stall to every
request that queued behind it, and the generator records how late it sent.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


# The sender may run the ``idle`` callback when the next request is due no
# sooner than this; it must take well under it.
IDLE_GAP_SECONDS = 0.004


@dataclass
class Outcome:
    """One request's schedule and reply (``time.perf_counter`` seconds)."""

    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Optional[Dict[str, object]] = None


@dataclass
class OpenLoopReport:
    outcomes: List[Outcome] = field(default_factory=list)
    duration: float = 0.0
    max_outstanding: int = 0

    def lags(self) -> List[float]:
        return [outcome.sent - outcome.due for outcome in self.outcomes]


async def rpc(connection: Connection, payload: Dict[str, object]) -> Dict[str, object]:
    """One closed-loop request/reply."""
    reader, writer = connection
    writer.write(json.dumps(payload).encode("utf-8") + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("the server closed the connection")
    return json.loads(line)


async def open_loop(
    connections: Sequence[Connection],
    offsets: Sequence[float],
    payloads: Sequence[Dict[str, object]],
    *,
    idle: Optional[Callable[[], None]] = None,
) -> OpenLoopReport:
    """Send ``payloads[i]`` at ``start + offsets[i]``, round-robin over connections.

    ``idle`` runs in gaps of the schedule (the speed gauge's ticks).
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    report = OpenLoopReport(outcomes=[Outcome(due=0.0) for _ in payloads])
    pending: List[Deque[int]] = [deque() for _ in connections]
    expected = [0] * len(connections)
    for index in range(len(payloads)):
        expected[index % len(connections)] += 1
    outstanding = 0

    async def receive(slot: int) -> None:
        nonlocal outstanding
        reader = connections[slot][0]
        for _ in range(expected[slot]):
            line = await reader.readline()
            if not line:
                raise ConnectionError("the server closed the connection")
            received = clock()
            # The sender queues the index before writing, so a reply always
            # finds its request here.
            outcome = report.outcomes[pending[slot].popleft()]
            outcome.received = received
            outcome.response = json.loads(line)
            outstanding -= 1

    receivers = [loop.create_task(receive(slot)) for slot in range(len(connections))]
    start = clock() + 0.01
    try:
        for index, payload in enumerate(payloads):
            due = start + offsets[index]
            if idle is not None and due - clock() > IDLE_GAP_SECONDS:
                idle()
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            slot = index % len(connections)
            writer = connections[slot][1]
            outcome = report.outcomes[index]
            outcome.due = due
            pending[slot].append(index)
            outstanding += 1
            report.max_outstanding = max(report.max_outstanding, outstanding)
            outcome.sent = clock()
            writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await asyncio.gather(*receivers)
    finally:
        for task in receivers:
            task.cancel()
        await asyncio.gather(*receivers, return_exceptions=True)
    report.duration = clock() - start
    return report
