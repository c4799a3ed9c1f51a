"""Layer spans for the traced benchmark run.

:class:`SpanRecorder` wraps public entry points of the ``repro`` packages from
outside the program: each call becomes a span with a name, start, end and the
id of the span that was open when it began.  Spans stay in memory, are
summarised into per-layer self times when the run ends, can be written out as
JSON lines, and :meth:`SpanRecorder.uninstall` puts every original back.

Names a module imported by value (``assemble_best_chain`` in
``repro.service.server``, the kernels in ``repro.disconnection.local_query``,
``precompute_complementary_information`` in the catalog and maintenance
modules) are wrapped in the module that looks them up; wrapping the defining
module alone would never see those calls.

The wrappers are synchronous and every wrapped call returns before the event
loop runs anything else, so one stack of open spans is enough even when the
network server and its clients share an asyncio loop.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# One span: [name, parent index (-1 for a root), start, end, info].
Span = List[object]


class SpanRecorder:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        self.paused = False

    # ------------------------------------------------------------- recording

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a benchmark-level span (a read, a write, a set-up)."""
        record: Span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Let wrapped calls through unrecorded (oracle and baseline work)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrapper(
        self,
        func: Callable,
        name: str,
        observe: Optional[Callable],
        before: Optional[Callable],
    ) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.paused:
                return func(*args, **kwargs)
            record: Span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            if before is not None:
                record[4] = before(args)
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if observe is not None:
                record[4] = observe(args, result)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    # -------------------------------------------------------------- patching

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        observe: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod)."""
        owned = attr in getattr(owner, "__dict__", {})
        if owned:
            raw = owner.__dict__[attr]
        else:
            raw = next(
                klass.__dict__[attr]
                for klass in getattr(owner, "__mro__", ())
                if attr in klass.__dict__
            )
        if isinstance(raw, classmethod):
            patched: object = classmethod(self._wrapper(raw.__func__, name, observe, before))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrapper(raw.__func__, name, observe, before))
        else:
            patched = self._wrapper(raw, name, observe, before)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw, owned))

    def uninstall(self) -> None:
        """Restore every wrapped original (newest first)."""
        while self._patches:
            owner, attr, raw, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------- summaries

    def self_times(self) -> Tuple[List[float], List[int]]:
        """Return each span's self time and the index of its root span.

        A span's self time is its duration minus the durations of its direct
        children; children always start after their parent, so one forward
        pass over the append order finds every root.
        """
        count = len(self.spans)
        child_total = [0.0] * count
        roots = [0] * count
        for index, (_, parent, start, end, _) in enumerate(self.spans):
            if parent >= 0:
                child_total[parent] += end - start
                roots[index] = roots[parent]
            else:
                roots[index] = index
        selfs = [
            (span[3] - span[2]) - child_total[index] for index, span in enumerate(self.spans)
        ]
        return selfs, roots

    def write(self, path) -> None:
        """Write every span as one JSON line (the root index is the request id)."""
        _, roots = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end, info) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "root": roots[index],
                            "name": name,
                            "start": start,
                            "end": end,
                            "info": info,
                        },
                        default=str,
                    )
                    + "\n"
                )


def _kernel_backend(args: Sequence[object], result: object) -> object:
    return result[1]  # reachability_rows returns (rows, chosen_backend)


def _settled(args: Sequence[object], result: object) -> object:
    return result.statistics.tuples_produced


def _pool_reply(args: Sequence[object], result: Dict) -> object:
    """Tasks, worker-reported kernel seconds, settled nodes and backends."""
    backends: Dict[str, int] = {}
    for answer in result.values():
        if answer.backend:
            backends[answer.backend] = backends.get(answer.backend, 0) + 1
    return {
        "tasks": len(result),
        "kernel_s": sum(answer.statistics.elapsed_seconds for answer in result.values()),
        "settled": sum(answer.statistics.tuples_produced for answer in result.values()),
        "backends": backends,
    }


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.disconnection import (
        FragmentedDatabase,
        FragmentSite,
        LocalQueryEvaluator,
        QueryPlanner,
    )
    from repro.disconnection import catalog as catalog_module
    from repro.disconnection import local_query as local_query_module
    from repro.disconnection import maintenance as maintenance_module
    from repro.fragmentation import CenterBasedFragmenter
    from repro.graph.compact import CompactGraph
    from repro.service import (
        BatchPlanner,
        LRUCache,
        PlacedWorkerPool,
        QueryService,
        ServiceStatistics,
    )
    from repro.service import server as service_server_module

    wrap = recorder.wrap
    wrap(CenterBasedFragmenter, "fragment", "fragmentation.fragment")
    wrap(maintenance_module, "precompute_complementary_information", "disconnection.precompute")
    wrap(catalog_module, "precompute_complementary_information", "disconnection.precompute")
    wrap(CompactGraph, "from_digraph", "graph.compile")
    wrap(
        CompactGraph,
        "compact_now",
        "graph.compact_now",
        before=lambda args: bool(args[0].has_overlay()),
    )
    wrap(QueryService, "query", "service.query")
    wrap(QueryService, "query_batch", "service.query")
    wrap(QueryService, "update_edge", "service.update")
    wrap(LRUCache, "get", "service.cache")
    wrap(LRUCache, "put", "service.cache")
    wrap(ServiceStatistics, "record_query", "service.stats")
    wrap(ServiceStatistics, "record_dispatch", "service.stats")
    wrap(BatchPlanner, "plan_batch", "service.batch_plan")
    wrap(PlacedWorkerPool, "evaluate", "service.pool_evaluate", observe=_pool_reply)
    wrap(QueryPlanner, "plan", "disconnection.plan")
    wrap(service_server_module, "assemble_best_chain", "disconnection.assemble")
    wrap(LocalQueryEvaluator, "evaluate", "disconnection.evaluate", observe=_settled)
    wrap(FragmentSite, "local_iterations", "disconnection.site_prep")
    wrap(FragmentSite, "compact", "disconnection.site_prep")
    wrap(FragmentedDatabase, "insert_edge", "disconnection.apply_write")
    wrap(FragmentedDatabase, "delete_edge", "disconnection.apply_write")
    wrap(FragmentedDatabase, "update_edge_weight", "disconnection.apply_write")
    wrap(local_query_module, "array_dijkstra", "closure.kernel")
    wrap(local_query_module, "reachability_rows", "closure.kernel", observe=_kernel_backend)
