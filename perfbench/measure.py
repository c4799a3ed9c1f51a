"""Metric catalog, percentiles, memory and environment probes."""

from __future__ import annotations

import importlib.util
import math
import os
import platform
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

# name -> unit.  BENCHMARK.json lists the same names; the self-test checks
# that the two agree and that every run prints each of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "read_qps": "1/s",
    "write_p50_ms": "ms",
    "read_after_write_p50_ms": "ms",
    "whole_graph_ratio": "ratio",
    "rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "fragmentation.fragment_s": "s",
    "fragmentation.border_nodes": "count",
    "disconnection.precompute_s": "s",
    "disconnection.complementary_facts": "count",
    "disconnection.plan_us": "us",
    "disconnection.evaluate_self_us": "us",
    "disconnection.assemble_us": "us",
    "disconnection.tasks_per_read": "count",
    "disconnection.site_prep_ms": "ms",
    "disconnection.site_prep_share": "ratio",
    "disconnection.site_prep_per_read_ms": "ms",
    "disconnection.apply_write_ms": "ms",
    "disconnection.engine_rebuilds": "count",
    "closure.kernel_us": "us",
    "closure.settled_per_read": "count",
    "closure.backend_share.bigint": "ratio",
    "closure.backend_share.numpy": "ratio",
    "closure.backend_share.chain": "ratio",
    "closure.whole_graph_us": "us",
    "graph.compile_s": "s",
    "graph.overlay_compactions": "count",
    "incremental.rows_recomputed_per_write": "count",
    "incremental.pairs_repaired_per_write": "count",
    "service.cache_hit_ratio": "ratio",
    "service.cache_evictions_per_write": "count",
    "service.cache_us": "us",
    "service.stats_us": "us",
    "service.self_us": "us",
    "service.batch_plan_us": "us",
    "service.shared_subqueries_saved": "count",
    "service.pool_evaluate_us": "us",
    "service.pool_ipc_us": "us",
    "placement.dispatch_skew": "ratio",
    "serving.protocol_us": "us",
    "serving.rejected": "count",
    "serving.queue_depth_max": "count",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "load.lag_p99_ms": "ms",
    "load.failed_ratio": "ratio",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def child_pids(pid: int) -> List[int]:
    """The live child processes of ``pid`` (the worker pool's processes)."""
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children.extend(int(p) for p in (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return children


def rss_mb(extra_pids: Iterable[int] = ()) -> float:
    """Resident memory of this process plus ``extra_pids``, in MiB."""
    pids = {os.getpid(), *extra_pids}
    return sum(_rss_kib(pid) for pid in pids) / 1024.0


def environment() -> Dict[str, object]:
    """What the kernel dispatch and the timings depend on; numpy is never toggled."""
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": importlib.util.find_spec("numpy") is not None,
    }
