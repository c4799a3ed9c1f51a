"""Per-layer figures derived from one traced phase's spans.

Every span belongs to the tree of a root span.  Roots are the benchmark's own
``setup`` / ``read`` / ``write`` spans for in-process workloads, and the
service's ``service.query`` / ``service.update`` spans when requests arrive
over the network (client coroutines open no spans: a span must not straddle
an ``await``).  A read whose preceding root is a write is a read-after-write.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

from .measure import median
from .spans import SpanRecorder

READ_ROOTS = ("read", "service.query")
WRITE_ROOTS = ("write", "service.update")
BENCHMARK_ROOTS = ("setup", "read", "write")
# span_metrics keys that describe set-up, and writes with the reads right
# after them; the rest describe a phase's reads.
SETUP_METRICS = ("fragmentation.fragment_s", "disconnection.precompute_s", "graph.compile_s")
WRITE_METRICS = (
    "disconnection.site_prep_ms",
    "disconnection.site_prep_share",
    "disconnection.apply_write_ms",
    "graph.overlay_compactions",
)


@dataclass
class TreeTotals:
    """Self and total seconds per span name over a set of root trees."""

    roots: int = 0
    wall: float = 0.0
    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    infos: Dict[str, List[object]] = field(default_factory=lambda: defaultdict(list))

    def covered(self) -> float:
        """Self time of every program span (benchmark roots excluded)."""
        return sum(
            seconds for name, seconds in self.self_s.items() if name not in BENCHMARK_ROOTS
        )


@dataclass
class PhaseSpans:
    """Span totals of one traced phase, split by root kind."""

    setup: TreeTotals
    reads: TreeTotals
    writes: TreeTotals
    site_prep_after_write: List[float]
    site_prep_share_after_write: List[float]
    site_prep_other_reads: List[float]
    compactions: int

    def per_read(self, name: str, *, self_time: bool = True) -> float:
        totals = self.reads.self_s if self_time else self.reads.total_s
        return totals.get(name, 0.0) / self.reads.roots if self.reads.roots else 0.0

    def per_write(self, name: str) -> float:
        return self.writes.total_s.get(name, 0.0) / self.writes.roots if self.writes.roots else 0.0


def summarize(recorder: SpanRecorder, first: int = 0, last: int = -1) -> PhaseSpans:
    """Fold the spans whose roots lie in ``[first, last)`` into per-layer totals."""
    spans = recorder.spans
    last = len(spans) if last < 0 else last
    selfs, roots = recorder.self_times()
    trees = {"setup": TreeTotals(), "read": TreeTotals(), "write": TreeTotals()}
    kind_of_root: Dict[int, str] = {}
    after_write: Dict[int, bool] = {}
    site_prep: Dict[int, float] = defaultdict(float)
    previous_kind = ""
    compactions = 0
    for index in range(first, last):
        name, parent, start, end, info = spans[index]
        root = roots[index]
        if parent < 0:
            kind = (
                "read" if name in READ_ROOTS
                else "write" if name in WRITE_ROOTS
                else "setup" if name == "setup"
                else ""
            )
            kind_of_root[index] = kind
            if kind == "read":
                after_write[index] = previous_kind == "write"
            if kind:
                trees[kind].roots += 1
                trees[kind].wall += end - start
                previous_kind = kind
        if name == "graph.compact_now" and info:
            compactions += 1
        kind = kind_of_root.get(root, "")
        if not kind:
            continue
        tree = trees[kind]
        tree.self_s[name] += selfs[index]
        tree.total_s[name] += end - start
        tree.calls[name] += 1
        if info is not None:
            tree.infos[name].append(info)
        if kind == "read" and name == "disconnection.site_prep":
            site_prep[root] += end - start
    return PhaseSpans(
        setup=trees["setup"],
        reads=trees["read"],
        writes=trees["write"],
        site_prep_after_write=[site_prep[r] for r, flag in after_write.items() if flag],
        site_prep_share_after_write=[
            site_prep[r] / (spans[r][3] - spans[r][2]) for r, flag in after_write.items() if flag
        ],
        site_prep_other_reads=[site_prep[r] for r, flag in after_write.items() if not flag],
        compactions=compactions,
    )


def span_metrics(phase: PhaseSpans) -> Dict[str, float]:
    """The per-layer metrics that come straight from span totals."""
    reads = phase.reads
    pool_infos = reads.infos.get("service.pool_evaluate", [])
    backends: Dict[str, int] = defaultdict(int)
    for backend in reads.infos.get("closure.kernel", []):
        backends[backend] += 1
    for info in pool_infos:
        for backend, count in info["backends"].items():
            backends[backend] += count
    bitset_calls = sum(backends[name] for name in ("bigint", "numpy", "chain"))
    tasks = reads.calls.get("disconnection.evaluate", 0) + sum(i["tasks"] for i in pool_infos)
    settled = sum(reads.infos.get("disconnection.evaluate", [])) + sum(
        i["settled"] for i in pool_infos
    )
    pool_kernel_s = sum(i["kernel_s"] for i in pool_infos)
    pool_wall_s = reads.total_s.get("service.pool_evaluate", 0.0)
    count = reads.roots or 1
    setup = phase.setup
    setups = setup.roots or 1
    after = phase.site_prep_after_write
    other = phase.site_prep_other_reads
    return {
        "fragmentation.fragment_s": setup.total_s.get("fragmentation.fragment", 0.0) / setups,
        "disconnection.precompute_s": setup.total_s.get("disconnection.precompute", 0.0) / setups,
        "graph.compile_s": setup.total_s.get("graph.compile", 0.0) / setups,
        "disconnection.plan_us": phase.per_read("disconnection.plan") * 1e6,
        "disconnection.evaluate_self_us": phase.per_read("disconnection.evaluate") * 1e6,
        "disconnection.assemble_us": phase.per_read("disconnection.assemble") * 1e6,
        "disconnection.tasks_per_read": tasks / count,
        "disconnection.site_prep_ms": median(after) * 1e3 if after else 0.0,
        "disconnection.site_prep_share": median(phase.site_prep_share_after_write) if after else 0.0,
        "disconnection.site_prep_per_read_ms": (sum(other) / len(other)) * 1e3 if other else 0.0,
        "disconnection.apply_write_ms": phase.per_write("disconnection.apply_write") * 1e3,
        "closure.kernel_us": (reads.self_s.get("closure.kernel", 0.0) + pool_kernel_s) / count * 1e6,
        "closure.settled_per_read": settled / count,
        "closure.backend_share.bigint": backends["bigint"] / bitset_calls if bitset_calls else 0.0,
        "closure.backend_share.numpy": backends["numpy"] / bitset_calls if bitset_calls else 0.0,
        "closure.backend_share.chain": backends["chain"] / bitset_calls if bitset_calls else 0.0,
        "graph.overlay_compactions": float(phase.compactions),
        "service.cache_us": phase.per_read("service.cache") * 1e6,
        "service.stats_us": phase.per_read("service.stats") * 1e6,
        "service.self_us": phase.per_read("service.query") * 1e6,
        "service.batch_plan_us": phase.per_read("service.batch_plan") * 1e6,
        "service.pool_evaluate_us": pool_wall_s / count * 1e6,
        "service.pool_ipc_us": (pool_wall_s - pool_kernel_s) / count * 1e6,
    }
