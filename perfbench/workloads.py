"""The four benchmark workloads, driven through the public ``repro`` API.

Inputs.  Populations are fixed: the graphs, the Zipf hot sets, the Kronecker
pair set and the write probes come from fixed seeds, so every run serves the
same graph and fragmentation.  ``--seed`` draws what a run samples from them:
the cold pairs, the Zipf ranks, the pass order, the read/write interleaving
and write stream, and the batch mix.  Drawn from ``--seed`` instead, the
graph alone moved the Kronecker p50 read latency 3.7x and the transportation
p99 1.7x between seeds, and a seed-drawn hot set moved the cache hit ratio,
and with it the p50, by more than any regression bound could absorb.

Every answer is checked against the whole-graph oracle outside the timed
calls.  A write is followed by a read from the written edge's source, as a
client reading its own write would: that read is the read-after-write.
Workloads without writes of their own end with a fixed write probe of such
write/read rounds, so write latency and the first-read-after-write cost are
measured on every graph and serving path; their read figures come from the
phase before the probe.

With ``--trace 1`` a run measures the stream twice, untraced then with layer
spans installed, and reports per-layer figures from the traced half.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import itertools
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.closure import reachability_semiring, shortest_path_semiring
from repro.exceptions import NoChainError, ReproError
from repro.fragmentation import CenterBasedFragmenter
from repro.generators import TransportationGraphConfig, generate_transportation_graph
from repro.graph import DiGraph
from repro.service import QueryService
from repro.serving import ClosureServer

from . import layers
from .kronecker import kronecker_graph
from .loadgen import Connection, open_loop, rpc
from .measure import child_pids, median, percentile, rss_mb
from .oracle import WholeGraphOracle
from .spans import SpanRecorder, install_layer_spans
from .speed import SpeedGauge

GRAPH_SEED = 1
BLOCK = 8  # reads per service/baseline interleaving block
# kron-reach reads a fixed set of pairs in whole passes: its per-read cost is
# heavy-tailed, and ~300 random pairs a run moved p50 and p99 by 15% each
# from the sampling alone.
KRON_PAIRS = 128
KRON_EDGES_PER_NODE = 1.75
WRITE_SHARE = 0.2  # read-write-mix: share of operations that are writes
# Of the in-cluster writes, reweights and deletes; the rest are inserts.
REWEIGHT_SHARE = 0.7
DELETE_SHARE = 0.15
BATCH_SHARE = 0.1  # hot-reads-net: share of requests that are batches
BATCH_SIZE = 8
WARM_BATCH = 64
# The network write probe sends a write and a read per round on separate
# connections; a round lasts at least this long, so each client stays within
# the default 50 requests/s admission bucket.
PROBE_ROUND_SECONDS = 0.025
# Probe operations are sparse in time; each is followed by this many gauge
# ticks so its scaling rests on more than one reference run.
PROBE_TICKS = 3
# hot-reads-net: with a 4096-pair hot set and the default 1024-entry cache,
# most reads hit but not all (0.82-0.86 of lookups hit in traced runs).
ZIPF_EXPONENT = 1.2
# read-write-mix: at 1.2 a handful of pairs took most reads, so which of them
# the seed's writes evicted set the read p50 (spread 0.22 over eight seeds,
# 0.12 at 0.8).
MIX_ZIPF_EXPONENT = 0.8
NET_CONNECTIONS = 2
# hot-reads-net: requests per second over both connections.  Each connection
# is one client with the default 50 tokens/s admission bucket, so a steady
# 40/s each is never rate limited.
NET_RATE = 80.0
POOL_WORKERS = 2

SEMIRINGS = {"shortest_path": shortest_path_semiring, "reachability": reachability_semiring}


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    clusters: int
    nodes_per_cluster: int
    fragments: int
    kron_scale: int
    hot_pairs: int
    warm_reads: int
    kron_warm_reads: int
    warm_pairs: int
    probe_writes: int
    kron_probe_writes: int
    setup_repeats: int


FULL = Scale(
    clusters=16,
    nodes_per_cluster=64,
    fragments=8,
    kron_scale=10,
    # Four times the service's default 1024-entry cache: with Zipf ranks
    # most reads hit, but not all.
    hot_pairs=4096,
    warm_reads=64,
    kron_warm_reads=24,
    warm_pairs=1536,
    probe_writes=96,
    kron_probe_writes=16,
    setup_repeats=7,
)
SMOKE = Scale(
    clusters=4,
    nodes_per_cluster=16,
    fragments=4,
    kron_scale=7,
    hot_pairs=256,
    warm_reads=8,
    kron_warm_reads=4,
    warm_pairs=128,
    probe_writes=4,
    kron_probe_writes=2,
    setup_repeats=2,
)


# --------------------------------------------------------------- accounting


@dataclass
class Tally:
    """Operations attempted and the ways they failed."""

    attempted: int = 0
    errors: int = 0
    rejected: int = 0
    mismatches: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.rejected + self.mismatches

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def check(self, agrees: bool, what: str) -> None:
        if not agrees:
            self.mismatches += 1
            self.note(f"mismatch: {what}")


@dataclass
class Run:
    """One benchmark run's settings, recorder and results."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    tally: Tally = field(default_factory=Tally)
    recorder: Optional[SpanRecorder] = None
    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    metrics: Dict[str, float] = field(default_factory=dict)
    unscaled: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trace:
            self.recorder = SpanRecorder()

    def rng(self, purpose: str) -> random.Random:
        """A stream drawn from ``--seed``."""
        return random.Random(f"{self.workload}:{self.seed}:{purpose}")

    def fixed_rng(self, purpose: str) -> random.Random:
        """A population that is the same for every seed."""
        return random.Random(f"{self.workload}:{purpose}")

    def phases(self) -> List[Tuple[float, bool]]:
        """``(seconds, traced)`` per measured phase."""
        if self.trace:
            return [(self.seconds / 2, False), (self.seconds / 2, True)]
        return [(self.seconds, False)]

    def span(self, name: str, traced: bool):
        return self.recorder.span(name) if traced else nullcontext()

    def pause(self, traced: bool):
        return self.recorder.pause() if traced else nullcontext()

    def install(self) -> None:
        install_layer_spans(self.recorder)

    def uninstall(self) -> None:
        if self.recorder is not None:
            self.recorder.uninstall()


# ------------------------------------------------------------------- inputs


def transportation_inputs(scale: Scale) -> Tuple[DiGraph, List[set]]:
    config = TransportationGraphConfig(
        cluster_count=scale.clusters, nodes_per_cluster=scale.nodes_per_cluster
    )
    network = generate_transportation_graph(config, seed=GRAPH_SEED)
    return network.graph, network.clusters


def distinct_pairs(rng: random.Random, nodes: Sequence, exclude=()) -> Iterator[Tuple]:
    """Random ordered pairs, none twice until every pair has been drawn."""
    seen = set(exclude)
    total = len(nodes) * (len(nodes) - 1)
    while True:
        if len(seen) >= total:
            seen.clear()
        pair = (rng.choice(nodes), rng.choice(nodes))
        if pair[0] != pair[1] and pair not in seen:
            seen.add(pair)
            yield pair


class ZipfPairs:
    """A hot set of pairs (from ``population``) drawn with Zipf-skewed ranks (from ``rng``)."""

    def __init__(
        self, population: random.Random, rng: random.Random, nodes: Sequence, size: int, exponent: float
    ) -> None:
        self._rng = rng
        self.pairs = list(itertools.islice(distinct_pairs(population, nodes), size))
        self._cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(size))
        )

    def draw(self) -> Tuple:
        point = self._rng.random() * self._cumulative[-1]
        return self.pairs[bisect.bisect_left(self._cumulative, point)]


Write = Tuple[str, object, object, float]  # (kind, source, target, weight)


class ClusterWrites:
    """Reweights, deletes and inserts between nodes of one generated cluster.

    Inserts and deletes stay inside a cluster: long-range inserts erode the
    fragmentation's locality, which is refragmentation's problem, not this
    benchmark's.
    """

    def __init__(self, rng: random.Random, graph: DiGraph, clusters: Sequence[set]) -> None:
        self._rng = rng
        self._members = [sorted(cluster) for cluster in clusters]
        cluster_of = {node: i for i, cluster in enumerate(clusters) for node in cluster}
        self._coordinates = graph.coordinates()
        self._base: Dict[Tuple, float] = {}
        self._edges: List[Tuple] = []
        self._slot: Dict[Tuple, int] = {}
        for source, target, weight in graph.weighted_edges():
            if cluster_of[source] == cluster_of[target]:
                self._add((source, target), weight)

    def _add(self, edge: Tuple, weight: float) -> None:
        self._slot[edge] = len(self._edges)
        self._edges.append(edge)
        self._base[edge] = weight

    def _remove(self, edge: Tuple) -> None:
        slot = self._slot.pop(edge)
        moved = self._edges.pop()
        if moved != edge:
            self._edges[slot] = moved
            self._slot[moved] = slot
        del self._base[edge]

    def next(self) -> Write:
        draw = self._rng.random()
        if draw < REWEIGHT_SHARE:
            edge = self._rng.choice(self._edges)
            return ("reweight", *edge, self._base[edge] * self._rng.uniform(0.8, 1.25))
        if draw < REWEIGHT_SHARE + DELETE_SHARE:
            edge = self._rng.choice(self._edges)
            self._remove(edge)
            return ("delete", *edge, 0.0)
        while True:
            source, target = self._rng.sample(self._rng.choice(self._members), 2)
            if (source, target) not in self._slot:
                weight = self._coordinates[source].distance_to(self._coordinates[target])
                self._add((source, target), weight)
                return ("insert", source, target, weight)


class ToggleWrites:
    """Delete a random edge, then put it back: the graph keeps its shape."""

    def __init__(self, rng: random.Random, graph: DiGraph) -> None:
        self._rng = rng
        self._edges = graph.edges()
        self._removed: Optional[Tuple] = None

    def next(self) -> Write:
        if self._removed is None:
            self._removed = self._rng.choice(self._edges)
            return ("delete", *self._removed, 0.0)
        edge, self._removed = self._removed, None
        return ("insert", *edge, 1.0)


# ------------------------------------------------------------ set-up phase


def fragment(graph: DiGraph, scale: Scale):
    return CenterBasedFragmenter(scale.fragments, center_selection="distributed").fragment(graph)


def serve(fragmentation, semiring: str, first_pair: Tuple, *, placed: bool) -> QueryService:
    """A service over ``fragmentation`` that has answered its first query."""
    options = {"placement": "round_robin", "workers": POOL_WORKERS} if placed else {}
    service = QueryService(fragmentation, semiring=SEMIRINGS[semiring](), **options)
    try:
        service.query(*first_pair)
    except NoChainError:
        pass
    return service


async def set_up(run: Run, graph: DiGraph, build: Callable, start: Callable, close: Callable):
    """Build the service ``setup_repeats`` times (once when traced); keep the last.

    One build is the graph's fragmentation, ``build(fragmentation)`` (the
    service up to its first answer) and ``await start(built)`` (the network
    workload binds its server).  The two synchronous steps are each timed
    between speed-gauge ticks and scaled by them; the start, a socket bind,
    is scaled like the step before it.  ``setup_s`` is the median of the
    scaled builds.  A set-up is a few long calls that the machine's speed
    swings move by up to 2x: over ten runs, the median of three builds
    scaled by the run's median tick spread 0.24-0.46, the median of seven
    scaled step by step 0.07-0.14.  The traced run records its one build's
    spans.
    """
    repeats = 1 if run.trace else run.scale.setup_repeats
    raw: List[float] = []
    scaled: List[float] = []
    built = None
    for _ in range(repeats):
        if built is not None:
            await close(built)
            built = None
        # The last build's garbage is collected before this one starts, so
        # each build's collections see the same heap.
        gc.collect()
        if run.trace:
            run.install()
        try:
            with run.span("setup", run.trace):
                fragmentation, fragment_s, fragment_nominal = run.gauge.timed(
                    lambda: fragment(graph, run.scale)
                )
                built, build_s, build_nominal = run.gauge.timed(lambda: build(fragmentation))
                started = perf_counter()
                await start(built)
                start_s = perf_counter() - started
        finally:
            run.uninstall()
        raw.append(fragment_s + build_s + start_s)
        scaled.append(fragment_nominal + (build_s + start_s) * build_nominal / build_s)
    run.unscaled["setup_s"] = median(raw)
    run.metrics["setup_s"] = median(scaled)
    return built


def setup_layer_metrics(run: Run, service: QueryService) -> None:
    fragmentation = service.database.fragmentation()
    border = set()
    for fragment_id in range(fragmentation.fragment_count()):
        border |= fragmentation.border_nodes(fragment_id)
    run.metrics["fragmentation.border_nodes"] = float(len(border))
    run.metrics["disconnection.complementary_facts"] = float(
        service.engine().catalog.complementary.size_in_facts()
    )


# ---------------------------------------------------------------- samples


@dataclass
class Samples:
    """Latencies (seconds), when each ended, and baseline times of one phase."""

    reads: List[float] = field(default_factory=list)
    read_at: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    write_at: List[float] = field(default_factory=list)
    after_write: List[float] = field(default_factory=list)
    after_at: List[float] = field(default_factory=list)
    kernels: List[float] = field(default_factory=list)
    served_total: float = 0.0
    kernel_total: float = 0.0
    median_ratio: Optional[float] = None  # open loop only

    def read(self, seconds: float, at: float) -> None:
        self.reads.append(seconds)
        self.read_at.append(at)

    def write(self, seconds: float, at: float) -> None:
        self.writes.append(seconds)
        self.write_at.append(at)

    def read_after_write(self, seconds: float, at: float) -> None:
        self.after_write.append(seconds)
        self.after_at.append(at)

    def pair_with_baseline(self, served: float, kernel: float) -> None:
        self.served_total += served
        self.kernel_total += kernel
        self.kernels.append(kernel)

    def whole_graph_ratio(self) -> float:
        if self.median_ratio is not None:
            return self.median_ratio
        return self.served_total / self.kernel_total if self.kernel_total > 0 else 0.0


def judge(run: Run, oracle: WholeGraphOracle, pair: Tuple, value, no_chain: bool) -> float:
    """Check one answer; returns the whole-graph kernel's seconds on the pair."""
    expected, kernel_seconds = oracle.answer(*pair)
    run.tally.check(
        oracle.agrees(expected, value, no_chain=no_chain),
        f"{pair}: served {value!r} (no chain: {no_chain}), oracle {expected!r}",
    )
    return kernel_seconds


def mirror_write(oracle: WholeGraphOracle, write: Write) -> None:
    kind, source, target, weight = write
    if kind == "delete":
        oracle.delete_edge(source, target)
    else:
        oracle.set_edge(source, target, weight)


def own_write_pair(write: Write, target) -> Tuple:
    """The read a client issues after its write: from the written edge's source."""
    source = write[1]
    return (source, target) if target != source else (source, write[2])


# ---------------------------------------------------- in-process operations


def timed_read(run: Run, service: QueryService, pair: Tuple, traced: bool):
    """One ``QueryService.query``: ``(value, no_chain, seconds)``."""
    run.tally.attempted += 1
    no_chain = False
    value = None
    with run.span("read", traced):
        started = perf_counter()
        try:
            value = service.query(*pair).value
        except NoChainError:
            no_chain = True
        elapsed = perf_counter() - started
    return value, no_chain, elapsed


def checked_read(run: Run, service, oracle, pair: Tuple, traced: bool) -> Tuple[float, float]:
    """A timed read, then its oracle check: ``(seconds, baseline_seconds)``."""
    value, no_chain, elapsed = timed_read(run, service, pair, traced)
    with run.pause(traced):
        return elapsed, judge(run, oracle, pair, value, no_chain)


def timed_write(run: Run, service: QueryService, oracle: WholeGraphOracle, write: Write, traced: bool) -> float:
    """One ``QueryService.update_edge``; the oracle follows it."""
    kind, source, target, weight = write
    run.tally.attempted += 1
    with run.span("write", traced):
        started = perf_counter()
        try:
            if kind == "delete":
                service.update_edge(source, target, delete=True)
            else:
                service.update_edge(source, target, weight)
        except (ReproError, ValueError) as error:
            run.tally.errors += 1
            run.tally.note(f"write {write}: {error}")
            return perf_counter() - started
        elapsed = perf_counter() - started
    mirror_write(oracle, write)
    return elapsed


def read_block(run, service, oracle, block: Sequence[Tuple], traced: bool, samples: Samples) -> None:
    """Time a block of reads, then run the whole-graph kernel on the same pairs."""
    answers = []
    for pair in block:
        answers.append(timed_read(run, service, pair, traced))
        samples.read(answers[-1][2], perf_counter())
        with run.pause(traced):
            run.gauge.maybe_tick()
    with run.pause(traced):
        for pair, (value, no_chain, elapsed) in zip(block, answers):
            samples.pair_with_baseline(elapsed, judge(run, oracle, pair, value, no_chain))


def cold_phase(run, service, oracle, pairs: Iterator, seconds: float, traced: bool) -> Samples:
    """Closed loop over distinct pairs, baseline interleaved block by block."""
    samples = Samples()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        read_block(run, service, oracle, [next(pairs) for _ in range(BLOCK)], traced, samples)
    return samples


def pass_phase(run, service, oracle, population: Sequence[Tuple], rng, seconds: float, traced: bool) -> Samples:
    """Whole passes over ``population``: one, then more while they fit in ``seconds``.

    The result cache is emptied before each pass, so every read is evaluated.
    Only whole passes run, so every run reads each pair equally often; a pass
    starts only when one more as long as the last ends within ``seconds``.
    """
    samples = Samples()
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        order = list(population)
        rng.shuffle(order)
        service.cache.clear()
        for index in range(0, len(order), BLOCK):
            read_block(run, service, oracle, order[index : index + BLOCK], traced, samples)
        now = perf_counter()
        if now + (now - pass_started) > started + seconds:
            return samples


def write_probe(run, service, oracle, writes, targets: Callable, count: int, traced: bool) -> Samples:
    """``count`` writes, each followed by a read from the written edge's source."""
    samples = Samples()
    for _ in range(count):
        write = writes.next()
        samples.write(timed_write(run, service, oracle, write, traced), perf_counter())
        with run.pause(traced):
            run.gauge.tick(PROBE_TICKS)
        pair = own_write_pair(write, targets())
        value, no_chain, elapsed = timed_read(run, service, pair, traced)
        samples.read_after_write(elapsed, perf_counter())
        with run.pause(traced):
            run.gauge.tick(PROBE_TICKS)
            judge(run, oracle, pair, value, no_chain)
    return samples


def mixed_phase(run, service, oracle, writes, zipf: ZipfPairs, rng, seconds: float, traced: bool) -> Samples:
    """Closed loop of Zipf reads and writes, each write followed by its own read."""
    samples = Samples()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        if rng.random() < WRITE_SHARE:
            write = writes.next()
            samples.write(timed_write(run, service, oracle, write, traced), perf_counter())
            with run.pause(traced):
                run.gauge.maybe_tick()
            pair = own_write_pair(write, zipf.draw()[1])
            elapsed, kernel = checked_read(run, service, oracle, pair, traced)
            samples.read_after_write(elapsed, perf_counter())
        else:
            elapsed, kernel = checked_read(run, service, oracle, zipf.draw(), traced)
        samples.read(elapsed, perf_counter())
        samples.pair_with_baseline(elapsed, kernel)
        with run.pause(traced):
            run.gauge.maybe_tick()
    return samples


# ------------------------------------------------------------- the metrics


def stats_snapshot(service: QueryService) -> Dict[str, float]:
    snapshot = dict(service.stats.as_dict())
    snapshot.update(
        {f"db.{key}": value for key, value in service.database.statistics.as_dict().items()}
    )
    return snapshot


def counter_metrics(before: Dict, main_end: Dict, after: Dict, reads: int, writes: int) -> Dict[str, float]:
    """Per-layer figures the program counts itself.

    Read figures are deltas over the traced phase (``before`` to
    ``main_end``), write figures over it and the write probe after it
    (``before`` to ``after``).
    """

    def delta(key: str, end: Dict) -> float:
        return end[key] - before.get(key, 0)

    def per_write(key: str) -> float:
        return delta(key, after) / writes if writes else 0.0

    hits = delta("cache_hits", main_end)
    lookups = hits + delta("cache_misses", main_end)
    return {
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.shared_subqueries_saved": (
            delta("shared_subqueries_saved", main_end) / reads if reads else 0.0
        ),
        "placement.dispatch_skew": float(main_end["dispatch_skew"]),
        "service.cache_evictions_per_write": per_write("cache_entries_evicted"),
        "disconnection.engine_rebuilds": float(delta("db.engine_rebuilds", after)),
        "incremental.rows_recomputed_per_write": per_write("db.rows_recomputed"),
        "incremental.pairs_repaired_per_write": per_write("db.pairs_repaired"),
    }


def latency_metrics(run: Run, main: Samples, probe: Samples, *, closed_loop: bool) -> None:
    """The end-to-end latency metrics from the measured phase and the probe.

    ``run.metrics`` gets them at the gauge's nominal speed, ``run.unscaled``
    as measured.  The read tail is p90, the highest percentile with ten
    samples beyond it on kron-reach's 128 reads; on hot-reads-net the p99 of
    ~1 ms reads counted the host's stalls and spread 0.41 over ten runs.
    Writes get no tail: the p90 of a few dozen to a few hundred writes moved
    by 26% between two sets of ten runs of the same code.
    """
    gauge = run.gauge
    raw = {
        "reads": main.reads,
        "writes": main.writes + probe.writes,
        "after": main.after_write + probe.after_write,
    }
    scaled = {
        "reads": gauge.scale(main.reads, main.read_at),
        "writes": gauge.scale(main.writes + probe.writes, main.write_at + probe.write_at),
        "after": gauge.scale(main.after_write + probe.after_write, main.after_at + probe.after_at),
    }
    for target, samples in ((run.metrics, scaled), (run.unscaled, raw)):
        target.update(
            {
                "read_p50_ms": percentile(samples["reads"], 0.5) * 1e3,
                "read_p90_ms": percentile(samples["reads"], 0.9) * 1e3,
                "write_p50_ms": percentile(samples["writes"], 0.5) * 1e3,
                "read_after_write_p50_ms": percentile(samples["after"], 0.5) * 1e3,
            }
        )
        if closed_loop:
            reads = samples["reads"]
            target["read_qps"] = len(reads) / sum(reads) if reads else 0.0
    run.metrics["whole_graph_ratio"] = main.whole_graph_ratio()
    run.unscaled.update({f"samples.{key}": len(values) for key, values in raw.items()})


def traced_metrics(run: Run, first: int, main_end: int, untraced: Samples, traced: Samples) -> None:
    """Per-layer metrics from the spans recorded since index ``first``.

    Read figures come from the traced phase's spans (``[first, main_end)``),
    write figures from them and the write probe's after them, set-up figures
    from the spans before ``first``.
    """
    main = layers.summarize(run.recorder, first, main_end)
    run.metrics.update(layers.span_metrics(main))
    with_probe = layers.span_metrics(layers.summarize(run.recorder, first))
    for key in layers.WRITE_METRICS:
        run.metrics[key] = with_probe[key]
    setup = layers.span_metrics(layers.summarize(run.recorder, 0, first))
    for key in layers.SETUP_METRICS:
        run.metrics[key] = setup[key]
    run.metrics["trace.coverage"] = main.reads.covered() / main.reads.wall if main.reads.wall else 0.0
    if untraced.reads and traced.reads:
        run.metrics["trace.overhead_ratio"] = median(
            run.gauge.scale(traced.reads, traced.read_at)
        ) / median(run.gauge.scale(untraced.reads, untraced.read_at))
    else:
        run.metrics["trace.overhead_ratio"] = 0.0
    run.metrics["closure.whole_graph_us"] = (
        sum(traced.kernels) / len(traced.kernels) * 1e6 if traced.kernels else 0.0
    )


# ------------------------------------------------------ in-process workloads


async def in_process_workload(run: Run, *, kind: str) -> None:
    """``cold-reads``, ``read-write-mix`` and ``kron-reach``."""
    scale = run.scale
    if kind == "kron":
        graph = kronecker_graph(GRAPH_SEED, scale=scale.kron_scale, edges_per_node=KRON_EDGES_PER_NODE)
        semiring = "reachability"
    else:
        graph, clusters = transportation_inputs(scale)
        semiring = "shortest_path"
    oracle = WholeGraphOracle(graph, semiring)
    nodes = sorted(graph.nodes())
    first_pair = (nodes[0], nodes[-1])

    async def start(service):
        pass

    async def close(service):
        service.close()

    service = await set_up(
        run, graph, lambda fragmentation: serve(fragmentation, semiring, first_pair, placed=False), start, close
    )
    try:
        if run.trace:
            setup_layer_metrics(run, service)
        pairs = distinct_pairs(run.rng("pairs"), nodes, exclude=[first_pair])
        # The mix draws its writes from --seed; the probes replay fixed ones.
        if kind == "kron":
            population = list(itertools.islice(distinct_pairs(run.fixed_rng("pairs"), nodes), KRON_PAIRS))
            writes = ToggleWrites(run.fixed_rng("probe"), graph)
            probe_count = scale.kron_probe_writes
        else:
            exponent = MIX_ZIPF_EXPONENT if kind == "mix" else ZIPF_EXPONENT
            zipf = ZipfPairs(run.fixed_rng("hot-set"), run.rng("zipf"), nodes, scale.hot_pairs, exponent)
            writes_rng = run.rng("writes") if kind == "mix" else run.fixed_rng("probe")
            writes = ClusterWrites(writes_rng, graph, clusters)
            probe_count = scale.probe_writes
        probe_targets = run.fixed_rng("probe-targets")
        # Warm-up: every site builds its kernel graphs (and the mix fills
        # the cache); memory is read after it.
        warm_reads = {"mix": 8 * scale.warm_reads, "kron": scale.kron_warm_reads}.get(kind, scale.warm_reads)
        for _ in range(warm_reads):
            pair = zipf.draw() if kind == "mix" else next(pairs)
            checked_read(run, service, oracle, pair, False)
            run.gauge.maybe_tick()
        run.metrics["rss_mb"] = rss_mb(child_pids(os.getpid()))

        interleave = run.rng("mix")
        order = run.rng("order")
        phase_samples: List[Samples] = []
        first_span = main_end = 0
        stats_before: Dict = {}
        stats_main_end: Dict = {}
        for seconds, traced in run.phases():
            # Start every phase with a fresh full collection, so whether one
            # lands inside it does not depend on how much the warm-up allocated.
            gc.collect()
            if traced:
                run.install()
                first_span = len(run.recorder.spans)
                stats_before = stats_snapshot(service)
            if kind == "mix":
                samples = mixed_phase(run, service, oracle, writes, zipf, interleave, seconds, traced)
            elif kind == "kron":
                samples = pass_phase(run, service, oracle, population, order, seconds, traced)
            else:
                samples = cold_phase(run, service, oracle, pairs, seconds, traced)
            phase_samples.append(samples)
            if traced:
                main_end = len(run.recorder.spans)
                stats_main_end = stats_snapshot(service)
        main = phase_samples[-1]
        probe = (
            Samples()
            if kind == "mix"
            else write_probe(
                run, service, oracle, writes, lambda: probe_targets.choice(nodes),
                probe_count, run.trace,
            )
        )
        if run.trace:
            write_count = len(main.writes) + len(probe.writes)
            run.metrics.update(
                counter_metrics(
                    stats_before, stats_main_end, stats_snapshot(service), len(main.reads), write_count
                )
            )
            run.uninstall()
            traced_metrics(run, first_span, main_end, phase_samples[0], main)
            for name in ("serving.protocol_us", "serving.rejected", "serving.queue_depth_max", "load.lag_p99_ms"):
                run.metrics[name] = 0.0  # no network path in process
        else:
            latency_metrics(run, main, probe, closed_loop=True)
    finally:
        run.uninstall()
        service.close()


# ------------------------------------------------------------ hot-reads-net


def request_for(pairs: Sequence[Tuple]) -> Dict[str, object]:
    if len(pairs) == 1:
        source, target = pairs[0]
        return {"op": "query", "args": [str(source), str(target)]}
    return {"op": "batch", "args": [str(node) for pair in pairs for node in pair]}


def write_request(write: Write) -> Dict[str, object]:
    kind, source, target, weight = write
    if kind == "delete":
        return {"op": "delete", "args": [str(source), str(target)]}
    return {"op": "update", "args": [str(source), str(target), repr(weight)]}


def judge_response(run: Run, oracle: WholeGraphOracle, pairs: Sequence[Tuple], response: Dict) -> float:
    """Check one network reply; returns the baseline kernel seconds of its pairs."""
    if response.get("rejected"):
        run.tally.rejected += 1
        run.tally.note(f"rejected: {response.get('reason')}")
        return 0.0
    if "answers" in response:
        answers = response["answers"]
    elif response.get("ok"):
        answers = [response["answer"]]
    else:
        answers = [{"value": None, "error": response.get("error")}]
    if len(answers) != len(pairs):
        run.tally.errors += 1
        run.tally.note(f"{len(answers)} answers for {len(pairs)} pairs")
        return 0.0
    return sum(
        judge(run, oracle, pair, answer.get("value"), bool(answer.get("error")))
        for pair, answer in zip(pairs, answers)
    )


async def net_probe(run: Run, connections, oracle, writes, targets: Callable, count: int) -> Samples:
    """Closed-loop write/read rounds through the protocol, paced for admission."""
    samples = Samples()
    for _ in range(count):
        round_started = perf_counter()
        write = writes.next()
        run.tally.attempted += 1
        response = await rpc(connections[0], write_request(write))
        samples.write(perf_counter() - round_started, perf_counter())
        with run.pause(run.trace):
            run.gauge.tick(PROBE_TICKS)
        if response.get("ok"):
            mirror_write(oracle, write)
        else:
            run.tally.errors += 1
            run.tally.note(f"write {write}: {response}")
        pair = own_write_pair(write, targets())
        run.tally.attempted += 1
        started = perf_counter()
        response = await rpc(connections[1], request_for([pair]))
        samples.read_after_write(perf_counter() - started, perf_counter())
        with run.pause(run.trace):
            judge_response(run, oracle, [pair], response)
            run.gauge.tick(PROBE_TICKS)
        await asyncio.sleep(max(0.0, round_started + PROBE_ROUND_SECONDS - perf_counter()))
    return samples


async def hot_reads_net(run: Run) -> None:
    """Open-loop Zipf reads over loopback into ``ClosureServer`` and a placed pool."""
    scale = run.scale
    graph, clusters = transportation_inputs(scale)
    oracle = WholeGraphOracle(graph, "shortest_path")
    nodes = sorted(graph.nodes())
    first_pair = (nodes[0], nodes[-1])

    def build(fragmentation):
        service = serve(fragmentation, "shortest_path", first_pair, placed=True)
        return service, ClosureServer(service)

    async def start(built):
        await built[1].start()

    async def close(built):
        service, server = built
        await server.aclose()
        service.close()

    service, server = await set_up(run, graph, build, start, close)
    connections: List[Connection] = []
    try:
        if run.trace:
            setup_layer_metrics(run, service)
        host, port = server.address
        for _ in range(NET_CONNECTIONS):
            connections.append(await asyncio.open_connection(host, port))
        zipf = ZipfPairs(run.fixed_rng("hot-set"), run.rng("zipf"), nodes, scale.hot_pairs, ZIPF_EXPONENT)
        # Warm the cache with a few large batches: every request costs one
        # admission token, so single queries would drain the clients' buckets.
        warm = [zipf.draw() for _ in range(scale.warm_pairs)]
        for index in range(0, len(warm), WARM_BATCH):
            pairs = warm[index : index + WARM_BATCH]
            response = await rpc(connections[index % NET_CONNECTIONS], request_for(pairs))
            run.tally.attempted += 1
            judge_response(run, oracle, pairs, response)
            run.gauge.tick()
        run.metrics["rss_mb"] = rss_mb(child_pids(os.getpid()))

        mix = run.rng("mix")
        phase_samples: List[Samples] = []
        first_span = main_end = 0
        stats_before: Dict = {}
        stats_main_end: Dict = {}
        for seconds, traced in run.phases():
            # Start every phase with a fresh full collection, so whether one
            # lands inside it does not depend on how much the warm-up allocated.
            gc.collect()
            count = max(1, int(NET_RATE * seconds))
            requests = [
                [zipf.draw() for _ in range(BATCH_SIZE if mix.random() < BATCH_SHARE else 1)]
                for _ in range(count)
            ]
            offsets = [index / NET_RATE for index in range(count)]
            if traced:
                run.install()
                first_span = len(run.recorder.spans)
                stats_before = stats_snapshot(service)
            report = await open_loop(
                connections, offsets, [request_for(r) for r in requests], idle=run.gauge.maybe_tick
            )
            if traced:
                main_end = len(run.recorder.spans)
                stats_main_end = stats_snapshot(service)
            samples = Samples()
            scaled_latencies: List[float] = []
            scaled_kernels: List[float] = []
            served_pairs = 0
            round_trips = scaled_round_trips = 0.0
            with run.pause(traced):
                # The baseline runs after the open loop, not interleaved with
                # it, so both sides of the ratio are taken at nominal speed;
                # and one host stall delays every request queued behind it,
                # so the ratio is of medians: a ratio of sums or of block
                # medians spread 0.30 over ten runs.
                for pairs, outcome in zip(requests, report.outcomes):
                    run.tally.attempted += 1
                    kernel_seconds = judge_response(run, oracle, pairs, outcome.response)
                    if outcome.response.get("rejected"):
                        continue
                    latency = outcome.received - outcome.due
                    samples.read(latency, outcome.received)
                    samples.kernels.append(kernel_seconds)
                    slowdown = run.gauge.slowdown(outcome.received)
                    scaled_latencies.append(latency / slowdown)
                    served_pairs += len(pairs)
                    round_trips += outcome.received - outcome.sent
                    scaled_round_trips += (outcome.received - outcome.sent) / slowdown
                    scaled_kernels.append(kernel_seconds / run.gauge.slowdown(perf_counter()))
                    run.gauge.maybe_tick()
            if scaled_kernels:
                samples.median_ratio = median(scaled_latencies) / median(scaled_kernels)
            phase_samples.append(samples)
            # The sender keeps a fixed rate, so requests per second of the
            # run would read that rate back; pairs served per second spent
            # in round trips moves with the program.
            if round_trips > 0:
                run.unscaled["read_qps"] = served_pairs / round_trips
                run.metrics["read_qps"] = served_pairs / scaled_round_trips

        probe_writes = ClusterWrites(run.fixed_rng("probe"), graph, clusters)
        probe_targets = run.fixed_rng("probe-targets")
        probe = await net_probe(
            run, connections, oracle, probe_writes, lambda: probe_targets.choice(nodes), scale.probe_writes
        )
        main = phase_samples[-1]
        if not run.trace:
            latency_metrics(run, main, probe, closed_loop=False)
            return
        run.metrics.update(
            counter_metrics(
                stats_before, stats_main_end, stats_snapshot(service), len(main.reads), len(probe.writes)
            )
        )
        run.uninstall()
        traced_metrics(run, first_span, main_end, phase_samples[0], main)
        served = [o for o in report.outcomes if not o.response.get("rejected")]
        round_trips = sum(o.received - o.sent for o in served)
        inside = layers.summarize(run.recorder, first_span, main_end).reads
        run.metrics.update(
            {
                # Round trip minus the time inside QueryService.query/query_batch.
                "serving.protocol_us": (round_trips - inside.wall) / len(served) * 1e6 if served else 0.0,
                "trace.coverage": inside.covered() / round_trips if round_trips else 0.0,
                "serving.rejected": float(len(report.outcomes) - len(served)),
                "serving.queue_depth_max": float(report.max_outstanding),
                "load.lag_p99_ms": percentile(report.lags(), 0.99) * 1e3,
            }
        )
    finally:
        run.uninstall()
        for _, writer in connections:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        await server.aclose()
        service.close()


WORKLOADS = {
    "cold-reads": lambda run: in_process_workload(run, kind="cold"),
    "hot-reads-net": hot_reads_net,
    "read-write-mix": lambda run: in_process_workload(run, kind="mix"),
    "kron-reach": lambda run: in_process_workload(run, kind="kron"),
}


def run_workload(run: Run) -> None:
    """Run one workload to completion, filling ``run.metrics`` and ``run.tally``."""
    asyncio.run(WORKLOADS[run.workload](run))
    if run.trace:
        run.metrics["load.failed_ratio"] = (
            run.tally.failed / run.tally.attempted if run.tally.attempted else 0.0
        )
