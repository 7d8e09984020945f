"""The four serving workloads.

Each workload generates its inputs from the seed, then runs ``SETUPS``
rounds of *set up, then measure a slice of the window*: the program is
set up from scratch (``setup_s`` is the median over rounds) and a
closed loop with one client sends requests for ``seconds / SETUPS``.
Spreading the window over the whole run, instead of one block after
the last set-up, averages over host phases that last tens of seconds.
Times are CPU time of the program (this process's threads plus any
cluster workers, :func:`common.cpu_s`), so the hypervisor's steal on a
shared host stays out of them, scaled to a reference host speed by a
calibration task timed between requests (:class:`common.HostSpeed`);
the scale factor and the wall-clock figures go to the result file.  Every answer is checked: decisions against
:class:`oracle.DecisionOracle`, lookups against the enrolment,
quarantine against the generator's list of malformed lines.  Program
settings are the library / CLI defaults; only the sizes below (the
workload definitions) are chosen here.

A traced run (``trace=True``) traces the last round, set-up and window
slice, under :class:`layers.LayerTrace`; the earlier rounds stay
untraced and give the baseline for ``obs.trace_overhead``.  Only traced
runs compute per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import corpus
import layers
from common import HostSpeed, PeakMemory, cpu_s, median, percentile, private_rss_kb
from layers import LayerTrace, counter_delta, ratio
from oracle import DecisionOracle, same_decision
from repro.bits import BitVector
from repro.core.distance import DEFAULT_THRESHOLD
from repro.core.errors import mark_errors_batch
from repro.reliability.compaction import Compactor
from repro.service.batch import BatchIdentificationService, BatchQuery, BatchReport
from repro.service.cluster import ClusterService, build_cluster
from repro.service.metrics import ServiceMetrics
from repro.service.rpc import encode_query
from repro.service.store import ShardedFingerprintStore
from repro.service.stream import StreamingIdentificationService

SETUPS = 3
N_SHARDS = 4
#: Created on import, before any input is generated, so its arrays are
#: part of the memory baseline, not of ``peak_rss_mb``.
HOST = HostSpeed()

Decision = Tuple[Optional[str], Optional[float]]
Answer = Tuple[str, bool, bool, Optional[str], Optional[float]]  # query id, degraded, matched, key, distance


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    unscaled: Dict[str, float] = field(default_factory=dict)  # host factor and wall-clock figures
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    trace: Optional[LayerTrace] = None  # the traced window, exported with the result

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; keep the first few failures for the report."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


@dataclass
class Window:
    """Measurements of one or more window slices.

    ``latencies`` are wall seconds per request, ``cpu`` the program's CPU
    seconds per request; ``elapsed`` and ``cpu_elapsed`` are the same
    two clocks over the whole slice, time between requests included and
    calibrations left out.
    """

    latencies: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    answers: int = 0
    elapsed: float = 0.0
    cpu_elapsed: float = 0.0

    def add(self, other: "Window") -> None:
        self.latencies += other.latencies
        self.cpu += other.cpu
        self.answers += other.answers
        self.elapsed += other.elapsed
        self.cpu_elapsed += other.cpu_elapsed

    @property
    def answers_per_cpu_s(self) -> float:
        return self.answers / self.cpu_elapsed

    def scaled(self, factor: float) -> "Window":
        """The slice with its CPU times divided by the host ``factor``."""
        return Window(
            self.latencies, [c / factor for c in self.cpu], self.answers, self.elapsed, self.cpu_elapsed / factor
        )


@dataclass
class Setup:
    """One round's set-up: its timings plus whatever the window needs.

    ``pids`` are the worker processes the set-up started; their CPU
    time counts as the program's.
    """

    cold_answer_s: float
    ingest_fps: float
    metrics: ServiceMetrics
    handle: object
    pids: Tuple[int, ...] = ()


def interleaved(
    outcome: Outcome,
    seconds: float,
    trace: bool,
    memory: PeakMemory,
    setup: Callable[[int], Setup],
    measure: Callable[[Setup, float], Window],
    traced_layers: Callable[[Setup, LayerTrace, LayerTrace, Window, Window, Dict[str, int], Dict[str, int]], None],
    teardown: Callable[[Setup], None] = lambda _setup: None,
) -> None:
    """``SETUPS`` rounds of set-up plus a window slice; fills ``outcome.e2e``.

    In a traced run the last round is traced and ``traced_layers``
    receives its set-up, the set-up trace, the window trace, the traced
    slice, the untraced slices and the program counters around the
    traced slice.  ``memory`` was created once the inputs were
    generated; ``measure`` takes its reading after a fixed number of
    requests, and the round's end takes it when the slice sent fewer.
    The round's set-up and slice CPU times are divided by the host
    factor of the calibrations taken around the set-up and during the
    slice (``measure`` calls ``HOST.tick`` between requests).
    """
    setups: List[Setup] = []
    setup_cpu: List[float] = []
    setup_wall: List[float] = []
    factors: List[float] = []
    plain = Window()
    setup_trace = LayerTrace() if trace else None
    for attempt in range(SETUPS):
        traced = trace and attempt == SETUPS - 1
        memory.start_round()
        HOST.calibrate(5)
        with setup_trace if traced else nullcontext():
            began, began_cpu = time.perf_counter(), time.process_time()
            state = setup(attempt)
            raw_setup_cpu = cpu_s(state.pids) - began_cpu
            setup_wall.append(time.perf_counter() - began)
        HOST.calibrate(5)
        setups.append(state)
        try:
            window = outcome.trace = LayerTrace() if traced else None
            before = state.metrics.counters_with_prefix("")
            with window if traced else nullcontext():
                piece = measure(state, seconds / SETUPS)
            after = state.metrics.counters_with_prefix("")
            memory.read()
            factors.append(HOST.take_factor())
            setup_cpu.append(raw_setup_cpu / factors[-1])
            if traced:
                outcome.layers["service.store.ingest_fps"] = median([s.ingest_fps for s in setups])
                outcome.layers["service.store.cold_answer_s"] = median([s.cold_answer_s for s in setups])
                outcome.layers["obs.trace_overhead"] = (
                    1.0 - piece.scaled(factors[-1]).answers_per_cpu_s / plain.answers_per_cpu_s
                )
                traced_layers(state, setup_trace, window, piece, plain, before, after)
            else:
                plain.add(piece.scaled(factors[-1]))
        finally:
            teardown(state)
            state.handle = None  # the next round sets up from scratch
    outcome.e2e.update(
        {
            "setup_s": median(setup_cpu),
            "answers_per_cpu_s": plain.answers_per_cpu_s,
            "request_cpu_p50_ms": percentile(plain.cpu, 50) * 1e3,
            "request_cpu_p95_ms": percentile(plain.cpu, 95) * 1e3,
            "peak_rss_mb": memory.peak_mb(),
        }
    )
    outcome.unscaled.update(
        {
            "host_factor": median(factors),
            "setup_wall_s": median(setup_wall),
            "throughput_wall_qps": plain.answers / plain.elapsed,
            "request_wall_p50_ms": percentile(plain.latencies, 50) * 1e3,
            "request_wall_p95_ms": percentile(plain.latencies, 95) * 1e3,
        }
    )


def _answers(report: BatchReport) -> List[Answer]:
    """What the checks need of a report: per query its id, degraded flag, match, key, distance."""
    return [
        (r.query_id, r.degraded, r.identification.matched, r.identification.key, r.identification.distance)
        for r in report.results
    ]


def closed_loop(
    call: Callable[[object], BatchReport],
    requests: Sequence[object],
    seconds: float,
    memory: PeakMemory,
    start: int = 0,
    pids: Tuple[int, ...] = (),
    worker_kb: Callable[[], int] = lambda: 0,
) -> Tuple[Window, List[List[Answer]]]:
    """One client: send, wait for the answer, send the next, for ``seconds``.

    Requests are taken cyclically from ``start``.  Returns the slice's
    timings (requests' CPU time includes the processes ``pids``) and the
    answers in order; at least one request is always sent.  Only the
    :func:`_answers` of a report are kept, so the benchmark's memory
    stays out of ``peak_rss_mb``; ``memory`` is read after
    ``memory.after`` requests, with ``worker_kb()`` added.
    """
    window = Window()
    answers: List[List[Answer]] = []
    began, began_cpu, calibrated = time.perf_counter(), cpu_s(pids), HOST.spent
    while True:
        request = requests[(start + len(answers)) % len(requests)]
        HOST.tick()
        sent, sent_cpu = time.perf_counter(), cpu_s(pids)
        report = call(request)
        done, done_cpu = time.perf_counter(), cpu_s(pids)
        answers.append(_answers(report))
        window.latencies.append(done - sent)
        window.cpu.append(done_cpu - sent_cpu)
        if len(answers) == memory.after:
            memory.read(worker_kb())
        if done - began >= seconds:
            window.elapsed = done - began
            window.cpu_elapsed = done_cpu - began_cpu - (HOST.spent - calibrated)
            return window, answers


def _check_answers(outcome: Outcome, answers: Sequence[Answer], expected: Sequence[Decision]) -> None:
    if len(answers) != len(expected):
        outcome.check(False, f"{len(answers)} answers for {len(expected)} queries")
    for (query_id, degraded, matched, key, distance), wanted in zip(answers, expected):
        outcome.check(
            not degraded and same_decision(wanted, matched, key, distance),
            f"{query_id}: got {key}@{distance}, oracle {wanted}",
        )


class OracleCache:
    """Oracle decisions per probe position, computed once each."""

    def __init__(self, oracle: DecisionOracle, probes: Sequence[corpus.Probe]) -> None:
        self._oracle = oracle
        self._probes = probes
        self._decisions: Dict[int, Decision] = {}

    def __getitem__(self, position: int) -> Decision:
        if position not in self._decisions:
            self._decisions[position] = self._oracle.decide_indices(self._probes[position].errors)
        return self._decisions[position]


def _oracle(devices: Sequence[corpus.Device]) -> DecisionOracle:
    return DecisionOracle(corpus.NBITS, [(d.key, d.fingerprint) for d in devices], DEFAULT_THRESHOLD)


def _queries(probes: Sequence[corpus.Probe]) -> List[BatchQuery]:
    return [
        BatchQuery.from_errors(p.query_id, BitVector.from_indices(corpus.NBITS, p.errors))
        for p in probes
    ]


def _segment_bytes(store: ShardedFingerprintStore) -> List[bytes]:
    return [store.segment_path(record).read_bytes() for record in store.segments]


def _store_bytes(store: ShardedFingerprintStore) -> int:
    return sum(store.segment_path(record).stat().st_size for record in store.segments)


def _shard_contents(store: ShardedFingerprintStore) -> list:
    return [list(store.load_shard(s).database.items()) for s in range(store.n_shards)]


def _common_replays(
    outcome: Outcome,
    error_strings: Sequence[BitVector],
    entries,
    segments: Sequence[bytes],
    parts,
) -> None:
    """Replays of the layers every workload runs, each on the run's own inputs."""
    fingerprints = [fingerprint for _key, fingerprint in entries]
    outcome.layers.update(
        {
            "core.distance.us_per_pair": layers.distance_us_per_pair(error_strings, fingerprints),
            "core.serialize.decode_us_per_record": layers.decode_us_per_record(segments),
            "service.indexed.build_s": layers.index_build_s(parts),
        }
    )


def _index_layers(outcome: Outcome, before: Dict[str, int], after: Dict[str, int]) -> None:
    """Scoring-layer work counts from the index counters of the traced window."""
    verifications = counter_delta(before, after, "index.verifications")
    outcome.layers.update(
        {
            "service.indexed.candidates_per_query": ratio(
                counter_delta(before, after, "index.candidates"),
                counter_delta(before, after, "index.indexed_scans"),
            ),
            "service.indexed.verify_share": ratio(
                verifications, counter_delta(before, after, "index.pairs_considered")
            ),
            "core.distance.pairs_per_query": ratio(
                verifications, counter_delta(before, after, "index.queries")
            ),
        }
    )


def _scoring_replay(
    outcome: Outcome,
    store: ShardedFingerprintStore,
    requests: Sequence[Tuple[float, Sequence[BitVector]]],
) -> None:
    """Replay each request's queries shard by shard, sequentially and untraced.

    Shard scans run on parallel threads inside a request, so their span
    durations overlap and include waits for the interpreter lock; the
    replay gives each layer's own CPU time.  ``requests`` pairs a
    measured untraced request's CPU time (s) with its error strings.
    """
    replicas = [store.load_shard(shard).database for shard in range(store.n_shards)]
    candidates_s, identify_s, overheads = [], [], []
    for request_cpu, error_strings in requests:
        candidates = identify = 0.0
        for error_string in error_strings:
            for database in replicas:
                started = time.process_time()
                database.candidate_keys(error_string)
                listed = time.process_time()
                database.identify_error_string(error_string, DEFAULT_THRESHOLD)
                done = time.process_time()
                candidates += listed - started
                identify += done - listed
        candidates_s.append(candidates)
        identify_s.append(identify)
        overheads.append(request_cpu - identify)
    outcome.layers.update(
        {
            "service.indexed.candidates_ms": median(candidates_s) * 1e3,
            "service.indexed.verify_ms": median(
                [total - listed for total, listed in zip(identify_s, candidates_s)]
            ) * 1e3,
            "service.batch.request_overhead_ms": median(overheads) * 1e3,
        }
    )


def _sequence_errors(store: ShardedFingerprintStore, entries) -> int:
    """Stored keys whose global sequence is not their enrolment position.

    Algorithm 2's first-enrolled-wins merge across shards relies on
    these sequences, so every mismatch is a latent wrong decision.
    """
    position = {key: index for index, (key, _fingerprint) in enumerate(entries)}
    return sum(
        sequence != position[key]
        for shard in range(store.n_shards)
        for key, sequence in store.load_shard(shard).sequences.items()
    )


def _wall_s(spans: Sequence) -> float:
    """Wall time covered by possibly overlapping spans, first start to last end."""
    if not spans:
        return 0.0
    return (max(s.start_us + s.duration_us for s in spans) - min(s.start_us for s in spans)) / 1e6


def _store_layers(outcome: Outcome, trace: LayerTrace, store: ShardedFingerprintStore, entries) -> None:
    """Write-path and open/load numbers from a traced set-up."""
    ingests = trace.spans("bench.store.ingest")
    ingest_ms = [span.duration_us / 1e3 for span in ingests]
    decodes = trace.children("bench.store.ingest", "bench.serialize.load_database")
    records = sum(int(s.attributes.get("records", 0)) for group in decodes.values() for s in group)
    decile = max(1, len(ingest_ms) // 10)
    per_fingerprint = _store_bytes(store) / len(entries)
    outcome.layers.update(
        {
            "service.store.ingest_ms_p50": percentile(ingest_ms, 50),
            "service.store.ingest_ms_p95": percentile(ingest_ms, 95),
            "service.store.ingest_growth": float(np.mean(ingest_ms[-decile:]) / np.mean(ingest_ms[:decile])),
            "core.serialize.records_decoded_per_ingest": records / len(ingests),
            "service.store.shard_load_s": _wall_s(trace.spans("store.shard_load")),
            "service.store.open_ms": trace.durations_ms("bench.store.open")[-1],
            "service.store.segments_before_compaction": float(len(store.segments)),
            "service.store.segments_after_compaction": float(len(store.segments)),
            "service.store.bytes_per_fingerprint_before_compaction": per_fingerprint,
            "service.store.bytes_per_fingerprint_after_compaction": per_fingerprint,
            "service.store.sequence_errors": float(_sequence_errors(store, entries)),
        }
    )


def _store_setup(directory: Path, entries, first: Sequence[BatchQuery]) -> Tuple[Setup, BatchReport]:
    """Create a 4-shard store, ingest, reopen and answer a first (cold) batch."""
    writer = ShardedFingerprintStore(directory, n_shards=N_SHARDS)
    ingest_start = time.perf_counter()
    writer.ingest(entries)
    opened = time.perf_counter()
    reader = ShardedFingerprintStore(directory)
    service = BatchIdentificationService(reader)
    report = service.run(first)
    done = time.perf_counter()
    setup = Setup(done - opened, len(entries) / (opened - ingest_start), reader.metrics, (reader, service))
    return setup, report


# ----------------------------------------------------------------------
# warm-identify
# ----------------------------------------------------------------------


def warm_identify(rng: np.random.Generator, seconds: float, trace: bool, work: Path) -> Outcome:
    """10k devices, 4 warm shards, one single-query ``run`` per request (80 % known)."""
    enrolled = corpus.make_devices(rng, 10_000)
    unknown = corpus.make_devices(rng, 2_000, prefix="unk")
    entries = corpus.enrolment(enrolled)
    probes = corpus.probe_mix(rng, enrolled, unknown, 3_000, known_share=0.8)
    queries = _queries(probes)
    expected = OracleCache(_oracle(enrolled), probes)
    requests = [[query] for query in queries[1:]]
    outcome = Outcome()
    memory = PeakMemory(after=60)
    sent = [0]  # requests sent so far: each slice continues through the pool
    answered: List[Tuple[float, int]] = []  # (CPU time, probe position) in order

    def setup(attempt: int) -> Setup:
        state, report = _store_setup(work / f"store-{attempt}", entries, queries[:1])
        _check_answers(outcome, _answers(report), [expected[0]])
        return state

    def measure(state: Setup, window_s: float) -> Window:
        _reader, service = state.handle
        start = sent[0]
        window, answers = closed_loop(service.run, requests, window_s, memory, start)
        for offset, answer in enumerate(answers):
            position = 1 + (start + offset) % len(requests)
            _check_answers(outcome, answer, [expected[position]])
            answered.append((window.cpu[offset], position))
        sent[0] += len(answers)
        window.answers = len(answers)
        return window

    def traced_layers(state, setup_trace, window, piece, plain, before, after) -> None:
        store, _service = state.handle
        untraced = answered[: len(plain.cpu)]
        used = [position for _cpu, position in untraced]
        _index_layers(outcome, before, after)
        _scoring_replay(outcome, store, [(cpu, [queries[p].error_string]) for cpu, p in untraced[:100]])
        _store_layers(outcome, setup_trace, store, entries)
        _common_replays(
            outcome, [queries[p].error_string for p in used], entries,
            _segment_bytes(store), _shard_contents(store),
        )
        # The batch service routes unmatched queries to its residual clusterer.
        outcome.layers["core.cluster.add_us"] = layers.cluster_add_us(
            [queries[p].error_string for p in used if expected[p][0] is None]
        )

    interleaved(outcome, seconds, trace, memory, setup, measure, traced_layers)
    return outcome


# ----------------------------------------------------------------------
# stream-pairs
# ----------------------------------------------------------------------


class _EngineTimer:
    """Times every ``BatchIdentificationService.run`` call (one stream micro-batch).

    ``calls`` holds each call's wall time and the process's CPU time
    over it (s; the stream's reader thread runs alongside and is
    included), with the queries it answered when ``keep_queries`` is
    set, with ``None`` otherwise.
    """

    def __init__(self, keep_queries: bool) -> None:
        self.calls: List[Tuple[float, float, Optional[List[BatchQuery]]]] = []
        self._keep = keep_queries
        self._original = None

    def __enter__(self) -> "_EngineTimer":
        original = self._original = BatchIdentificationService.run
        calls, keep = self.calls, self._keep

        def timed(service, queries):
            HOST.tick()
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                return original(service, queries)
            finally:
                calls.append(
                    (time.perf_counter() - start, time.process_time() - start_cpu, list(queries) if keep else None)
                )

        BatchIdentificationService.run = timed
        return self

    def __exit__(self, *_exc: object) -> None:
        BatchIdentificationService.run = self._original


def _pairs(queries: Sequence[BatchQuery]) -> Tuple[List[BitVector], List[BitVector]]:
    """The ``(approx, exact)`` pages of one micro-batch's queries."""
    return [q.approx for q in queries], [q.exact for q in queries]


def _read_jsonl(path: Path) -> List[dict]:
    with open(path, "r", encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def _check_stream_pass(
    outcome: Outcome,
    state: Path,
    consumed: int,
    observations: Sequence[corpus.Observation],
    first: int,
    expected: Dict[int, Decision],
) -> Tuple[List[dict], int]:
    """Check every consumed offset: valid lines answered as the oracle says,
    malformed ones quarantined and never answered.  Stream offset ``o``
    is observation ``(first + o) % len(observations)``."""
    results = {row["offset"]: row for row in _read_jsonl(state / "results.jsonl")}
    quarantined = {row["offset"] for row in _read_jsonl(state / "quarantine.jsonl")}
    outcome.check(
        set(results) | quarantined == set(range(consumed)),
        f"{state.name}: answered+quarantined offsets are not exactly 0..{consumed - 1}",
    )
    for offset in range(consumed):
        position = (first + offset) % len(observations)
        if not observations[position].valid:
            outcome.check(
                offset in quarantined and offset not in results,
                f"malformed line {offset} was not quarantined",
            )
            continue
        row = results.get(offset)
        outcome.check(
            row is not None
            and not row["degraded"]
            and same_decision(expected[position], row["matched"], row["key"], row["distance"]),
            f"observation {offset}: got {row}, oracle {expected[position]}",
        )
    return [results[o] for o in sorted(results)], len(quarantined)


def stream_pairs(rng: np.random.Generator, seconds: float, trace: bool, work: Path) -> Outcome:
    """approx+exact page observations (2 % malformed, ~20 % from 32
    unenrolled devices) streamed against a 2k-device 4-shard store."""
    enrolled = corpus.make_devices(rng, 2_000)
    unknown = corpus.make_devices(rng, 32, prefix="unk")
    entries = corpus.enrolment(enrolled)
    observations = corpus.observation_stream(
        rng, enrolled, unknown, 4_000, unknown_share=0.2, malformed_share=0.02
    )
    oracle = _oracle(enrolled)
    expected = {
        offset: oracle.decide_indices(o.errors) for offset, o in enumerate(observations) if o.valid
    }
    warm_obs = [o for o in observations if o.valid][:64]
    warm = _queries([corpus.Probe(f"warm-{i}", o.errors) for i, o in enumerate(warm_obs)])
    warm_expected = [oracle.decide_indices(o.errors) for o in warm_obs]
    outcome = Outcome()
    memory = PeakMemory(after=256)
    passes: List[dict] = []
    cursor = [0]  # each slice's stream continues where the previous one stopped

    def lines(first: int) -> Iterator[str]:
        """The observations, cycled from ``first``; ``memory`` is read when
        the stream has taken ``memory.after`` of them."""
        for taken in itertools.count():
            if taken == memory.after:
                memory.read()
            yield observations[(first + taken) % len(observations)].line

    def setup(attempt: int) -> Setup:
        state, report = _store_setup(work / f"store-{attempt}", entries, warm)
        _check_answers(outcome, _answers(report), warm_expected)
        return state

    def measure(state: Setup, window_s: float) -> Window:
        """Stream the observations (cycled) until the window ends, then drain."""
        store, _service = state.handle
        directory = work / f"state-{len(passes)}"
        service = StreamingIdentificationService(store, directory)
        stop = threading.Event()
        timer = threading.Timer(window_s, stop.set)
        first = cursor[0]
        with _EngineTimer(keep_queries=trace) as engine:
            started, started_cpu, calibrated = time.perf_counter(), time.process_time(), HOST.spent
            timer.start()
            try:
                report = service.run(lines(first), stop_event=stop)
            finally:
                timer.cancel()
                timer.join()
            elapsed = time.perf_counter() - started
            cpu_elapsed = time.process_time() - started_cpu - (HOST.spent - calibrated)
        rows, quarantined = _check_stream_pass(
            outcome, directory, report.final_offset, observations, first, expected
        )
        cursor[0] += report.final_offset
        outcome.check(
            report.status == "interrupted" and report.restarts == 0,
            f"stream pass {len(passes)}: {report.status}, {report.restarts} restarts",
        )
        # Only a traced run reads the rows and calls back; an untraced one
        # drops them so their size does not show in peak_rss_mb.
        passes.append(
            {"report": report, "rows": rows if trace else None, "quarantined": quarantined,
             "first": first, "calls": engine.calls}
        )
        return Window(
            [latency for latency, _cpu, _queries in engine.calls],
            [cpu for _latency, cpu, _queries in engine.calls],
            report.observations,
            elapsed,
            cpu_elapsed,
        )

    def traced_layers(state, setup_trace, window, piece, plain, before, after) -> None:
        store, _service = state.handle
        last = passes[-1]
        report, rows, first = last["report"], last["rows"], last["first"]
        consumed = [observations[(first + o) % len(observations)] for o in range(report.final_offset)]
        traced_batches = [_pairs(queries) for _latency, _cpu, queries in last["calls"]]
        untraced_calls = [call for done in passes[:-1] for call in done["calls"]]
        residuals = [
            BitVector.from_indices(corpus.NBITS, observations[(first + row["offset"]) % len(observations)].errors)
            for row in rows
            if not row["matched"]
        ]
        _index_layers(outcome, before, after)
        _scoring_replay(
            outcome, store,
            [(cpu, mark_errors_batch(*_pairs(queries))) for _latency, cpu, queries in untraced_calls[:6]],
        )
        _store_layers(outcome, setup_trace, store, entries)
        _common_replays(
            outcome, [e for approx, exact in traced_batches for e in mark_errors_batch(approx, exact)],
            entries, _segment_bytes(store), _shard_contents(store),
        )
        outcome.layers.update(
            {
                "service.batch.mark_errors_us_per_obs": layers.mark_errors_us_per_obs(traced_batches),
                "service.stream.validate_us_per_obs": layers.validate_us_per_obs([o.line for o in consumed]),
                "core.cluster.add_us": layers.cluster_add_us(residuals),
                "service.stream.batch_ms_p50": percentile(window.durations_ms("stream.batch"), 50),
                "service.stream.checkpoint_ms_p50": percentile(window.durations_ms("stream.checkpoint"), 50),
                "service.stream.quarantine_ratio": last["quarantined"] / report.observations,
                "core.cluster.suspects": float(len({row["suspect_key"] for row in rows if row["suspect_key"]})),
                "service.supervisor.restarts": float(report.restarts),
            }
        )

    interleaved(outcome, seconds, trace, memory, setup, measure, traced_layers)
    return outcome


# ----------------------------------------------------------------------
# store-lifecycle
# ----------------------------------------------------------------------

LIFECYCLE_DEVICES = 6_000
INGEST_BATCH = 250
LOOKUPS = 200  # per pass
#: Passes drawn per run, used in turn: a pass repeated all run long would
#: tie the rate to which segments its 50 live keys sit in (segments differ
#: in size after size-tiered compaction), a fixed draw per seed.
LOOKUP_PASSES = 30
#: Kinds of 20 consecutive lookups: 0 live, 1 tombstoned, 2 never enrolled.
#: A bloom-skip lookup right after a segment decode costs ~3x more (72 µs
#: against 21 µs of CPU: the decode evicted the caches), so a shuffled
#: order would move the share of such lookups, and the median that sits
#: in the bloom-skip mode, from seed to seed.  Live keys come in a run of
#: five, so one lookup in twenty follows a decode and the median stays
#: well inside the fast mode.
LOOKUP_PATTERN = [0] * 5 + [1] + [2] * 14


def store_lifecycle(rng: np.random.Generator, seconds: float, trace: bool, work: Path) -> Outcome:
    """Enrol 6k devices in arrival order (batches of 250), tombstone 2 %,
    compact, reopen; then cold lookups (25 % present) and a 32-query batch."""
    devices = corpus.make_devices(rng, LIFECYCLE_DEVICES + 2_000)
    enrolled, never = devices[:LIFECYCLE_DEVICES], devices[LIFECYCLE_DEVICES:]
    entries = corpus.enrolment(enrolled)
    dead_positions = set(rng.choice(len(enrolled), len(enrolled) // 50, replace=False).tolist())
    dead = [enrolled[i].key for i in sorted(dead_positions)]
    live = [d for i, d in enumerate(enrolled) if i not in dead_positions]
    oracle = _oracle(live)
    probes = corpus.probe_mix(rng, enrolled, never, 32, known_share=0.8)
    first = _queries(probes)
    first_expected = [oracle.decide_indices(p.errors) for p in probes]
    # Lookups: exactly 25 % live keys, 5 % tombstoned, 70 % never enrolled,
    # in a fixed pattern; only the keys are drawn from the seed.
    kinds = LOOKUP_PATTERN * (LOOKUPS // len(LOOKUP_PATTERN))
    pools = {0: [(d.key, True) for d in live], 1: [(key, False) for key in dead], 2: [(d.key, False) for d in never]}
    lookup_passes = [
        [pools[kind][int(rng.integers(len(pools[kind])))] for kind in kinds] for _ in range(LOOKUP_PASSES)
    ]
    passes_sent = [0]  # each pass takes the next list, across rounds
    fingerprints = {key: fingerprint for key, fingerprint in entries}
    outcome = Outcome()
    memory = PeakMemory(after=LOOKUPS)  # read after a round's first pass
    pre_compaction: List[float] = []
    bloom: Dict[str, int] = {}

    def check_lookup(request: Tuple[str, bool], found) -> None:
        # The stored global sequence is not compared here: it is wrong for
        # batches whose arrival order interleaves shards (see
        # service.store.sequence_errors), while lookups themselves answer.
        key, present = request
        if not present:
            outcome.check(found is None, f"lookup {key}: expected absent, got {found}")
        else:
            outcome.check(
                found is not None and found.fingerprint.bits == fingerprints[key].bits,
                f"lookup {key}: expected its enrolled fingerprint, got {found}",
            )

    def lookup_pass(directory: Path, window: Window, requests: Sequence[Tuple[str, bool]]) -> None:
        """One pass over ``requests`` on a fresh store handle (cold shards).

        Each answer is checked as it arrives (a dict lookup and a
        compare), so no answer is held.
        """
        handle = ShardedFingerprintStore(directory)
        for request in requests:
            HOST.tick()
            sent, sent_cpu = time.perf_counter(), time.process_time()
            found = handle.lookup(request[0])
            window.latencies.append(time.perf_counter() - sent)
            window.cpu.append(time.process_time() - sent_cpu)
            check_lookup(request, found)
        for name, value in handle.metrics.counters_with_prefix("store.bloom").items():
            bloom[name] = bloom.get(name, 0) + value

    def setup(attempt: int) -> Setup:
        """Enrol in batches, tombstone, compact, reopen and answer a first batch."""
        traced = trace and attempt == SETUPS - 1
        directory = work / f"store-{attempt}"
        store = ShardedFingerprintStore(directory, n_shards=N_SHARDS)
        ingest_start = time.perf_counter()
        for begin in range(0, len(entries), INGEST_BATCH):
            store.ingest(entries[begin:begin + INGEST_BATCH])
        ingested = time.perf_counter()
        ingest_skips = store.metrics.counter("store.bloom_segment_skips")
        store.tombstone(dead)
        before = {"segments": len(store.segments), "bytes": _store_bytes(store), "skips": ingest_skips}
        if traced:
            before_compaction = Window()
            lookup_pass(directory, before_compaction, lookup_passes[-1])
            pre_compaction.extend(before_compaction.cpu)
        compact_start = time.perf_counter()
        report = Compactor(store).compact_all()
        opened = time.perf_counter()
        reader = ShardedFingerprintStore(directory)
        answered = BatchIdentificationService(reader).run(first)
        done = time.perf_counter()
        _check_answers(outcome, _answers(answered), first_expected)
        handle = {"directory": directory, "reader": reader, "report": report,
                  "compact_s": opened - compact_start, "before": before}
        return Setup(done - opened, len(entries) / (ingested - ingest_start), reader.metrics, handle)

    def measure(state: Setup, window_s: float) -> Window:
        """Whole passes over the lookup list until the window ends.

        A pass's first lookups also load the bloom filters, so a pass cut
        short would cost more per lookup the shorter it is; whole passes
        keep the rate independent of where the window ends.
        """
        bloom.clear()
        window = Window()
        began, began_cpu, calibrated = time.perf_counter(), time.process_time(), HOST.spent
        while time.perf_counter() - began < window_s:
            lookup_pass(state.handle["directory"], window, lookup_passes[passes_sent[0] % LOOKUP_PASSES])
            passes_sent[0] += 1
            memory.read()
        window.answers = len(window.cpu)
        window.elapsed = time.perf_counter() - began
        window.cpu_elapsed = time.process_time() - began_cpu - (HOST.spent - calibrated)
        return window

    def traced_layers(state, setup_trace, window, piece, plain, before, after) -> None:
        handle = state.handle
        reader = handle["reader"]
        merges = handle["report"].merges
        rewritten = sum(m.bytes_after for m in merges)
        ingest_decodes = sum(
            len(group)
            for group in setup_trace.children("bench.store.ingest", "bench.serialize.load_database").values()
        )
        skips = bloom.get("store.bloom_segment_skips", 0)
        loads = bloom.get("store.bloom_segment_loads", 0)
        _store_layers(outcome, setup_trace, reader, entries)
        service = BatchIdentificationService(reader)
        service.run(first)
        counters = reader.metrics.counters_with_prefix("")
        started = time.process_time()
        service.run(first)
        _scoring_replay(outcome, reader, [(time.process_time() - started, [q.error_string for q in first])])
        _index_layers(outcome, counters, reader.metrics.counters_with_prefix(""))
        _common_replays(
            outcome, [q.error_string for q in first], entries, _segment_bytes(reader), _shard_contents(reader)
        )
        # The first batch's unmatched queries go to the batch service's residual clusterer.
        outcome.layers["core.cluster.add_us"] = layers.cluster_add_us(
            [q.error_string for q, wanted in zip(first, first_expected) if wanted[0] is None]
        )
        ingest_skips = handle["before"]["skips"]
        outcome.layers.update(
            {
                "service.store.segments_before_compaction": float(handle["before"]["segments"]),
                "service.store.bytes_per_fingerprint_before_compaction": handle["before"]["bytes"] / len(entries),
                "reliability.bloom.lookup_skip_ratio": ratio(skips, skips + loads),
                "reliability.bloom.false_positive_ratio": ratio(
                    bloom.get("store.bloom_false_positives", 0), loads
                ),
                "reliability.bloom.ingest_skip_ratio": ratio(ingest_skips, ingest_skips + ingest_decodes),
                "reliability.compaction.segments_merged": float(sum(len(m.sources) for m in merges)),
                "reliability.compaction.bytes_rewritten": float(rewritten),
                "reliability.compaction.write_amp": ratio(rewritten, handle["before"]["bytes"]),
                "reliability.compaction.compact_s": handle["compact_s"],
                "reliability.compaction.lookup_p95_before_ms": percentile(pre_compaction, 95) * 1e3,
            }
        )

    interleaved(outcome, seconds, trace, memory, setup, measure, traced_layers)
    return outcome


# ----------------------------------------------------------------------
# cluster-hedged
# ----------------------------------------------------------------------

CLUSTER_WORKERS = 2
CLUSTER_REQUEST = 16


def cluster_hedged(rng: np.random.Generator, seconds: float, trace: bool, work: Path) -> Outcome:
    """4k devices on a 2-worker cluster; one 16-query ``identify`` per request."""
    enrolled = corpus.make_devices(rng, 4_000)
    unknown = corpus.make_devices(rng, 800, prefix="unk")
    entries = corpus.enrolment(enrolled)
    probes = corpus.probe_mix(rng, enrolled, unknown, CLUSTER_REQUEST * 250, known_share=0.8)
    queries = _queries(probes)
    expected = OracleCache(_oracle(enrolled), probes)
    requests = [
        queries[begin:begin + CLUSTER_REQUEST] for begin in range(0, len(queries), CLUSTER_REQUEST)
    ]
    outcome = Outcome()
    memory = PeakMemory(after=12)
    sent = [1]  # request 0 is every set-up's first (cold) request
    start_s: List[float] = []

    def check(index: int, answers: List[Answer]) -> None:
        base = index * CLUSTER_REQUEST
        _check_answers(outcome, answers, [expected[base + i] for i in range(CLUSTER_REQUEST)])

    def setup(attempt: int) -> Setup:
        """Build a 2-worker cluster (defaults: 8 partitions, R=2), start it, answer once."""
        directory = work / f"cluster-{attempt}"
        started = time.perf_counter()
        build_cluster(directory, entries, n_workers=CLUSTER_WORKERS)
        built = time.perf_counter()
        service = ClusterService(directory)
        try:
            service.start()
            running = time.perf_counter()
            report = service.identify(requests[0])
        except BaseException:
            service.stop()
            raise
        done = time.perf_counter()
        start_s.append(running - built)
        check(0, _answers(report))
        pids = tuple(service.worker_handle(worker).pid for worker in service.placement.workers)
        return Setup(done - built, len(entries) / (built - started), service.metrics,
                     {"service": service, "directory": directory}, pids)

    def measure(state: Setup, window_s: float) -> Window:
        """Requests in a closed loop; CPU time and memory include both workers'."""

        def worker_kb() -> int:
            return sum(private_rss_kb(pid) for pid in state.pids)

        first = sent[0]
        window, answers = closed_loop(
            state.handle["service"].identify, requests, window_s, memory, first, state.pids, worker_kb
        )
        memory.read(worker_kb())  # when the slice sent fewer than memory.after requests
        for offset, answer in enumerate(answers):
            check((first + offset) % len(requests), answer)
        sent[0] += len(answers)
        window.answers = len(answers) * CLUSTER_REQUEST
        return window

    def traced_layers(state, setup_trace, window, piece, plain, before, after) -> None:
        service = state.handle["service"]
        hedges = counter_delta(before, after, "cluster.hedges")
        worker = service.placement.workers[0]
        handle = service.worker_handle(worker)
        wire = [encode_query(q.query_id, q.error_string) for q in requests[1]]
        partitions = service.placement.partitions_of(worker)
        ping_ms, identify_ms = [], []
        for _ in range(30):
            started = time.perf_counter()
            handle.ping()
            ping_ms.append((time.perf_counter() - started) * 1e3)
        for _ in range(10):
            started = time.perf_counter()
            handle.identify(wire, partitions)
            identify_ms.append((time.perf_counter() - started) * 1e3)
        used = queries[CLUSTER_REQUEST:CLUSTER_REQUEST * min(len(requests), sent[0])]
        partition_entries: Dict[int, list] = {}
        for key, fingerprint in entries:
            partition_entries.setdefault(service.placement.partition_for_key(key), []).append(
                (key, fingerprint)
            )
        segments = [path.read_bytes() for path in sorted(state.handle["directory"].rglob("*.pcfp"))]
        _common_replays(outcome, [q.error_string for q in used], entries, segments, list(partition_entries.values()))
        outcome.layers.update(
            {
                "service.cluster.hedge_ratio": ratio(hedges, counter_delta(before, after, "cluster.requests")),
                "service.cluster.hedge_win_ratio": ratio(counter_delta(before, after, "cluster.hedge_wins"), hedges),
                "service.cluster.start_s": median(start_s),
                "service.rpc.ping_ms": median(ping_ms),
                "service.rpc.identify_ms": median(identify_ms),
            }
        )

    def teardown(state: Setup) -> None:
        state.handle["service"].stop()

    interleaved(outcome, seconds, trace, memory, setup, measure, traced_layers, teardown)
    return outcome


WORKLOADS: Dict[str, Callable[[np.random.Generator, float, bool, Path], Outcome]] = {
    "warm-identify": warm_identify,
    "stream-pairs": stream_pairs,
    "store-lifecycle": store_lifecycle,
    "cluster-hedged": cluster_hedged,
}


def clean(work: Path) -> None:
    """Remove a run's scratch directory."""
    shutil.rmtree(work, ignore_errors=True)
