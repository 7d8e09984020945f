"""Traced-run instrumentation and per-layer replays.

A traced run installs a :class:`repro.obs.trace.Tracer` for the
program's own spans (``stream.batch``, ``store.shard_load`` ...) and,
from this file only, wraps the public functions of each layer so every
call into a layer records a ``bench.<layer>`` span with its caller as
parent.  Nothing under ``src/`` changes: the wrappers are installed on
the classes and module attributes at run time and removed afterwards.

Replays time one layer's public function in isolation, in CPU time
(see :func:`common.cpu_s`), on this run's own inputs (the fixed pair
sample, the run's segments, its residuals), so a per-layer number is
not blurred by the rest of the request.
"""

from __future__ import annotations

import functools
import io
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.service.store as store_module
from repro.bits import BitVector
from repro.core.cluster import OnlineClusterer
from repro.core.distance import DEFAULT_THRESHOLD, probable_cause_distance
from repro.core.errors import mark_errors_batch
from repro.core.fingerprint import Fingerprint
from repro.core.identify import FingerprintDatabase
from repro.core.serialize import load_database
from repro.obs.trace import Span, Tracer, set_tracer
from repro.reliability.compaction import Compactor
from repro.service.batch import BatchIdentificationService
from repro.service.cluster import ClusterService
from repro.service.indexed import IndexedFingerprintDatabase
from repro.service.rpc import WorkerHandle
from repro.service.store import ShardedFingerprintStore
from repro.service.stream import StreamingIdentificationService, validate_observation

#: ``(owner, attribute, span name)`` of every public call the traced
#: run records.  ``load_database`` is wrapped where the store looks it
#: up, so segment decodes nest under the ingest / lookup that caused them.
INSTRUMENTED: Tuple[Tuple[object, str, str], ...] = (
    (BatchIdentificationService, "run", "bench.batch.run"),
    (IndexedFingerprintDatabase, "identify_error_string", "bench.indexed.identify"),
    (IndexedFingerprintDatabase, "candidate_keys", "bench.indexed.candidates"),
    (ShardedFingerprintStore, "__init__", "bench.store.open"),
    (ShardedFingerprintStore, "ingest", "bench.store.ingest"),
    (ShardedFingerprintStore, "lookup", "bench.store.lookup"),
    (ShardedFingerprintStore, "load_shard", "bench.store.load_shard"),
    (ShardedFingerprintStore, "tombstone", "bench.store.tombstone"),
    (store_module, "load_database", "bench.serialize.load_database"),
    (Compactor, "compact_all", "bench.compaction.compact_all"),
    (StreamingIdentificationService, "run", "bench.stream.run"),
    (ClusterService, "start", "bench.cluster.start"),
    (ClusterService, "identify", "bench.cluster.identify"),
    (WorkerHandle, "ping", "bench.rpc.ping"),
    (WorkerHandle, "identify", "bench.rpc.identify"),
)


def _annotate(result: object) -> Dict[str, object]:
    # Decoded segments carry their record count so per-ingest decode
    # volume can be summed from the trace.
    if isinstance(result, FingerprintDatabase):
        return {"records": len(result)}
    return {}


class LayerTrace:
    """Context manager that records layer spans for the duration of a block."""

    def __init__(self) -> None:
        self.tracer = Tracer(capacity=1 << 20)
        self._restore: List[Tuple[object, str, object]] = []
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> "LayerTrace":
        self._previous = set_tracer(self.tracer)
        for owner, attribute, name in INSTRUMENTED:
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(original, name))
            self._restore.append((owner, attribute, original))
        return self

    def __exit__(self, *_exc: object) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)
        set_tracer(self._previous)

    def _wrap(self, original: Callable, name: str) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as active:
                result = original(*args, **kwargs)
                if active is not None:
                    active.attributes.update(_annotate(result))
                return result

        return traced

    # -- reading the trace ---------------------------------------------

    def spans(self, name: str) -> List[Span]:
        """Every finished span called ``name``, in completion order."""
        return [span for span in self.tracer.buffer.spans() if span.name == name]

    def durations_ms(self, name: str) -> List[float]:
        """Durations of the spans called ``name``, in milliseconds."""
        return [span.duration_us / 1e3 for span in self.spans(name)]

    def children(self, parent_name: str, child_name: str) -> Dict[int, List[Span]]:
        """``child_name`` spans grouped by the id of their ``parent_name`` parent."""
        parents = {span.span_id for span in self.spans(parent_name)}
        grouped: Dict[int, List[Span]] = {span_id: [] for span_id in parents}
        for span in self.spans(child_name):
            if span.parent_id in grouped:
                grouped[span.parent_id].append(span)
        return grouped


def counter_delta(before: Dict[str, int], after: Dict[str, int], name: str) -> int:
    """Change of one ServiceMetrics counter between two snapshots."""
    return after.get(name, 0) - before.get(name, 0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return float(numerator) / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Replays: one layer's public function, timed alone on this run's data
# ----------------------------------------------------------------------


def _per_item_us(elapsed_s: float, items: int) -> float:
    return elapsed_s * 1e6 / items if items else 0.0


def distance_us_per_pair(
    error_strings: Sequence[BitVector], fingerprints: Sequence[Fingerprint], pairs: int = 4000
) -> float:
    """``probable_cause_distance`` over a fixed pair sample (query i x fingerprint j)."""
    sample = [
        (error_strings[i % len(error_strings)], fingerprints[(i * 7919) % len(fingerprints)])
        for i in range(pairs)
    ]
    start = time.process_time()
    for error_string, fingerprint in sample:
        probable_cause_distance(error_string, fingerprint)
    return _per_item_us(time.process_time() - start, len(sample))


def cluster_add_us(residuals: Sequence[BitVector]) -> float:
    """``OnlineClusterer.add`` over the run's residuals in arrival order."""
    clusterer = OnlineClusterer(threshold=DEFAULT_THRESHOLD)
    start = time.process_time()
    for error_string in residuals:
        clusterer.add(error_string)
    return _per_item_us(time.process_time() - start, len(residuals))


def validate_us_per_obs(lines: Sequence[str]) -> float:
    """``validate_observation`` over raw JSONL lines, rejects included."""
    start = time.process_time()
    for offset, line in enumerate(lines):
        try:
            validate_observation(line, offset)
        except ValueError:
            pass
    return _per_item_us(time.process_time() - start, len(lines))


def mark_errors_us_per_obs(batches: Sequence[Tuple[List[BitVector], List[BitVector]]]) -> float:
    """``mark_errors_batch`` replayed on each micro-batch's pairs."""
    start = time.process_time()
    for approx, exact in batches:
        mark_errors_batch(approx, exact)
    return _per_item_us(time.process_time() - start, sum(len(a) for a, _e in batches))


def decode_us_per_record(segment_bytes: Sequence[bytes]) -> float:
    """``load_database`` run on each segment's bytes."""
    records = 0
    start = time.process_time()
    for data in segment_bytes:
        records += len(load_database(io.BytesIO(data)))
    return _per_item_us(time.process_time() - start, records)


def index_build_s(parts: Sequence[Sequence[Tuple[str, Fingerprint]]]) -> float:
    """Index construction (``IndexedFingerprintDatabase.add``) over each part."""
    start = time.process_time()
    for entries in parts:
        database = IndexedFingerprintDatabase()
        for key, fingerprint in entries:
            database.add(key, fingerprint)
    return time.process_time() - start

