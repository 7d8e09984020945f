"""Seeded input generation for the serving benchmark.

Everything a workload feeds the program is derived here from one
``numpy`` generator seeded by ``--seed``: the same seed gives the same
devices, the same queries in the same order and the same observation
file, byte for byte.

Device model.  Each device owns a *fingerprint* (its most volatile
cells, ~1 % of a 2048-bit page) and a *deeper set* (the cells that fail
next, another ~2 %).  An output seen at a deeper approximation level
keeps 97 % of the fingerprint bits (``floor(0.03 * weight)`` of them are
dropped, so an enrolled device always lands at distance <= 0.03, well
inside the 0.1 threshold), adds the whole deeper set and two fresh
random error bits.  Because the deeper set is device-specific, repeated
outputs of one unenrolled device stay within the threshold of each
other and the residual clusterer can group them into one suspect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bits import BitVector
from repro.core.fingerprint import Fingerprint

NBITS = 2048
FINGERPRINT_DENSITY = 0.01
DEEPER_DENSITY = 0.02
KEEP_SHARE = 0.97
FRESH_ERRORS = 2


@dataclass(frozen=True)
class Device:
    """One simulated device: enrolled fingerprint plus deeper-level cells."""

    key: str
    fingerprint: np.ndarray  # sorted set-bit indices
    deeper: np.ndarray


def _random_indices(rng: np.random.Generator, nbits: int, density: float) -> np.ndarray:
    return np.flatnonzero(rng.random(nbits) < density)


def make_devices(
    rng: np.random.Generator, count: int, prefix: str = "dev", nbits: int = NBITS
) -> List[Device]:
    """``count`` independent devices with keys ``<prefix>-<6 hex digits>``.

    Keys are random (not sequential) so that enrolment order and key
    order differ, as they do for devices that arrive over time.
    """
    labels = rng.choice(16 ** 6, size=count, replace=False)
    devices = []
    for label in labels:
        fingerprint = _random_indices(rng, nbits, FINGERPRINT_DENSITY)
        deeper = np.setdiff1d(
            _random_indices(rng, nbits, DEEPER_DENSITY), fingerprint
        )
        devices.append(Device(f"{prefix}-{int(label):06x}", fingerprint, deeper))
    return devices


def enrolment(devices: Sequence[Device], nbits: int = NBITS) -> List[Tuple[str, Fingerprint]]:
    """``(key, Fingerprint)`` pairs in the given (enrolment) order."""
    return [
        (device.key, Fingerprint(BitVector.from_indices(nbits, device.fingerprint)))
        for device in devices
    ]


def deeper_error_indices(
    rng: np.random.Generator, device: Device, nbits: int = NBITS
) -> np.ndarray:
    """Error-string indices of one output seen at a deeper approximation level."""
    fingerprint = device.fingerprint
    dropped = int(np.floor((1.0 - KEEP_SHARE) * len(fingerprint)))
    kept = (
        np.delete(fingerprint, rng.choice(len(fingerprint), dropped, replace=False))
        if dropped
        else fingerprint
    )
    fresh = rng.choice(nbits, FRESH_ERRORS, replace=False)
    return np.union1d(np.union1d(kept, device.deeper), fresh)


@dataclass(frozen=True)
class Probe:
    """One query: its id and error-string indices."""

    query_id: str
    errors: np.ndarray


def exact_mix(rng: np.random.Generator, count: int, share: float) -> np.ndarray:
    """Shuffled booleans with exactly ``round(share * count)`` set.

    Workload mixes are exact rather than drawn per item, so two seeds
    differ in which items they hold, not in how many of each kind.
    """
    flags = np.zeros(count, dtype=bool)
    flags[: int(round(share * count))] = True
    rng.shuffle(flags)
    return flags


def probe_mix(
    rng: np.random.Generator,
    enrolled: Sequence[Device],
    unknown: Sequence[Device],
    count: int,
    known_share: float,
    prefix: str = "q",
) -> List[Probe]:
    """``count`` probes, exactly ``known_share`` of them from enrolled devices."""
    probes = []
    for position, known in enumerate(exact_mix(rng, count, known_share)):
        pool = enrolled if known else unknown
        device = pool[int(rng.integers(len(pool)))]
        probes.append(Probe(f"{prefix}-{position}", deeper_error_indices(rng, device)))
    return probes


# ----------------------------------------------------------------------
# Stream observations
# ----------------------------------------------------------------------

#: Malformed-line generators; each must be quarantined by validation.
MALFORMED_KINDS = (
    "bad_json",
    "not_object",
    "index_range",
    "non_integer",
    "missing_exact",
    "bad_nbits",
)


def _malformed_line(rng: np.random.Generator, kind: str, position: int) -> str:
    indices = sorted(int(i) for i in rng.choice(NBITS, 8, replace=False))
    if kind == "bad_json":
        return json.dumps({"id": f"bad-{position}", "nbits": NBITS, "approx": indices})[:-7]
    if kind == "not_object":
        return json.dumps(indices)
    if kind == "index_range":
        return json.dumps(
            {"id": f"bad-{position}", "nbits": NBITS, "approx": indices + [NBITS + 3], "exact": indices}
        )
    if kind == "non_integer":
        return json.dumps(
            {"id": f"bad-{position}", "nbits": NBITS, "approx": indices + [1.5], "exact": indices}
        )
    if kind == "missing_exact":
        return json.dumps({"id": f"bad-{position}", "nbits": NBITS, "approx": indices})
    return json.dumps(
        {"id": f"bad-{position}", "nbits": 0, "approx": indices, "exact": indices}
    )


@dataclass(frozen=True)
class Observation:
    """One JSONL line plus what the benchmark expects of it."""

    line: str
    valid: bool
    errors: Optional[np.ndarray]  # error-string indices of a valid line


def observation_stream(
    rng: np.random.Generator,
    enrolled: Sequence[Device],
    unknown: Sequence[Device],
    count: int,
    unknown_share: float,
    malformed_share: float,
    data_density: float = 0.5,
) -> List[Observation]:
    """``approx``+``exact`` page observations, some malformed, in arrival order."""
    malformed = exact_mix(rng, count, malformed_share)
    from_unknown = exact_mix(rng, count, unknown_share)
    observations = []
    for position in range(count):
        if malformed[position]:
            kind = MALFORMED_KINDS[position % len(MALFORMED_KINDS)]
            observations.append(
                Observation(_malformed_line(rng, kind, position), False, None)
            )
            continue
        pool = unknown if from_unknown[position] else enrolled
        device = pool[int(rng.integers(len(pool)))]
        errors = deeper_error_indices(rng, device)
        exact = rng.random(NBITS) < data_density
        approx = exact.copy()
        approx[errors] ^= True
        line = json.dumps(
            {
                "id": f"obs-{position}",
                "nbits": NBITS,
                "approx": np.flatnonzero(approx).tolist(),
                "exact": np.flatnonzero(exact).tolist(),
            },
            separators=(",", ":"),
        )
        observations.append(Observation(line, True, errors))
    return observations
