"""The benchmark's decision oracle against the library's Algorithm 2.

Run from the repository root with ``python3 -m pytest servebench``.
Every case builds a plain :class:`~repro.core.identify.FingerprintDatabase`
(the per-vector linear scan, no index) and requires the oracle's
``(key, distance)`` to equal ``identify_error_string``'s exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracle import DecisionOracle, pack_indices  # noqa: E402
from repro.bits import BitVector  # noqa: E402
from repro.core.distance import DEFAULT_THRESHOLD  # noqa: E402
from repro.core.fingerprint import Fingerprint  # noqa: E402
from repro.core.identify import FingerprintDatabase, identify_error_string  # noqa: E402


def _reference(nbits, entries, probe, threshold=DEFAULT_THRESHOLD):
    database = FingerprintDatabase()
    for key, bits in entries:
        database.add(key, Fingerprint(BitVector.from_indices(nbits, bits)))
    result = identify_error_string(
        BitVector.from_indices(nbits, probe), database, threshold
    )
    return (result.key, result.distance) if result.matched else (None, None)


def _oracle(nbits, entries, probe, threshold=DEFAULT_THRESHOLD):
    return DecisionOracle(nbits, entries, threshold).decide_indices(probe)


def _agree(nbits, entries, probe, threshold=DEFAULT_THRESHOLD):
    expected = _reference(nbits, entries, probe, threshold)
    assert _oracle(nbits, entries, probe, threshold) == expected
    return expected


@st.composite
def corpora(draw):
    nbits = draw(st.integers(min_value=1, max_value=300))
    bit_sets = st.lists(
        st.integers(min_value=0, max_value=nbits - 1), max_size=min(nbits, 24), unique=True
    )
    fingerprints = draw(st.lists(bit_sets, min_size=0, max_size=8))
    # Duplicates: re-enrol some fingerprints under later keys.
    repeats = draw(st.lists(st.integers(0, 7), max_size=3))
    fingerprints += [fingerprints[i] for i in repeats if i < len(fingerprints)]
    entries = [(f"k{i}", bits) for i, bits in enumerate(fingerprints)]
    if fingerprints and draw(st.booleans()):
        # Probe derived from an enrolled fingerprint: mostly near matches.
        base = set(draw(st.sampled_from(fingerprints)))
        dropped = draw(st.lists(st.sampled_from(sorted(base)), unique=True)) if base else []
        extra = draw(bit_sets)
        probe = sorted((base - set(dropped)) | set(extra))
    else:
        probe = draw(bit_sets)
    threshold = draw(st.sampled_from([DEFAULT_THRESHOLD, 0.25, 0.5, 1.0]))
    return nbits, entries, probe, threshold


@settings(max_examples=300, deadline=None)
@given(corpora())
def test_oracle_matches_linear_scan_on_generated_corpora(case):
    _agree(*case)


def test_empty_probe_is_rejected_even_against_empty_fingerprints():
    entries = [("empty", []), ("full", [0, 1, 2])]
    assert _agree(100, entries, []) == (None, None)


def test_empty_fingerprint_matches_any_probe_at_distance_zero():
    entries = [("empty", []), ("other", [5])]
    assert _agree(100, entries, [5, 6]) == ("empty", 0.0)


@pytest.mark.parametrize("missing,expected_key", [(0, "k0"), (1, None), (2, None)])
def test_distance_exactly_at_threshold_does_not_match(missing, expected_key):
    # Weight-10 fingerprint: one missing bit is distance 1/10 == 0.1,
    # which is not strictly below the default threshold.
    fingerprint = list(range(0, 100, 10))
    probe = fingerprint[missing:] + list(range(1, 40, 2))
    assert _agree(100, [("k0", fingerprint)], probe)[0] == expected_key


def test_threshold_boundary_after_the_swap():
    # The probe is the lighter side, so it plays the fingerprint and the
    # divisor is its own weight: 1 missing of 10 is exactly 0.1 again.
    heavy = list(range(50))
    probe = list(range(9)) + [99]
    assert _agree(128, [("heavy", heavy)], probe) == (None, None)
    assert _agree(128, [("heavy", heavy)], probe, threshold=0.11)[0] == "heavy"


@pytest.mark.parametrize("nbits", [1, 63, 65, 127, 129, 1000])
def test_region_sizes_that_are_not_word_multiples(nbits):
    rng = np.random.default_rng(nbits)
    entries = [
        (f"k{i}", sorted(rng.choice(nbits, size=min(nbits, 5), replace=False).tolist()))
        for i in range(4)
    ]
    for _key, bits in entries:
        _agree(nbits, entries, bits)
    assert pack_indices(nbits, [nbits - 1])[-1] != 0


def test_duplicate_fingerprints_tie_to_the_first_enrolled_key():
    bits = [3, 9, 27, 81]
    entries = [("late-a", [1, 2]), ("first-dup", bits), ("second-dup", bits)]
    assert _agree(100, entries, bits + [50]) == ("first-dup", 0.0)


def test_first_below_threshold_wins_over_a_closer_later_match():
    exact = list(range(0, 40))
    near = list(range(0, 38)) + [90, 91]  # 2 of 40 missing: 0.05
    entries = [("near", near), ("exact", exact)]
    assert _agree(100, entries, exact) == ("near", 0.05)


def test_out_of_range_indices_are_refused():
    with pytest.raises(IndexError):
        pack_indices(64, [64])


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    """numpy 1.x has no ``bitwise_count``; the byte-table fallback must agree."""
    import common

    words = np.random.default_rng(7).integers(0, 2**63, size=(50, 5), dtype=np.uint64)
    words[0] = np.uint64(2**64 - 1)
    expected = [sum(bin(int(w)).count("1") for w in row) for row in words]
    monkeypatch.delattr(common.np, "bitwise_count", raising=False)
    assert common.popcount_rows(words).tolist() == expected
    assert int(common.popcount_rows(words[3])) == expected[3]
