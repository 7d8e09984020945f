"""Vectorized Algorithm 2/3 reference decisions.

The benchmark checks every identification the program makes against
this oracle, which restates the paper's rules over a packed
``uint64`` fingerprint matrix:

* Algorithm 3 distance: count the "promised" bits missing from the
  other operand and divide by the promised side's weight, where the
  promised side is whichever operand has fewer set bits (footnote 2's
  swap; the fingerprint keeps the role on a tie).  Two operands whose
  smaller weight is 0 are at distance 0.0.
* Algorithm 2 decision: the *first* fingerprint in enrolment order
  whose distance is strictly below the threshold; an error string with
  no set bits is rejected outright.

It shares no code with the program's scoring paths, so agreement is
evidence, not tautology; ``test_oracle.py`` pins it to
``repro.core.identify.identify_error_string``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from common import popcount_rows

WORD_BITS = 64


def pack_indices(nbits: int, indices: Sequence[int]) -> np.ndarray:
    """``uint64`` words with exactly ``indices`` set (bit i in word i // 64)."""
    words = np.zeros((nbits + WORD_BITS - 1) // WORD_BITS, dtype=np.uint64)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= nbits:
            raise IndexError(f"bit index outside [0, {nbits})")
        np.bitwise_or.at(
            words,
            idx // WORD_BITS,
            np.left_shift(np.uint64(1), (idx % WORD_BITS).astype(np.uint64)),
        )
    return words


class DecisionOracle:
    """First-below-threshold decisions over fingerprints in enrolment order."""

    def __init__(
        self,
        nbits: int,
        entries: Sequence[Tuple[str, Sequence[int]]],
        threshold: float = 0.1,
    ) -> None:
        self.nbits = nbits
        self.threshold = threshold
        self.keys: List[str] = [key for key, _bits in entries]
        n_words = (nbits + WORD_BITS - 1) // WORD_BITS
        self._matrix = np.zeros((len(self.keys), n_words), dtype=np.uint64)
        for row, (_key, bits) in enumerate(entries):
            self._matrix[row] = pack_indices(nbits, bits)
        self._weights = popcount_rows(self._matrix)

    def __len__(self) -> int:
        return len(self.keys)

    def distances(self, error_words: np.ndarray) -> np.ndarray:
        """Algorithm 3 distance of one packed error string to every row."""
        weight = int(popcount_rows(error_words))
        shared = popcount_rows(self._matrix & error_words)
        promised = np.minimum(self._weights, weight)
        missing = promised - shared
        safe = np.where(promised == 0, 1, promised)
        return np.where(promised == 0, 0.0, missing / safe)

    def decide(self, error_words: np.ndarray) -> Tuple[Optional[str], Optional[float]]:
        """``(key, distance)`` of the Algorithm 2 match, or ``(None, None)``."""
        if not error_words.any() or not self.keys:
            return None, None
        distances = self.distances(error_words)
        below = np.flatnonzero(distances < self.threshold)
        if below.size == 0:
            return None, None
        first = int(below[0])
        return self.keys[first], float(distances[first])

    def decide_indices(self, indices: Sequence[int]) -> Tuple[Optional[str], Optional[float]]:
        """:meth:`decide` for an error string given as set-bit indices."""
        return self.decide(pack_indices(self.nbits, indices))


def same_decision(
    expected: Tuple[Optional[str], Optional[float]],
    matched: bool,
    key: Optional[str],
    distance: Optional[float],
) -> bool:
    """Whether a program answer equals the oracle's, key and distance alike."""
    expected_key, expected_distance = expected
    if expected_key is None:
        return not matched and key is None
    return (
        matched
        and key == expected_key
        and distance is not None
        and abs(float(distance) - expected_distance) <= 1e-12
    )
