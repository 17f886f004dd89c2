"""Deterministic RNG derivation.

Every random draw in the package flows from a single root seed through a
named derivation path, e.g. ``derive_rng(seed, "inject", uid, query_id,
pass_id, span_index)``. Identical paths always yield identical streams, so
whole experiments replay from one integer.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable


def _hashed(root: int, parts: tuple):
    h = hashlib.sha256(str(int(root)).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f" + repr(part).encode("utf-8"))
    return h


def derive_seed(root: int, *parts: object) -> int:
    """Hash (root, *parts) into a 64-bit seed, stable across processes."""
    return int.from_bytes(_hashed(root, parts).digest()[:8], "big")


def seed_stream(root: int, *prefix: object) -> Callable[[object], int]:
    """``part -> derive_seed(root, *prefix, part)``, with the prefix hashed once.

    Each call, one per trajectory of a loop, copies that SHA-256 state.
    """
    head = _hashed(root, prefix)

    def seed(part: object) -> int:
        h = head.copy()
        h.update(b"\x1f" + repr(part).encode("utf-8"))
        return int.from_bytes(h.digest()[:8], "big")

    return seed


def derive_rng(root: int, *parts: object) -> random.Random:
    """A private ``random.Random`` stream for the given derivation path."""
    return random.Random(derive_seed(root, *parts))
