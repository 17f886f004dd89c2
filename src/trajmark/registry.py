"""User registration: N-bit UIDs mapped to watermark pass subsets.

Bit ``i`` of a UID (bit 0 = least significant) activates pass ``i+1``, so
the UID doubles as the user's watermark fingerprint. Hamming weights are
constrained to a band (default 5..20): too few active passes weakens
verification confidence, too many raises collision probability between
users. The weight is drawn uniformly over the band, then a uniform random
vector of that weight, rejecting collisions with existing UIDs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

from .equivalence import WatermarkPass
from .errors import CapacityExhausted, InvalidRange, LengthMismatch, SchemaViolation
from .seeds import derive_rng

DEFAULT_W_MIN = 5
DEFAULT_W_MAX = 20


def uid_hex_width(n_bits: int) -> int:
    return (n_bits + 3) // 4


def uid_to_hex(uid: int, n_bits: int) -> str:
    return format(uid, f"0{uid_hex_width(n_bits)}x")


def hex_to_uid(uid_hex: str, n_bits: int) -> int:
    value = int(uid_hex, 16)
    if value >= 1 << n_bits:
        raise LengthMismatch(f"uid {uid_hex!r} exceeds {n_bits} bits")
    return value


def uid_bits(uid: int, n_bits: int) -> tuple[int, ...]:
    """Binary pass vector: element i is bit i of the UID."""
    return tuple((uid >> i) & 1 for i in range(n_bits))


def bits_to_uid(bits: Sequence[int]) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


@dataclass(frozen=True)
class UserRecord:
    """One registered user: UID plus the pass subset it activates."""

    uid_hex: str
    active_pass_ids: tuple[int, ...]
    created_at: str

    def uid_int(self) -> int:
        return int(self.uid_hex, 16)


class _ReadOnlyList(Sequence):
    """A live view of a list that can be read but not written.

    Indexing, iteration and ``len`` read the list as it is now; a slice
    is a new list.
    """

    __slots__ = ("_items",)

    def __init__(self, items: list) -> None:
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    def __repr__(self) -> str:
        return repr(self._items)


class Registry:
    """All assigned watermark pass sets for one domain's pool.

    ``users`` is a read-only view, in registration order. Users are added
    only through ``append`` (or ``register_user``), which keeps the UID
    index and the scoring table in step with it. A registry of some other
    list of users is built from those records.
    """

    def __init__(
        self,
        domain: str,
        n_bits: int,
        w_min: int = DEFAULT_W_MIN,
        w_max: int = DEFAULT_W_MAX,
        users: Iterable[UserRecord] = (),
    ) -> None:
        if not (0 <= w_min <= w_max <= n_bits):
            raise InvalidRange(
                f"need 0 <= w_min <= w_max <= N, got ({w_min}, {w_max}, {n_bits})"
            )
        self.domain = domain
        self.n_bits = n_bits
        self.w_min = w_min
        self.w_max = w_max
        self._users: list[UserRecord] = []
        self._view = _ReadOnlyList(self._users)
        self._uid_index: set[int] = set()
        self._table: tuple[list[str], list[int], list[int]] | None = None
        for record in users:
            self.append(record)

    @property
    def users(self) -> Sequence[UserRecord]:
        return self._view

    def uid_set(self) -> set[int]:
        return self._uid_index

    def scoring_table(self) -> tuple[list[str], list[int], list[int]]:
        """The users in ranking tie-break order, for scoring every one at once.

        Returns the hex UIDs sorted by ``(created_at, uid_hex)``, with each
        one's int UID and popcount at the same index. Built on first use
        and dropped by ``append``.
        """
        if self._table is None:
            ordered = sorted(self._users, key=lambda u: (u.created_at, u.uid_hex))
            uids = [u.uid_int() for u in ordered]
            self._table = (
                [u.uid_hex for u in ordered],
                uids,
                [uid.bit_count() for uid in uids],
            )
        return self._table

    def append(self, record: UserRecord) -> None:
        self._uid_index.add(record.uid_int())
        self._users.append(record)
        self._table = None

    def to_json(self) -> dict:
        return {
            "domain": self.domain,
            "N": self.n_bits,
            "w_min": self.w_min,
            "w_max": self.w_max,
            "users": [
                {
                    "uid_hex": u.uid_hex,
                    "active_pass_ids": list(u.active_pass_ids),
                    "created_at": u.created_at,
                }
                for u in self._users
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Registry":
        reg = cls(
            domain=obj["domain"],
            n_bits=obj["N"],
            w_min=obj.get("w_min", DEFAULT_W_MIN),
            w_max=obj.get("w_max", DEFAULT_W_MAX),
        )
        seen: set[str] = set()
        for raw in obj.get("users", []):
            record = UserRecord(
                uid_hex=raw["uid_hex"],
                active_pass_ids=tuple(raw["active_pass_ids"]),
                created_at=raw["created_at"],
            )
            if record.uid_hex in seen:
                raise SchemaViolation(f"duplicate uid {record.uid_hex} in registry")
            seen.add(record.uid_hex)
            _check_consistency(record, reg.n_bits)
            reg.append(record)
        return reg

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Registry":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


def _check_consistency(record: UserRecord, n_bits: int) -> None:
    uid = hex_to_uid(record.uid_hex, n_bits)
    derived = tuple(i + 1 for i in range(n_bits) if (uid >> i) & 1)
    if derived != tuple(sorted(record.active_pass_ids)):
        raise SchemaViolation(
            f"uid {record.uid_hex}: active_pass_ids inconsistent with bits"
        )


def register_user(
    reg: Registry, rng_seed: int, created_at: str | None = None
) -> UserRecord:
    """Draw a fresh UID and append its record to the registry.

    Weight first (uniform over [w_min, w_max]), then a uniform random
    vector of that weight; collisions with existing UIDs retry with a
    perturbed stream. Exhaustion is detected exactly against the band's
    combinatorial capacity.
    """
    existing = reg.uid_set()
    if len(existing) >= capacity(reg.n_bits, reg.w_min, reg.w_max):
        raise CapacityExhausted(
            f"all {capacity(reg.n_bits, reg.w_min, reg.w_max)} UIDs assigned"
        )
    attempt = 0
    while True:
        rng = derive_rng(rng_seed, "register", len(reg.users), attempt)
        weight = rng.randint(reg.w_min, reg.w_max)
        positions = rng.sample(range(reg.n_bits), weight)
        uid = sum(1 << p for p in positions)
        if uid not in existing:
            break
        attempt += 1
    record = UserRecord(
        uid_hex=uid_to_hex(uid, reg.n_bits),
        active_pass_ids=tuple(sorted(p + 1 for p in positions)),
        created_at=created_at
        or datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    )
    reg.append(record)
    return record


def passes_for_uid(
    uid_hex: str, pool: Sequence[WatermarkPass]
) -> list[WatermarkPass]:
    """Decode a UID into its activated passes, sorted by application order.

    Pass ``i+1`` is active iff bit ``i`` (LSB first) of the UID is set; the
    pool must therefore be exactly as long as the UID is wide.
    """
    n_bits = len(pool)
    uid = hex_to_uid(uid_hex, n_bits)
    by_id = {p.pass_id: p for p in pool}
    active = []
    for i in range(n_bits):
        if (uid >> i) & 1:
            pass_id = i + 1
            if pass_id not in by_id:
                raise LengthMismatch(f"pool has no pass {pass_id}")
            active.append(by_id[pass_id])
    return sorted(active, key=lambda p: p.order_rank)


def capacity(n_bits: int, w_min: int, w_max: int) -> int:
    """Exact count of distinct UIDs in the weight band: sum of C(N, k)."""
    if not (0 <= w_min <= w_max <= n_bits):
        raise InvalidRange(
            f"need 0 <= w_min <= w_max <= N, got ({w_min}, {w_max}, {n_bits})"
        )
    return sum(math.comb(n_bits, k) for k in range(w_min, w_max + 1))
