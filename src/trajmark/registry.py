"""User registration: N-bit UIDs mapped to watermark pass subsets.

Bit ``i`` of a UID (bit 0 = least significant) activates pass ``i+1``, so
the UID doubles as the user's watermark fingerprint. Hamming weights are
constrained to a band (default 5..20): too few active passes weakens
verification confidence, too many raises collision probability between
users. The weight is drawn uniformly over the band, then a uniform random
vector of that weight, rejecting collisions with existing UIDs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import KeysView, Sequence

from .equivalence import WatermarkPass
from .errors import CapacityExhausted, InvalidRange, LengthMismatch, SchemaViolation
from .seeds import derive_rng
from .trajectory import json_at, json_value, read_json, write_json

DEFAULT_W_MIN = 5
DEFAULT_W_MAX = 20
# the widest UID a registry document may declare: loading spells each
# user's UID in N/4 hex digits, so N must not come from the file unbounded;
# every builtin pool has fewer than 64 passes
MAX_N_BITS = 4096


def uid_hex_width(n_bits: int) -> int:
    return (n_bits + 3) // 4


def uid_to_hex(uid: int, n_bits: int) -> str:
    return format(uid, f"0{uid_hex_width(n_bits)}x")


def hex_to_uid(uid_hex: str, n_bits: int) -> int:
    value = int(uid_hex, 16)
    # no ``1 << n_bits``: it would build an integer as wide as N
    if value.bit_length() > n_bits:
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

    ``users`` is a read-only view, in registration order. That is the
    registry's only order: ``localize_user`` breaks score ties toward the
    earlier registration, and ``created_at`` is information only. Users
    are added only through ``append`` (or ``register_user``), which keeps
    the UID index and the scoring table in step with them.
    """

    def __init__(
        self,
        domain: str,
        n_bits: int,
        w_min: int = DEFAULT_W_MIN,
        w_max: int = DEFAULT_W_MAX,
    ) -> None:
        self.capacity = capacity(n_bits, w_min, w_max)
        self.domain = domain
        self.n_bits = n_bits
        self.w_min = w_min
        self.w_max = w_max
        self._users: list[UserRecord] = []
        self._view = _ReadOnlyList(self._users)
        self._uid_index: dict[int, None] = {}
        self._table: tuple[list[str], list[int], list[int]] = ([], [], [])

    @property
    def users(self) -> Sequence[UserRecord]:
        return self._view

    def uid_set(self) -> KeysView[int]:
        """The registered int UIDs: a live, read-only view."""
        return self._uid_index.keys()

    def scoring_table(self) -> tuple[list[str], list[int], list[int]]:
        """The users in registration order, for scoring every one at once.

        Returns the hex UIDs, with each one's int UID and popcount at the
        same index. ``append`` extends the three lists; callers only read
        them.
        """
        return self._table

    def append(self, record: UserRecord) -> None:
        uid = record.uid_int()
        self._uid_index[uid] = None
        self._users.append(record)
        uid_hexes, uids, popcounts = self._table
        uid_hexes.append(record.uid_hex)
        uids.append(uid)
        popcounts.append(uid.bit_count())

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
    def from_json(cls, obj, where: str = "registry: $") -> "Registry":
        """The registry a document describes; a refused node names ``where`` and its path."""
        domain = json_value(obj, str, where, "domain")
        n_bits = json_value(obj, int, where, "N")
        if n_bits > MAX_N_BITS:
            raise SchemaViolation(f"{where}.N: expected at most {MAX_N_BITS}, got {n_bits}")
        with json_at(where):
            reg = cls(
                domain=domain,
                n_bits=n_bits,
                w_min=json_value(obj, int, where, "w_min", DEFAULT_W_MIN),
                w_max=json_value(obj, int, where, "w_max", DEFAULT_W_MAX),
            )
        for i, raw in enumerate(json_value(obj, list, where, "users")):
            at = f"{where}.users[{i}]"
            uid_hex = json_value(raw, str, at, "uid_hex")
            if not re.fullmatch("[0-9a-f]+", uid_hex):
                raise SchemaViolation(
                    f"{at}.uid_hex: expected a lowercase hex string, got {uid_hex!r}"
                )
            ids = json_value(raw, [int], at, "active_pass_ids")
            with json_at(at):
                uid = hex_to_uid(uid_hex, reg.n_bits)
            if uid in reg.uid_set():
                raise SchemaViolation(f"{at}: duplicate uid {uid_hex}")
            weight = uid.bit_count()
            if not reg.w_min <= weight <= reg.w_max:
                raise SchemaViolation(
                    f"{at}: uid {uid_hex} has weight {weight}, outside [{reg.w_min}, {reg.w_max}]"
                )
            if tuple(k + 1 for k in range(reg.n_bits) if (uid >> k) & 1) != tuple(sorted(ids)):
                raise SchemaViolation(f"{at}: active_pass_ids inconsistent with uid {uid_hex}")
            # the spelling register_user writes: it keys the injection seed stream
            reg.append(UserRecord(uid_to_hex(uid, reg.n_bits), tuple(ids),
                                  json_value(raw, str, at, "created_at")))
        return reg

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "Registry":
        return cls.from_json(read_json(path), f"registry: {path}: $")


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
    if len(existing) >= reg.capacity:
        raise CapacityExhausted(f"all {reg.capacity} UIDs assigned")
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
    """Decode a UID into its activated passes, in pass-id order.

    Pass ``i+1`` is active iff bit ``i`` (LSB first) of the UID is set, and
    it sits at ``pool[i]``, as in every pool ``build_pool``, ``load_pool``
    and ``rebias_pool`` return; the pool must be exactly as long as the
    UID is wide. The injector applies the passes in ``order_rank`` order.
    """
    uid = hex_to_uid(uid_hex, len(pool))
    active = []
    while uid:  # one step per set bit, lowest first
        low = uid & -uid
        i = low.bit_length() - 1
        wm_pass = pool[i]
        if wm_pass.pass_id != i + 1:
            raise LengthMismatch(f"pool[{i}] holds pass {wm_pass.pass_id}, not {i + 1}")
        active.append(wm_pass)
        uid ^= low
    return active


def capacity(n_bits: int, w_min: int, w_max: int) -> int:
    """Exact count of distinct UIDs in the weight band: sum of C(N, k)."""
    if not (0 <= w_min <= w_max <= n_bits):
        raise InvalidRange(
            f"need 0 <= w_min <= w_max <= N, got ({w_min}, {w_max}, {n_bits})"
        )
    return sum(math.comb(n_bits, k) for k in range(w_min, w_max + 1))
