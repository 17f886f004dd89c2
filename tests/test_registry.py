"""UID registration, bit decoding, and capacity combinatorics."""

import json
import math

import pytest

from conftest import make_pass, move_eqset
from trajmark.errors import CapacityExhausted, InvalidRange, LengthMismatch, SchemaViolation
from trajmark.registry import (
    Registry,
    UserRecord,
    bits_to_uid,
    capacity,
    hex_to_uid,
    passes_for_uid,
    register_user,
    uid_bits,
    uid_to_hex,
)

# exact value of sum(C(39,k), k=5..20), pinned from an independent
# Pascal-triangle computation; the rounded headline figure is 343.8e9
CAPACITY_39_5_20 = 343801079183


def test_capacity_paper_configuration():
    value = capacity(39, 5, 20)
    assert value == CAPACITY_39_5_20
    assert value == sum(math.comb(39, k) for k in range(5, 21))
    assert round(value / 1e9) == 344  # approximately 343 billion


def test_capacity_small_cases():
    assert capacity(5, 0, 5) == 32
    assert capacity(10, 3, 3) == 120
    with pytest.raises(InvalidRange):
        capacity(10, 5, 3)
    with pytest.raises(InvalidRange):
        capacity(10, 0, 11)


def test_register_weight_band():
    reg = Registry("data", 39)
    record = register_user(reg, rng_seed=0)
    weight = bin(record.uid_int()).count("1")
    assert 5 <= weight <= 20
    assert len(record.active_pass_ids) == weight


def test_distinct_seeds_distinct_uids():
    reg = Registry("data", 39)
    a = register_user(reg, rng_seed=1)
    b = register_user(reg, rng_seed=2)
    assert a.uid_hex != b.uid_hex


def test_bulk_registration_unique_and_uniformish():
    reg = Registry("data", 39)
    for _ in range(50000):
        register_user(reg, rng_seed=123)
    uids = {u.uid_hex for u in reg.users}
    assert len(uids) == 50000
    weights = [len(u.active_pass_ids) for u in reg.users]
    assert all(5 <= w <= 20 for w in weights)
    expected = 50000 / 16
    histogram = {w: 0 for w in range(5, 21)}
    for w in weights:
        histogram[w] += 1
    for w, count in histogram.items():
        assert abs(count - expected) <= 0.10 * expected, (w, count)


def test_bit_decode_encode_inverse():
    reg = Registry("data", 39)
    for _ in range(200):
        record = register_user(reg, rng_seed=5)
        uid = record.uid_int()
        bits = uid_bits(uid, 39)
        assert bits_to_uid(bits) == uid
        derived = tuple(i + 1 for i, b in enumerate(bits) if b)
        assert derived == record.active_pass_ids


def test_capacity_exhaustion():
    reg = Registry("tiny", 3, w_min=1, w_max=1)
    for _ in range(3):
        register_user(reg, rng_seed=9)
    with pytest.raises(CapacityExhausted):
        register_user(reg, rng_seed=9)


def test_passes_for_uid_bit_semantics(ce_set):
    pool = [make_pass(ce_set, (0.6, 0.4), pass_id=i, order_rank=6 - i) for i in range(1, 6)]
    # uid 0b00101 activates passes 1 and 3, in pass-id order; order_rank
    # is the injector's to apply
    active = passes_for_uid(uid_to_hex(0b00101, 5), pool)
    assert [p.pass_id for p in active] == [1, 3]
    assert passes_for_uid(uid_to_hex(0, 5), pool) == []


def test_passes_for_uid_popcount_property(ce_set):
    pool = [make_pass(ce_set, (0.6, 0.4), pass_id=i) for i in range(1, 40)]
    reg = Registry("data", 39)
    for _ in range(100):
        record = register_user(reg, rng_seed=77)
        active = passes_for_uid(record.uid_hex, pool)
        assert len(active) == bin(record.uid_int()).count("1")
        ranks = [p.order_rank for p in active]
        assert ranks == sorted(ranks)


def test_passes_for_uid_refuses_a_pool_out_of_pass_id_order(ce_set):
    pool = [make_pass(ce_set, (0.6, 0.4), pass_id=i) for i in (2, 1, 3)]
    # bit 2 reads pool[2], which is pass 3: that bit alone decodes
    assert [p.pass_id for p in passes_for_uid(uid_to_hex(0b100, 3), pool)] == [3]
    with pytest.raises(LengthMismatch, match=r"pool\[0\] holds pass 2, not 1"):
        passes_for_uid(uid_to_hex(0b101, 3), pool)


def test_registry_refuses_a_bad_weight_band():
    with pytest.raises(InvalidRange) as built:
        Registry("data", 10, w_min=5, w_max=3)
    with pytest.raises(InvalidRange) as counted:
        capacity(10, 5, 3)
    assert str(built.value) == str(counted.value)
    with pytest.raises(InvalidRange):
        Registry("data", 10, w_min=0, w_max=11)


def test_uid_length_checks(ce_set):
    pool = [make_pass(ce_set, (0.6, 0.4), pass_id=i) for i in range(1, 6)]
    with pytest.raises(LengthMismatch):
        passes_for_uid("ff", pool[:1])  # 0xff needs 8 bits, pool has 1
    with pytest.raises(LengthMismatch):
        hex_to_uid("ff", 5)


def test_uid_set_is_a_read_only_live_view():
    # a caller that could drop a UID from the index made register_user hand
    # the same UID out twice
    reg = Registry("tiny", 4, w_min=1, w_max=1)
    first = register_user(reg, rng_seed=9)
    view = reg.uid_set()
    assert not hasattr(view, "discard") and not hasattr(view, "add")
    with pytest.raises(AttributeError):
        view.discard(first.uid_int())
    for _ in range(3):
        register_user(reg, rng_seed=9)
    assert len(view) == 4
    assert set(view) == {u.uid_int() for u in reg.users}
    assert len({u.uid_hex for u in reg.users}) == 4
    with pytest.raises(CapacityExhausted):
        register_user(reg, rng_seed=9)

    other = Registry("tiny", 4, w_min=1, w_max=1)
    view = other.uid_set()
    other.append(UserRecord(first.uid_hex, first.active_pass_ids, first.created_at))
    assert list(view) == [first.uid_int()]


def test_registry_json_round_trip(tmp_path):
    reg = Registry("data", 39)
    for _ in range(25):
        register_user(reg, rng_seed=3)
    path = tmp_path / "reg.json"
    reg.save(str(path))
    loaded = Registry.load(str(path))
    assert loaded.to_json() == reg.to_json()


@pytest.mark.parametrize("second", ["3", "03", "003"])
def test_registry_load_rejects_one_uid_spelled_twice(second):
    # "3" and "03" are one UID: two users with one fingerprint would be
    # ranked twice by localize_user
    user = {"active_pass_ids": [1, 2], "created_at": "t"}
    obj = {"domain": "d", "N": 8, "w_min": 0, "w_max": 8,
           "users": [{"uid_hex": "3", **user}, {"uid_hex": second, **user}]}
    with pytest.raises(SchemaViolation, match="duplicate uid"):
        Registry.from_json(obj)
    obj["users"].pop()
    assert list(Registry.from_json(obj).uid_set()) == [3]


@pytest.mark.parametrize("spelling", ["c", "0c", "000c"])
def test_registry_load_keeps_the_spelling_register_user_writes(spelling):
    user = {"uid_hex": spelling, "active_pass_ids": [3, 4], "created_at": "t"}
    obj = {"domain": "d", "N": 8, "w_min": 0, "w_max": 8, "users": [user]}
    assert Registry.from_json(obj).users[0] == UserRecord(uid_to_hex(12, 8), (3, 4), "t")
    assert Registry.from_json(obj).to_json()["users"][0]["uid_hex"] == "0c"


@pytest.mark.parametrize("w_min, w_max", [(3, 8), (0, 1)])
def test_registry_load_refuses_a_uid_outside_the_weight_band(w_min, w_max):
    user = {"uid_hex": "0c", "active_pass_ids": [3, 4], "created_at": "t"}
    obj = {"domain": "d", "N": 8, "w_min": w_min, "w_max": w_max, "users": [user]}
    with pytest.raises(SchemaViolation) as exc:
        Registry.from_json(obj)
    assert str(exc.value) == (
        f"registry: $.users[0]: uid 0c has weight 2, outside [{w_min}, {w_max}]"
    )
    obj["w_min"], obj["w_max"] = 2, 2
    assert len(Registry.from_json(obj).users) == 1


@pytest.mark.parametrize("key, value, message", [
    ("uid_hex", "ZZ", "uid_hex: expected a lowercase hex string, got 'ZZ'"),
    ("uid_hex", "0C", "uid_hex: expected a lowercase hex string, got '0C'"),
    ("uid_hex", "", "uid_hex: expected a lowercase hex string, got ''"),
    ("uid_hex", 12, "uid_hex: expected a string, got int"),
    ("active_pass_ids", 5, "active_pass_ids: expected an array of ints, got int"),
    ("active_pass_ids", [3, True], "active_pass_ids[1]: expected an int, got bool"),
    ("active_pass_ids", [3.0, 4.0], "active_pass_ids[0]: expected an int, got float"),
    ("created_at", 5, "created_at: expected a string, got int"),
])
def test_registry_load_names_a_mistyped_record_field(tmp_path, key, value, message):
    user = {"uid_hex": "0c", "active_pass_ids": [3, 4], "created_at": "t"}
    obj = {"domain": "d", "N": 8, "w_min": 0, "w_max": 8, "users": [user]}
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(obj))
    assert Registry.load(str(path)).users[0] == UserRecord("0c", (3, 4), "t")
    user[key] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaViolation) as exc:
        Registry.load(str(path))
    assert str(exc.value) == f"registry: {path}: $.users[0].{message}"
