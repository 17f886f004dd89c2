"""Pool construction, persistence, and the command-line surface."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trajmark
from trajmark import cli
from trajmark.attacks import STRATEGIES
from trajmark.cli import main
from trajmark.equivalence import ActionPattern, EquivalenceSet, Segment
from trajmark.errors import InvalidRange, NoValidCandidates, TrajmarkError
from trajmark.experiment import ExperimentConfig
from trajmark.pool import build_pool, load_pool, pool_from_json, pool_to_json, save_pool
from trajmark.registry import Registry, passes_for_uid, register_user, uid_bits
from trajmark.simkit.domains import DomainSpec, build_domain, builtin_domain
from trajmark.trajectory import read_json
from trajmark.verifier import Verdict, detected_vector_from_json


def test_pool_counts_match_reference_shape(data_domain, data_pool):
    assert len(data_pool) == 39
    counts = {}
    for p in data_pool:
        counts[p.eqset.scheme] = counts.get(p.eqset.scheme, 0) + 1
    assert counts == {"VR": 8, "PGR": 7, "IA": 11, "AE": 7, "CE": 6}
    assert sorted(p.pass_id for p in data_pool) == list(range(1, 40))
    assert sorted(p.order_rank for p in data_pool) == list(range(1, 40))


def test_action_schemes_rank_before_structure_schemes(data_pool):
    by_rank = sorted(data_pool, key=lambda p: p.order_rank)
    schemes = [p.eqset.scheme for p in by_rank]
    first_structure = next(
        i for i, s in enumerate(schemes) if s in ("AE", "CE")
    )
    assert all(s in ("AE", "CE") for s in schemes[first_structure:])


def test_pool_build_rejects_broken_candidate(data_domain):
    # the audit decoys share an argument name but have different effects,
    # so they form a well-typed candidate that must fail execution validation
    broken = EquivalenceSet(
        "d.broken.1",
        "VR",
        (
            Segment((ActionPattern("Audit_d1.Log", ("key",)),)),
            Segment((ActionPattern("Audit_d1.LogAll", ("key",)),)),
        ),
    )
    # replace() builds a new spec, so the added set goes through its checks
    domain = dataclasses.replace(data_domain, eqsets=data_domain.eqsets + (broken,))
    passes, report = build_pool(domain, seed=42)
    assert len(passes) == 39
    rejection = next(r for r in report.rejected if r["set_id"] == "d.broken.1")
    assert rejection["counterexample"]["case"] == 0


def test_pool_file_round_trip(tmp_path, data_pool):
    path = tmp_path / "pool.json"
    save_pool(str(path), data_pool, "data")
    loaded = load_pool(str(path))
    assert pool_to_json(loaded, "data") == pool_to_json(data_pool, "data")


def test_pool_file_out_of_pass_id_order_loads_in_pass_id_order(tmp_path, data_pool):
    doc = _pool_doc(data_pool)
    random.Random(5).shuffle(doc["passes"])
    assert [p["pass_id"] for p in doc["passes"]] != list(range(1, 40))
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(doc))
    loaded = load_pool(str(path))
    assert pool_to_json(loaded, "data") == pool_to_json(data_pool, "data")
    reg = Registry("data", len(data_pool))
    for seed in range(5):
        uid = register_user(reg, rng_seed=seed).uid_hex
        assert passes_for_uid(uid, loaded) == passes_for_uid(uid, data_pool)


def test_pool_build_reproducible_byte_identical(tmp_path, data_domain):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    passes1, _ = build_pool(data_domain, seed=7)
    passes2, _ = build_pool(data_domain, seed=7)
    save_pool(str(a), passes1, "data")
    save_pool(str(b), passes2, "data")
    assert a.read_bytes() == b.read_bytes()


# sha256 of the pool file ``trajmark genpool --domain <name> --seed 42``
# writes; recorded once and held across commits
POOL_DIGESTS = {
    "data": "c8844e699f3403c8aefaeb04313566660b3df79ca9d078093f01e0ac25693110",
    "business": "561e6efe3230b99a4d0dd7576f0ef149d10f471339b8b6eca1bf74d00bc31027",
    "social": "d0fca98178cf29b03214b7f307e1523db0b5172b5f82027600a900a440f51760",
}


@pytest.mark.parametrize("name", sorted(POOL_DIGESTS))
def test_pool_file_is_pinned(tmp_path, name):
    passes, _ = build_pool(builtin_domain(name), seed=42)
    path = tmp_path / "pool.json"
    save_pool(str(path), passes, name)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == POOL_DIGESTS[name]


def test_pool_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "passes": []}))
    with pytest.raises(Exception):
        load_pool(str(path))


# --- CLI ----------------------------------------------------------------------

@pytest.fixture()
def workdir(tmp_path):
    pool = tmp_path / "pool.json"
    assert main(["genpool", "--domain", "data", "--out", str(pool),
                 "--seed", "42", "--quiet"]) == 0
    return tmp_path


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "0.1.0" in out and "pool format" in out


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["genpool"])  # missing required flags
    assert exc.value.code == 1


def test_cli_unknown_file_exit_code(tmp_path):
    assert main(["validate", "--pool", str(tmp_path / "missing.json")]) == 2


def _pool_doc(data_pool):
    # a fresh copy of a valid pool document, for one malformed edit
    return json.loads(json.dumps(pool_to_json(data_pool, "data")))


def _passes_of_ints(data_pool):
    return {"format_version": 1, "passes": [1]}


def _biased_null(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["biased"] = None
    return doc


def _empty_source(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["set"]["members"][0]["param_map"][0][0][1] = []
    return doc


def _pool_array(data_pool):
    return []


def _set_string(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["set"] = "d.vr.1"
    return doc


def _cross_maps_array(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["set"]["cross_maps"] = []
    return doc


def _config_array(data_pool):
    return []


def _config_seed_string(data_pool):
    return {"seed": "x"}


def _config_domains_int(data_pool):
    return {"domains": 5}


def _config_domains_string(data_pool):
    # a bare string is not a one-domain list
    return {"domains": "data"}


def _config_unknown_key(data_pool):
    return {"bogus": 1}


def _config_removed_key(data_pool):
    # the thresholds are constants, not config fields
    return {"theta_j_default": 0.02}


def _config_zero_seeds(data_pool):
    return {"localization_seeds": 0}


def _config_zero_corpus(data_pool):
    return {"closed_loop_corpus": 0}


def _config_zero_attackers(data_pool):
    return {"n_attackers": 0}


def _config_zero_benign(data_pool):
    return {"n_benign": 0}


def _registry_array(data_pool):
    return []


def _registry_user_array(data_pool):
    return {"domain": "data", "N": 39, "users": [[]]}


def _filler_args_array(data_pool):
    doc = builtin_domain("data").to_json()
    # the first filler action, in template data-t01
    item = next(i for t in doc["templates"] for i in t["items"] if i["kind"] == "action")
    item["args"] = []
    return doc


def _active_ids_int(data_pool):
    user = {"uid_hex": "03", "active_pass_ids": 5, "created_at": "t"}
    return {"domain": "d", "N": 8, "w_min": 1, "w_max": 8, "users": [user]}


def _uid_hex_not_hex(data_pool):
    user = {"uid_hex": "ZZ", "active_pass_ids": [], "created_at": "t"}
    return {"domain": "d", "N": 8, "w_min": 0, "w_max": 8, "users": [user]}


def _pass_id_bool(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["pass_id"] = True
    return doc


def _natural_string(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["natural"] = "ab"
    return doc


def _delta_string(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["delta"] = "1"
    return doc


def _slot_short_pair(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["set"]["members"][0]["patterns"][0]["slots"][0] = ["a"]
    return doc


def _slot_int(data_pool):
    doc = _pool_doc(data_pool)
    doc["passes"][0]["set"]["members"][0]["patterns"][0]["slots"][0] = 5
    return doc


def _target_index_missing(data_pool):
    doc = _pool_doc(data_pool)
    del doc["passes"][0]["target_index"]
    return doc


def _registry_n_bool(data_pool):
    return {"domain": "data", "N": True, "w_min": 0, "w_max": 1, "users": []}


def _registry_n_string(data_pool):
    return {"domain": "data", "N": "39", "users": []}


def _vector_string(data_pool):
    return {"detected_vector": "1" * 39}


def _vector_twos(data_pool):
    return {"detected_vector": [2] * 39}


def _vector_missing(data_pool):
    return {"n_det": 0}


@pytest.mark.parametrize("flag, build, error", [
    ("--pool", _passes_of_ints, "pool"),
    ("--pool", _biased_null, "pool"),
    ("--pool", _empty_source, "pool"),
    # a node of the wrong container type is refused before it is used
    ("--pool", _pool_array, "pool"),
    ("--pool", _set_string, "pool"),
    ("--pool", _cross_maps_array, "pool"),
    # a bool is not an int, and a scalar node is type-checked by name
    ("--pool", _pass_id_bool, "pool"),
    ("--pool", _natural_string, "pool"),
    ("--pool", _delta_string, "pool"),
    ("--pool", _slot_short_pair, "pool"),
    ("--pool", _slot_int, "pool"),
    ("--pool", _target_index_missing, "pool"),
    ("--config", _config_array, "config"),
    ("--config", _config_seed_string, "config"),
    ("--config", _config_domains_int, "config"),
    ("--config", _config_domains_string, "config"),
    ("--config", _config_unknown_key, "config"),
    ("--config", _config_removed_key, "config"),
    # a count below its minimum is refused by name, before a stage divides by it
    ("--config", _config_zero_seeds, "config"),
    ("--config", _config_zero_corpus, "config"),
    ("--config", _config_zero_attackers, "config"),
    ("--config", _config_zero_benign, "config"),
    ("--registry", _registry_array, "registry"),
    ("--registry", _registry_user_array, "registry"),
    # a user record's fields are type-checked by name
    ("--registry", _active_ids_int, "registry"),
    ("--registry", _uid_hex_not_hex, "registry"),
    ("--registry", _registry_n_bool, "registry"),
    ("--registry", _registry_n_string, "registry"),
    ("--domain", _filler_args_array, "domain"),
    # read by ``localize``: an array of 0/1 ints
    ("--verdict", _vector_string, "verdict"),
    ("--verdict", _vector_twos, "verdict"),
    ("--verdict", _vector_missing, "verdict"),
])
def test_cli_malformed_document_is_a_data_error(tmp_path, capsys, data_pool, flag, build, error):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build(data_pool)))
    if flag == "--verdict":
        registry = tmp_path / "reg.json"
        Registry("data", 39).save(str(registry))
        argv = ["localize", "--verdict", str(path), "--registry", str(registry)]
    else:
        argv = ["validate", flag, str(path), "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the document, its file and the JSON path of the refused node
    assert err.startswith(f"trajmark: {error}: {path}: $")
    assert err.count("\n") == 1


@pytest.mark.parametrize("raw", [
    b'{"format_version": 1, "passes": [',
    b'{"format_version": 1, "passes": [], "domain": "\xff"}',
    b'{"format_version": 1, "passes": [], "domain": NaN}',
    b"[" * 100000 + b"]" * 100000,
], ids=["truncated", "invalid_utf8", "nan", "too_deep"])
def test_cli_undecodable_document_names_the_file(tmp_path, capsys, raw):
    path = tmp_path / "pool.json"
    path.write_bytes(raw)
    assert main(["validate", "--pool", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trajmark: {path}: ") and err.count("\n") == 1


def test_cli_deeply_nested_expression_is_a_data_error(tmp_path, capsys):
    # far past the bound, though well inside what the JSON decoder accepts
    doc = builtin_domain("data").to_json()
    expr = ["arg", "msg"]
    for _ in range(700):
        expr = ["derive", "upper", expr]
    doc["tools"][0]["output"] = expr
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--domain", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trajmark: domain: {path}: $.tools[0].output[2][2]")
    assert "value expression nested deeper than" in err and err.count("\n") == 1


def test_cli_defect_is_not_a_data_error(monkeypatch, tmp_path):
    # only a TrajmarkError or an OSError is bad input; a KeyError is a defect
    def broken(path):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "load_pool", broken)
    with pytest.raises(KeyError):
        main(["validate", "--pool", str(tmp_path / "pool.json"), "--quiet"])


def test_cli_refuses_a_delta_whose_exponential_overflows(tmp_path, capsys, data_pool):
    # both ended in an OverflowError traceback from ``math.exp``
    out = tmp_path / "pool.json"
    assert main(["genpool", "--domain", "data", "--delta", "1000", "--out", str(out),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == "trajmark: delta 1000.0 is too large: e**delta overflows\n"
    assert not out.exists()
    doc = _pool_doc(data_pool)
    doc["passes"][0]["delta"] = 1e308
    out.write_text(json.dumps(doc))
    assert main(["validate", "--pool", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"trajmark: pool: {out}: $.passes[0]: delta 1e+308 is too large: e**delta overflows\n"
    )


def test_cli_refuses_template_weights_whose_total_overflows(tmp_path, capsys):
    # ``validate`` used to accept this file and ``simulate`` to end in a traceback
    doc = builtin_domain("data").to_json()
    doc["templates"][0]["weight"] = doc["templates"][1]["weight"] = 1e308
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "victim.jsonl"
    for argv in (["validate", "--domain", str(path), "--quiet"],
                 ["simulate", "victim", "--domain", str(path), "--n", "5", "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"trajmark: domain: {path}: $: domain data: template weights must have a"
            " positive finite total, got inf\n"
        )
    assert not out.exists()


def test_genpool_refuses_fewer_than_one_validation_case(tmp_path, data_domain, capsys):
    out = tmp_path / "pool.json"
    assert main(["genpool", "--domain", "data", "--out", str(out), "--cases", "0"]) == 2
    assert not out.exists()
    assert "at least 1 case" in capsys.readouterr().err
    with pytest.raises(InvalidRange):
        build_pool(data_domain, seed=1, n_validation_cases=-1, calibration_size=10)


def test_build_pool_refuses_a_zero_calibration_size(data_domain):
    # 0 used to calibrate on the domain's default size
    with pytest.raises(InvalidRange, match="got 0"):
        build_pool(data_domain, seed=1, n_validation_cases=1, calibration_size=0)


# --- one node mutated in a valid document -------------------------------------

def _doc_pool(data_pool):
    """One pass of each scheme, renumbered 1..5."""
    firsts = {}
    for p in data_pool:
        firsts.setdefault(p.eqset.scheme, p)
    passes = [dataclasses.replace(p, pass_id=i, order_rank=i)
              for i, p in enumerate(firsts.values(), start=1)]
    return pool_to_json(passes, "data")


def _doc_registry(data_pool):
    reg = Registry("data", len(data_pool))
    for seed in range(3):
        register_user(reg, rng_seed=seed, created_at=f"2026-01-0{seed + 1}T00:00:00")
    return reg.to_json()


def _doc_domain(data_pool):
    return build_domain("mini", shape={"VR": 1, "PGR": 1, "IA": 1, "AE": 1, "CE": 1}).to_json()


def _doc_config(data_pool):
    return {"domains": ["data", "social"], "seed": 3, "out_dir": "out", "n_attackers": 2,
            "n_benign": 3, "localization_extra_users": [0, 10], "localization_seeds": 2,
            "closed_loop_corpus": 50}


def _doc_verdict(data_pool):
    bits = uid_bits(0b1011, len(data_pool))
    return Verdict([], bits, sum(bits), 0.015, 3, 30, True).to_json()


# (document, build, load to a comparable value)
DOCUMENTS = {
    "pool": (_doc_pool, lambda path: pool_to_json(load_pool(path))),
    "registry": (_doc_registry, lambda path: Registry.load(path).to_json()),
    "domain": (_doc_domain, lambda path: DomainSpec.load(path).to_json()),
    "config": (_doc_config, lambda path: dataclasses.asdict(ExperimentConfig.from_file(path))),
    "verdict": (_doc_verdict,
                lambda path: detected_vector_from_json(read_json(path), f"verdict: {path}: $")),
}
# what a missing optional key reads as; every other key the loaders read is required
OPTIONAL = {
    "registry": {"w_min": 5, "w_max": 20},
    "pool": {"cross_maps": {}, "param_map": [], "slots": []},
    "domain": {"cross_maps": {}, "param_map": [], "slots": [], "delta": 3.0,
               "corpus_sizes": {}, "weight": 1.0, "args": [], "effects": [],
               "output": None, "ancillary": False},
    "config": {f.name: f.default for f in dataclasses.fields(ExperimentConfig)},
}
# an entry of these maps is data, not a field: a document without it is
# another valid document
MAPS = (("cross_maps",), ("args",))
_SAMPLES = {"object": [{}, {"k": 1}], "array": [[], [1], ["lit"]], "string": ["", "a"],
            "number": [0, 2, -1.5], "bool": [True, False], "null": [None]}


def _json_type(value):
    if value is None:
        return "null"
    return {dict: "object", list: "array", str: "string", bool: "bool"}.get(type(value), "number")


def _nodes(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _admitted(doc, path, value):
    """The JSON types the node at ``path`` may hold."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path and path[-1] == 1 and isinstance(parent, list) and parent[:1] == ["lit"]:
        return {"string", "number", "bool"}  # a literal is any scalar
    if path and path[-1] == "output":
        return {"array", "null"}
    return {_json_type(value)}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_document_loads_equal_or_names_the_node(tmp_path, data_pool, name, data):
    build, load = DOCUMENTS[name]
    doc = build(data_pool)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    original = load(str(path))
    nodes = list(_nodes(doc))
    where, value = data.draw(st.sampled_from(nodes))
    mutated = json.loads(json.dumps(doc))
    parent = mutated
    for key in where[:-1]:
        parent = parent[key]
    # a field of an object; the entries of a map are not fields
    deletable = bool(where) and isinstance(where[-1], str) and where[-2:-1] not in MAPS
    if deletable and data.draw(st.booleans()):
        del parent[where[-1]]
    else:
        kinds = sorted(set(_SAMPLES) - _admitted(doc, where, value))
        kind = data.draw(st.sampled_from(kinds))
        replacement = data.draw(st.sampled_from(_SAMPLES[kind]))
        if where:
            parent[where[-1]] = replacement
        else:
            mutated = replacement
    path.write_text(json.dumps(mutated))
    try:
        loaded = load(str(path))
    except TrajmarkError as exc:
        assert str(exc).startswith(f"{name}: {path}: $"), str(exc)
        return
    if loaded != original:
        # a deleted optional key reads as its default
        default = OPTIONAL.get(name, {}).get(where[-1] if where else None, KeyError)
        assert deletable and default is not KeyError, (where, loaded)
        parent[where[-1]] = default
        path.write_text(json.dumps(mutated))
        assert loaded == load(str(path)), where


def test_cli_genpool_prints_scheme_summary(tmp_path, capsys):
    pool = tmp_path / "pool.json"
    assert main(["genpool", "--domain", "data", "--out", str(pool), "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "VR     8" in out and "IA    11" in out and "total 39" in out
    assert len(load_pool(str(pool))) == 39


def test_cli_register_inject_verify_localize(workdir, capsys):
    pool = workdir / "pool.json"
    registry = workdir / "reg.json"
    assert main(["register", "--pool", str(pool), "--registry", str(registry),
                 "--seed", "31", "--quiet"]) == 0
    uid = capsys.readouterr().out.strip()
    assert uid and all(c in "0123456789abcdef" for c in uid)

    victim = workdir / "victim.jsonl"
    assert main(["simulate", "victim", "--domain", "data", "--n", "300",
                 "--out", str(victim), "--seed", "3", "--quiet"]) == 0

    wm = workdir / "wm.jsonl"
    edits = workdir / "edits.jsonl"
    assert main(["inject", "--pool", str(pool), "--registry", str(registry),
                 "--uid", uid, "--in", str(victim), "--out", str(wm),
                 "--edits", str(edits), "--seed", "4", "--quiet"]) == 0
    assert wm.exists() and edits.exists()

    report = workdir / "verdict.json"
    assert main(["verify", "--pool", str(pool), "--suspect", str(wm),
                 "--report", str(report), "--quiet"]) == 0
    verdict = json.loads(report.read_text())
    assert verdict["classified_as_imitation"] is True
    capsys.readouterr()  # flush the verify output

    assert main(["localize", "--verdict", str(report), "--registry", str(registry),
                 "--top", "3", "--quiet"]) == 0
    top = capsys.readouterr().out.strip().splitlines()[0]
    assert top.split("\t")[0] == uid


def test_cli_inject_requires_registered_uid(workdir):
    pool = workdir / "pool.json"
    registry = workdir / "reg.json"
    main(["register", "--pool", str(pool), "--registry", str(registry),
          "--seed", "1", "--quiet"])
    victim = workdir / "victim.jsonl"
    main(["simulate", "victim", "--domain", "data", "--n", "5",
          "--out", str(victim), "--seed", "3", "--quiet"])
    code = main(["inject", "--pool", str(pool), "--registry", str(registry),
                 "--uid", "00000000ff", "--in", str(victim),
                 "--out", str(workdir / "x.jsonl"),
                 "--edits", str(workdir / "e.jsonl"), "--quiet"])
    assert code == 2


def test_cli_inject_refuses_a_registry_of_another_pool_size(tmp_path, capsys, data_pool):
    # a 39-bit registry against a 28-pass pool: the uid's bits would pick
    # passes of the wrong pool
    pool = tmp_path / "pool.json"
    save_pool(str(pool), data_pool[:28], "data")
    user = {"uid_hex": "000000001f", "active_pass_ids": [1, 2, 3, 4, 5], "created_at": "t"}
    registry = tmp_path / "reg.json"
    registry.write_text(json.dumps({"domain": "data", "N": 39, "users": [user]}))
    victim = tmp_path / "victim.jsonl"
    assert main(["simulate", "victim", "--domain", "data", "--n", "5",
                 "--out", str(victim), "--seed", "3", "--quiet"]) == 0
    out = tmp_path / "wm.jsonl"
    assert main(["inject", "--pool", str(pool), "--registry", str(registry),
                 "--uid", "000000001f", "--in", str(victim), "--out", str(out),
                 "--edits", str(tmp_path / "edits.jsonl"), "--quiet"]) == 2
    assert capsys.readouterr().err == "trajmark: registry N=39 does not match pool size 28\n"
    assert not out.exists()


def test_cli_inject_serves_a_padded_registry_record_as_registered(workdir, capsys):
    # "000214040814" and "0214040814" name one user; the spelling keys the
    # injection seed stream, so either --uid must stamp the registered one
    pool, registry = workdir / "pool.json", workdir / "reg.json"
    assert main(["register", "--pool", str(pool), "--registry", str(registry),
                 "--seed", "31", "--quiet"]) == 0
    uid = capsys.readouterr().out.strip()
    victim = workdir / "victim.jsonl"
    assert main(["simulate", "victim", "--domain", "data", "--n", "40",
                 "--out", str(victim), "--seed", "3", "--quiet"]) == 0

    def inject(reg_path, spelling):
        out = workdir / f"wm-{reg_path.stem}-{spelling}.jsonl"
        assert main(["inject", "--pool", str(pool), "--registry", str(reg_path),
                     "--uid", spelling, "--in", str(victim), "--out", str(out),
                     "--edits", str(workdir / "edits.jsonl"), "--seed", "4", "--quiet"]) == 0
        return out.read_bytes()

    served = inject(registry, uid)
    padded = workdir / "padded.json"
    doc = json.loads(registry.read_text())
    doc["users"][0]["uid_hex"] = "00" + uid
    padded.write_text(json.dumps(doc))
    assert main(["validate", "--pool", str(pool), "--registry", str(padded), "--quiet"]) == 0
    assert Registry.load(str(padded)).users[0].uid_hex == uid
    assert inject(padded, uid) == served
    assert inject(padded, "00" + uid) == served
    assert inject(registry, "00" + uid) == served
    assert json.loads(served.splitlines()[0])["user_uid"] == uid


def test_cli_refuses_a_registry_record_outside_the_weight_band(workdir, capsys):
    # weight 2 under the default band of 5..20: register_user never writes it
    pool, registry = workdir / "pool.json", workdir / "reg.json"
    user = {"uid_hex": "0000000003", "active_pass_ids": [1, 2], "created_at": "t"}
    registry.write_text(json.dumps({"domain": "data", "N": 39, "users": [user]}))
    assert main(["validate", "--pool", str(pool), "--registry", str(registry)]) == 2
    message = (f"trajmark: registry: {registry}: $.users[0]: uid 0000000003 has weight 2, "
               "outside [5, 20]\n")
    assert capsys.readouterr().err == message
    victim = workdir / "victim.jsonl"
    assert main(["simulate", "victim", "--domain", "data", "--n", "5",
                 "--out", str(victim), "--seed", "3", "--quiet"]) == 0
    assert main(["inject", "--pool", str(pool), "--registry", str(registry),
                 "--uid", "3", "--in", str(victim), "--out", str(workdir / "wm.jsonl"),
                 "--edits", str(workdir / "edits.jsonl"), "--quiet"]) == 2
    assert capsys.readouterr().err == message


def _registry_of_width(workdir, capsys, n_bits):
    """The CLI chain's ``reg-many.json``, its ``N`` replaced by ``n_bits``."""
    pool, registry = workdir / "pool.json", workdir / "reg-many.json"
    for seed in (5, *range(100, 108)):
        assert main(["register", "--pool", str(pool), "--registry", str(registry),
                     "--seed", str(seed), "--quiet"]) == 0
    capsys.readouterr()
    doc = json.loads(registry.read_text())
    doc["N"] = n_bits
    registry.write_text(json.dumps(doc))
    return registry


def test_cli_refuses_a_registry_wider_than_its_bound(workdir, capsys):
    # 1 << 10**30 cannot be built: the UID check compares bit lengths
    registry = _registry_of_width(workdir, capsys, 10**30)
    verdict = workdir / "verdict.json"
    verdict.write_text(json.dumps({"detected_vector": [0] * 39}))
    message = (f"trajmark: registry: {registry}: $.N: expected at most 4096, "
               f"got {10**30}\n")
    for argv in (["validate", "--registry", str(registry)],
                 ["localize", "--verdict", str(verdict), "--registry", str(registry)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == message


def test_a_registry_of_2_pow_63_bits_allocates_nothing_in_proportion(workdir, capsys):
    # an uncapped run could ask for a 2**63-bit integer; the child's
    # address space is capped so that a regression fails, not the host
    registry = _registry_of_width(workdir, capsys, 2**63)
    src = os.path.dirname(os.path.dirname(trajmark.__file__))
    script = ("import resource, sys; cap = 512 << 20; "
              "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
              "from trajmark.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", script, "validate", "--registry", str(registry)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr == (f"trajmark: registry: {registry}: $.N: expected at most 4096, "
                           f"got {2**63}\n")


@pytest.mark.parametrize("mode", ["victim", "benign"])
def test_cli_simulate_refuses_a_zero_corpus_size(tmp_path, capsys, mode):
    # 0 is a size, not "use the domain's fit size"
    out = tmp_path / "corpus.jsonl"
    assert main(["simulate", mode, "--domain", "data", "--n", "0",
                 "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "trajmark: corpus size must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "validate", "inject", "surrogate"])
def test_cli_corpus_commands_refuse_a_bad_last_line_and_leave_no_file(workdir, capsys, command):
    # the bad line is the file's last: a command that reads as it writes
    # must still fail with path:line and leave nothing behind
    pool, registry = workdir / "pool.json", workdir / "reg.json"
    assert main(["register", "--pool", str(pool), "--registry", str(registry),
                 "--seed", "31", "--quiet"]) == 0
    uid = capsys.readouterr().out.strip()
    corpus = workdir / "corpus.jsonl"
    assert main(["simulate", "victim", "--domain", "data", "--n", "50",
                 "--out", str(corpus), "--seed", "3", "--quiet"]) == 0
    with corpus.open("a") as handle:
        handle.write('{"query_id": "q000050", "actions": [\n')
    out = workdir / "out.jsonl"
    argv = {
        "verify": ["verify", "--pool", str(pool), "--suspect", str(corpus),
                   "--report", str(workdir / "verdict.json")],
        "validate": ["validate", "--pool", str(pool), "--corpus", str(corpus)],
        "inject": ["inject", "--pool", str(pool), "--registry", str(registry), "--uid", uid,
                   "--in", str(corpus), "--out", str(out),
                   "--edits", str(workdir / "edits.jsonl")],
        "surrogate": ["simulate", "surrogate", "--domain", "data", "--harvest", str(corpus),
                      "--n", "20", "--out", str(out)],
    }[command]
    before = sorted(workdir.iterdir())
    capsys.readouterr()
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trajmark: {corpus}:51: not valid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(workdir.iterdir()) == before


def test_cli_attack_writes_metrics(workdir, capsys):
    pool = workdir / "pool.json"
    registry = workdir / "reg.json"
    main(["register", "--pool", str(pool), "--registry", str(registry),
          "--seed", "31", "--quiet"])
    uid = capsys.readouterr().out.strip()
    victim = workdir / "victim.jsonl"
    main(["simulate", "victim", "--domain", "data", "--n", "200",
          "--out", str(victim), "--seed", "3", "--quiet"])
    wm, edits = workdir / "wm.jsonl", workdir / "edits.jsonl"
    main(["inject", "--pool", str(pool), "--registry", str(registry),
          "--uid", uid, "--in", str(victim), "--out", str(wm),
          "--edits", str(edits), "--seed", "4", "--quiet"])
    metrics = workdir / "metrics.csv"
    attacked = workdir / "attacked.jsonl"
    assert main(["attack", "--strategy", "all", "--in", str(wm),
                 "--edits", str(edits), "--pool-candidates", "data",
                 "--out", str(attacked), "--metrics", str(metrics),
                 "--seed", "5", "--quiet"]) == 0
    rows = metrics.read_text().strip().splitlines()
    assert rows[0].startswith("strategy,")
    assert len(rows) == 5
    for strategy in ("random-deletion", "rephrase-stub", "pk-replace", "fk-replace"):
        assert (workdir / f"attacked.{strategy}.jsonl").exists()


def _victim(tmp_path, n=50):
    victim = tmp_path / "victim.jsonl"
    assert main(["simulate", "victim", "--domain", "data", "--n", str(n),
                 "--out", str(victim), "--seed", "3", "--quiet"]) == 0
    return victim


@pytest.mark.parametrize("argv, message", [
    # fk-replace needs candidate sets: the three strategies before it used
    # to write their corpora before this was refused
    (["--strategy", "all"], "trajmark: fk-replace requires --pool-candidates\n"),
    (["--strategy", "pk-replace", "--p", "7"],
     "trajmark: deletion probability must lie in [0,1], got 7.0\n"),
    (["--strategy", "random-deletion", "--p", "-0.5"],
     "trajmark: deletion probability must lie in [0,1], got -0.5\n"),
])
def test_cli_attack_checks_its_inputs_before_any_strategy_runs(tmp_path, capsys, argv, message):
    victim = _victim(tmp_path)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["attack", *argv, "--in", str(victim), "--out", str(tmp_path / "attacked.jsonl"),
                 "--metrics", str(tmp_path / "attack.csv"), "--quiet"]) == 2
    assert capsys.readouterr() == ("", message)
    assert sorted(tmp_path.iterdir()) == before


def test_cli_attack_names_outputs_by_the_file_name_only(tmp_path):
    # a dot in a directory name used to be split, naming a directory that
    # did not exist
    victim = _victim(tmp_path)
    (tmp_path / "run.v1").mkdir()
    assert main(["attack", "--strategy", "all", "--in", str(victim),
                 "--pool-candidates", "data", "--out", str(tmp_path / "run.v1" / "attacked"),
                 "--seed", "5", "--quiet"]) == 0
    assert sorted(p.name for p in (tmp_path / "run.v1").iterdir()) == sorted(
        f"attacked.{name}" for name in STRATEGIES
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v1", "victim.jsonl"]


def test_cli_attack_metrics_in_a_missing_directory_is_a_data_error(tmp_path, capsys, monkeypatch):
    # the metrics writer used to make the directory, and the attacked
    # corpus used to be written before the metrics path was refused
    victim = _victim(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["attack", "--strategy", "random-deletion", "--in", str(victim),
                 "--out", "attacked.jsonl", "--metrics", "missing-dir/m.csv", "--quiet"]) == 2
    assert capsys.readouterr() == ("", "trajmark: FileNotFoundError: [Errno 2] "
                                       "No such file or directory: 'missing-dir/m.csv'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["victim.jsonl"]


@pytest.mark.parametrize("strategy", ["random-deletion", "all"])
def test_cli_attack_refuses_an_edit_log_past_the_corpus_end(tmp_path, capsys, strategy):
    # the corpus is read once, as the strategies attack it, so its length
    # is known only after the pass; the outputs are dropped then
    victim = _victim(tmp_path, n=50)
    edits = tmp_path / "edits.jsonl"
    edits.write_text(json.dumps({"traj_index": 50, "changed": True, "final_positions": [0]})
                     + "\n")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["attack", "--strategy", strategy, "--in", str(victim), "--edits", str(edits),
                 "--pool-candidates", "data", "--out", str(tmp_path / "attacked.jsonl"),
                 "--metrics", str(tmp_path / "attack.csv"), "--quiet"]) == 2
    assert capsys.readouterr() == (
        "", "trajmark: edit log references trajectory 50, corpus has 50\n"
    )
    assert sorted(tmp_path.iterdir()) == before


def test_cli_localize_rejects_a_vector_of_another_length(tmp_path, capsys):
    registry = tmp_path / "reg.json"
    reg = Registry("data", 39)
    register_user(reg, rng_seed=1)
    reg.save(str(registry))
    verdict = tmp_path / "verdict.json"
    verdict.write_text(json.dumps({"detected_vector": [1, 0]}))
    assert main(["localize", "--verdict", str(verdict), "--registry", str(registry)]) == 2
    assert capsys.readouterr().err == "trajmark: vector length 2 != registry N 39\n"


@pytest.mark.parametrize("top", ["0", "-1"])
def test_cli_localize_refuses_a_top_below_one(tmp_path, capsys, top):
    # -1 used to print every user but the last, and 0 nothing, both exiting 0
    registry = tmp_path / "reg.json"
    reg = Registry("data", 39)
    register_user(reg, rng_seed=1)
    reg.save(str(registry))
    verdict = tmp_path / "verdict.json"
    verdict.write_text(json.dumps({"detected_vector": [1] * 39}))
    assert main(["localize", "--verdict", str(verdict), "--registry", str(registry),
                 "--top", top]) == 2
    assert capsys.readouterr() == ("", f"trajmark: --top must be >= 1, got {top}\n")


@pytest.mark.parametrize("domains", ["", "data,", ",data"])
def test_cli_experiment_refuses_an_empty_domain_list_or_item(tmp_path, capsys, domains):
    # an empty list used to run the default domains
    assert main(["experiment", "delta-kld", "--domains", domains,
                 "--out-dir", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"trajmark: --domains must list domain names, got {domains!r}\n"
    )
    assert not (tmp_path / "delta_kld.csv").exists()


@pytest.mark.parametrize("domains", ["data,data", "data,business,data"])
def test_cli_experiment_refuses_a_repeated_domain(tmp_path, capsys, domains):
    # a repeated domain used to run twice and write its rows twice
    assert main(["experiment", "f1-grid", "--domains", domains,
                 "--out-dir", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr() == ("", "trajmark: --domains lists domain 'data' twice\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_experiment_refuses_a_repeated_domain_in_a_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domains": ["data", "social", "social"], "n_attackers": 1}))
    out_dir = tmp_path / "reports"
    assert main(["experiment", "f1-grid", "--config", str(config),
                 "--out-dir", str(out_dir), "--quiet"]) == 2
    assert capsys.readouterr() == (
        "", f"trajmark: config: {config}: $.domains: domain 'social' is listed twice\n"
    )
    assert not out_dir.exists()


def test_cli_experiment_refuses_an_empty_out_dir(tmp_path, capsys, monkeypatch):
    # it used to end in "FileNotFoundError: ... ''", naming no flag
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "delta-kld", "--out-dir", "", "--quiet"]) == 2
    assert capsys.readouterr() == ("", "trajmark: --out-dir must name a directory, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_experiment_refuses_an_empty_out_dir_in_a_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domains": ["data"], "out_dir": ""}))
    assert main(["experiment", "delta-kld", "--config", str(config), "--quiet"]) == 2
    assert capsys.readouterr() == (
        "", f"trajmark: config: {config}: $.out_dir: expected a directory name, got ''\n"
    )
    assert list(tmp_path.iterdir()) == [config]


def test_cli_verify_refuses_an_m_min_below_one(workdir, capsys):
    suspect = workdir / "suspect.jsonl"
    assert main(["simulate", "victim", "--domain", "data", "--n", "20",
                 "--out", str(suspect), "--seed", "3", "--quiet"]) == 0
    assert main(["verify", "--pool", str(workdir / "pool.json"), "--suspect", str(suspect),
                 "--m-min", "-5", "--quiet"]) == 2
    assert capsys.readouterr() == ("", "trajmark: m_min must be >= 1, got -5\n")


def test_cli_validate_happy_path(workdir):
    pool = workdir / "pool.json"
    assert main(["validate", "--domain", "data", "--pool", str(pool), "--quiet"]) == 0


def test_cli_validate_cross_reference_mismatch(workdir, tmp_path):
    pool = workdir / "pool.json"
    registry = tmp_path / "reg.json"
    registry.write_text(json.dumps(
        {"domain": "data", "N": 5, "w_min": 1, "w_max": 2, "users": []}
    ))
    assert main(["validate", "--pool", str(pool),
                 "--registry", str(registry), "--quiet"]) == 2


def test_cli_experiment_delta_kld(tmp_path):
    assert main(["experiment", "delta-kld", "--out-dir", str(tmp_path),
                 "--seed", "7", "--quiet"]) == 0
    rows = (tmp_path / "delta_kld.csv").read_text().strip().splitlines()
    assert rows[0] == "delta,kld_mean,kld_min,kld_max"
    assert len(rows) == 7
    means = [float(r.split(",")[1]) for r in rows[1:]]
    assert means == sorted(means) and means[0] == 0.0
