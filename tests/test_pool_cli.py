"""Pool construction, persistence, and the command-line surface."""

import dataclasses
import hashlib
import json
import random

import pytest

from trajmark.cli import main
from trajmark.equivalence import ActionPattern, EquivalenceSet, Segment
from trajmark.errors import NoValidCandidates
from trajmark.pool import build_pool, load_pool, pool_from_json, pool_to_json, save_pool
from trajmark.registry import Registry, passes_for_uid, register_user
from trajmark.simkit.domains import builtin_domain


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


@pytest.mark.parametrize("flag, build, error", [
    ("--pool", _passes_of_ints, "TypeError"),
    ("--pool", _biased_null, "TypeError"),
    ("--pool", _empty_source, "IndexError"),
    # a node of the wrong container type is refused before it is used
    ("--pool", _pool_array, "pool"),
    ("--pool", _set_string, "set"),
    ("--pool", _cross_maps_array, "set d.vr.1: cross_maps"),
    ("--registry", _active_ids_int, "TypeError"),
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
    ("--domain", _filler_args_array, "template data-t01: args"),
])
def test_cli_malformed_document_is_a_data_error(tmp_path, capsys, data_pool, flag, build, error):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build(data_pool)))
    assert main(["validate", flag, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trajmark: {error}: ")
    assert err.count("\n") == 1


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
