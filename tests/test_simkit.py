"""Simulation kit: generation, surrogate fitting, domain shapes."""

import hashlib
import json

import pytest

from conftest import dense_domain
from trajmark.cli import main
from trajmark.equivalence import (
    Distribution,
    count_members,
    js_divergence,
    validate_equivalence,
)
from trajmark.errors import TrajmarkError
from trajmark.simkit.domains import (
    DEFAULT_CORPUS_SIZES,
    POOL_SHAPES,
    DomainSpec,
    Template,
    TemplateItem,
    builtin_domain,
    load_domain,
)
from trajmark.simkit.generator import generate_greybox_corpus, template_for_trajectory
from trajmark.simkit.surrogate import (
    SurrogateModel,
    benign_surrogate,
    fit_surrogate,
    sample_surrogate,
)
from trajmark.trajectory import Action, serialize_trajectory


def test_builtin_pool_shapes_match_reference_counts():
    assert POOL_SHAPES["data"] == {"VR": 8, "PGR": 7, "IA": 11, "AE": 7, "CE": 6}
    assert POOL_SHAPES["business"] == {"VR": 12, "PGR": 4, "IA": 5, "AE": 5, "CE": 2}
    assert POOL_SHAPES["social"] == {"VR": 18, "PGR": 2, "IA": 6, "AE": 3, "CE": 5}
    for name, shape in POOL_SHAPES.items():
        domain = builtin_domain(name)
        assert domain.scheme_counts() == shape
        assert len(domain.eqsets) == sum(shape.values())


def test_domain_build_is_deterministic():
    a = builtin_domain("data").to_json()
    from trajmark.simkit.domains import build_domain

    b = build_domain("data").to_json()
    assert a == b


def test_every_builtin_set_validates(data_domain):
    for eqset in data_domain.eqsets:
        report = validate_equivalence(eqset, data_domain.sandbox, n_cases=25, rng_seed=1)
        assert report.valid, eqset.id


def test_templates_cap_repeated_sets(data_domain):
    for template in data_domain.templates:
        seen = {}
        for item in template.items:
            if item.kind == "slot":
                seen[item.set_id] = seen.get(item.set_id, 0) + 1
        assert all(v <= 2 for v in seen.values())


def test_victim_generation_deterministic(data_domain):
    a = generate_greybox_corpus(data_domain, 20, seed=5)
    b = generate_greybox_corpus(data_domain, 20, seed=5)
    assert a == b
    c = generate_greybox_corpus(data_domain, 20, seed=6)
    assert a != c


# sha256 over serialized lines, each followed by "\n"; recorded once and
# held across commits, so any change to a seeded RNG stream shows here
CORPUS_DIGESTS = {
    "data": "97a56e0d9486f19a71881619a85ef6e02347bf4c56b18c619bdac65f89b78e1b",
    "business": "0fa278280cce91470c9bf7a0950647245f6164233b033335c3916dabde4bb394",
    "social": "c383962d50859b41d745af4ddb576662142cfff0d3f9f7be2c09f4a943ddc62e",
}
SURROGATE_DIGEST = "b781a6e00d901f666b37ab5c6a3c0efc5df81473668baf27cfa894b75760c5d6"


def _corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for traj in corpus:
        h.update(serialize_trajectory(traj).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_greybox_corpus_is_pinned(name):
    corpus = generate_greybox_corpus(builtin_domain(name), 300, seed=11)
    assert _corpus_digest(corpus) == CORPUS_DIGESTS[name]


def test_surrogate_sample_is_pinned(data_domain):
    # eta 1 on a small harvest moves both the slot weights and the template
    # weights off natural, so the sampler's override paths are pinned too
    harvest = generate_greybox_corpus(data_domain, 200, seed=3)
    model = fit_surrogate(harvest, data_domain, eta=1.0)
    assert any(model.fitted[e.id] != data_domain.natural[e.id] for e in data_domain.eqsets)
    assert model.skeleton_freqs != {t.id: t.weight for t in data_domain.templates}
    corpus = sample_surrogate(model, data_domain, 300, seed=5)
    assert _corpus_digest(corpus) == SURROGATE_DIGEST


def test_slot_frequencies_match_configured_distribution(mini_domain):
    corpus = generate_greybox_corpus(mini_domain, 1000, seed=77)
    for eqset, counts in zip(mini_domain.eqsets, count_members(corpus, mini_domain.eqsets)):
        assert sum(counts) >= 2000
        configured = mini_domain.natural[eqset.id]
        assert Distribution.from_counts(counts).l1_distance(configured) < 0.05


def test_estimate_recovers_configured_distribution(data_domain):
    corpus = generate_greybox_corpus(data_domain, 4000, seed=13)
    for eqset, counts in zip(data_domain.eqsets, count_members(corpus, data_domain.eqsets)):
        assert sum(counts) >= 300
        est = Distribution.from_counts(counts)
        assert est.l1_distance(data_domain.natural[eqset.id]) < 0.1


def test_fit_surrogate_eta_zero_is_natural(data_domain):
    corpus = generate_greybox_corpus(data_domain, 300, seed=3)
    model = fit_surrogate(corpus, data_domain, eta=0.0)
    for eqset in data_domain.eqsets:
        assert model.fitted[eqset.id].weights == pytest.approx(
            data_domain.natural[eqset.id].weights, abs=1e-12
        )


def test_fit_surrogate_eta_one_tracks_harvest(mini_domain):
    from trajmark.injector import watermark_corpus
    from trajmark.pool import build_pool

    passes, _ = build_pool(mini_domain, seed=4, calibration_size=3000)
    corpus = generate_greybox_corpus(mini_domain, 2000, seed=8)
    wm, _ = watermark_corpus(corpus, passes, seed=9, uid_hex="ab")
    model = fit_surrogate(wm, mini_domain, eta=1.0)
    for p in passes:
        assert model.fitted[p.eqset.id].l1_distance(p.biased) < 0.05


def test_fit_surrogate_mixture_arithmetic(ce_set, mini_domain):
    # eta 0.5 between natural (0.5,0.5) and a (0.9,0.1) harvest lands at (0.7,0.3)
    natural = Distribution((0.5, 0.5))
    from trajmark.simkit.surrogate import _mix

    mixed = _mix(Distribution((0.9, 0.1)), natural, 0.5)
    assert mixed.weights == pytest.approx((0.7, 0.3), abs=1e-12)


def test_fidelity_monotone_in_eta(mini_domain):
    from trajmark.injector import watermark_corpus
    from trajmark.pool import build_pool

    passes, _ = build_pool(mini_domain, seed=4, calibration_size=3000)
    corpus = generate_greybox_corpus(mini_domain, 1500, seed=10)
    wm, _ = watermark_corpus(corpus, passes, seed=11, uid_hex="ab")
    last = {p.eqset.id: float("inf") for p in passes}
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        model = fit_surrogate(wm, mini_domain, eta=eta)
        for p in passes:
            gap = js_divergence(model.fitted[p.eqset.id], p.biased)
            assert gap <= last[p.eqset.id] + 1e-12
            last[p.eqset.id] = gap


def test_fit_records_missing_sets(data_domain):
    # a corpus touching almost nothing leaves most sets on natural fallback
    corpus = generate_greybox_corpus(data_domain, 2, seed=1)
    model = fit_surrogate(corpus, data_domain, eta=1.0)
    assert model.missing_sets
    for set_id in model.missing_sets:
        assert model.fitted[set_id].weights == data_domain.natural[set_id].weights


def test_sample_surrogate_degenerate_distribution(mini_domain):
    model = benign_surrogate(mini_domain)
    target_set = mini_domain.eqsets[0]
    model.fitted[target_set.id] = Distribution((1.0, 0.0))
    corpus = sample_surrogate(model, mini_domain, 200, seed=6)
    (counts,) = count_members(corpus, [target_set])
    assert sum(counts) > 0
    assert Distribution.from_counts(counts).weights == (1.0, 0.0)


def test_template_recovery(data_domain):
    corpus = generate_greybox_corpus(data_domain, 100, seed=21)
    recovered = [template_for_trajectory(data_domain, t) for t in corpus]
    assert all(r is not None for r in recovered)
    assert len(set(recovered)) > 1


def test_template_recovery_survives_watermarking(data_domain, data_pool):
    from trajmark.injector import watermark_corpus
    from trajmark.registry import Registry, passes_for_uid, register_user

    corpus = generate_greybox_corpus(data_domain, 100, seed=22)
    reg = Registry("data", len(data_pool))
    user = register_user(reg, rng_seed=2)
    wm, _ = watermark_corpus(
        corpus, passes_for_uid(user.uid_hex, data_pool), seed=23, uid_hex=user.uid_hex
    )
    for before, after in zip(corpus, wm):
        assert template_for_trajectory(data_domain, after) == template_for_trajectory(
            data_domain, before
        )


def test_domain_json_round_trip(tmp_path, mini_domain):
    path = tmp_path / "dense.json"
    mini_domain.save(str(path))
    loaded = load_domain(str(path))
    assert loaded.to_json() == mini_domain.to_json()
    a = generate_greybox_corpus(mini_domain, 10, seed=1)
    b = generate_greybox_corpus(loaded, 10, seed=1)
    assert a == b


def test_domain_file_fills_missing_corpus_sizes_from_the_defaults(mini_domain):
    obj = mini_domain.to_json()
    obj["corpus_sizes"] = {"fit": 10}
    assert DomainSpec.from_json(obj).corpus_sizes == {**DEFAULT_CORPUS_SIZES, "fit": 10}
    del obj["corpus_sizes"]
    assert DomainSpec.from_json(obj).corpus_sizes == DEFAULT_CORPUS_SIZES


def test_surrogate_json_round_trip(tmp_path, mini_domain):
    corpus = generate_greybox_corpus(mini_domain, 100, seed=2)
    model = fit_surrogate(corpus, mini_domain, eta=0.8)
    path = tmp_path / "model.json"
    model.save(str(path))
    loaded = SurrogateModel.from_json(json.loads(path.read_text()))
    assert loaded.fitted == model.fitted
    assert loaded.skeleton_freqs == model.skeleton_freqs


def _domain_with_filler(tool, gen):
    """The dense domain with one filler, ``tool`` with ``msg`` from ``gen``, first."""
    base = dense_domain()
    filler = TemplateItem(kind="action", tool=tool, args=(("msg", gen),))
    template = Template("dense-filler", (filler,) + base.templates[0].items)
    return DomainSpec(
        name="dense", sandbox=base.sandbox, eqsets=base.eqsets, natural=base.natural,
        targets=base.targets, templates=[template],
    )


BAD_FILLERS = {
    "tool": ("bad tool!", ("token",)),
    "lit_list": ("Plain_1.Note", ("lit", [1])),
    "lit_none": ("Plain_1.Note", ("lit", None)),
    "lit_nan": ("Plain_1.Note", ("lit", float("nan"))),
    "lit_without_value": ("Plain_1.Note", ("lit",)),
    "unknown_generator": ("Plain_1.Note", ("random",)),
}


@pytest.mark.parametrize("tool,gen", BAD_FILLERS.values(), ids=BAD_FILLERS.keys())
def test_bad_filler_rejected_at_domain_build(tool, gen):
    # each of these used to build, and failed only when a trajectory was generated
    with pytest.raises(TrajmarkError, match=r"domain dense: template dense-filler: "):
        _domain_with_filler(tool, gen)


def test_literal_filler_generates_and_bad_one_fails_validate(tmp_path, capsys):
    domain = _domain_with_filler("Plain_1.Note", ("lit", 2.5))
    for traj in generate_greybox_corpus(domain, 5, seed=1):
        assert traj.actions[0] == Action.make("Plain_1.Note", {"msg": 2.5})
    obj = domain.to_json()
    obj["templates"][0]["items"][0]["args"]["msg"] = ["lit", [1]]
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--domain", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "template dense-filler" in err and "Traceback" not in err
