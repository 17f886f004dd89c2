"""Simulation kit: generation, surrogate fitting, domain shapes."""

import dataclasses
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
from trajmark.errors import InvalidRange, ManifestError, TrajmarkError
from trajmark.simkit.domains import (
    DEFAULT_CORPUS_SIZES,
    POOL_SHAPES,
    DomainSpec,
    Template,
    TemplateItem,
    builtin_domain,
    load_domain,
)
from trajmark.simkit.generator import (
    generate_greybox_corpus,
    iter_greybox_corpus,
    template_for_trajectory,
)
from trajmark.simkit.surrogate import (
    SurrogateFit,
    benign_surrogate,
    fit_surrogate,
    sample_surrogate,
)
from trajmark.trajectory import Action, GreyBoxTrajectory, serialize_trajectory


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
    # weights off natural, so the fitted domain's draws are pinned, not the
    # victim's
    harvest = generate_greybox_corpus(data_domain, 200, seed=3)
    model = fit_surrogate(harvest, data_domain, eta=1.0)
    fitted = model.domain
    assert any(fitted.natural[e.id] != data_domain.natural[e.id] for e in data_domain.eqsets)
    assert [t.weight for t in fitted.templates] != [t.weight for t in data_domain.templates]
    corpus = sample_surrogate(model, data_domain, 300, seed=5)
    assert _corpus_digest(corpus) == SURROGATE_DIGEST


def _fitted_data_domain():
    data = builtin_domain("data")
    return fit_surrogate(generate_greybox_corpus(data, 200, seed=3), data, eta=1.0).domain


@pytest.mark.parametrize("seed", [0, 11, 2**63 - 1])
@pytest.mark.parametrize("make", [
    lambda: builtin_domain("data"), lambda: builtin_domain("business"),
    lambda: builtin_domain("social"), _fitted_data_domain,
], ids=["data", "business", "social", "surrogate"])
def test_iter_greybox_corpus_yields_the_list_forms_trajectories(make, seed):
    domain = make()
    stream = iter_greybox_corpus(domain, 120, seed, id_prefix="e")
    assert not isinstance(stream, list)
    assert list(stream) == generate_greybox_corpus(domain, 120, seed, id_prefix="e")


def test_iter_greybox_corpus_refuses_a_zero_size_before_the_first_draw(data_domain):
    with pytest.raises(InvalidRange, match="corpus size must be >= 1, got 0"):
        list(iter_greybox_corpus(data_domain, 0, seed=1))


def test_fit_surrogate_reads_a_one_shot_stream_as_it_reads_the_list(data_domain):
    harvest = generate_greybox_corpus(data_domain, 300, seed=3)
    harvest.append(GreyBoxTrajectory("stray", (Action.make("X.Nothing"),), "r"))
    for eta in (0.0, 0.4, 1.0):
        from_list = fit_surrogate(harvest, data_domain, eta=eta)
        assert fit_surrogate(iter(harvest), data_domain, eta=eta) == from_list
        assert fit_surrogate(
            iter_greybox_corpus(data_domain, 300, seed=3), data_domain, eta=eta
        ) == fit_surrogate(harvest[:-1], data_domain, eta=eta)


def test_one_fit_accumulation_mixes_as_a_fit_per_eta(data_domain):
    # the eta sweep fits its harvest once and mixes that fit at each eta
    harvest = generate_greybox_corpus(data_domain, 300, seed=3)
    harvest.append(GreyBoxTrajectory("stray", (Action.make("X.Nothing"),), "r"))
    fit = SurrogateFit(data_domain)
    for traj in iter(harvest):
        fit.add(traj)
    rows = count_members(harvest, data_domain.eqsets)
    templates = [template_for_trajectory(data_domain, t) for t in harvest]
    matched = sum(t is not None for t in templates)
    for eta in (0.0, 0.7, 0.85, 1.0):
        model = fit.model(eta)
        assert model == fit_surrogate(harvest, data_domain, eta=eta)
        assert model == fit_surrogate(iter(harvest), data_domain, eta=eta)
        # the fit, from the counts and the templates of the whole list
        for eqset, row in zip(data_domain.eqsets, rows):
            natural = data_domain.natural[eqset.id].weights
            expected = [eta * c / sum(row) + (1 - eta) * n for c, n in zip(row, natural)]
            assert model.domain.natural[eqset.id].weights == pytest.approx(expected, abs=1e-12)
        assert [t.weight for t in model.domain.templates] == [
            templates.count(t.id) / matched for t in data_domain.templates
        ]
    with pytest.raises(InvalidRange, match="eta must lie in"):
        fit.model(1.5)


def test_fit_surrogate_refuses_an_empty_stream(data_domain):
    with pytest.raises(InvalidRange, match="harvest must be non-empty"):
        fit_surrogate(iter(()), data_domain, eta=1.0)
    with pytest.raises(InvalidRange, match="harvest must be non-empty"):
        SurrogateFit(data_domain).model(1.0)


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
        assert model.domain.natural[eqset.id].weights == pytest.approx(
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
        assert model.domain.natural[p.eqset.id].l1_distance(p.biased) < 0.05


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
            gap = js_divergence(model.domain.natural[p.eqset.id], p.biased)
            assert gap <= last[p.eqset.id] + 1e-12
            last[p.eqset.id] = gap


def test_fit_records_missing_sets(data_domain):
    # a corpus touching almost nothing leaves most sets on natural fallback
    corpus = generate_greybox_corpus(data_domain, 2, seed=1)
    model = fit_surrogate(corpus, data_domain, eta=1.0)
    assert model.missing_sets
    for set_id in model.missing_sets:
        assert model.domain.natural[set_id].weights == data_domain.natural[set_id].weights


def test_sample_surrogate_degenerate_distribution(mini_domain):
    target_set = mini_domain.eqsets[0]
    natural = {**mini_domain.natural, target_set.id: Distribution((1.0, 0.0))}
    model = benign_surrogate(dataclasses.replace(mini_domain, natural=natural))
    corpus = sample_surrogate(model, mini_domain, 200, seed=6)
    (counts,) = count_members(corpus, [target_set])
    assert sum(counts) > 0
    assert Distribution.from_counts(counts).weights == (1.0, 0.0)


def test_benign_surrogate_samples_the_victim_corpus(data_domain):
    # the benign model is the domain itself, so its sample is the corpus
    # the domain generates at the same seed and prefix
    sampled = sample_surrogate(benign_surrogate(data_domain), data_domain, 150, 9, "b")
    assert sampled == generate_greybox_corpus(data_domain, 150, 9, "b")


def test_fit_surrogate_derives_a_domain(data_domain):
    harvest = generate_greybox_corpus(data_domain, 200, seed=3)
    fitted = fit_surrogate(harvest, data_domain, eta=1.0).domain
    assert fitted.name == data_domain.name and fitted.eqsets == data_domain.eqsets
    assert [t.items for t in fitted.templates] == [t.items for t in data_domain.templates]
    assert sum(t.weight for t in fitted.templates) == pytest.approx(1.0, abs=1e-12)


def test_a_replaced_domain_generates_from_its_own_compiled_templates(data_domain):
    # dataclasses.replace builds the spec again, so its compiled templates
    # carry its own weights and natural distributions, and the parent's stay
    before = generate_greybox_corpus(data_domain, 60, seed=4)
    first = data_domain.templates[0]
    derived = dataclasses.replace(
        data_domain,
        natural={e.id: Distribution(tuple(float(m == len(e.members) - 1) for m in range(
            len(e.members)))) for e in data_domain.eqsets},
        templates=[dataclasses.replace(t, weight=float(t is first))
                   for t in data_domain.templates],
    )
    corpus = generate_greybox_corpus(derived, 60, seed=4)
    assert {template_for_trajectory(derived, t) for t in corpus} == {first.id}
    slots = {item.set_id for item in first.items if item.kind == "slot"}
    for eqset, counts in zip(derived.eqsets, count_members(corpus, derived.eqsets)):
        # only the last member is drawn, and only in the first template's slots
        assert counts[:-1] == [0] * (len(counts) - 1)
        assert (counts[-1] > 0) == (eqset.id in slots)
    assert generate_greybox_corpus(data_domain, 60, seed=4) == before != corpus


def test_fit_without_a_matched_trajectory_weighs_templates_equally(data_domain):
    stray = GreyBoxTrajectory("x", (Action("Nowhere.Tool"),), "")
    fitted = fit_surrogate([stray], data_domain, eta=1.0).domain
    assert {t.weight for t in fitted.templates} == {1.0 / len(data_domain.templates)}


def test_sample_surrogate_refuses_another_domain(data_domain, mini_domain):
    with pytest.raises(TrajmarkError, match="fitted on 'data', not 'dense'"):
        sample_surrogate(benign_surrogate(data_domain), mini_domain, 10, seed=1)


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


@pytest.mark.parametrize("weights", [
    [1e308, 1e308], [0.0, 0.0], [float("inf"), 1.0], [float("nan"), 1.0], [],
], ids=["overflowing", "zero", "inf", "nan", "none"])
def test_domain_refuses_template_weights_without_a_positive_finite_total(weights):
    # each of these used to build, and failed only when a corpus was generated
    base = dense_domain()
    template = base.templates[0]
    templates = [dataclasses.replace(template, id=f"dense-t{i:02d}", weight=w)
                 for i, w in enumerate(weights)]
    with pytest.raises(ManifestError, match="domain dense: template weights must have"):
        DomainSpec(name="dense", sandbox=base.sandbox, eqsets=base.eqsets,
                   natural=base.natural, targets=base.targets, templates=templates)
    with pytest.raises(ManifestError, match="domain dense: template weights must have"):
        dataclasses.replace(base, templates=templates)


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
