"""The harness's stage table, its per-run pool accessor and the CLI over it."""

import json
import re
import tracemalloc
from dataclasses import replace

import pytest

import trajmark.experiment as experiment
from trajmark.cli import build_parser, main
from trajmark.errors import SchemaViolation
from trajmark.experiment import (
    DEFAULT_THETA_J_GRID,
    DEFAULT_THETA_N_GRID,
    STAGES,
    ExperimentConfig,
    pool_accessor,
    run_attack_bench,
    run_closed_loop,
    run_delta_kld,
    run_eta_sweep,
    run_f1_grid,
    run_stealth,
)
from trajmark.simkit.generator import generate_greybox_corpus
from trajmark.verifier import DEFAULT_THETA_J, DEFAULT_THETA_N


def test_stages_share_one_pool_build(monkeypatch, tmp_path):
    built = []
    original = experiment.build_pool

    def counting(domain, **kwargs):
        built.append(domain.name)
        return original(domain, **kwargs)

    monkeypatch.setattr(experiment, "build_pool", counting)
    config = ExperimentConfig(
        seed=7, out_dir=str(tmp_path), domains=("data",), closed_loop_corpus=400
    )
    pools = pool_accessor(config)
    run_delta_kld(config, pools)
    run_closed_loop(config, pools)
    assert built == ["data"]
    # a new accessor is a new run: nothing is kept between runs
    pool_accessor(config)("data")
    assert built == ["data", "data"]


def test_grid_holds_the_cells_the_gates_read():
    # f1-grid reads the cell at the default thresholds and the theta_n = 1 column
    assert DEFAULT_THETA_J in DEFAULT_THETA_J_GRID
    assert DEFAULT_THETA_N in DEFAULT_THETA_N_GRID
    assert 1 in DEFAULT_THETA_N_GRID


def test_config_file_sets_fields_and_flags_win(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"domains": ["data"], "seed": 3, "localization_extra_users": [0, 50]}
    ))
    config = ExperimentConfig.from_file(str(path), seed=9, out_dir=None)
    assert config == ExperimentConfig(
        domains=("data",), seed=9, localization_extra_users=(0, 50)
    )


@pytest.mark.parametrize("doc, where", [
    ({"n_benign": True}, "n_benign"),
    ({"localization_extra_users": []}, "localization_extra_users"),
    ({"localization_extra_users": [0, "5"]}, "localization_extra_users[1]"),
    ({"pool_seed": 1}, "'pool_seed'"),
    ({"n_attackers": 0}, "n_attackers"),
    ({"n_benign": 0}, "n_benign"),
    ({"localization_seeds": 0}, "localization_seeds"),
    ({"closed_loop_corpus": 0}, "closed_loop_corpus"),
    ({"localization_extra_users": [0, -1]}, "localization_extra_users[1]"),
    ({"domains": ["data", "data"]}, "$.domains: domain 'data' is listed twice"),
])
def test_config_error_names_file_and_key(tmp_path, doc, where):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match=re.escape(f"config: {path}: ")) as info:
        ExperimentConfig.from_file(str(path))
    assert where in str(info.value)


def test_config_error_names_an_empty_domain(tmp_path, capsys):
    # an empty name used to reach load_domain, whose error named no key
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"domains": ["data", ""]}))
    assert main(["experiment", "delta-kld", "--config", str(path),
                 "--out-dir", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr() == (
        "", f"trajmark: config: {path}: $.domains[1]: expected a domain name, got ''\n"
    )
    assert not (tmp_path / "out").exists()


def _seed_of_a_run(monkeypatch, tmp_path, *argv) -> int:
    """The seed ``experiment closed-loop`` runs at, given ``argv``."""
    seeds = []

    def closed_loop(config, pools):
        seeds.append(config.seed)
        return {"per_set": {}, "max_l1": 0.0, "n_active": 0}

    monkeypatch.setattr(experiment, "run_closed_loop", closed_loop)
    assert main(["experiment", "closed-loop", "--out-dir", str(tmp_path), "--quiet", *argv]) == 0
    return seeds[0]


def test_experiment_without_a_seed_runs_at_the_default_seed(monkeypatch, tmp_path):
    # with no --config the seed used to be 0, with one it was 7
    empty = tmp_path / "config.json"
    empty.write_text("{}")
    assert _seed_of_a_run(monkeypatch, tmp_path) == ExperimentConfig.seed == 7
    assert _seed_of_a_run(monkeypatch, tmp_path, "--config", str(empty)) == 7
    assert _seed_of_a_run(monkeypatch, tmp_path, "--config", str(empty), "--seed", "3") == 3


def test_experiment_help_gives_the_default_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["experiment", "--help"])
    assert info.value.code == 0
    assert "root RNG seed (default 7)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("stage", list(STAGES))
def test_parser_accepts_every_stage(stage):
    assert build_parser().parse_args(["experiment", stage]).stage == stage


def test_localization_acceptance_reads_largest_pool():
    config = ExperimentConfig(domains=("data",), localization_extra_users=(0, 1000))
    result = {"accuracy": {"data": {12: 1.0, 1012: 0.85}}}
    assert STAGES["localization"].acceptance(config, result) == {
        "localization_top1_at_5k_ge_0.9": False,
        "localization_top1_at_5k": 0.85,
    }


@pytest.mark.parametrize("max_l1, code", [(0.01, 0), (0.07, 3)])
def test_single_stage_exit_code_follows_acceptance(monkeypatch, tmp_path, max_l1, code):
    # the CLI reaches the stage through its module-global name
    monkeypatch.setattr(
        experiment, "run_closed_loop",
        lambda config, pools: {"per_set": {}, "max_l1": max_l1, "n_active": 0},
    )
    assert main(["experiment", "closed-loop", "--out-dir", str(tmp_path),
                 "--seed", "7", "--quiet"]) == code


def _traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_f1_grid_peak_memory_does_not_grow_with_the_suspects(data_domain, data_pool):
    # every suspect is counted as it is drawn, so three more attackers and
    # three more benign models add their evidence to the peak, not their dumps
    sizes = {"fit": 300, "verify": 300, "verify_low": 60}
    domain = replace(data_domain, corpus_sizes=sizes)

    def grid(n_suspects):
        config = ExperimentConfig(domains=("data",), n_attackers=n_suspects, n_benign=n_suspects)
        return run_f1_grid(config, lambda name: (domain, data_pool))

    one_corpus = _traced_peak(lambda: generate_greybox_corpus(domain, sizes["verify"], seed=1))
    grid(1)  # caches filled on first use are not the suspects' memory
    small = _traced_peak(lambda: grid(1))
    large = _traced_peak(lambda: grid(4))
    assert large - small <= one_corpus, (small, large, one_corpus)


# A stage that holds a corpus peaks above the traced size of that corpus; one
# that reads each corpus once, as it is drawn, keeps only fixed state (tool
# indexes, fits, tallies, caches), which stays well under half of one.
_LOCKSTEP_SIZE = 600


@pytest.mark.parametrize("stage, size_of", [
    (run_attack_bench, "attack"),
    (run_stealth, "STEALTH_CORPUS_SIZE"),
    (run_eta_sweep, "fit"),
])
def test_a_lockstep_stage_peaks_below_half_of_its_corpus(
    monkeypatch, data_domain, data_pool, stage, size_of
):
    sizes = {"fit": _LOCKSTEP_SIZE, "verify": 100, "verify_low": 60, "attack": _LOCKSTEP_SIZE}
    domain = replace(data_domain, corpus_sizes=sizes)
    monkeypatch.setattr(experiment, "STEALTH_CORPUS_SIZE", _LOCKSTEP_SIZE)
    config = ExperimentConfig(domains=("data",))

    def run():
        return stage(config, lambda name: (domain, data_pool))

    one_corpus = _traced_peak(lambda: generate_greybox_corpus(domain, _LOCKSTEP_SIZE, seed=1))
    run()  # caches filled on first use are not the corpus's memory
    peak = _traced_peak(run)
    assert peak < one_corpus / 2, (size_of, peak, one_corpus)


def test_every_stage_draws_each_of_its_corpora_once(monkeypatch, data_domain, data_pool, tmp_path):
    # a consumer that re-drew its corpus would save memory by spending time
    sizes = {"fit": 40, "verify": 30, "verify_low": 10, "attack": 50}
    domain = replace(data_domain, corpus_sizes=sizes)
    monkeypatch.setattr(experiment, "STEALTH_CORPUS_SIZE", 60)
    config = ExperimentConfig(domains=("data",), n_attackers=2, n_benign=3,
                              closed_loop_corpus=70, out_dir=str(tmp_path))
    drawn = []
    original = experiment.iter_greybox_corpus

    def counting(*args, **kwargs):
        for traj in original(*args, **kwargs):
            drawn.append(traj.query_id)
            yield traj

    monkeypatch.setattr(experiment, "iter_greybox_corpus", counting)
    expected = {
        # one victim, then per attacker two suspects, per benign model one
        "f1-grid": 40 + 2 * (30 + 10) + 3 * 30,
        # one victim, then the baseline and four post-attack suspects
        "attack-bench": 50 + 5 * 30,
        "stealth": 60,
        "closed-loop": 70,
        # one harvest, then a suspect per eta
        "eta-sweep": 40 + 3 * 30,
    }
    for name, count in expected.items():
        drawn.clear()
        experiment.run_stage(name, config, lambda _: (domain, data_pool))
        assert len(drawn) == count, name
