"""The harness's stage table, its per-run pool accessor and the CLI over it."""

import pytest

import trajmark.experiment as experiment
from trajmark.cli import build_parser, main
from trajmark.experiment import (
    STAGES,
    ExperimentConfig,
    pool_accessor,
    run_closed_loop,
    run_delta_kld,
)


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
