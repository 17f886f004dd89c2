"""The harness's stage table, its per-run pool accessor and the CLI over it."""

import json
import re

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
    run_closed_loop,
    run_delta_kld,
)
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
])
def test_config_error_names_file_and_key(tmp_path, doc, where):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match=re.escape(f"config: {path}: ")) as info:
        ExperimentConfig.from_file(str(path))
    assert where in str(info.value)


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
