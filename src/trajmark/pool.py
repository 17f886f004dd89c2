"""Pass-pool construction and persistence.

``build_pool`` turns a domain's candidate equivalence sets into deployable
watermark passes: each candidate is executed through sandbox validation,
its natural distribution is estimated from a generated calibration corpus,
and the biased target distribution is derived at the configured strength.
Only candidates that survive validation and have corpus support become
passes. Pass ids are assigned in candidate order (they define UID bit
positions); application order ranks put action-based schemes before
structure-based ones, since single-call rewrites can create or destroy
multi-call matches.

The pool file is the only hand-off between pool construction and every
other command.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .equivalence import (
    ACTION_SCHEMES,
    SCHEMES,
    Distribution,
    EquivalenceSet,
    WatermarkPass,
    ValidationReport,
    count_members,
    eqset_from_json,
    eqset_to_json,
    validate_equivalence,
)
from .errors import NoValidCandidates, SchemaViolation
from .seeds import derive_rng
from .simkit.domains import DomainSpec
from .simkit.generator import iter_greybox_corpus
from .trajectory import _gc_paused, json_at, json_value, read_json, write_json

POOL_FORMAT_VERSION = 1


@dataclass
class PoolBuildReport:
    """What genpool accepted and rejected, plus per-scheme counts."""

    domain: str
    delta: float
    calibration_size: int
    scheme_counts: dict[str, int] = field(default_factory=dict)
    rejected: list[dict] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [f"pool for domain {self.domain!r} at delta={self.delta:g}"]
        total = 0
        for scheme in SCHEMES:
            count = self.scheme_counts.get(scheme, 0)
            total += count
            lines.append(f"  {scheme:4s} {count:3d}")
        lines.append(f"  total {total}")
        for rej in self.rejected:
            lines.append(f"  rejected {rej['set_id']}: {rej['reason']}")
        return lines


def _order_ranks(schemes: Sequence[str]) -> list[int]:
    """Action-based passes first, then structure-based, stable by pass id."""
    order = sorted(
        range(len(schemes)),
        key=lambda i: (0 if schemes[i] in ACTION_SCHEMES else 1, i),
    )
    ranks = [0] * len(schemes)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    return ranks


@_gc_paused
def build_pool(
    domain: DomainSpec,
    seed: int,
    delta: float | None = None,
    n_validation_cases: int = 100,
    calibration_size: int | None = None,
) -> tuple[list[WatermarkPass], PoolBuildReport]:
    """Validate candidates, calibrate naturals, and derive biased targets."""
    delta = domain.delta if delta is None else delta
    if calibration_size is None:
        calibration_size = domain.corpus_sizes["calibration"]
    # the calibration corpus is counted as it is drawn, never held
    calibration = iter_greybox_corpus(
        domain, calibration_size, derive_rng(seed, "calibration").randrange(2**63),
        id_prefix="cal",
    )
    counts = count_members(calibration, domain.eqsets)
    report = PoolBuildReport(
        domain=domain.name, delta=delta, calibration_size=calibration_size
    )
    accepted: list[tuple[EquivalenceSet, Distribution, int]] = []
    for eqset, row in zip(domain.eqsets, counts):
        verdict: ValidationReport = validate_equivalence(
            eqset, domain.sandbox, n_cases=n_validation_cases, rng_seed=seed
        )
        if not verdict.valid:
            report.rejected.append(
                {
                    "set_id": eqset.id,
                    "reason": "failed execution validation",
                    "counterexample": verdict.counterexample,
                }
            )
            continue
        if not any(row):
            report.rejected.append(
                {"set_id": eqset.id, "reason": "no calibration observations"}
            )
            continue
        natural = Distribution.from_counts(row)
        target = domain.targets.get(eqset.id)
        if target is None:
            target = derive_rng(seed, "target", eqset.id).randrange(len(eqset.members))
        accepted.append((eqset, natural, target))

    if not accepted:
        raise NoValidCandidates(f"no candidate survived for domain {domain.name}")

    ranks = _order_ranks([eqset.scheme for eqset, _, _ in accepted])
    passes = []
    for idx, (eqset, natural, target) in enumerate(accepted):
        passes.append(
            WatermarkPass(
                pass_id=idx + 1,
                eqset=eqset,
                natural=natural,
                target_index=target,
                delta=delta,
                order_rank=ranks[idx],
            )
        )
        report.scheme_counts[eqset.scheme] = report.scheme_counts.get(eqset.scheme, 0) + 1
    return passes, report


def pool_to_json(passes: Sequence[WatermarkPass], domain_name: str = "") -> dict:
    return {
        "format_version": POOL_FORMAT_VERSION,
        "domain": domain_name,
        "passes": [
            {
                "pass_id": p.pass_id,
                "scheme": p.eqset.scheme,
                "order_rank": p.order_rank,
                "delta": p.delta,
                "target_index": p.target_index,
                "natural": list(p.natural.weights),
                "biased": list(p.biased.weights),
                "set": eqset_to_json(p.eqset),
            }
            for p in passes
        ],
    }


def pool_from_json(obj, where: str = "pool: $") -> list[WatermarkPass]:
    version = json_value(obj, int, where, "format_version")
    if version != POOL_FORMAT_VERSION:
        raise SchemaViolation(f"{where}.format_version: unsupported pool format {version}")
    passes = []
    for i, raw in enumerate(json_value(obj, list, where, "passes")):
        at = f"{where}.passes[{i}]"
        with json_at(at):
            passes.append(WatermarkPass(
                pass_id=json_value(raw, int, at, "pass_id", minimum=1),
                eqset=eqset_from_json(json_value(raw, dict, at, "set"), f"{at}.set"),
                natural=Distribution(tuple(json_value(raw, [float], at, "natural"))),
                target_index=json_value(raw, int, at, "target_index"),
                delta=json_value(raw, float, at, "delta"),
                order_rank=json_value(raw, int, at, "order_rank"),
                biased=Distribution(tuple(json_value(raw, [float], at, "biased"))),
            ))
    # pass i+1 sits at index i, whatever order the file lists them in
    passes.sort(key=lambda p: p.pass_id)
    if [p.pass_id for p in passes] != list(range(1, len(passes) + 1)):
        raise SchemaViolation(f"{where}.passes: pass_ids must be exactly 1..N")
    if len({p.order_rank for p in passes}) != len(passes):
        raise SchemaViolation(f"{where}.passes: order_ranks must be unique")
    return passes


def save_pool(path: str, passes: Sequence[WatermarkPass], domain_name: str = "") -> None:
    write_json(path, pool_to_json(passes, domain_name))


def load_pool(path: str) -> list[WatermarkPass]:
    return pool_from_json(read_json(path), f"pool: {path}: $")


def rebias_pool(passes: Sequence[WatermarkPass], delta: float) -> list[WatermarkPass]:
    """The same pool, in the same order, at a different watermark strength."""
    return [replace(p, delta=delta, biased=None) for p in passes]
