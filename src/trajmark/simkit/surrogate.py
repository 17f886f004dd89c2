"""The distribution-fitting stand-in for a fine-tuned imitation model.

A surrogate learns, per equivalence set, the empirical member distribution
of the trajectories it was trained on, blended with the natural
distribution through a fidelity knob ``eta``: 1.0 models perfect imitation
(the harvested biases are reproduced exactly up to sampling), 0.0 a benign
model that never saw watermarked data. Sets absent from the harvest fall
back to natural and are recorded rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..equivalence import Distribution, count_members
from ..errors import InvalidRange
from ..trajectory import GreyBoxTrajectory, _gc_paused
from .domains import DomainSpec
from .generator import generate_greybox_corpus, template_for_trajectory


@dataclass
class SurrogateModel:
    """Per-set fitted distributions plus base skeleton frequencies."""

    domain_name: str
    eta: float
    fitted: dict[str, Distribution]
    skeleton_freqs: dict[str, float]
    missing_sets: tuple[str, ...] = ()


def _mix(empirical: Distribution, natural: Distribution, eta: float) -> Distribution:
    return Distribution(
        tuple(
            eta * e + (1.0 - eta) * n
            for e, n in zip(empirical.weights, natural.weights)
        )
    )


def fit_surrogate(
    harvested: Sequence[GreyBoxTrajectory],
    domain: DomainSpec,
    eta: float,
) -> SurrogateModel:
    """Fit per-set categorical distributions from a harvested corpus.

    Fitting is deterministic: per set, eta * empirical + (1 - eta) *
    natural. Skeleton frequencies come from matching each harvested
    trajectory back to its template; unmatchable trajectories are skipped
    and a uniform fallback applies if nothing matches.
    """
    if not harvested:
        raise InvalidRange("harvest must be non-empty")
    if not 0.0 <= eta <= 1.0:
        raise InvalidRange(f"eta must lie in [0, 1], got {eta}")
    fitted: dict[str, Distribution] = {}
    missing: list[str] = []
    for eqset, row in zip(domain.eqsets, count_members(harvested, domain.eqsets)):
        natural = domain.natural[eqset.id]
        if not any(row):
            missing.append(eqset.id)
            fitted[eqset.id] = natural
            continue
        fitted[eqset.id] = _mix(Distribution.from_counts(row), natural, eta)

    counts: dict[str, int] = {t.id: 0 for t in domain.templates}
    matched = 0
    for traj in harvested:
        template_id = template_for_trajectory(domain, traj)
        if template_id is not None:
            counts[template_id] += 1
            matched += 1
    if matched:
        freqs = {tid: c / matched for tid, c in counts.items()}
    else:
        freqs = {t.id: 1.0 / len(domain.templates) for t in domain.templates}
    return SurrogateModel(
        domain_name=domain.name,
        eta=eta,
        fitted=fitted,
        skeleton_freqs=freqs,
        missing_sets=tuple(missing),
    )


def benign_surrogate(domain: DomainSpec) -> SurrogateModel:
    """A model that never saw watermarked data: natural everywhere."""
    return SurrogateModel(
        domain_name=domain.name,
        eta=0.0,
        fitted={e.id: domain.natural[e.id] for e in domain.eqsets},
        skeleton_freqs={t.id: t.weight for t in domain.templates},
    )


@_gc_paused
def sample_surrogate(
    model: SurrogateModel,
    domain: DomainSpec,
    n: int,
    seed: int,
    id_prefix: str = "s",
) -> list[GreyBoxTrajectory]:
    """Query the surrogate: grey-box trajectories drawn from its fit."""
    if model.domain_name != domain.name:
        raise ValueError(
            f"surrogate was fitted on {model.domain_name!r}, not {domain.name!r}"
        )
    return generate_greybox_corpus(
        domain,
        n,
        seed,
        id_prefix=id_prefix,
        slot_dist=lambda set_id: model.fitted[set_id],
        template_weights=model.skeleton_freqs,
    )
