"""The distribution-fitting stand-in for a fine-tuned imitation model.

A surrogate is a derived domain: the victim's domain with each set's
natural distribution replaced by the one fitted on the harvest, and each
template's weight by its skeleton frequency there. Sampling it is plain
corpus generation on that domain. Per set, the fit blends the empirical
member distribution with the natural one through a fidelity knob ``eta``:
1.0 models perfect imitation (the harvested biases are reproduced exactly
up to sampling), 0.0 a model that never saw watermarked data. Sets absent
from the harvest keep natural and are recorded rather than raised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable

from ..equivalence import Distribution, count_members
from ..errors import DomainMismatch, InvalidRange
from ..trajectory import GreyBoxTrajectory
from .domains import DomainSpec
from .generator import generate_greybox_corpus, template_for_trajectory


@dataclass(frozen=True)
class SurrogateModel:
    """The domain a surrogate generates from, and the sets its harvest missed."""

    domain: DomainSpec
    missing_sets: tuple[str, ...] = ()


def _mix(empirical: Distribution, natural: Distribution, eta: float) -> Distribution:
    return Distribution(
        tuple(
            eta * e + (1.0 - eta) * n
            for e, n in zip(empirical.weights, natural.weights)
        )
    )


def fit_surrogate(
    harvested: Iterable[GreyBoxTrajectory],
    domain: DomainSpec,
    eta: float,
) -> SurrogateModel:
    """Fit per-set categorical distributions from a harvested corpus, read once.

    Fitting is deterministic: per set, eta * empirical + (1 - eta) *
    natural. Template weights are skeleton frequencies, from matching each
    harvested trajectory back to its template in the same pass that counts
    its members; unmatchable trajectories are skipped and every template
    weighs the same if nothing matches.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidRange(f"eta must lie in [0, 1], got {eta}")
    by_template: Counter[str | None] = Counter()

    def tally(corpus):
        for traj in corpus:
            by_template[template_for_trajectory(domain, traj)] += 1
            yield traj

    rows = count_members(tally(harvested), domain.eqsets)
    if not by_template:
        raise InvalidRange("harvest must be non-empty")
    fitted: dict[str, Distribution] = {}
    missing: list[str] = []
    for eqset, row in zip(domain.eqsets, rows):
        natural = domain.natural[eqset.id]
        if not any(row):
            missing.append(eqset.id)
            fitted[eqset.id] = natural
            continue
        fitted[eqset.id] = _mix(Distribution.from_counts(row), natural, eta)

    del by_template[None]  # the trajectories no template produced
    matched = sum(by_template.values())
    templates = [
        replace(t, weight=by_template[t.id] / matched if matched else 1.0 / len(domain.templates))
        for t in domain.templates
    ]
    return SurrogateModel(replace(domain, natural=fitted, templates=templates), tuple(missing))


def benign_surrogate(domain: DomainSpec) -> SurrogateModel:
    """A model that never saw watermarked data: the domain itself."""
    return SurrogateModel(domain)


def sample_surrogate(
    model: SurrogateModel,
    domain: DomainSpec,
    n: int,
    seed: int,
    id_prefix: str = "s",
) -> list[GreyBoxTrajectory]:
    """Query the surrogate: grey-box trajectories drawn from its fitted domain."""
    if model.domain.name != domain.name:
        raise DomainMismatch(
            f"surrogate was fitted on {model.domain.name!r}, not {domain.name!r}"
        )
    return generate_greybox_corpus(model.domain, n, seed, id_prefix)
