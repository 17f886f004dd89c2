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

from ..equivalence import Distribution, MemberCounter
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


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise InvalidRange(f"eta must lie in [0, 1], got {eta}")


class SurrogateFit:
    """A surrogate fit on ``domain``, fed one harvested trajectory at a time.

    ``add`` matches a trajectory back to its template and counts its
    members; ``model(eta)`` mixes what was added at one fidelity, and may be
    asked at several. No trajectory is kept.
    """

    __slots__ = ("domain", "_members", "_templates")

    def __init__(self, domain: DomainSpec) -> None:
        self.domain = domain
        self._members = MemberCounter(domain.eqsets)
        self._templates: Counter[str | None] = Counter()

    def add(self, traj: GreyBoxTrajectory) -> None:
        self._templates[template_for_trajectory(self.domain, traj)] += 1
        self._members.add(traj)

    def model(self, eta: float) -> SurrogateModel:
        """Per set, eta * empirical + (1 - eta) * natural; templates by skeleton frequency.

        Unmatchable trajectories are skipped, and every template weighs the
        same if nothing matched. An empty harvest is refused.
        """
        _check_eta(eta)
        if not self._templates:
            raise InvalidRange("harvest must be non-empty")
        domain = self.domain
        fitted: dict[str, Distribution] = {}
        missing: list[str] = []
        for eqset, row in zip(domain.eqsets, self._members.counts):
            natural = domain.natural[eqset.id]
            if not any(row):
                missing.append(eqset.id)
                fitted[eqset.id] = natural
                continue
            fitted[eqset.id] = _mix(Distribution.from_counts(row), natural, eta)
        # the trajectories no template produced
        matched = sum(n for template_id, n in self._templates.items() if template_id is not None)
        templates = [
            replace(t, weight=self._templates[t.id] / matched if matched
                    else 1.0 / len(domain.templates))
            for t in domain.templates
        ]
        return SurrogateModel(replace(domain, natural=fitted, templates=templates), tuple(missing))


def fit_surrogate(
    harvested: Iterable[GreyBoxTrajectory],
    domain: DomainSpec,
    eta: float,
) -> SurrogateModel:
    """Fit per-set categorical distributions from a harvested corpus, read once.

    ``SurrogateFit(domain)`` fed every harvested trajectory, then mixed at
    ``eta``; an ``eta`` outside [0, 1] is refused before the first read.
    """
    _check_eta(eta)
    fit = SurrogateFit(domain)
    for traj in harvested:
        fit.add(traj)
    return fit.model(eta)


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
