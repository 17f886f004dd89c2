"""IP-theft verification: divergence thresholds and user localization.

Verification runs a suspect's trajectory dump against the *global* pool of
watermark passes (the trainer's identity is unknown, so no subset can be
assumed). ``evaluate_passes`` gathers the threshold-independent evidence
once: per pass, the suspect's empirical member distribution, its match
count and its Jensen-Shannon divergence to the pass's biased target.
``classify_evidence`` then applies the detection rule in one step: a pass
is detected when enough matches were observed and its divergence lies
below ``theta_j``, and the suspect is classified as an imitation when at
least ``theta_n`` passes are detected. The detected-pass bit vector is then
matched against the registry by cosine similarity to localize the user
whose fingerprint it carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .equivalence import Distribution, WatermarkPass, count_members, js_divergence
from .errors import EmptyRegistry, InvalidRange, LengthMismatch, SchemaViolation
from .registry import Registry, bits_to_uid
from .trajectory import GreyBoxTrajectory, json_value, write_json

DEFAULT_THETA_J = 0.015
DEFAULT_THETA_N = 3
DEFAULT_M_MIN = 30


@dataclass(frozen=True)
class PassEvaluation:
    """Threshold-independent evidence for one pass: D', count, JSD."""

    pass_id: int
    empirical: Distribution | None
    observation_count: int
    jsd_to_target: float | None


@dataclass(frozen=True)
class DetectionResult(PassEvaluation):
    """One pass's evidence with the detection rule applied."""

    conclusive: bool
    detected: bool


@dataclass
class Verdict:
    """Whole-suspect verdict: per-pass results, bit vector, classification."""

    results: list[DetectionResult]
    detected_vector: tuple[int, ...]
    n_det: int
    theta_j: float
    theta_n: int
    m_min: int
    classified_as_imitation: bool

    def to_json(self) -> dict:
        return {
            "theta_j": self.theta_j,
            "theta_n": self.theta_n,
            "m_min": self.m_min,
            "n_det": self.n_det,
            "classified_as_imitation": self.classified_as_imitation,
            "detected_vector": list(self.detected_vector),
            "passes": [
                {
                    "pass_id": r.pass_id,
                    "observation_count": r.observation_count,
                    "jsd_to_target": r.jsd_to_target,
                    "conclusive": r.conclusive,
                    "detected": r.detected,
                    "empirical": list(r.empirical.weights) if r.empirical else None,
                }
                for r in self.results
            ],
            "localization": [],  # filled by `localize --report`
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_json())


def detected_vector_from_json(obj, where: str = "verdict: $") -> list[int]:
    """A verdict document's ``detected_vector``: an array of 0/1 ints."""
    vector = json_value(obj, [int], where, "detected_vector", minimum=0)
    if any(bit > 1 for bit in vector):
        raise SchemaViolation(f"{where}.detected_vector: expected 0/1 ints, got {max(vector)}")
    return vector


def evaluate_passes(
    corpus: Iterable[GreyBoxTrajectory], pool: Sequence[WatermarkPass]
) -> list[PassEvaluation]:
    """Compute threshold-independent per-pass evidence over a corpus, read once.

    One ``count_members`` call tallies every pass's set as the corpus is
    read, so a stream is never held; a pass with no match gets an empty
    evaluation, which detection treats as inconclusive.
    """
    counts = count_members(corpus, [p.eqset for p in pool])
    evaluations = []
    for wm_pass, row in zip(pool, counts):
        total = sum(row)
        if total == 0:
            evaluations.append(PassEvaluation(wm_pass.pass_id, None, 0, None))
        else:
            emp = Distribution.from_counts(row)
            evaluations.append(
                PassEvaluation(
                    wm_pass.pass_id, emp, total, js_divergence(emp, wm_pass.biased)
                )
            )
    return evaluations


def classify_evidence(
    evaluations: Sequence[PassEvaluation],
    theta_j: float = DEFAULT_THETA_J,
    theta_n: int = DEFAULT_THETA_N,
    m_min: int = DEFAULT_M_MIN,
) -> Verdict:
    """Apply the detection rule to one suspect's cached evidence.

    A pass is conclusive iff at least ``m_min`` matches were observed, and
    detected iff conclusive and JSD(D', D-hat) < theta_j. Inconclusive
    passes count as not detected (0-bits): the rule is conservative toward
    false accusation. The suspect is an imitation iff at least ``theta_n``
    passes are detected. The detected vector is indexed by pass_id - 1,
    bit 0 least significant, matching UID layout.
    """
    if not 0.0 < theta_j <= 1.0:
        raise InvalidRange(f"theta_j must lie in (0, 1], got {theta_j}")
    if m_min < 1:
        raise InvalidRange(f"m_min must be >= 1, got {m_min}")
    if theta_n < 1:
        raise InvalidRange(f"theta_n must be >= 1, got {theta_n}")
    results = []
    vector = [0] * max((ev.pass_id for ev in evaluations), default=0)
    for ev in evaluations:
        conclusive = ev.observation_count >= m_min and ev.empirical is not None
        detected = (
            conclusive and ev.jsd_to_target is not None and ev.jsd_to_target < theta_j
        )
        results.append(DetectionResult(
            ev.pass_id, ev.empirical, ev.observation_count, ev.jsd_to_target,
            conclusive, detected,
        ))
        if detected:
            vector[ev.pass_id - 1] = 1
    n_det = sum(vector)
    return Verdict(
        results=results,
        detected_vector=tuple(vector),
        n_det=n_det,
        theta_j=theta_j,
        theta_n=theta_n,
        m_min=m_min,
        classified_as_imitation=n_det >= theta_n,
    )


def verify_corpus(
    corpus: Iterable[GreyBoxTrajectory],
    pool: Sequence[WatermarkPass],
    theta_j: float = DEFAULT_THETA_J,
    theta_n: int = DEFAULT_THETA_N,
    m_min: int = DEFAULT_M_MIN,
) -> Verdict:
    """End-to-end verification of one suspect trajectory dump, read once.

    ``corpus`` may be a one-shot stream, such as ``iter_jsonl``'s: the
    verdict depends only on the member counts it yields.
    """
    return classify_evidence(evaluate_passes(corpus, pool), theta_j, theta_n, m_min)


_SCORE = itemgetter(1)


def localize_user(
    detected_vector: Sequence[int], registry: Registry
) -> list[tuple[str, float]]:
    """Rank all registered users by similarity to the detected-pass vector.

    The score is the cosine similarity of the two bit vectors,
    ``|v & u| / sqrt(|v| |u|)``, or 0.0 when they share no bit; the
    vector folds into an int (a nonzero entry is a set bit) and each UID
    is scored by popcount. Ties break toward the earlier registration;
    the top-1 entry is the accusation, but the full ranking is returned
    so an investigator can work down a shortlist.

    A score depends only on the user's popcount and dot product, so each
    is read from a row per popcount, indexed by the dot product and built
    once per call with the expression above; a popcount-0 row is the
    single 0.0 of dot product 0. Users of one (popcount, dot) class share
    one score, so a ranking has at most (|v|+1)(w_max-w_min+1) distinct
    scores in a registry's weight range. ``registry.scoring_table()``
    lists the users in registration order, and one stable sort of the
    ``(uid_hex, score)`` pairs by score alone, highest first, keeps that
    order within each score: it is the ranking, and the ranking of the
    first ``n`` users is this one with the later users left out.
    """
    if not registry.users:
        raise EmptyRegistry(f"registry for domain {registry.domain!r} has no users")
    if len(detected_vector) != registry.n_bits:
        raise LengthMismatch(
            f"vector length {len(detected_vector)} != registry N {registry.n_bits}"
        )
    v = bits_to_uid(detected_vector)
    nv = v.bit_count()
    uid_hexes, uids, popcounts = registry.scoring_table()
    rows = [[dot / math.sqrt(nv * pop) if dot else 0.0 for dot in range(min(nv, pop) + 1)]
            for pop in range(max(popcounts) + 1)]
    scores = [rows[pop][(v & u).bit_count()] for u, pop in zip(uids, popcounts)]
    # reverse=True keeps equal scores in table order
    return sorted(zip(uid_hexes, scores), key=_SCORE, reverse=True)


# ---------------------------------------------------------------------------
# threshold-grid evaluation
# ---------------------------------------------------------------------------

def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Standard P/R/F1 with the 0-when-undefined convention."""
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return precision, recall, f1


@dataclass(frozen=True)
class GridCell:
    theta_j: float
    theta_n: int
    precision: float
    recall: float
    f1: float


def f1_grid(
    positive_evidence: Sequence[Sequence[PassEvaluation]],
    negative_evidence: Sequence[Sequence[PassEvaluation]],
    theta_j_list: Sequence[float],
    theta_n_list: Sequence[int],
    m_min: int = DEFAULT_M_MIN,
) -> list[GridCell]:
    """Classify every suspect at every threshold pair and score the grid.

    Each suspect is its ``evaluate_passes`` evidence: positives are dumps
    from models trained on watermarked data, negatives from benign models.
    The evidence is threshold-independent, so each suspect's dump is read
    once, by whoever counted it, and may have been a stream; each cell
    runs ``classify_evidence`` over the evidence.
    """
    if not positive_evidence or not negative_evidence:
        raise InvalidRange("need at least one positive and one negative model")
    cells = []
    for theta_j in theta_j_list:
        for theta_n in theta_n_list:
            tp = sum(classify_evidence(evs, theta_j, theta_n, m_min).classified_as_imitation
                     for evs in positive_evidence)
            fp = sum(classify_evidence(evs, theta_j, theta_n, m_min).classified_as_imitation
                     for evs in negative_evidence)
            precision, recall, f1 = precision_recall_f1(tp, fp, len(positive_evidence) - tp)
            cells.append(GridCell(theta_j, theta_n, precision, recall, f1))
    return cells
