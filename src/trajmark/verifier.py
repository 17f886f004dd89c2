"""IP-theft verification: divergence thresholds and user localization.

Verification runs a suspect's trajectory dump against the *global* pool of
watermark passes (the trainer's identity is unknown, so no subset can be
assumed). Each pass is detected when the suspect's empirical member
distribution sits within Jensen-Shannon divergence ``theta_j`` of the
pass's biased target and enough matches were observed to make the estimate
meaningful. A suspect is classified as an imitation when at least
``theta_n`` passes are detected. The detected-pass bit vector is then
matched against the registry by cosine similarity to localize the user
whose fingerprint it carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .equivalence import Distribution, WatermarkPass, count_members, js_divergence
from .errors import EmptyRegistry
from .registry import Registry, bits_to_uid
from .trajectory import GreyBoxTrajectory, write_json

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
class DetectionResult:
    """Thresholded verdict for one pass."""

    pass_id: int
    empirical: Distribution | None
    observation_count: int
    jsd_to_target: float | None
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
    localization: list[tuple[str, float]] = field(default_factory=list)

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
            "localization": [
                {"uid_hex": uid, "similarity": sim} for uid, sim in self.localization
            ],
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_json())


def evaluate_passes(
    corpus: Sequence[GreyBoxTrajectory], pool: Sequence[WatermarkPass]
) -> list[PassEvaluation]:
    """Compute threshold-independent per-pass evidence over a corpus once.

    One ``count_members`` call tallies every pass's set; a pass with no
    match gets an empty evaluation, which detection treats as inconclusive.
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


def threshold_evaluations(
    evaluations: Sequence[PassEvaluation],
    theta_j: float,
    m_min: int = DEFAULT_M_MIN,
) -> list[DetectionResult]:
    """Apply the detection rule to cached evidence at given thresholds.

    A pass is conclusive iff at least ``m_min`` matches were observed, and
    detected iff conclusive and JSD(D', D-hat) < theta_j.
    """
    if not 0.0 < theta_j <= 1.0:
        raise ValueError(f"theta_j must lie in (0, 1], got {theta_j}")
    out = []
    for ev in evaluations:
        conclusive = ev.observation_count >= m_min and ev.empirical is not None
        detected = bool(
            conclusive and ev.jsd_to_target is not None and ev.jsd_to_target < theta_j
        )
        out.append(
            DetectionResult(
                ev.pass_id,
                ev.empirical,
                ev.observation_count,
                ev.jsd_to_target,
                conclusive,
                detected,
            )
        )
    return out


def classify_model(
    results: Sequence[DetectionResult],
    theta_n: int,
    theta_j: float = DEFAULT_THETA_J,
    m_min: int = DEFAULT_M_MIN,
) -> Verdict:
    """Fold per-pass results into a holistic verdict.

    Inconclusive passes count as not detected (0-bits): the rule is
    conservative toward false accusation. The detected vector is indexed by
    pass_id - 1, bit 0 least significant, matching UID layout.
    """
    if theta_n < 1:
        raise ValueError(f"theta_n must be >= 1, got {theta_n}")
    n_bits = max(r.pass_id for r in results) if results else 0
    vector = [0] * n_bits
    for r in results:
        if r.detected:
            vector[r.pass_id - 1] = 1
    n_det = sum(vector)
    return Verdict(
        results=list(results),
        detected_vector=tuple(vector),
        n_det=n_det,
        theta_j=theta_j,
        theta_n=theta_n,
        m_min=m_min,
        classified_as_imitation=n_det >= theta_n,
    )


def verify_corpus(
    corpus: Sequence[GreyBoxTrajectory],
    pool: Sequence[WatermarkPass],
    theta_j: float = DEFAULT_THETA_J,
    theta_n: int = DEFAULT_THETA_N,
    m_min: int = DEFAULT_M_MIN,
) -> Verdict:
    """End-to-end verification of one suspect trajectory dump."""
    evaluations = evaluate_passes(corpus, pool)
    results = threshold_evaluations(evaluations, theta_j, m_min)
    return classify_model(results, theta_n, theta_j, m_min)


def localize_user(
    detected_vector: Sequence[int], registry: Registry
) -> list[tuple[str, float]]:
    """Rank all registered users by similarity to the detected-pass vector.

    The score is the cosine similarity of the two bit vectors,
    ``|v & u| / sqrt(|v| |u|)``, or 0.0 when they share no bit; the
    vector folds into an int (a nonzero entry is a set bit) and each UID
    is scored by popcount. Ties break toward earlier registration, then
    lexicographic UID; the top-1 entry is the accusation, but the full
    ranking is returned so an investigator can work down a shortlist.

    The users come from ``registry.scoring_table()``, already in
    tie-break order with their int UIDs and popcounts, so one stable sort
    by score alone gives the ranking.
    """
    if not registry.users:
        raise EmptyRegistry(f"registry for domain {registry.domain!r} has no users")
    if len(detected_vector) != registry.n_bits:
        raise ValueError(
            f"vector length {len(detected_vector)} != registry N {registry.n_bits}"
        )
    v = bits_to_uid(detected_vector)
    nv = v.bit_count()
    uid_hexes, uids, popcounts = registry.scoring_table()
    sims = []
    for u, pop in zip(uids, popcounts):
        dot = (v & u).bit_count()
        sims.append(dot / math.sqrt(nv * pop) if dot else 0.0)
    # reverse=True keeps equal scores in table order
    order = sorted(range(len(sims)), key=sims.__getitem__, reverse=True)
    return [(uid_hexes[i], sims[i]) for i in order]


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
    positive_corpora: Sequence[Sequence[GreyBoxTrajectory]],
    negative_corpora: Sequence[Sequence[GreyBoxTrajectory]],
    pool: Sequence[WatermarkPass],
    theta_j_list: Sequence[float],
    theta_n_list: Sequence[int],
    m_min: int = DEFAULT_M_MIN,
) -> list[GridCell]:
    """Classify every suspect at every threshold pair and score the grid.

    Positives are dumps from models trained on watermarked data, negatives
    from benign models. Per-suspect evidence is computed once; thresholds
    are then swept cheaply over the cached JSD values.
    """
    if not positive_corpora or not negative_corpora:
        raise ValueError("need at least one positive and one negative model")
    pos_evals = [evaluate_passes(c, pool) for c in positive_corpora]
    neg_evals = [evaluate_passes(c, pool) for c in negative_corpora]
    cells = []
    for theta_j in theta_j_list:
        for theta_n in theta_n_list:
            tp = fp = fn = 0
            for evs in pos_evals:
                results = threshold_evaluations(evs, theta_j, m_min)
                if classify_model(results, theta_n, theta_j, m_min).classified_as_imitation:
                    tp += 1
                else:
                    fn += 1
            for evs in neg_evals:
                results = threshold_evaluations(evs, theta_j, m_min)
                if classify_model(results, theta_n, theta_j, m_min).classified_as_imitation:
                    fp += 1
            precision, recall, f1 = precision_recall_f1(tp, fp, fn)
            cells.append(GridCell(theta_j, theta_n, precision, recall, f1))
    return cells
