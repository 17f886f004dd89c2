"""Distribution-level watermarking for agentic action trajectories.

Embeds user-traceable statistical watermarks by biasing the choice among
semantically equivalent action segments, verifies suspected imitation
models via divergence-threshold testing over the full pass pool, and
localizes the leaking user by fingerprint similarity. Ships with a
deterministic simulation kit (sandbox, synthetic domains, surrogate
learners) so the whole evaluation loop runs at desk scale.
"""

__version__ = "0.1.0"

from .equivalence import (
    ActionPattern,
    Distribution,
    EquivalenceSet,
    Lit,
    Segment,
    SlotRef,
    WatermarkPass,
    count_members,
    derive_target_distribution,
    js_divergence,
    kl_divergence,
    validate_equivalence,
)
from .injector import (
    EditRecord,
    apply_pass,
    watermark_corpus,
    watermark_trajectory,
)
from .pool import build_pool, load_pool, save_pool
from .registry import Registry, UserRecord, capacity, passes_for_uid, register_user
from .trajectory import (
    Action,
    FullTrajectory,
    GreyBoxTrajectory,
    grey_box_view,
    parse_trajectory_line,
    serialize_trajectory,
)
from .verifier import (
    DetectionResult,
    Verdict,
    classify_evidence,
    f1_grid,
    localize_user,
    verify_corpus,
)

__all__ = [
    "__version__",
    "Action",
    "ActionPattern",
    "DetectionResult",
    "Distribution",
    "EditRecord",
    "EquivalenceSet",
    "FullTrajectory",
    "GreyBoxTrajectory",
    "Lit",
    "Registry",
    "Segment",
    "SlotRef",
    "UserRecord",
    "Verdict",
    "WatermarkPass",
    "apply_pass",
    "build_pool",
    "capacity",
    "classify_evidence",
    "count_members",
    "derive_target_distribution",
    "f1_grid",
    "grey_box_view",
    "js_divergence",
    "kl_divergence",
    "load_pool",
    "localize_user",
    "parse_trajectory_line",
    "passes_for_uid",
    "register_user",
    "save_pool",
    "serialize_trajectory",
    "validate_equivalence",
    "verify_corpus",
    "watermark_corpus",
    "watermark_trajectory",
]
