"""The three workloads: set-up, one operation, and the output check.

Each workload is a closed loop with one client. ``setup`` builds
everything the timed part needs from the workload seed; ``batches``
yields the operations to run, in order; ``serve`` runs one operation and
is the only timed code; ``check`` runs after each batch, outside the
timed part, and returns one failure message per failed operation.

* ``watermark-serve``  the operator's online path: parse a served
  trajectory, register its user on first sight, decode the user's passes,
  watermark, and re-emit the trajectory and its edit log.
* ``verify-audit``     the investigator's path: verify a suspect dump
  against the full pool, then localize the leaking user.
* ``reproduce``        the researcher's path: one ``experiment.run_all``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from datetime import datetime, timedelta, timezone

from trajmark.experiment import ExperimentConfig, run_all
from trajmark.injector import edit_to_json, watermark_corpus, watermark_trajectory
from trajmark.pool import build_pool
from trajmark.registry import Registry, passes_for_uid, register_user
from trajmark.seeds import derive_rng, derive_seed
from trajmark.simkit import domains as simkit_domains
from trajmark.simkit.domains import load_domain
from trajmark.simkit.generator import generate_greybox_corpus
from trajmark.simkit.sandbox import segments_equivalent
from trajmark.simkit.surrogate import benign_surrogate, fit_surrogate, sample_surrogate
from trajmark.trajectory import parse_trajectory_line, serialize_trajectory
from trajmark.verifier import localize_user, verify_corpus

DOMAINS = ("data", "business", "social")
# The operator's side (pools, injection secret, registered users) is the
# same whatever the workload seed, so that the seed changes the traffic
# and the suspects but not the amount of work behind each operation.
# Pools use the harness's pool seed; the rest derives from this one.
OPERATOR_SEED = 42
_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def _created_at(k: int) -> str:
    """A replayable registration time: one second per registration."""
    return (_EPOCH + timedelta(seconds=k)).isoformat()


def _pool(domain, tiny: bool):
    seed = ExperimentConfig.pool_seed
    if tiny:
        passes, _ = build_pool(domain, seed=seed, n_validation_cases=5, calibration_size=400)
    else:
        passes, _ = build_pool(domain, seed=seed)
    return passes


def _inject_seed() -> int:
    return derive_seed(OPERATOR_SEED, "bench", "inject")


# ---------------------------------------------------------------------------
# watermark-serve
# ---------------------------------------------------------------------------

class WatermarkServe:
    """Online watermarking of served trajectories, new users arriving.

    The operator's side is fixed, whatever the workload seed: each
    domain's pool, the injection secret, and ``KNOWN_USERS`` users per
    domain registered before the first request, the acceptance suite's
    12 + 5,000. Set-up pre-serializes a JSONL body per base
    trajectory of each domain's generated corpus.

    The seed drives only the arrivals. A request picks a domain uniformly
    (the harness weights the three domains equally), a body uniformly (the
    corpus is a sample of the domain's generator, so this samples the
    served distribution) and an account: a new one with probability
    ``NEW_USER``, otherwise a uniformly chosen registered one. ``NEW_USER``
    has no source in the paper or the harness; it is an assumption, and
    ``bench/README.md`` gives how much throughput moves when it changes.
    Bodies repeat across requests; the injector's RNG stream depends on
    (uid, query_id), so a body served to another user is watermarked afresh.
    """

    op = "request"
    SETUP_REPEATS = 2
    SETUP_GAP_S = 0.0
    PROBES = 1  # host-speed probes at each batch boundary (bench/hostspeed.py)
    PROBE_EVERY_S = None  # and none inside an operation
    NEW_USER = 0.02
    KNOWN_USERS = 12 + 5000
    BATCH = 100
    SANDBOX_EVERY = 20  # sandbox-check every changed edit of every 20th request

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.base_per_domain = 40 if tiny else 1500
        self.known_users = 20 if tiny else self.KNOWN_USERS

    def setup(self) -> dict:
        state = {"domains": [], "inject_seed": _inject_seed()}
        for name in DOMAINS:
            domain = load_domain(name)
            passes = _pool(domain, self.tiny)
            corpus = generate_greybox_corpus(
                domain, self.base_per_domain, derive_seed(OPERATOR_SEED, "bench", "stream", name),
                id_prefix=f"{name[0]}q",
            )
            dom = {
                "name": name,
                "domain": domain,
                "passes": passes,
                "schemes": {p.pass_id: p.eqset.scheme for p in passes},
                "registry": Registry(name, len(passes)),
                "uid_of": {},  # account key -> uid_hex
                "lines": [serialize_trajectory(t) for t in corpus],
            }
            for key in range(self.known_users):
                self._register(dom, key)
            state["domains"].append(dom)
        return state

    def _register(self, dom: dict, key: int) -> str:
        registry = dom["registry"]
        record = register_user(
            registry, derive_seed(OPERATOR_SEED, "bench", "user", dom["name"], key),
            created_at=_created_at(len(registry.users)),
        )
        dom["uid_of"][key] = record.uid_hex
        return record.uid_hex

    def batches(self, state: dict):
        rng = random.Random(derive_seed(self.seed, "bench", "arrivals"))
        accounts = [self.known_users] * len(DOMAINS)
        while True:
            batch = []
            for _ in range(self.BATCH):
                d = rng.randrange(len(DOMAINS))
                if rng.random() < self.NEW_USER:
                    key = accounts[d]
                    accounts[d] += 1
                else:
                    key = rng.randrange(accounts[d])
                lines = state["domains"][d]["lines"]
                batch.append((d, key, lines[rng.randrange(len(lines))]))
            yield batch

    def serve(self, state: dict, request):
        d, key, line = request
        dom = state["domains"][d]
        traj = parse_trajectory_line(line)
        uid = dom["uid_of"].get(key)
        if uid is None:
            uid = self._register(dom, key)
        active = passes_for_uid(uid, dom["passes"])
        rng = derive_rng(state["inject_seed"], "inject", uid, traj.query_id)
        wm, edits = watermark_trajectory(traj, active, rng)
        out = serialize_trajectory(wm)
        edit_lines = [
            json.dumps(edit_to_json(0, traj.query_id, e), ensure_ascii=False, separators=(",", ":"))
            for e in edits
        ]
        return traj, out, edit_lines, edits

    def check(self, state: dict, requests, outputs, first_index: int) -> list[str]:
        failures = []
        for i, (request, result) in enumerate(zip(requests, outputs)):
            idx = first_index + i
            if isinstance(result, Exception):
                failures.append(f"request {idx}: {type(result).__name__}: {result}")
                continue
            dom = state["domains"][request[0]]
            problem = self._check_one(dom, result, sandbox=idx % self.SANDBOX_EVERY == 0)
            if problem:
                failures.append(f"request {idx}: {problem}")
        return failures

    @staticmethod
    def _check_one(dom: dict, result, sandbox: bool) -> str | None:
        traj, out, edit_lines, edits = result
        try:
            wm = parse_trajectory_line(out)
        except Exception as exc:  # any parse failure is an output defect
            return f"output does not re-parse: {exc}"
        if (wm.query_id, wm.response, wm.user_uid) != (traj.query_id, traj.response, traj.user_uid):
            return "non-action fields changed"
        for line in edit_lines:
            edit = json.loads(line)
            for pos in edit["final_positions"]:
                if not 0 <= pos < len(wm.actions):
                    return f"final position {pos} out of range"
                action = wm.actions[pos]
                if {"tool": action.tool, "args": dict(action.args)} not in edit["rewritten_actions"]:
                    return f"action at final position {pos} is not a rewritten action of pass {edit['pass_id']}"
        if sandbox:
            for edit in edits:
                if not edit.changed:
                    continue
                env = {}
                for action in edit.original_actions + edit.rewritten_actions:
                    for _, value in action.args:
                        if isinstance(value, str):
                            env[value] = f"data:{value}"
                if not segments_equivalent(
                    edit.original_actions, edit.rewritten_actions, dom["domain"].sandbox,
                    env, erase_ancillary=dom["schemes"][edit.pass_id] == "AE",
                ):
                    return f"rewrite of pass {edit.pass_id} is not sandbox-equivalent"
        return None


# ---------------------------------------------------------------------------
# verify-audit
# ---------------------------------------------------------------------------

class VerifyAudit:
    """Verdicts on suspect dumps: ``verify_corpus`` then ``localize_user``.

    Per domain, the operator's pool and registry are fixed: ``OTHERS``
    users and then ``ATTACKERS`` attackers (the acceptance suite's
    12 + 5,000). The seed picks which ``IMITATIONS`` attackers leak and
    draws the victim corpus; set-up fits an eta 1.0 surrogate on each
    leaker's harvest and samples every suspect at the domain's ``verify``
    size. ``BENIGN`` suspects come from the benign surrogate. The timed
    loop cycles over the suspects in a seeded order, one verdict a batch,
    so that host-speed probes surround every verdict. The attackers register
    last: ``localize_user`` breaks ties toward earlier registration, so a
    ranking that ties the attacker with anyone does not put it first.
    """

    op = "verdict"
    SETUP_REPEATS = 2
    SETUP_GAP_S = 0.0
    PROBES = 3
    PROBE_EVERY_S = None
    ATTACKERS = 12
    OTHERS = 5000
    IMITATIONS = 1
    BENIGN = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> dict:
        seed = self.seed
        suspects = []
        for name in DOMAINS:
            domain = load_domain(name)
            passes = _pool(domain, self.tiny)
            sizes = dict(domain.corpus_sizes)
            if self.tiny:
                sizes.update(fit=200, verify=200)
            registry = Registry(name, len(passes))
            users = [
                register_user(registry, derive_seed(OPERATOR_SEED, "bench", "user", name, k),
                              created_at=_created_at(k))
                for k in range((100 if self.tiny else self.OTHERS) + self.ATTACKERS)
            ]
            leakers = random.Random(derive_seed(seed, "bench", "leakers", name)).sample(
                users[-self.ATTACKERS:], self.IMITATIONS)
            victim = generate_greybox_corpus(
                domain, sizes["fit"], derive_seed(seed, "bench", "victim", name), id_prefix="v",
            )
            for i, attacker in enumerate(leakers):
                harvest, _ = watermark_corpus(
                    victim, passes_for_uid(attacker.uid_hex, passes),
                    seed=_inject_seed(), uid_hex=attacker.uid_hex,
                )
                model = fit_surrogate(harvest, domain, eta=1.0)
                dump = sample_surrogate(model, domain, sizes["verify"],
                                        derive_seed(seed, "bench", "suspect", name, i))
                suspects.append((passes, registry, dump, attacker.uid_hex))
            for j in range(self.BENIGN):
                dump = sample_surrogate(benign_surrogate(domain), domain, sizes["verify"],
                                        derive_seed(seed, "bench", "benign", name, j))
                suspects.append((passes, registry, dump, None))
        return {"suspects": suspects}

    def batches(self, state: dict):
        rng = random.Random(derive_seed(self.seed, "bench", "audit-order"))
        order = list(range(len(state["suspects"])))
        while True:
            rng.shuffle(order)
            yield from ([i] for i in order)

    def serve(self, state: dict, suspect_index: int):
        passes, registry, dump, _ = state["suspects"][suspect_index]
        verdict = verify_corpus(dump, passes)
        ranking = localize_user(verdict.detected_vector, registry)
        return verdict.classified_as_imitation, ranking[0][0]

    def check(self, state: dict, requests, outputs, first_index: int) -> list[str]:
        failures = []
        for i, (suspect_index, result) in enumerate(zip(requests, outputs)):
            where = f"verdict {first_index + i} (suspect {suspect_index})"
            if isinstance(result, Exception):
                failures.append(f"{where}: {type(result).__name__}: {result}")
                continue
            attacker = state["suspects"][suspect_index][3]
            classified, top1 = result
            if attacker is None and classified:
                failures.append(f"{where}: benign suspect classified as imitation")
            elif attacker is not None and not classified:
                failures.append(f"{where}: imitation suspect not classified")
            elif attacker is not None and top1 != attacker:
                failures.append(f"{where}: top-1 user {top1} is not attacker {attacker}")
        return failures


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

# The harness runs at the pinned seed, where the acceptance bounds are
# gates and the reports are byte-identical; at other seeds the bounds are
# statistical (at the default settings, seed 105 misses
# deletion_f1_below_0.05), so a seed-driven run could not tell a defect
# from sampling noise.
PINNED_SEED = 7
REPRODUCE_CONFIG = {
    "domains": ("data",),
    "n_attackers": 6,
    "n_benign": 6,
    "localization_seeds": 3,
    "closed_loop_corpus": 8000,
}
TINY_REPRODUCE_CONFIG = {
    "domains": ("data",),
    "n_attackers": 2,
    "n_benign": 2,
    "localization_seeds": 1,
    "localization_extra_users": (0, 5000),
    "closed_loop_corpus": 400,
}


def digest_reports(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class Reproduce:
    """One ``run_all`` at a reduced config on the data domain.

    Every run uses the pinned harness seed, whatever the workload seed, and
    checks the report digests against the reference. Set-up builds the
    data domain spec that ``run_all`` then uses, and the run directory;
    there is nothing else a researcher prepares before ``trajmark
    experiment all``. A build takes milliseconds, so it is repeated
    ``SETUP_REPEATS`` times per run and ``setup_s`` is the median. The
    builds are ``SETUP_GAP_S`` apart, as the one build in a ``run_all``
    follows other work: back to back, the median of 300 builds ranged
    from 1.9 ms to 3.6 ms from one process to the next; 0.1 s apart, the
    median of 25 stayed between 3.2 ms and 3.6 ms.
    """

    op = "run_all"
    SETUP_REPEATS = 25
    SETUP_GAP_S = 0.1
    PROBES = 25
    PROBE_EVERY_S = 1.0

    def __init__(self, tiny: bool, work_dir: str, reference: dict):
        self.tiny = tiny
        self.work_dir = work_dir
        self.reference = reference
        self.runs = 0
        self.digests: list[dict[str, str]] = []  # per run_all, for the record

    def setup(self) -> dict:
        # drop the cached spec, so that the build run_all uses happens here
        simkit_domains._BUILTIN_CACHE.pop("data", None)
        load_domain("data")
        os.makedirs(self.work_dir, exist_ok=True)
        return {}

    def batches(self, state: dict):
        overrides = TINY_REPRODUCE_CONFIG if self.tiny else REPRODUCE_CONFIG
        while True:
            self.runs += 1
            out_dir = os.path.join(self.work_dir, f"run-{self.runs}")
            yield [ExperimentConfig(seed=PINNED_SEED, out_dir=out_dir, **overrides)]

    def serve(self, state: dict, config: ExperimentConfig):
        return run_all(config)

    def check(self, state: dict, requests, outputs, first_index: int) -> list[str]:
        failures = []
        for config, summary in zip(requests, outputs):
            where = f"run_all {first_index}"
            if isinstance(summary, Exception):
                failures.append(f"{where}: {type(summary).__name__}: {summary}")
            else:
                failed = [k for k, v in summary["acceptance"].items()
                          if isinstance(v, bool) and not v]
                digests = digest_reports(config.out_dir)
                self.digests.append(digests)
                pinned = {} if self.tiny else self.reference
                flipped = sorted(n for n in set(pinned) | set(digests)
                                 if pinned.get(n) != digests.get(n))
                problems = []
                if failed:
                    problems.append(f"acceptance failed: {', '.join(failed)}")
                if pinned and flipped:
                    problems.append(f"report digest differs from reference: {', '.join(flipped)}")
                if problems:
                    failures.append(f"{where}: {'; '.join(problems)}")
            shutil.rmtree(config.out_dir, ignore_errors=True)
            first_index += 1
        return failures
