"""Golden-seed determinism guard for the simulation hot path.

Perf refactors of a stochastic simulator are only safe when paired with
a regression oracle: these tests pin per-seed sha256 digests of the
headline metrics (AveRT, total system energy ``ECS``, success rate) for
3 seeds × 2 schedulers, captured on the pre-optimisation kernel, plus
one overload-with-failures run that exercises deep agent backlogs and
crash resubmission, one many-site run with failures, DVFS runs with and
without failures, one neural-value-model run, the per-cycle utilization
log and the learning-cycle stamps of the shared memory.
Any change that alters event ordering, float accumulation order, or RNG
stream consumption shifts at least one digest and fails loudly.

The digests hash the exact IEEE-754 bit patterns (``float.hex``), so
"close enough" does not pass — results must be bit-identical.

Refreshing (only after an *intentional* behaviour change):

    PYTHONPATH=src python tests/integration/test_golden_seeds.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import SharedLearningMemory
from repro.experiments.config import ExperimentConfig, default_platform
from repro.experiments.runner import run_experiment

SEEDS = (11, 23, 47)
SCHEDULERS = ("adaptive-rl", "fcfs")

#: Workload shape: heavy enough that deadlines are actually missed
#: (success rate < 1 for the learning scheduler), so all three digest
#: components carry information.
NUM_TASKS = 300
ARRIVAL_PERIOD = 600.0

#: Pinned pre-refactor digests (see module docstring for the refresh
#: procedure).  Keys are ``"<scheduler>/seed<seed>"``.
GOLDEN_DIGESTS = {
    "adaptive-rl/seed11": "3d089b0e664eb823",
    "adaptive-rl/seed23": "7e5800afcd7d5ed7",
    "adaptive-rl/seed47": "5cd619368d345dc6",
    "fcfs/seed11": "627ed7079a3657b2",
    "fcfs/seed23": "045753fe9226f6f2",
    "fcfs/seed47": "ea5242cc0ea99cd5",
}


#: Overload with crash-stop failures: 2000 adaptive-rl tasks in a 400-unit
#: window on a fixed 5 x 7 x 5 platform.  Agent backlogs reach ~780 tasks
#: and ~2600 crash-orphaned tasks are resubmitted with their original
#: arrival times, so backlog adds arrive out of arrival order -- a path
#: the 300-task seeds above never reach.  Pinned before the indexed
#: backlog replaced the sorted-list one.
OVERLOAD_FAILURES_CONFIG = ExperimentConfig(
    scheduler="adaptive-rl",
    seed=11,
    num_tasks=2000,
    arrival_period=400.0,
    platform=default_platform(nodes_per_site=(7, 7), procs_per_node=(5, 5)),
    failure_mtbf=300.0,
    failure_mttr=30.0,
)
OVERLOAD_FAILURES_DIGEST = "3b6d150b57094001"


#: Many sites with crash-stop failures: 40 sites share 600 tasks, so most
#: agents sit on an empty backlog on most passes and node failures must
#: invalidate the site-level pending counts that least-loaded routing
#: reads on every arrival.  Pinned before per-site pending caching and
#: skipping of empty agent passes.
MANY_SITES_CONFIG = ExperimentConfig(
    scheduler="adaptive-rl",
    seed=11,
    num_tasks=600,
    platform=default_platform(num_sites=40),
    failure_mtbf=400.0,
    failure_mttr=40.0,
)
MANY_SITES_DIGEST = "0625535e2d2365fe"

#: DVFS on the overload-with-failures platform: the scheduler rescales
#: processor frequencies, so node power snapshots change through
#: ``set_frequency_scale`` as well as through processor state
#: transitions.  Pinned before agents cached their site observation.
DVFS_FAILURES_CONFIG = OVERLOAD_FAILURES_CONFIG.with_overrides(
    scheduler_kwargs={"dvfs_enabled": True}
)
DVFS_FAILURES_DIGEST = "87d0ed830596b723"

#: The same DVFS run without failures.
DVFS_CONFIG = DVFS_FAILURES_CONFIG.with_overrides(failure_mtbf=None)
DVFS_DIGEST = "1fbe639bb705d3f0"

#: The neural value model reads the continuous ``SiteObservation``
#: (load ratio, free-slot and power fractions, open nodes), not just the
#: ternary state, so any drift in the observation floats shifts it.
#: Pinned before agents cached their site observation.
NEURAL_CONFIG = ExperimentConfig(
    scheduler="adaptive-rl",
    seed=11,
    num_tasks=NUM_TASKS,
    arrival_period=ARRIVAL_PERIOD,
    scheduler_kwargs={"value_model": "neural"},
)
NEURAL_DIGEST = "36d79c6ff0c11afe"

#: The per-learning-cycle utilization log (Figures 9-10) of the
#: adaptive-rl seed-11 golden run: every sample's busy time, powered
#: time and busy fraction, bit for bit, plus the completion and cycle
#: counts.  Pinned before the meter-bank reduction was rewritten.
CYCLE_LOG_DIGEST = "6844b570ff9d5c50"

#: ``Experience.cycle`` of every record the shared memory receives in
#: the adaptive-rl seed-11 golden run, with its agent id.  Pinned before
#: the pass count moved from the agents to the scheduler.
EXPERIENCE_CYCLES_DIGEST = "a9bf58cddc9d6a88"


def _digest(config: ExperimentConfig) -> tuple[str, str]:
    """Run *config*; return (digest, readable payload)."""
    metrics = run_experiment(config).metrics
    payload = "|".join(
        [
            metrics.avert.hex(),
            metrics.ecs.hex(),
            float(metrics.success_rate).hex(),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16], payload


def _golden_config(scheduler: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=scheduler,
        seed=seed,
        num_tasks=NUM_TASKS,
        arrival_period=ARRIVAL_PERIOD,
    )


def _cycle_log_digest() -> str:
    """Digest of the adaptive-rl seed-11 run's learning-cycle log."""
    scheduler = run_experiment(_golden_config("adaptive-rl", 11)).scheduler
    parts = [
        f"{s.busy_time.hex()},{s.powered_time.hex()},"
        f"{s.busy_fraction.hex()},{s.completed_tasks}"
        for s in scheduler.cycle_log
    ]
    parts.append(str(scheduler.learning_cycles))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _experience_cycles_digest() -> str:
    """Digest of every shared-memory record's agent and cycle stamp."""
    stamps: list[str] = []
    original = SharedLearningMemory.record

    def record(memory, experience):
        stamps.append(f"{experience.agent_id}@{experience.cycle}")
        return original(memory, experience)

    SharedLearningMemory.record = record
    try:
        run_experiment(_golden_config("adaptive-rl", 11))
    finally:
        SharedLearningMemory.record = original
    assert stamps, "the golden run records no experiences"
    return hashlib.sha256("|".join(stamps).encode()).hexdigest()[:16]


def _run_digest(scheduler: str, seed: int) -> tuple[str, str]:
    """Run the pinned configuration; return (digest, readable payload)."""
    return _digest(_golden_config(scheduler, seed))


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_golden_seed_digest(scheduler: str, seed: int) -> None:
    digest, payload = _run_digest(scheduler, seed)
    expected = GOLDEN_DIGESTS[f"{scheduler}/seed{seed}"]
    assert digest == expected, (
        f"{scheduler} seed={seed}: metrics digest {digest} != pinned "
        f"{expected} (AveRT|ECS|success = {payload}); the kernel or the "
        "decision loop is no longer bit-deterministic against the golden "
        "baseline"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dict_backend_matches_golden_digest(seed: int) -> None:
    """The dict Q-store reference produces the exact pinned digests.

    The default run uses the dense (array-backed) fast path; this guard
    proves the two backends are interchangeable bit for bit, which is
    the determinism contract the fast path was built under.
    """
    config = ExperimentConfig(
        scheduler="adaptive-rl",
        seed=seed,
        num_tasks=NUM_TASKS,
        arrival_period=ARRIVAL_PERIOD,
        scheduler_kwargs={"q_backend": "dict"},
    )
    digest, payload = _digest(config)
    expected = GOLDEN_DIGESTS[f"adaptive-rl/seed{seed}"]
    assert digest == expected, (
        f"dict backend seed={seed}: digest {digest} != pinned {expected} "
        f"(AveRT|ECS|success = {payload}); the dense and dict Q backends "
        "have diverged"
    )


def test_overload_with_failures_digest() -> None:
    """Deep backlogs plus crash resubmission stay bit-identical."""
    digest, payload = _digest(OVERLOAD_FAILURES_CONFIG)
    assert digest == OVERLOAD_FAILURES_DIGEST, (
        f"overload-with-failures: metrics digest {digest} != pinned "
        f"{OVERLOAD_FAILURES_DIGEST} (AveRT|ECS|success = {payload}); "
        "backlog ordering or crash resubmission changed behaviour"
    )


def test_many_sites_with_failures_digest() -> None:
    """Forty mostly idle sites with node crashes stay bit-identical."""
    digest, payload = _digest(MANY_SITES_CONFIG)
    assert digest == MANY_SITES_DIGEST, (
        f"many-sites: metrics digest {digest} != pinned {MANY_SITES_DIGEST} "
        f"(AveRT|ECS|success = {payload}); site routing, failure handling "
        "or the agent pass order changed behaviour"
    )


@pytest.mark.parametrize(
    "label,config,expected",
    [
        ("dvfs-with-failures", DVFS_FAILURES_CONFIG, DVFS_FAILURES_DIGEST),
        ("dvfs", DVFS_CONFIG, DVFS_DIGEST),
        ("neural", NEURAL_CONFIG, NEURAL_DIGEST),
    ],
    ids=["dvfs-with-failures", "dvfs", "neural"],
)
def test_observation_path_digest(
    label: str, config: ExperimentConfig, expected: str
) -> None:
    """DVFS power changes and the neural model's continuous observation
    stay bit-identical."""
    digest, payload = _digest(config)
    assert digest == expected, (
        f"{label}: metrics digest {digest} != pinned {expected} "
        f"(AveRT|ECS|success = {payload}); the site observation, DVFS "
        "power accounting or the neural value model changed behaviour"
    )


def test_cycle_log_digest() -> None:
    """The learning-cycle utilization samples stay bit-identical."""
    digest = _cycle_log_digest()
    assert digest == CYCLE_LOG_DIGEST, (
        f"cycle log digest {digest} != pinned {CYCLE_LOG_DIGEST}; the "
        "per-cycle busy/powered sums no longer add left to right"
    )


def test_experience_cycle_stamps_digest() -> None:
    """Shared-memory experiences keep their learning-cycle stamps."""
    digest = _experience_cycles_digest()
    assert digest == EXPERIENCE_CYCLES_DIGEST, (
        f"experience cycle digest {digest} != pinned "
        f"{EXPERIENCE_CYCLES_DIGEST}; agents no longer count every "
        "learning cycle"
    )


def test_golden_table_is_complete() -> None:
    """Every (scheduler, seed) cell has exactly one pinned digest."""
    expected_keys = {f"{s}/seed{d}" for s in SCHEDULERS for d in SEEDS}
    assert set(GOLDEN_DIGESTS) == expected_keys


if __name__ == "__main__":  # pragma: no cover - digest refresh helper
    for sched in SCHEDULERS:
        for seed_value in SEEDS:
            dig, pay = _run_digest(sched, seed_value)
            print(f'    "{sched}/seed{seed_value}": "{dig}",  # {pay}')
    dig, pay = _digest(OVERLOAD_FAILURES_CONFIG)
    print(f'OVERLOAD_FAILURES_DIGEST = "{dig}"  # {pay}')
    dig, pay = _digest(MANY_SITES_CONFIG)
    print(f'MANY_SITES_DIGEST = "{dig}"  # {pay}')
    for name, cfg in (
        ("DVFS_FAILURES_DIGEST", DVFS_FAILURES_CONFIG),
        ("DVFS_DIGEST", DVFS_CONFIG),
        ("NEURAL_DIGEST", NEURAL_CONFIG),
    ):
        dig, pay = _digest(cfg)
        print(f'{name} = "{dig}"  # {pay}')
    print(f'CYCLE_LOG_DIGEST = "{_cycle_log_digest()}"')
    print(f'EXPERIENCE_CYCLES_DIGEST = "{_experience_cycles_digest()}"')
