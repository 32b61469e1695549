"""End-to-end benchmark of the scheduling simulator, with traced attribution.

Run from the repository root::

    python3 perfbench/run.py --workload paper-mix --seed 11 --seconds 20 --trace 0

``--workload`` is one of ``paper-mix``, ``overload``, ``wide-80``,
``service-journal`` or ``all``.  Every workload runs one simulation at a
time in this process, through the public entry points only
(``run_experiment``, ``SchedulerService``, ``WorkloadGenerator``,
``build_system``).  A workload's inputs are a function of ``--seed``:
the seed's own simulation plus ``sub_seeds - 1`` more derived from it,
which evens out the platform and arrival draws a single seed gets.

With ``--trace 0`` the run reports the end-to-end metrics (host time).
With ``--trace 1`` it runs the seed's own simulations once untraced and
twice under :mod:`tracer` shims and reports the per-layer metrics.  Both
modes check the simulated outputs first: every task completes, each
simulation's digest repeats, matches the pin in ``pins.json`` (for the
pinned seeds), matches a batch run (service) and the untraced run
(traced); on a mismatch the run fails and prints no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines
record provenance and the simulated outcomes.  ``--write-pins`` re-pins
the digests after an intentional behaviour change.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = HERE / "pins.json"

DEFAULT_SEED = 11
HELD_OUT_SEED = 97
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
#: Sub-seed ``j`` of seed ``s`` is ``s + SUB_SEED_STRIDE * j``.
SUB_SEED_STRIDE = 1000
#: Cold-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
PAPER_SCHEDULERS = ("adaptive-rl", "online-rl", "qplus", "prediction")


@dataclass(frozen=True)
class Workload:
    name: str
    schedulers: Tuple[str, ...]
    num_tasks: int
    sub_seeds: int
    #: ``default_platform`` overrides (name, value).
    platform: Tuple[Tuple[str, object], ...] = ()
    service: bool = False

    def seeds(self, seed: int) -> List[int]:
        return [seed + SUB_SEED_STRIDE * j for j in range(self.sub_seeds)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-mix", PAPER_SCHEDULERS, 3000, sub_seeds=4),
        # A fixed 5-site x 7-node x 5-processor topology (the midpoint of
        # the default ranges; speeds still drawn per seed): with random
        # topology the offered load swings from ~1.6x to ~2.4x capacity
        # between seeds, and the backlog cost with it.
        Workload("overload", ("adaptive-rl",), 6000, sub_seeds=3,
                 platform=(("nodes_per_site", (7, 7)),
                           ("procs_per_node", (5, 5)))),
        Workload("wide-80", ("adaptive-rl",), 3000, sub_seeds=4,
                 platform=(("num_sites", 80),)),
        Workload("service-journal", ("adaptive-rl",), 3000, sub_seeds=4,
                 service=True),
    )
}


class BenchFailure(RuntimeError):
    """A correctness check failed; the run reports no metrics."""


@dataclass
class SimResult:
    """One simulation: host wall time and the simulated outcome."""

    wall: float
    num_tasks: int
    completed: int
    avert: float
    ecs: float
    success_rate: float
    #: Ingress back-pressure refusals and queue high-water mark (service).
    backpressure_waits: int = 0
    depth_high: int = 0

    @property
    def digest(self) -> str:
        # Same payload as tests/integration/test_golden_seeds.py.
        payload = "|".join(
            [self.avert.hex(), self.ecs.hex(), float(self.success_rate).hex()]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- program entry points ------------------------------------------------
def _config(workload: Workload, scheduler: str, seed: int):
    from repro import ExperimentConfig, default_platform

    return ExperimentConfig(
        scheduler=scheduler,
        seed=seed,
        num_tasks=workload.num_tasks,
        platform=default_platform(**dict(workload.platform)),
    )


def _producer(engine):
    from repro.sim.rng import RandomStreams
    from repro.workload.generator import WorkloadGenerator

    # A fresh RandomStreams on the run's seed emits the batch run's exact
    # task sequence (workload streams are name-keyed and disjoint).
    return WorkloadGenerator(
        engine.workload_spec(), RandomStreams(engine.config.seed)
    ).iter_tasks()


def _journal_dir(seed: int) -> Path:
    return WORK / f"journal-{os.getpid()}-{seed}"


def remove_work() -> None:
    """Remove this process's journals, and the work directory once empty
    (another benchmark process may share it)."""
    for journal in WORK.glob(f"journal-{os.getpid()}-*"):
        shutil.rmtree(journal, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def _open_service(config, telemetry=None):
    from repro.service import SchedulerService

    journal = _journal_dir(config.seed)
    journal.mkdir(parents=True, exist_ok=True)
    return SchedulerService(
        config,
        _producer,
        max_queue=1024,
        policy="block",
        journal_dir=journal,
        telemetry=telemetry,
    )


def run_batch(config, telemetry=None) -> SimResult:
    from repro import run_experiment

    t0 = time.perf_counter()
    result = run_experiment(config, telemetry=telemetry)
    wall = time.perf_counter() - t0
    m = result.metrics
    return SimResult(wall, config.num_tasks, len(result.scheduler.completed),
                     m.avert, m.ecs, m.success_rate)


def run_service(config, telemetry=None) -> SimResult:
    """Drive ``SchedulerService`` to drain and check exactly-once."""
    from repro.service.journal import AdmissionJournal

    service = _open_service(config, telemetry)
    t0 = time.perf_counter()
    report = service.run()
    wall = time.perf_counter() - t0
    journal = service.journal.directory
    state = AdmissionJournal.load(journal)
    attempted = config.num_tasks
    if not (
        state.drained
        and state.admitted == attempted
        and state.completed == attempted
        and report.completed == attempted
        and not state.pending_tasks
    ):
        raise BenchFailure(
            f"service seed {config.seed}: journal not exactly-once "
            f"(drained={state.drained} admitted={state.admitted} "
            f"completed={state.completed} report={report.completed} "
            f"pending={len(state.pending_tasks)} attempted={attempted})"
        )
    shutil.rmtree(journal, ignore_errors=True)
    m = report.metrics
    return SimResult(wall, attempted, report.completed, m.avert, m.ecs,
                     m.success_rate, report.backpressure_waits,
                     report.depth_high)


def run_unit(workload: Workload, scheduler: str, seed: int,
             telemetry=None) -> SimResult:
    config = _config(workload, scheduler, seed)
    gc.collect()
    if workload.service:
        return run_service(config, telemetry)
    return run_batch(config, telemetry)


# -- correctness ---------------------------------------------------------
def load_pins() -> dict:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text(encoding="utf-8"))


class Checker:
    """Accumulates attempted/failed counts and enforces the digest gates."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.pins = load_pins().get(str(seed), {}).get(workload.name)
        self.digests: Dict[Tuple[str, int], str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, scheduler: str, j: int, seed: int, res: SimResult,
              what: str = "run") -> None:
        self.attempted += res.num_tasks
        missing = res.num_tasks - res.completed
        self.failed += missing
        label = f"{self.workload.name}/{scheduler}/seed{seed}"
        if missing:
            raise BenchFailure(
                f"{label}: {res.completed}/{res.num_tasks} tasks completed"
            )
        key = (scheduler, j)
        prior = self.digests.setdefault(key, res.digest)
        if res.digest != prior:
            raise BenchFailure(
                f"{label}: {what} digest {res.digest} != {prior} of the "
                "first run of the same inputs"
            )
        if self.pins is not None:
            pinned = self.pins.get(f"{scheduler}/sub{j}")
            if pinned != res.digest:
                raise BenchFailure(
                    f"{label}: digest {res.digest} != pinned {pinned}"
                )


def check_parity(workload: Workload, j: int, seed: int,
                 checker: Checker) -> None:
    """A service run must equal a batch run of the same config."""
    if not workload.service:
        return
    batch = run_batch(_config(workload, "adaptive-rl", seed))
    service = checker.digests[("adaptive-rl", j)]
    if batch.digest != service:
        raise BenchFailure(
            f"service-journal seed {seed}: service digest {service} != "
            f"batch run_experiment digest {batch.digest}"
        )


# -- set-up time ---------------------------------------------------------
def setup_child(workload: Workload, seed: int) -> float:
    """Import, build the platform and synthesize the first config's
    workload (service: construct ``SchedulerService`` and its journal)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    config = _config(workload, workload.schedulers[0], seed)
    if workload.service:
        service = _open_service(config)
        elapsed = time.perf_counter() - t0
        service.journal.close()
        shutil.rmtree(service.journal.directory, ignore_errors=True)
        return elapsed
    from repro.cluster.system import build_system
    from repro.sim.core import Environment
    from repro.sim.rng import RandomStreams
    from repro.workload.generator import WorkloadGenerator, WorkloadSpec

    streams = RandomStreams(seed=config.seed)
    build_system(Environment(), config.platform, streams)
    spec = WorkloadSpec(
        num_tasks=config.num_tasks,
        mean_interarrival=config.effective_mean_interarrival,
        size_range_mi=config.size_range_mi,
        priority_mix=config.priority_mix,
        reference_speed_mips=config.reference_speed_mips,
    )
    WorkloadGenerator(spec, streams).generate()
    return time.perf_counter() - t0


def measure_setup(workload: Workload, seed: int) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-child",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchFailure(f"set-up child failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


# -- provenance ----------------------------------------------------------
def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from mountinfo)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        fields = line.split()
        if "-" not in fields:
            continue
        mount = fields[4].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, fields[fields.index("-") + 1]
    return kind


def provenance(args) -> dict:
    import numpy

    WORK.mkdir(exist_ok=True)
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "journal_fs": fs_type(WORK),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def outcomes(results: List[SimResult]) -> dict:
    """The paper's outcomes over all tasks of *results*."""
    n = sum(r.num_tasks for r in results)
    return {
        "sim_success_rate": sum(r.success_rate * r.num_tasks for r in results) / n,
        "sim_avert": sum(r.avert * r.num_tasks for r in results) / n,
        "sim_ecs_mj": float(sum(r.ecs for r in results)) / 1e6,
    }


# -- the two modes -------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float,
            checker: Checker) -> Dict[str, float]:
    """End-to-end metrics: cycle through the workload's simulations
    until *seconds* are spent (at least one full pass)."""
    seeds = workload.seeds(seed)
    units = [(s, j, sd) for j, sd in enumerate(seeds) for s in workload.schedulers]
    walls: Dict[int, List[float]] = {i: [] for i in range(len(units))}
    first: List[SimResult] = []
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(units)
        scheduler, j, sub = units[k]
        res = run_unit(workload, scheduler, sub)
        checker.check(scheduler, j, sub, res)
        walls[k].append(res.wall)
        if i < len(units):
            first.append(res)
            check_parity(workload, j, sub, checker)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= len(units) and elapsed + walls[i % len(units)][0] > seconds:
            break
    for k, ((scheduler, _, sub), res) in enumerate(zip(units, first)):
        print(f"sim {workload.name} {scheduler} seed={sub} "
              f"digest={res.digest} walls={[round(w, 4) for w in walls[k]]} "
              f"success={res.success_rate!r} avert={res.avert!r} "
              f"ecs={float(res.ecs)!r}")
    print("outcomes " + json.dumps(outcomes(first)))
    completed = sum(r.completed for r in first)
    wall = sum(statistics.median(walls[k]) for k in walls)
    return {
        "setup_s": measure_setup(workload, seed),
        "tasks_per_s": completed / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_layers(workload: Workload, seed: int,
                 checker: Checker) -> Dict[str, float]:
    """Per-layer metrics from two traced runs of the seed's own
    simulations, against one untraced run."""
    from repro.obs import MetricsRegistry, Telemetry

    from tracer import BOUNDARIES, Tracer, TracerError

    units = list(workload.schedulers)
    plain = [run_unit(workload, s, seed) for s in units]
    for s, res in zip(units, plain):
        checker.check(s, 0, seed, res)
    check_parity(workload, 0, seed, checker)

    tracer = Tracer()
    tracer.install()
    passes = []  # (results, exact counts, self seconds, ack seconds)
    try:
        for _ in range(2):
            tracer.reset()
            traced, events = [], 0
            for s in units:
                tel = Telemetry(metrics=MetricsRegistry())
                res = run_unit(workload, s, seed, telemetry=tel)
                checker.check(s, 0, seed, res, what="traced")
                traced.append(res)
                events += int(tel.metrics.counter("sim.events_processed").value)
            tracer.check_coverage(workload.name)
            counts = tracer.counts()
            counts["sim.events"] = events
            self_s = {k: v[1] for k, v in tracer.stats.items()}
            passes.append((traced, counts, self_s, list(tracer.ack_seconds)))
    finally:
        tracer.uninstall()
    (_, counts1, _, _), (traced, counts, self_s, acks) = passes
    if counts1 != counts:
        diff = sorted(k for k in counts if counts[k] != counts1.get(k))
        raise TracerError(f"traced counts differ between two runs: {diff}")

    untraced_wall = sum(r.wall for r in plain)
    traced_wall = statistics.median(
        [sum(r.wall for r in p[0]) for p in passes]
    )
    metrics: Dict[str, float] = {}
    for b in BOUNDARIES:
        metrics[f"{b.name}.calls"] = counts.get(b.name, 0)
        metrics[f"{b.name}.self_s"] = self_s.get(b.name, 0.0)
    backlog = sum(self_s.get(f"core.backlog.{x}", 0.0)
                  for x in ("add", "take", "oldest_arrival"))
    passes_run = counts.get("core.run_pass", 0)
    acks_us = sorted(a * 1e6 for a in acks)
    metrics.update({
        "sim.events": counts["sim.events"],
        "core.backlog.depth_max": counts["core.backlog.depth_max"],
        "core.backlog.share": backlog / traced_wall,
        "core.run_pass.dispatch_ratio": (
            counts["groups_dispatched"] / passes_run if passes_run else 0.0
        ),
        "workload.tasks": counts["workload.tasks"],
        "ack_p50_us": _quantile(acks_us, 0.50),
        "ack_p99_us": _quantile(acks_us, 0.99),
        "ack_samples": len(acks_us),
        "service.backpressure_waits": sum(r.backpressure_waits for r in traced),
        "service.depth_high": max(r.depth_high for r in traced),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    metrics.update(outcomes(plain))
    return metrics


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q))
    return sorted_values[rank - 1]


# -- driver --------------------------------------------------------------
def write_pins() -> None:
    """Re-pin every workload's digests for :data:`PINNED_SEEDS`."""
    pins: dict = {}
    for seed in PINNED_SEEDS:
        for workload in WORKLOADS.values():
            table = pins.setdefault(str(seed), {}).setdefault(workload.name, {})
            for j, sub in enumerate(workload.seeds(seed)):
                for s in workload.schedulers:
                    table[f"{s}/sub{j}"] = run_unit(workload, s, sub).digest
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {PINS.relative_to(ROOT)}")


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def run_workload(workload: Workload, args, checker: Checker) -> Dict[str, float]:
    if args.trace:
        return trace_layers(workload, args.seed, checker)
    return measure(workload, args.seed, args.seconds, checker)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin digests for the pinned seeds and exit")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        print(setup_child(WORKLOADS[args.workload], args.seed))
        return 0
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.write_pins:
        write_pins()
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance " + json.dumps(provenance(args)), flush=True)
    units = declared_metrics(bool(args.trace))
    checkers = [Checker(WORKLOADS[name], args.seed) for name in names]
    results: Dict[str, Dict[str, float]] = {}
    try:
        for name, checker in zip(names, checkers):
            metrics = run_workload(WORKLOADS[name], args, checker)
            if set(metrics) != set(units):
                raise BenchFailure(
                    "reported metrics differ from BENCHMARK.json: "
                    f"{sorted(set(metrics) ^ set(units))}"
                )
            results[name] = metrics
    except Exception:  # any failure voids the whole run
        traceback.print_exc()
        attempted = sum(c.attempted for c in checkers)
        failed = sum(c.failed for c in checkers)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    finally:
        remove_work()
    attempted = sum(c.attempted for c in checkers)
    failed = sum(c.failed for c in checkers)

    for name, metrics in results.items():
        for key, value in metrics.items():
            print(f"metric {name} {key} = {value!r} {units[key]}")
    if len(names) == 1:
        reported = {k: {"value": v, "unit": units[k]}
                    for k, v in results[names[0]].items()}
    else:  # ``all``: one flat map keyed ``<workload>/<metric>``
        reported = {f"{name}/{k}": {"value": v, "unit": units[k]}
                    for name, metrics in results.items()
                    for k, v in metrics.items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
