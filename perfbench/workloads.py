"""The benchmark's three workloads: inputs, jobs and correctness checks.

Every workload builds its inputs from the benchmark seed, times its
set-up several times, and then runs jobs.  A job reports how many
verified method calls it covered, how many checks it attempted and which
of them failed; the failures feed ``error_rate``.  See RATIONALE.md for
why each workload exists and which layer each one stresses.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List

from hostspeed import (
    SPAWN_REFERENCE_S,
    spawn_seconds,
    timed,
    usable_cpus,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass
class Job:
    """One timed unit of work and the checks made on its output.

    ``attempted`` counts the units checked (one per job, one per config
    for explore-reduced); ``failures`` holds at most one entry per unit.
    ``scale`` turns ``wall`` into reference seconds (see hostspeed.py)."""

    wall: float
    ops: int
    records: int = 0
    attempted: int = 1
    failures: List[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    scale: float = 1.0


def setup_samples(fns, rotate_cpus: bool, **probe) -> tuple:
    """Time each set-up step of ``fns``, bracketed by a probe (``timed``'s
    keywords): ``({"setup_s": reference seconds, "setup_wall_s": wall
    seconds}, the last step's result)``.  With ``rotate_cpus``, step ``i``
    and its probes run pinned to the ``i``-th usable CPU in turn."""
    cpus = usable_cpus() if rotate_cpus else None
    scaled, walls, result = [], [], None
    try:
        for index, fn in enumerate(fns):
            if cpus:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            result, wall, factor = timed(fn, **probe)
            scaled.append(wall * factor)
            walls.append(wall)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return {"setup_s": scaled, "setup_wall_s": walls}, result


def _failure(unit: str, problems: List[str]) -> List[str]:
    """At most one failure per checked unit, naming every problem."""
    return [f"{unit}: {'; '.join(problems)}"] if problems else []


# ---------------------------------------------------------------------------
# verify-multiset: `vyrd run` + `check --mode both`, producer-bound
# ---------------------------------------------------------------------------


class VerifyMultiset:
    """One job runs multiset-vector (4 threads x 300 calls) with the
    linearizability search on, then checks refinement offline."""

    name = "verify-multiset"
    ROTATE_CPUS = True
    PROGRAM = "multiset-vector"
    THREADS = 4
    CALLS = 300
    SETUP_REPEATS = 5
    # What a fresh `vyrd run` process pays before its first step.
    SETUP_SCRIPT = (
        "import repro.harness.runner, repro.linz, repro.core\n"
        "from repro.harness.workload import PROGRAMS\n"
        f"PROGRAMS[{PROGRAM!r}].build(False, {THREADS})\n"
    )

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self._seeds = [rng.randrange(1 << 31) for _ in range(1000)]

    def _import_once(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-c", self.SETUP_SCRIPT], env=env, check=True,
        )

    def setup(self) -> dict:
        from repro.harness import runner

        self._import_once()  # compiles bytecode on a fresh checkout
        samples, _ = setup_samples(
            [self._import_once] * self.SETUP_REPEATS, self.ROTATE_CPUS,
            probe=spawn_seconds, reference=SPAWN_REFERENCE_S,
        )
        # warm the lazy imports of run_program / linz outside the timing
        runner.run_program(
            self.PROGRAM, num_threads=self.THREADS, calls_per_thread=5,
            seed=0, linearizability=True,
        ).vyrd.check_offline()
        return samples

    def run_job(self, index: int) -> Job:
        from repro.harness import runner

        seed = self._seeds[index % len(self._seeds)]
        start = time.perf_counter()
        result = runner.run_program(
            self.PROGRAM, num_threads=self.THREADS,
            calls_per_thread=self.CALLS, seed=seed, linearizability=True,
        )
        outcome = result.vyrd.check_offline()
        wall = time.perf_counter() - start
        problems = []
        if not outcome.ok:
            problems.append(f"refinement {outcome.summary()}")
        if result.linz_outcome is None or not result.linz_outcome.ok:
            problems.append("linz verdict not ok")
        return Job(wall=wall, ops=outcome.methods_checked,
                   records=len(result.log),
                   failures=_failure(f"seed {seed}", problems))

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-cache: the daemon alone, on prerecorded chained shards
# ---------------------------------------------------------------------------


class ServeCache:
    """Set-up prerecords cache sessions into a local directory store; a
    job is one ``ServeSession.run`` over one of them, with the refinement
    and race checkers."""

    name = "serve-cache"
    # the daemon's ingest and check threads share the process's CPUs
    ROTATE_CPUS = False
    PROGRAM = "cache"
    RUN_KWARGS = {"num_threads": 4, "calls_per_thread": 300,
                  "log_locks": True, "log_reads": True}
    SHARDS = 2
    # A session's cost varies by about 15% with its seed; a run's median
    # over 12 of them varies much less.
    SESSIONS = 12

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self._seeds = [rng.randrange(1 << 31) for _ in range(self.SESSIONS)]
        self._root = os.path.join(workdir, f"serve-store-{os.getpid()}")
        self._expected = {}

    def _session(self, index: int) -> str:
        return f"run-{index % self.SESSIONS}"

    def setup(self) -> dict:
        from repro.core.log import log_signature
        from repro.harness import runner
        from repro.serve import (
            LocalDirectoryStore,
            produce_session,
            session_checkers,
        )

        shutil.rmtree(self._root, ignore_errors=True)
        os.makedirs(self._root)
        self._store = LocalDirectoryStore(self._root)
        self._factories = session_checkers(self.PROGRAM, races="both")
        samples, _ = setup_samples([
            functools.partial(
                produce_session, self._store, self._session(index),
                self.PROGRAM, seed=seed, num_shards=self.SHARDS,
                throttle=False, run_kwargs=self.RUN_KWARGS,
            )
            for index, seed in enumerate(self._seeds)
        ], rotate_cpus=True)  # the producer runs on one thread
        for index, seed in enumerate(self._seeds):
            reference = runner.run_program(
                self.PROGRAM, seed=seed, **self.RUN_KWARGS
            )
            self._expected[self._session(index)] = log_signature(
                list(reference.log)
            )
        # warm the daemon's lazy imports on a tiny session, untimed
        produce_session(
            self._store, "warmup", self.PROGRAM, seed=0,
            num_shards=self.SHARDS, throttle=False,
            run_kwargs={**self.RUN_KWARGS, "calls_per_thread": 5},
        )
        self._serve("warmup")
        return samples

    def _serve(self, name: str):
        from repro.serve import ServeSession

        checker_factory, race_factory = self._factories
        session = ServeSession(
            self._store, name, self.SHARDS,
            checker_factory=checker_factory,
            race_checker_factory=race_factory,
            heartbeat_interval=0,  # no thread beyond ingest and check
        )
        return session.run()

    def run_job(self, index: int) -> Job:
        name = self._session(index)
        start = time.perf_counter()
        result = self._serve(name)
        wall = time.perf_counter() - start
        problems = []
        if not result.ok:
            problems.append(f"session not ok ({result.error})")
        if not result.chain or not all(r.ok for r in result.chain):
            problems.append("chain audit failed")
        if result.outcome is None or not result.outcome.ok:
            problems.append("refinement verdict not ok")
        if result.stats.get("catchup_records") != 0:
            problems.append("catch-up ran")
        if result.signature != self._expected[name]:
            problems.append("served signature differs from a direct run")
        ops = result.outcome.methods_checked if result.outcome else 0
        return Job(wall=wall, ops=ops, records=result.records,
                   failures=_failure(name, problems),
                   stats=dict(result.stats))

    def close(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)


# ---------------------------------------------------------------------------
# explore-reduced: exhaustive sleep-set exploration of two pinned configs
# ---------------------------------------------------------------------------


# (program, buggy, threads, calls, workload_seed).  Pinned: whether a tree
# exhausts at all depends on the operation mix, so these are not drawn from
# the benchmark seed.  blinktree 2x3 seed 13 is the long clean tree (6443
# runs, 3 HB orders); the buggy vector multiset 2x1 seed 16 is short and
# exercises the violation path (222 of 258 runs fail, 6 distinct messages).
EXPLORE_CONFIGS = (
    ("blinktree", False, 2, 3, 13),
    ("multiset-vector", True, 2, 1, 16),
)
EXPLORE_MAX_RUNS = 60_000


def config_key(config) -> str:
    program, buggy, threads, calls, workload_seed = config
    return (f"{program}{'-buggy' if buggy else ''}-{threads}x{calls}"
            f"-seed{workload_seed}")


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(sorted(items)).encode()).hexdigest()


def explore_digests(result) -> dict:
    """Order-free digests of what an exhaustive exploration found."""
    hb_orders = [repr(outcome) for outcome in result.outcomes()]
    violations = [
        [getattr(r.error, "remote_type", type(r.error).__name__),
         str(r.error)]
        for r in result.failures
    ]
    unique_violations = {tuple(v) for v in violations}
    return {
        "hb_orders": len(hb_orders),
        "hb_digest": _digest(hb_orders),
        "violations": len(unique_violations),
        "violation_digest": _digest([list(v) for v in unique_violations]),
    }


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


class ExploreReduced:
    """A job exhausts every pinned config once with static sleep-set
    reduction, in-process (``jobs=1``); ``exhaust_s`` is its wall time."""

    name = "explore-reduced"
    ROTATE_CPUS = True
    SETUP_REPEATS = 5

    def __init__(self, seed: int, workdir: str, configs=EXPLORE_CONFIGS,
                 reference=None):
        self.configs = tuple(configs)
        self.reference = reference if reference is not None else (
            load_reference()
        )

    def _analyze(self) -> dict:
        from repro.concurrency.reduction import StaticReducer
        from repro.lint.effects import analyze_program

        return {
            program: StaticReducer.from_effects(analyze_program(program))
            for program in {config[0] for config in self.configs}
        }

    def setup(self) -> dict:
        samples, self._reducers = setup_samples(
            [self._analyze] * self.SETUP_REPEATS, self.ROTATE_CPUS
        )
        return {**samples, "lint.analyze_s": samples["setup_s"]}

    def exhaust(self, config):
        from repro.concurrency import parallel
        from repro.harness import ProgramSpec

        program, buggy, threads, calls, workload_seed = config
        spec = ProgramSpec(
            program, buggy=buggy, num_threads=threads,
            calls_per_thread=calls, workload_seed=workload_seed,
            daemons=False, fingerprint=True,
        )
        return parallel.parallel_exhaustive(
            spec, max_runs=EXPLORE_MAX_RUNS, jobs=1,
            reducer=self._reducers[program],
        )

    def run_job(self, index: int) -> Job:
        failures = []
        ops = runs = skipped = hb_orders = 0
        wall = 0.0
        for config in self.configs:
            key = config_key(config)
            start = time.perf_counter()
            result = self.exhaust(config)
            wall += time.perf_counter() - start
            runs += result.num_runs
            skipped += result.skipped
            ops += result.num_runs * config[2] * config[3]
            digests = explore_digests(result)
            hb_orders += digests["hb_orders"]
            problems = []
            if not result.exhausted or result.num_runs >= EXPLORE_MAX_RUNS:
                problems.append("did not exhaust")
            if result.requested != result.num_runs + result.skipped:
                problems.append("requested != executed + skipped")
            expected = self.reference.get(key, {})
            for digest in ("hb_digest", "violation_digest"):
                if digests[digest] != expected.get(digest):
                    problems.append(f"{digest} differs from reference")
            failures += _failure(key, problems)
        return Job(
            wall=wall, ops=ops, attempted=len(self.configs),
            failures=failures,
            stats={"runs": runs, "skipped": skipped, "hb_orders": hb_orders},
        )

    def close(self) -> None:
        pass


WORKLOADS = {
    cls.name: cls for cls in (VerifyMultiset, ServeCache, ExploreReduced)
}


def record_reference(path: str = REFERENCE_PATH) -> dict:
    """Write the explore-reduced reference digests from the current code."""
    workload = ExploreReduced(0, HERE, reference={})
    workload.setup()
    reference = {}
    for config in workload.configs:
        result = workload.exhaust(config)
        reference[config_key(config)] = {
            "runs": result.num_runs,
            "skipped": result.skipped,
            **explore_digests(result),
        }
    with open(path, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return reference
