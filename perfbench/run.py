"""sortlab's benchmark: one workload per run, a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sort-cli --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

    sort-cli   ``sortlab sort`` processes, 2^18 random ints piped stdin -> stdout
    lab-suite  ``sortlab verify --seed S`` and a ``sortlab bench`` sweep

Each run first sets up (a fresh ``import sortlab`` plus generating and writing
the inputs from ``--seed``) several times, then repeats the workload's own
requests for ``--seconds``, then sends the other request kinds (including the
pq-mixed request: a process that fills a min-at-root Heap and runs 2^18 mixed
ops) so that every end-to-end metric is reported on every workload.
``--trace 1`` instead runs a fixed session in this process twice, untraced
and traced, and reports per-layer metrics and the tracing overhead.

Outputs are checked outside the timed regions. The last line of stdout is
one JSON object: correct, attempted, failed, metrics. A fuller record, with
provenance, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The request kinds each workload repeats in its closed loop.
WORKLOADS = {"sort-cli": ("sort",), "lab-suite": ("verify", "bench")}
KINDS = ("sort", "pq", "verify", "bench")
# Fewest samples of a workload's own requests per run.
MIN_PRIMARY = {"sort": 4, "verify": 3, "bench": 3}
# Samples of each other request kind per untraced run. Two verify samples is
# the fewest that kept verify_s within its bound on a noisy machine.
COMPANIONS = {"sort": 3, "pq": 5, "verify": 2, "bench": 2}
# The fixed traced session: the workload's requests, then one of each other kind.
TRACED_PRIMARY = {"sort-cli": ["sort"] * 3, "lab-suite": ["verify", "bench", "bench"]}
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "sort_keys_per_s": "keys/s",
    "pq_ops_per_s": "ops/s",
    "verify_s": "s",
    "bench_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_nlgn"):
        return "ratio"
    return "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sortlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_head() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class CountLedger:
    """Counts from earlier runs of the same source and seed; any change is a determinism failure."""

    def __init__(self, seed: int, digest: str):
        self.path = OUT / f"counts-seed{seed}-{digest[:16]}.json"
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, counts: dict) -> list[str]:
        if key not in self.known:
            self.known[key] = counts
            self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
            return []
        if self.known[key] != counts:
            return [f"determinism: {key} counts changed since an earlier run of this source and seed"]
        return []


class Run:
    """Bookkeeping for one invocation: attempted/failed tallies and problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed_setup(inputs, env, deadline, run: Run):
    """Fresh-interpreter ``import sortlab`` plus writing the inputs, several times.

    Returns the median set-up time rescaled to the reference machine speed.
    """
    from lab_requests import spawn
    from reference import Probe, rescaled

    def once():
        t0 = time.perf_counter()
        done = spawn([sys.executable, "-c", "import sortlab; print(sortlab.__version__)"],
                     env, None, deadline - time.monotonic())
        inputs.write()
        return done, time.perf_counter() - t0

    times, digests, version, probe = [], None, None, Probe()
    for _ in range(SETUP_REPEATS):
        ((rc, out, err, _, _), wall), reference_s = probe.bracketed(once)
        times.append(rescaled(wall, reference_s))
        if rc != 0:
            raise SystemExit(f"import sortlab failed: {err.strip()[-500:]}")
        version = out.decode().strip()
        d = inputs.digests()
        run.tally([] if digests in (None, d) else ["determinism: set-up wrote different input bytes"])
        digests = d
    return statistics.median(times), times, digests, version


def untraced(workload: str, reqs, seconds: float, deadline: float) -> dict[str, list]:
    outcomes: dict[str, list] = {k: [] for k in KINDS}
    primary = WORKLOADS[workload]

    def sample(kind):
        outcomes[kind].append(getattr(reqs, kind)())

    stop = time.monotonic() + seconds
    while time.monotonic() < deadline:
        due = [k for k in primary
               if time.monotonic() < stop or len(outcomes[k]) < MIN_PRIMARY[k]]
        if not due:
            break
        for k in due:
            sample(k)
    for k in KINDS:
        if k not in primary:
            for _ in range(COMPANIONS[k]):
                sample(k)
    return outcomes


def sample_record(outcome) -> dict:
    return dict(vars(outcome), scaled_s=outcome.scaled_s)


def e2e_metrics(workload: str, outcomes, setup_s: float) -> dict[str, float]:
    from inputs import PQ_OPS, SORT_N

    def median_wall(kind):
        return statistics.median(o.scaled_s for o in outcomes[kind])

    return {
        "setup_s": setup_s,
        "sort_keys_per_s": SORT_N / median_wall("sort"),
        "pq_ops_per_s": PQ_OPS / median_wall("pq"),
        "verify_s": median_wall("verify"),
        "bench_s": median_wall("bench"),
        "peak_rss_mb": max(o.rss_mib for k in WORKLOADS[workload] for o in outcomes[k]),
    }


def import_time(env, deadline) -> float:
    from lab_requests import spawn

    code = "import time; t = time.perf_counter(); import sortlab.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        rc, out, err, _, _ = spawn([sys.executable, "-c", code], env, None, deadline - time.monotonic())
        if rc != 0:
            raise SystemExit(f"import sortlab.cli failed: {err.strip()[-500:]}")
        samples.append(float(out.decode()))
    return statistics.median(samples)


def traced(workload: str, checker, workdir: Path, env, deadline, seed: int):
    """Run the fixed session untraced, then traced.

    Returns the per-layer metrics (with the tracing overhead), every request's
    outcome by kind, and session totals.
    """
    from lab_requests import InProcessRequests
    from reference import Probe
    from spans import Tracer, layer_metrics

    plan = TRACED_PRIMARY[workload] + [k for k in KINDS if k not in WORKLOADS[workload]]

    def session(reqs):
        outcomes, probe = [], Probe()
        for kind in plan:
            outcome, reference_s = probe.bracketed(getattr(reqs, kind))
            outcome.reference_s = reference_s
            outcomes.append(outcome)
        return outcomes

    mirror = session(InProcessRequests(checker, workdir))
    tracer = Tracer()
    spanned = InProcessRequests(checker, workdir, around=lambda k: tracer.span(f"request.{k}"))
    with tracer.installed():
        traced_outcomes = session(spanned)
    metrics = {"cli.import_s": import_time(env, deadline)}
    metrics.update(layer_metrics(tracer))
    untraced_s = sum(o.scaled_s for o in mirror)
    traced_s = sum(o.scaled_s for o in traced_outcomes)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")
    outcomes = {k: [o for o in mirror + traced_outcomes if o.kind == k] for k in KINDS}
    totals = {"untraced_session_s": untraced_s, "traced_session_s": traced_s, "spans": len(tracer.start)}
    return metrics, outcomes, totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sortlab" / "cli.py").is_file():
        print(f"sortlab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import Inputs
    from lab_requests import Checker, ProcessRequests, child_env

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work"
    run = Run()
    digest = source_digest()
    ledger = CountLedger(args.seed, digest)
    inputs = Inputs(workdir, args.seed)
    env = child_env(ROOT)
    setup_s, setup_samples, input_digests, version = timed_setup(inputs, env, deadline, run)
    checker = Checker(inputs, args.seed, OUT / f"bench-seed{args.seed}-{digest[:16]}.csv")

    if args.trace:
        values, outcomes, totals = traced(args.workload, checker, workdir, env, deadline, args.seed)
        counts = {k: v for k, v in values.items() if per_layer_units(k) == "count"}
        run.tally(ledger.check(f"layers.{args.workload}", counts))
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in values.items()}
    else:
        reqs = ProcessRequests(ROOT, checker, workdir, deadline)
        outcomes = untraced(args.workload, reqs, args.seconds, deadline)
        values = e2e_metrics(args.workload, outcomes, setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        totals = {}
    for kind in KINDS:
        for o in outcomes[kind]:
            run.tally(o.problems)
    # Traced and untraced requests of one kind get the same input, so their
    # counts must agree, within this run and with earlier runs of either kind.
    for kind in ("sort", "pq"):
        first = outcomes[kind][0].counts
        run.tally([] if all(o.counts == first for o in outcomes[kind]) else
                  [f"determinism: {kind} counts differ between requests of one run"])
        run.tally(ledger.check(f"request.{kind}", first))

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(result)
    record["failed_frac"] = run.failed / run.attempted
    record["problems"] = run.problems
    record["provenance"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "sortlab_version": version,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": git_head(),
        "source_sha256": digest,
        "input_sha256": input_digests,
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    record["setup_samples_s"] = setup_samples
    record["samples"] = {k: [sample_record(o) for o in outcomes[k]] for k in KINDS}
    record.update(totals)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for problem in run.problems:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
