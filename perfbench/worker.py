"""The passes of one workload run, each in a fresh copy of one process.

``run.py`` starts this script once per set-up probe and once for the
passes.  The script builds the workload's inputs (the set-up) and, in
``--mode passes``, forks one child per pass.  A child starts from the
state right after set-up, with fpal's module-level caches empty as in a
new ``fpal`` process, and issues every op once as a closed loop with one
caller: each op starts only after the previous one returned.  Answers are
checked after the loop, so checking costs no timed time.  The parent waits
for each child before it forks the next, so only one pass runs at a time.
Forking instead of starting an interpreter per pass leaves more of the
run's time for passes, and more passes give each op more latency samples.

Usage (normally only from run.py)::

    python3 perfbench/worker.py --root . --workload check-library --seed 1 \
        --mode passes --seconds 35 --deadline 165 --trace 0 \
        --spawned-at <time.monotonic()> --out rec.json
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback

# A single op running longer than this is stopped and counted as failed.
OP_TIMEOUT_S = 60.0
MIN_PASSES = 3

# Per-layer metrics read from the trace: (metric, unit, span name, field).
# A span's "s" is its inclusive time, counted at the outermost span of that
# name; "self_s" excludes time in child spans.
SPAN_METRICS = [
    ("cpo_model.check_equation.calls", "count", "cpo_model.check_equation", "calls"),
    ("cpo_model.check_equation.s", "s", "cpo_model.check_equation", "s"),
    ("cpo_model.check_equation.self_s", "s", "cpo_model.check_equation", "self_s"),
    ("cpo_model.interpretation_count.s", "s", "cpo_model.interpretation_count", "s"),
    ("cpo_model.enumerate_monotone.s", "s", "cpo_model.enumerate_monotone", "s"),
    ("cpo_model.random_monotone.s", "s", "cpo_model.random_monotone", "s"),
    ("cpo_model.random_monotone.calls", "count", "cpo_model.random_monotone", "calls"),
    ("cpo_model.eval_morphism.s", "s", "cpo_model.eval_morphism", "s"),
    ("cpo_model.eval_morphism.calls", "count", "cpo_model.eval_morphism", "calls"),
] + [
    (f"cpo_model.eval_morphism.{node}.self_s", "s", f"cpo_model.eval_morphism.{node}", "self_s")
    for node in ("Dagger", "Tup", "Comp", "Proj", "Sym")
] + [
    ("algebra.transition_monoid.s", "s", "algebra.transition_monoid", "s"),
    ("algebra.transition_monoid.calls", "count", "algebra.transition_monoid", "calls"),
    ("algebra.TransformationMonoid.table.s", "s", "algebra.TransformationMonoid.table", "s"),
    ("algebra.TransformationMonoid.table.builds", "count", "algebra.TransformationMonoid.table", "calls"),
    ("algebra.idempotents.s", "s", "algebra.idempotents", "s"),
    ("algebra.maximal_subgroup_at.self_s", "s", "algebra.maximal_subgroup_at", "self_s"),
    ("algebra.maximal_subgroup_at.calls", "count", "algebra.maximal_subgroup_at", "calls"),
    ("algebra.all_subgroup_sets.self_s", "s", "algebra.all_subgroup_sets", "self_s"),
    ("algebra.all_subgroup_sets.calls", "count", "algebra.all_subgroup_sets", "calls"),
    ("algebra.conjugacy_classes.self_s", "s", "algebra.conjugacy_classes", "self_s"),
    ("algebra.subgroups.self_s", "s", "algebra.subgroups", "self_s"),
    ("algebra.normal_subgroup_sets.self_s", "s", "algebra.normal_subgroup_sets", "self_s"),
    ("algebra.composition_factors.self_s", "s", "algebra.composition_factors", "self_s"),
    ("algebra.group_divisors_with_witnesses.self_s", "s",
     "algebra.group_divisors_with_witnesses", "self_s"),
    ("algebra.divisor_witnesses_monoid.s", "s", "algebra.divisor_witnesses_monoid", "s"),
    ("algebra.divisor_witnesses_monoid.calls", "count", "algebra.divisor_witnesses_monoid", "calls"),
    ("entailment.entails.s", "s", "entailment.entails", "s"),
    ("entailment.entails.self_s", "s", "entailment.entails", "self_s"),
    ("cli.main.s", "s", "cli.main", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.load_config.s", "s", "cli.load_config", "s"),
    ("cli.load_automaton.s", "s", "cli.load_automaton", "s"),
    ("cli.emit.s", "s", "cli.emit", "s"),
]

# Per-layer counts kept by the tracer's return hooks.
COUNT_METRICS = [
    "cpo_model.monotone_generated",
    "algebra.monoid_elements",
    "algebra.TransformationMonoid.table.reads",
    "algebra.idempotents.count",
    "algebra.subgroups_enumerated",
]


class OpTimeout(BaseException):
    """Raised in the op by the per-op alarm.  A BaseException, so that no
    ``except Exception`` inside fpal swallows it."""


def _alarm(signum, frame):
    raise OpTimeout


def run_ops(ops, timeout: float = OP_TIMEOUT_S):
    """Issue each op once, in order.  Returns the loop's wall time and one
    (latency seconds, result, error) per op; an op that raised or timed out
    has result None and an error string."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    outcomes = []
    start = time.perf_counter()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout)
                result, error = op.call(), None
                signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                result, error = None, f"timed out after {timeout:g} s"
            except Exception as exc:  # any fpal error is a failed op, not a crash
                signal.setitimer(signal.ITIMER_REAL, 0)
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((time.perf_counter() - t0, result, error))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, outcomes


def check_outcomes(ops, outcomes) -> list:
    """(label, reason) for every op whose answer is not the known one."""
    failures = []
    for op, (_, result, error) in zip(ops, outcomes):
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a malformed answer is a wrong answer
                error = f"answer could not be checked: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((op.label, error))
    return failures


def layer_metrics(tracer) -> dict:
    summary = tracer.summary()
    out = {
        metric: summary.get(span, {}).get(field, 0)
        for metric, _, span, field in SPAN_METRICS
    }
    for name in COUNT_METRICS:
        out[name] = tracer.counts.get(name, 0)
    calls = out["algebra.divisor_witnesses_monoid.calls"]
    repeats = tracer.counts.get("algebra.divisor_witnesses_monoid.repeats", 0)
    out["algebra.divisor_witnesses_monoid.repeat_share"] = repeats / calls if calls else 0.0
    out["trace.spans"] = sum(v["calls"] for k, v in summary.items()
                             if k != "cpo_model.eval_morphism")
    return out


def run_pass(workload, traced: bool, trace_path: str | None = None) -> dict:
    """Issue the ops once and check them.  A traced pass writes its span
    tree to ``trace_path`` when one is given."""
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall, outcomes = run_ops(workload.ops)
    if tracer:
        tracer.uninstall()
    failures = check_outcomes(workload.ops, outcomes)
    record = {
        "wall_s": wall,
        "latencies_s": [lat for lat, _, _ in outcomes],
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:20],
        "interpretations": sum(
            getattr(result, "interpretations_checked", 0) for _, result, _ in outcomes
        ),
    }
    if tracer:
        record["layers"] = layer_metrics(tracer)
        if trace_path:
            tracer.write(trace_path)
    return record


class PassTimeout(BaseException):
    """Raised in the parent when a pass overruns the run's deadline."""


def _pass_alarm(signum, frame):
    raise PassTimeout


def fork_pass(workload, traced: bool, out: str, deadline: float, trace_path=None) -> dict:
    """Run one pass in a forked child and return its record.  A child that
    crashes, or is still running at ``deadline`` (time.monotonic()) and is
    killed, yields a record in which every op failed."""
    sys.stdout.flush()
    sys.stderr.flush()
    started = time.monotonic()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            record = run_pass(workload, traced, trace_path)
            with open(out, "w", encoding="utf-8") as f:
                json.dump(record, f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    previous = signal.signal(signal.SIGALRM, _pass_alarm)
    problem = None
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            problem = f"pass exited {code}"
    except PassTimeout:
        os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        problem = "pass stopped at the run's time limit"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if problem is None:
        with open(out, encoding="utf-8") as f:
            record = json.load(f)
        os.remove(out)
    else:
        n = len(workload.ops)
        record = {"attempted": n, "failed": n, "failures": [["pass", problem]], "crashed": True}
    record["traced"] = traced
    record["duration_s"] = time.monotonic() - started
    record["peak_rss_mb"] = usage.ru_maxrss / 1024
    return record


def run_passes(workload, seconds: float, deadline: float, trace: bool, prefix: str) -> list:
    """Passes one after another until ``seconds`` are used (at least
    MIN_PASSES), none starting after ``deadline``.  With ``trace`` every
    second pass is traced, and the first traced pass writes its spans to
    ``<prefix>.trace.json``."""
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        trace_path = f"{prefix}.trace.json" if traced and len(passes) == 1 else None
        rec = fork_pass(workload, traced, f"{prefix}-{len(passes):03d}.json", deadline,
                        trace_path)
        passes.append(rec)
        now = time.monotonic()
        if rec.get("crashed") or now + rec["duration_s"] > deadline:
            break
        if len(passes) >= MIN_PASSES and now - start + rec["duration_s"] / 2 > seconds:
            break
    return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, help="checkout holding src/fpal")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "passes"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="how long the passes run, at least MIN_PASSES of them")
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="seconds after the spawn by which the last pass must end")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy

    import workloads

    workdir = tempfile.mkdtemp(prefix="inputs-", dir=os.path.dirname(args.out))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        record = {
            "setup_s": time.monotonic() - args.spawned_at,
            "digest": workload.digest,
            "ops": len(workload.ops),
            "numpy": numpy.__version__,
        }
        if args.mode == "passes":
            record["passes"] = run_passes(
                workload, args.seconds, args.spawned_at + args.deadline, bool(args.trace),
                args.out[:-len(".json")],
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
