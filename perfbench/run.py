"""fpal benchmark: one command for every workload, traced or not.

Run from the root of a checkout (the directory holding ``src/fpal``)::

    python3 perfbench/run.py --workload check-library --seed 1 --seconds 35 --trace 0

Each run starts fresh interpreters (``worker.py``), one after another and
never two at once: with ``--trace 0`` first a few set-up probes, then one
worker that builds the inputs and forks one pass over the workload's ops
after another until ``--seconds`` is used up (at least three passes).
Every op's answer is checked against its known answer; an op that raises,
times out or answers wrongly is counted in ``failed`` and the run goes
on.  With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from the traced ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(environment, per-pass numbers, failures) goes to
``.perfbench_out/run-<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import COUNT_METRICS, SPAN_METRICS  # noqa: E402

WORKLOADS = ("check-library", "divisors-groups", "entails-stream")
SETUP_PROBES = 4
# Everything, probes and passes, ends within this many seconds of the
# start.  A pass still running WRAP_UP_S before then is stopped and its ops
# count as failed, which leaves the worker time to write its record; a
# worker still running at the limit is killed together with its pass.
HARD_LIMIT_S = 170.0
WRAP_UP_S = 5.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    {metric: unit for metric, unit, _, _ in SPAN_METRICS}
    | {name: "count" for name in COUNT_METRICS}
    | {
        "algebra.divisor_witnesses_monoid.repeat_share": "ratio",
        "cpo_model.interpretations": "count",
        "cpo_model.interps_per_s": "1/s",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    }
)


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FPAL_CONFIG", None)  # fpal's defaults, whatever the caller's shell holds
    env["PYTHONHASHSEED"] = "0"
    # No BLAS worker threads: the worker forks its passes, and a process
    # that forks should hold no other threads.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Runner:
    def __init__(self, root: str, workload: str, seed: int, out_dir: str):
        self.root, self.workload, self.seed, self.out_dir = root, workload, seed, out_dir
        self.start = time.monotonic()
        self.spawned = 0

    def worker(self, mode: str, seconds: int = 0, trace: bool = False) -> dict:
        """Run one worker to completion and return its record.  The worker
        and the passes it forks share a new session, so that a worker
        overrunning the hard limit is stopped together with its pass."""
        self.spawned += 1
        out = os.path.join(self.out_dir, f"{self.workload}-seed{self.seed}-{self.spawned:03d}-{mode}.json")
        remaining = self.start + HARD_LIMIT_S - time.monotonic()
        spawned_at = time.monotonic()
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--root", self.root, "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--seconds", str(seconds), "--trace", str(int(trace)),
            "--deadline", repr(max(remaining - WRAP_UP_S, 1.0)),
            "--spawned-at", repr(spawned_at), "--out", out,
        ]
        proc = subprocess.Popen(cmd, cwd=self.root, env=_worker_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(remaining, 1.0))
        except BaseException as exc:  # the limit, or this process being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker stopped at the {HARD_LIMIT_S:g} s limit") from exc
            raise
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        with open(out, encoding="utf-8") as f:
            record = json.load(f)
        os.remove(out)
        for problem in err.strip().splitlines()[-20:]:
            print(f"# worker: {problem}", file=sys.stderr)
        return record

    def run(self, seconds: int, trace: bool) -> tuple:
        probes = [] if trace else [self.worker("setup") for _ in range(SETUP_PROBES)]
        return probes, self.worker("passes", seconds, trace)


def best_latencies(passes) -> list:
    """Each op's lowest latency over the passes.  Every pass issues the same
    ops in the same order from a fresh interpreter, so an op does the same
    work in each pass and its samples differ only by how fast the host ran
    at that moment; the lowest is the least disturbed."""
    return [min(samples) for samples in zip(*(p["latencies_s"] for p in passes))]


def end_to_end(setups, passes) -> dict:
    ok = [p for p in passes if not p.get("crashed")]
    if not ok:
        raise BenchError("no pass completed")
    best = best_latencies(ok)
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": sum(best),
        "op_p50_ms": deciles[4] * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
    }


def per_layer(passes) -> dict:
    plain = [p for p in passes if not p.get("crashed") and not p["traced"]]
    traced = [p for p in passes if not p.get("crashed") and p["traced"]]
    if not plain or not traced:
        raise BenchError("trace run needs one untraced and one traced pass")
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["cpo_model.interpretations"] = statistics.median(p["interpretations"] for p in plain)
    out["cpo_model.interps_per_s"] = statistics.median(
        p["interpretations"] / sum(p["latencies_s"]) for p in plain
    )
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def _commit(root: str):
    """HEAD of the checkout's git directory, read without running git;
    None when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, args, records) -> dict:
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    digests = sorted({r["digest"] for r in records if "digest" in r})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": digests[0] if len(digests) == 1 else digests,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in records if "numpy" in r), None),
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # Stopped from outside, exit through the handlers that stop the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fpal", "__init__.py")):
        print("error: run from the root of an fpal checkout (no src/fpal here)", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    runner = Runner(root, args.workload, args.seed, out_dir)
    try:
        probes, main_record = runner.run(args.seconds, bool(args.trace))
        records = probes + [main_record]
        passes = main_record["passes"]
        metrics = per_layer(passes) if args.trace else end_to_end(records, passes)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    env = environment(root, args, records)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    same_inputs = isinstance(env["input_digest"], str)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and same_inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    with open(os.path.join(
        out_dir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w", encoding="utf-8") as f:
        json.dump({"env": env, "result": result, "probes": probes, "passes": passes}, f)

    print("# env " + json.dumps(env))
    timed = [p for p in passes if not p.get("crashed") and not p["traced"]]
    print(f"# {len(passes)} passes ({len(timed)} untraced) of {main_record['ops']} ops each; "
          f"{sum(len(p['latencies_s']) for p in timed)} latency samples; "
          f"{len(records)} set-up samples")
    for label, reason in [f for p in passes for f in p["failures"]][:20]:
        print(f"# FAILED {label}: {reason}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
