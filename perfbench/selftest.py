"""Self-test of the benchmark's answer checking and failure counting.

Run from the root of an fpal checkout::

    python3 perfbench/selftest.py

It injects wrong answers into real ops and requires each to be counted as
a failed op: a flipped entailment verdict, a divisor dropped from the
``fpal divisors`` output, and a corrupted equation reported as holding.
It also requires an fpal error and an op that overruns the per-op time
guard to be counted, the untampered ops to pass, and ``BENCHMARK.json``
to list exactly the metrics ``run.py`` prints.  The same checks are made
once more through a forked pass, as a run makes them, together with a
pass that crashes and one that overruns the run's deadline, whose ops
must all count as failed.  Exits 0 when all hold.
"""

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from fpal.errors import CapExceededError  # noqa: E402
from worker import check_outcomes, fork_pass, run_ops  # noqa: E402


def tampered(op, change):
    """The op with ``change`` applied to its real answer."""
    return dataclasses.replace(op, label=f"{op.label} (tampered)",
                               call=lambda: change(op.call()))


def drop_last_divisor(result):
    code, out, err = result
    report = json.loads(out)
    report["simple_divisors"] = report["simple_divisors"][:-1]
    return code, json.dumps(report), err


def raises():
    raise CapExceededError("injected")


def forked_problems(good, bad, workdir) -> list:
    """Run ops through ``fork_pass`` as a run does: the wrong answers must
    be counted, and a pass that crashes or overruns the deadline must
    count every op as failed."""
    problems = []
    out = os.path.join(workdir, "pass.json")
    far = time.monotonic() + 120
    rec = fork_pass(workloads.Workload(good + bad, "selftest"), False, out, far)
    if rec.get("crashed") or rec["failed"] != len(bad):
        problems.append(f"forked pass counted {rec['failed']} failures, expected {len(bad)}")
    crash = dataclasses.replace(good[0], label="pass crash", call=lambda: os._exit(3))
    slow = dataclasses.replace(good[0], label="pass overrun", call=lambda: time.sleep(5))
    for op, deadline, what in ((crash, far, "crashed"), (slow, time.monotonic() + 0.5, "overran")):
        rec = fork_pass(workloads.Workload(good + [op], "selftest"), False, out, deadline)
        if not rec.get("crashed") or rec["failed"] != len(good) + 1:
            problems.append(f"a pass that {what} was not counted as failed")
        else:
            print(f"counted: {op.label}: {rec['failures'][0][1]}")
    return problems


def main() -> int:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    problems = []
    try:
        library = workloads.build("check-library", 0, workdir).ops
        corrupted = next(op for op in library if op.label.startswith("corrupt"))
        entails = workloads.build("entails-stream", 0, workdir).ops[0]
        divisors = next(op for op in workloads.build("divisors-groups", 0, workdir).ops
                        if "S3" in op.label)

        good = [corrupted, entails, divisors]
        bad = [
            tampered(entails, lambda r: dataclasses.replace(r, holds=not r.holds)),
            tampered(divisors, drop_last_divisor),
            tampered(corrupted, lambda r: dataclasses.replace(r, holds=True, counterexample=None)),
            dataclasses.replace(corrupted, label="fpal error", call=raises),
            dataclasses.replace(corrupted, label="runaway op", call=lambda: time.sleep(5)),
        ]
        _, outcomes = run_ops(good + bad, timeout=0.5)
        failures = dict(check_outcomes(good + bad, outcomes))
        for op in good:
            if op.label in failures:
                problems.append(f"correct answer counted as failed: {op.label}: {failures[op.label]}")
        for op in bad:
            if op.label not in failures:
                problems.append(f"wrong answer not counted: {op.label}")
            else:
                print(f"counted: {op.label}: {failures[op.label]}")
        problems += forked_problems(good, bad[:3], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != printed:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(printed.items()))}")
    names = sorted(w["name"] for w in spec["workloads"])
    if not names == sorted(run.WORKLOADS) == sorted(workloads.BUILDERS):
        problems.append("BENCHMARK.json, run.py and workloads.py name different workloads")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
