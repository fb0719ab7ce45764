"""Quick self-test of the benchmark itself (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every metric named in ``BENCHMARK.json`` is emitted with its unit for
  every workload, untraced (end-to-end) and traced (per-layer), and the
  traced run accounts for its wall time within 10%;
* a deliberately corrupted estimate makes the run fail;
* a different seed changes the inputs but not the metric names.

Runs are short (one set-up, a small warm-up, one second of load), so
the figures themselves mean nothing here.  Exits non-zero on failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import run as bench  # noqa: E402

SECONDS = "1"


def quick() -> None:
    bench.SETUPS = 1
    bench.WARMUP_PLANS = {"plan_probe": 500, "remote_fleet": 40}
    bench.LEARN_SCORED = 40


def invoke(workload: str, seed: int = 1, trace: int = 0) -> tuple[dict, dict]:
    """One in-process run; returns ``(detail, result)``."""
    args = bench.parse_args([
        "--workload", workload, "--seed", str(seed),
        "--seconds", SECONDS, "--trace", str(trace),
    ])
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        result = bench.run(args)
    detail = json.loads(captured.getvalue().strip().splitlines()[-1])["detail"]
    return detail, result


@contextlib.contextmanager
def corrupted(owner, attribute: str, corrupt):
    original = owner.__dict__[attribute]

    def wrong(*args, **kwargs):
        return corrupt(original(*args, **kwargs))

    setattr(owner, attribute, wrong)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def main() -> int:
    bench._prepare()
    quick()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            failures.append(message)

    inputs = {}
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            detail, result = invoke(workload, trace=trace)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == expected[trace],
                  f"{workload} trace={trace}: every metric with its unit")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: outputs correct, nothing failed")
            if trace:
                accounted = result["metrics"]["trace.accounted_frac"]["value"]
                check(abs(accounted - 1.0) <= 0.10,
                      f"{workload}: layer self times + unattributed = wall "
                      f"within 10% ({accounted:.3f})")
            else:
                inputs[workload] = detail["inputs"]

    from repro.net.client import RemoteSelectivityService
    from repro.serving import SelectivityService

    off_by_a_little = (lambda value: value + 1e-9)
    cases = (
        ("plan_probe", SelectivityService, off_by_a_little),
        ("learn_loop", SelectivityService, lambda value: value + 2.0),
        ("remote_fleet", RemoteSelectivityService, off_by_a_little),
    )
    for workload, owner, corrupt in cases:
        with corrupted(owner, "estimate", corrupt):
            _, result = invoke(workload)
        check(not result["correct"], f"{workload}: a corrupted estimate fails the run")

    for workload in ("plan_probe", "learn_loop"):
        detail, result = invoke(workload, seed=2)
        check(detail["inputs"] != inputs[workload],
              f"{workload}: another seed changes the inputs")
        check(set(result["metrics"]) == set(expected[0]),
              f"{workload}: another seed keeps the metric names")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
