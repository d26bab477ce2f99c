"""rvqlab benchmark runner.

    python3 perfbench/run.py --workload {encode,decode,eval_grid,train_desk,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src, never
from an installed copy, and the run exits non-zero without a result when
./src/rvqlab is missing.  Scratch files go to ./.perfbench/work and are
removed at the end; each run's details (and, traced, its spans) are kept
in ./.perfbench/results.

Output: human-readable metric lines, then one JSON detail line (machine
facts, the workload's named metrics with units and sample counts, output
digests, problems), then the result as the last line:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

With --trace 0 the metrics are the end-to-end ones (setup_s,
request_p50_ms, audio_x, peak_rss_mb).  With --trace 1 the same plan runs
untraced and then traced after one set-up; the metrics are the per-layer
ones from the traced pass, `correct` also requires both passes to produce
identical output digests, and attempted/failed count both passes.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

import stats  # noqa: E402
from workloads import SETUPS, Outcome, call_main, named_metrics, digests  # noqa: E402

# Set-up repeats whose median is setup_s.  The model workloads train a
# K=1024 model (~13 s) in set-up, so they set up once; train_desk's set-up
# is corpus synthesis only and repeats three times.
SETUP_REPEATS = {"encode": 1, "decode": 1, "eval_grid": 1, "train_desk": 3}
MAX_PROBLEMS_SHOWN = 20


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "rvqlab" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/rvqlab not found; run from the root of an rvqlab checkout")
    sys.path.insert(0, str(src))
    import rvqlab

    if Path(rvqlab.__file__).resolve().parent != (src / "rvqlab").resolve():
        raise SystemExit(f"error: imported rvqlab from {rvqlab.__file__}, not from {src}")


def _check(request, call) -> Outcome:
    try:
        return request.check(call)
    except Exception as exc:  # a malformed output is a failed request, not a crash
        return Outcome([f"{request.kind}: check raised {type(exc).__name__}: {exc}"])


def run_pass(prepared, out: Path, tracer=None):
    """Run the plan once, then check every output (outside any tracing)."""
    requests = prepared.plan(out)
    calls = []
    if tracer is None:
        calls = [call_main(r.argv) for r in requests]
    else:
        with tracer.installed():
            for i, request in enumerate(requests):
                tracer.request = i
                calls.append(call_main(request.argv))
    outcomes = [_check(r, c) for r, c in zip(requests, calls)]
    return requests, calls, outcomes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    from facts import machine_facts
    from spans import Tracer, per_layer_specs

    os.environ.pop("RVQLAB_PESQ_TOOL", None)  # the program gets only argv and files
    # Paths handed to the program are relative to the checkout root and free
    # of run-specific parts: manifest paths reach the model's corpus hash, so
    # model bytes, and their digest, must not depend on where the checkout is.
    os.chdir(ROOT)
    work = Path(".perfbench", "work", f"{workload}-{seed}")
    results = Path(".perfbench", "results")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work.resolve())
    try:
        setup_s = []
        for i in range(SETUP_REPEATS[workload]):
            start = perf_counter()
            prepared = SETUPS[workload](work / f"setup{i}", seed, seconds)
            setup_s.append(perf_counter() - start)

        requests, calls, outcomes = run_pass(prepared, work / "untraced")
        if prepared.extra_checks is not None:
            for i, problems in prepared.extra_checks(work / "untraced").items():
                outcomes[i].problems.extend(problems)
        untraced_wall = sum(c.seconds for c in calls)
        all_outcomes = list(outcomes)
        digest = {"untraced": digests(outcomes, prepared.setup_outputs)}
        tracer = None
        if trace:
            tracer = Tracer()
            _, traced_calls, traced_outcomes = run_pass(prepared, work / "traced", tracer)
            all_outcomes += traced_outcomes
            digest["traced"] = digests(traced_outcomes, prepared.setup_outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for o in all_outcomes if o.problems)
    digests_match = not trace or digest["traced"] == digest["untraced"]
    problems = [p for o in all_outcomes for p in o.problems]
    if not digests_match:
        problems.append("traced and untraced runs produced different outputs")
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(),
        "setup_s_samples": setup_s,
        "named": {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s", "n": len(setup_s)},
            **named_metrics(workload, requests, calls),
            "failed_frac": {"value": failed / len(all_outcomes), "unit": "fraction",
                            "n": len(all_outcomes)},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        },
        "digests": digest,
        "digests_match": digests_match,
        "wall_s": {"untraced": untraced_wall},
        "latencies_ms": [1000.0 * c.seconds for c in calls],
        "problems": problems[:MAX_PROBLEMS_SHOWN],
    }
    if trace:
        traced_wall = sum(c.seconds for c in traced_calls)
        detail["wall_s"]["traced"] = traced_wall
        layer = tracer.metrics(traced_wall, untraced_wall)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in per_layer_specs()}
        tracer.write(results / f"{workload}-seed{seed}-spans.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "request_p50_ms": {"value": 1000.0 * statistics.median([c.seconds for c in calls]),
                               "unit": "ms"},
            "audio_x": {"value": stats.audio_x([r.audio_s for r in requests],
                                               [c.seconds for c in calls]),
                        "unit": "audio-s/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
    result = {
        "correct": failed == 0 and digests_match,
        "attempted": len(all_outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    with open(results / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1, sort_keys=True)
    return detail, result


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    worst = 0
    for workload in SETUPS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*SETUPS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in detail["named"].items():
        extra = "".join(f" {k}={metric[k]}" for k in ("n", "percentile") if k in metric)
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{extra}")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
