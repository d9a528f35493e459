"""Benchmark worker: runs one workload's requests through the freqgcn CLI in-process.

Usage: python3 worker.py PLAN.json

The plan (written by run.py) names the source tree, a warm-up request, the
request list and the measuring time. Requests run one at a time, each the
next as soon as the previous returns (a closed loop with one client). The
worker writes its measurements to the plan's ``result`` path.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def call(cli, args: list[str]) -> dict:
    """Run one CLI command; never raises."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli(args, standalone_mode=False)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed request, not a failed run
        code = getattr(exc, "exit_code", 1) or 1
        error = traceback.format_exc(limit=-3)
    latency = time.perf_counter() - start
    return {
        "latency_s": latency, "exit": code, "stdout": out.getvalue(),
        "stderr": err.getvalue()[-400:], "error": error,
    }


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    from freqgcn.cli import main as cli

    warmup = call(cli, plan["warmup"])
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, "warmup": warmup, "requests": []}
    if not plan["setup_only"]:
        result["requests"] = run_requests(cli, plan)
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(plan["result"]).write_text(json.dumps(result))


def run_requests(cli, plan: dict) -> list[dict]:
    """Closed loop until the time is up or the inputs run out.

    A request starts only if the median latency so far still fits in the
    remaining time, so a run ends close to its nominal length even when one
    request takes many seconds. In a traced run, every other request, the
    first included, is traced; comparing the rest gives the tracing overhead.
    """
    recorder = patches = None
    if plan["trace"]:
        import tracing

        recorder = tracing.Recorder()
        patches = tracing.Patches(recorder)
    done: list[dict] = []
    begin = time.perf_counter()
    for index, args in enumerate(plan["requests"]):
        elapsed = time.perf_counter() - begin
        if done and elapsed + statistics.median(r["latency_s"] for r in done) > plan["seconds"]:
            break
        traced = recorder is not None and index % 2 == 0
        if traced:
            recorder.request = index
            root = len(recorder.spans)
            patches.install()
            recorder.enter(f"cli.{args[0]}")
        outcome = call(cli, args)
        outcome["traced"] = traced
        if traced:
            recorder.exit()
            patches.remove()
            # A traced request's wall time is its root span, which its spans' self times add up to.
            _, start, end, _, _ = recorder.spans[root]
            outcome["latency_s"] = (end - start) / 1e9
        done.append(outcome)
    if recorder is not None:
        Path(plan["spans"]).write_text(
            "\n".join(json.dumps(span) for span in recorder.spans) + "\n"
        )
    return done


if __name__ == "__main__":
    main()
