"""freqgcn benchmark: one workload, one run, every metric on stdout.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload screen-body25 --seed 1 --seconds 34 --trace 0

The workload's inputs are made from the seed in this process. A separate
worker process (bench/worker.py) imports ``freqgcn.cli`` from ``src/`` and
runs the requests one at a time. With ``--trace 0`` nothing is patched and
the end-to-end metrics are reported. With ``--trace 1`` every other request,
the first included, runs with the package's public functions wrapped in
spans, and the per-layer metrics are reported. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # extra worker start-ups; setup_s is the median over these and the main worker
# The highest percentile with ten samples above it in a screen-body25 run. The
# median is printed but not gated: request times on a shared host switch
# between a fast and a slow mode for minutes at a time, and the median of such
# a mixture jumps between runs far more than p85 or the mean rate.
LATENCY_PERCENTILE = 85

LAYER_TIMES = [  # (metric, span name); every time is self time
    ("pose.load_sequence.ms", "pose.load_sequence"),
    ("pose.interpolate_missing.ms", "pose.interpolate_missing"),
    ("pose.normalize_sequence.ms", "pose.normalize_sequence"),
    ("frequency.extract_features.self_ms", "frequency.extract_features"),
    ("frequency.fft_bluestein.ms", "frequency.fft_bluestein"),
    ("frequency.bin_spectrum.ms", "frequency.bin_spectrum"),
    ("frequency.read_features_csv.ms", "frequency.read_features_csv"),
    ("frequency.write_features_csv.ms", "frequency.write_features_csv"),
    ("graph.build_feature_graph.ms", "graph.build_feature_graph"),
    ("model.model_forward.ms", "model.model_forward"),
    ("model.backward.ms", "model.backward"),
    ("model.load_model.self_ms", "model.load_model"),
    ("model.save_model.ms", "model.save_model"),
    ("training.train.self_ms", "training.train"),
    ("training.evaluate.self_ms", "training.evaluate"),
    ("cli.predict.self_ms", "cli.predict"),
    ("cli.extract.self_ms", "cli.extract"),
    ("cli.train.self_ms", "cli.train"),
]
LAYER_CALLS = [
    ("frequency.fft_bluestein.calls", "frequency.fft_bluestein"),
    ("graph.build_feature_graph.calls", "graph.build_feature_graph"),
    ("model.model_forward.calls", "model.model_forward"),
    ("model.backward.calls", "model.backward"),
]
INPUT_COUNTS = ["frames", "keypoints", "imputed_keypoints", "empty_frames", "input_bytes"]
INPUT_UNITS = {"input_bytes": "bytes"}
COMPUTED_UNITS = {
    "frequency.fft_points": "count", "frequency.spectrum_used_fraction": "ratio",
    "graph.nodes": "count", "graph.dense_operator_bytes": "bytes",
    "model.propagation_flops": "flop", "training.example_steps": "count",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "freqgcn" / "cli.py").is_file():
        print(f"error: no freqgcn source tree at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = checkout / ".bench_out"
    scratch = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = prepare(args.workload, args.seed, args.seconds, scratch / "inputs")
        report = run(workload, args.seconds, args.trace, src, scratch, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


def prepare(name: str, seed: int, seconds: float, root: Path) -> workloads.Workload:
    """Make the workload's inputs from the seed; needs ``src`` on ``sys.path``."""
    from freqgcn.frequency import BinSpec, bin_edges

    edges = bin_edges(BinSpec(c=workloads.GROWTH, num_bins=workloads.BINS))
    return workloads.WORKLOADS[name](seed, seconds, root, edges)


def run(workload, seconds: float, trace: int, src: Path, scratch: Path, out_dir: Path) -> dict:
    """Start the workers, check every output and return the result object."""
    env = environment(src, workload.seed)
    print("env: " + json.dumps(env))

    plan = {
        "src": str(src), "seconds": seconds, "trace": bool(trace),
        "warmup": workload.warmup, "requests": workload.requests,
        "spans": str(out_dir / f"{workload.name}.spans.jsonl"),
    }
    setups = []
    if not trace:
        for probe in range(SETUP_PROBES):
            setups.append(start_worker({**plan, "setup_only": True}, scratch / f"probe{probe}", 60))
    main_result = start_worker({**plan, "setup_only": False}, scratch / "main", seconds + 120)
    setups.append(main_result)

    outcomes = main_result["requests"]  # never empty: the first request always runs
    verdicts = [workload.check(i, o) for i, o in enumerate(outcomes)]
    failed = sum(not ok for ok, _ in verdicts)
    errors = dict(Counter(o["exit"] for o in outcomes if o["exit"]))
    for (ok, _), o in zip(verdicts, outcomes):
        if not ok:
            detail = (o["error"] or o["stderr"] or o["stdout"]).strip().splitlines()[-1:]
            print(f"failed request: exit {o['exit']} {' '.join(detail)}"[:300])

    print(f"workload {workload.name} seed {workload.seed} trace {trace}: "
          f"{len(outcomes)} requests in {sum(o['latency_s'] for o in outcomes):.2f} s "
          f"of request time, one client, closed loop")
    if trace:
        metrics = layer_metrics(workload, outcomes, plan["spans"], errors)
    else:
        metrics = end_to_end(workload, setups, main_result["maxrss_kib"], outcomes, verdicts)
    print(f"failed_fraction {failed / len(outcomes):.4g} ratio ({failed}/{len(outcomes)}); "
          f"exit codes {errors or 'all 0'}")
    for name, entry in metrics.items():
        extra = f" ({entry['detail']})" if "detail" in entry else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{extra}")
    report_file = out_dir / f"{workload.name}-trace{trace}.json"
    report_file.write_text(json.dumps({
        "env": env, "metrics": metrics, "errors": errors,
        "latencies_s": [o["latency_s"] for o in outcomes],
        "setup_s": [s["setup_s"] for s in setups],
    }, indent=1))
    return {
        "correct": failed == 0 and all(s["warmup"]["exit"] == 0 for s in setups),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }


def start_worker(plan: dict, directory: Path, timeout: float) -> dict:
    directory.mkdir()
    plan = {**plan, "result": str(directory / "result.json")}
    (directory / "plan.json").write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(directory / "plan.json")],
        check=True, timeout=timeout, cwd=directory, stdin=subprocess.DEVNULL,
    )
    return json.loads((directory / "result.json").read_text())


def med(values) -> float:
    """Median, or 0 when there is nothing to take it of."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def end_to_end(workload, setups, maxrss_kib: int, outcomes, verdicts) -> dict:
    lat_ms = [o["latency_s"] * 1000.0 for o in outcomes]
    frames = [m["frames"] for m in workload.meta[: len(outcomes)]]
    scores = [s for _, s in verdicts if s is not None]
    above = sum(v > percentile(lat_ms, LATENCY_PERCENTILE) for v in lat_ms)
    per_kframe = [ms / (f / 1000.0) for ms, f in zip(lat_ms, frames)]
    n = len(lat_ms)
    return {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s",
                    "detail": f"median of {len(setups)} worker start-ups"},
        "peak_rss_mb": {"value": maxrss_kib / 1024.0, "unit": "MiB"},
        f"latency_p{LATENCY_PERCENTILE}_ms": {
            "value": percentile(lat_ms, LATENCY_PERCENTILE), "unit": "ms",
            "detail": f"n={n}, {above} above; median {percentile(lat_ms, 50):.6g} ms"},
        "frames_per_s": {"value": sum(frames) / (sum(lat_ms) / 1000.0), "unit": "frames/s",
                         "detail": f"{sum(frames)} frames; p50 {percentile(per_kframe, 50):.4g} "
                                   f"ms per 1000 frames"},
        "accuracy": {"value": statistics.fmean(scores) if scores else 0.0, "unit": "ratio",
                     "detail": f"n={len(scores)}"},
    }


def layer_metrics(workload, outcomes, spans_file: str, errors: dict[int, int]) -> dict:
    spans = [json.loads(line) for line in Path(spans_file).read_text().splitlines() if line]
    table = tracing.per_request(spans)
    traced = [i for i, o in enumerate(outcomes) if o["traced"]]
    residual = max(
        (abs(sum(e["self_ms"] for e in table[i].values()) - outcomes[i]["latency_s"] * 1000.0)
         for i in traced), default=0.0)
    print(f"self-time check: spans of each traced request add up to its wall time "
          f"within {residual:.3g} ms over {len(traced)} requests")

    out: dict[str, dict] = {}
    for metric, span in LAYER_TIMES:
        out[metric] = {"value": med(table[i].get(span, {}).get("self_ms", 0.0) for i in traced),
                       "unit": "ms"}
    for metric, span in LAYER_CALLS:
        out[metric] = {"value": med(table[i].get(span, {}).get("calls", 0) for i in traced),
                       "unit": "count"}
    for key in INPUT_COUNTS:
        value = med(workload.meta[i][key] for i in traced) if workload.uses_pose else 0
        out[f"pose.{key}"] = {"value": value, "unit": INPUT_UNITS.get(key, "count"),
                              "detail": "input"}
    for key, value in computed_counts(workload, traced).items():
        out[key] = {"value": value, "unit": COMPUTED_UNITS[key], "detail": "computed"}
    out["cli.errors"] = {"value": sum(errors.values()), "unit": "count",
                         "detail": f"by exit code {errors}"}
    # Overhead compares per-frame cost, since request sizes differ on some workloads.
    cost = lambda i: outcomes[i]["latency_s"] / workload.meta[i]["frames"]  # noqa: E731
    plain = [i for i, o in enumerate(outcomes) if not o["traced"]]
    on, off = med(cost(i) for i in traced), med(cost(i) for i in plain)
    out["trace.overhead_pct"] = {
        "value": 100.0 * (on / off - 1.0) if on and off else 0.0, "unit": "%",
        "detail": f"traced {len(traced)} vs untraced {len(plain)} requests"}
    return out


def computed_counts(workload, traced: list[int]) -> dict[str, float]:
    """Work implied by the input shapes under the current algorithms; exact across runs."""
    n = workload.skeleton.num_joints
    nodes = n * workloads.BINS if workload.uses_model else 0
    widths = workloads.CHANNELS
    flops = sum(2 * nodes * nodes * a + 2 * nodes * a * b for a, b in zip(widths, widths[1:]))
    fft_points = spectrum = 0.0
    if workload.uses_pose:
        frames = [workload.meta[i]["frames"] for i in traced]
        fft_points = med(2 * n * (1 << (2 * t - 2).bit_length()) for t in frames)
        spectrum = med(workload.edges[-1] / (t // 2 + 1) for t in frames)
    return {
        "frequency.fft_points": fft_points,
        "frequency.spectrum_used_fraction": spectrum,
        "graph.nodes": nodes,
        "graph.dense_operator_bytes": nodes * nodes * 8,
        "model.propagation_flops": flops,
        "training.example_steps": workload.epochs * workload.train_examples,
    }


def environment(src: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py")),
    }


def blas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, left as found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
