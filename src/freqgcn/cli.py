"""Command-line front end: extract, train, predict, explain, gradcheck, synth.

Exit codes are stable: 0 success, 2 missing input, 3 insufficient data,
4 degenerate dataset, 5 model mismatch, 1 any other package error. Every
command is deterministic given its flags and seeds; timing output goes to
stderr so repeated runs stay byte-identical on stdout.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import frequency, model as model_mod, pose, synthetic, training
from .errors import (
    ContractViolationError,
    DegenerateDatasetError,
    EmptyInputError,
    FreqGcnError,
    InsufficientLengthError,
    ModelMismatchError,
)
from .files import write_atomic
from .graph import SkeletonTopology, builtin_topology, read_topology

EXIT_INPUT_MISSING = 2
EXIT_INSUFFICIENT_DATA = 3
EXIT_DEGENERATE_DATASET = 4
EXIT_MODEL_MISMATCH = 5


def _fail(code: int, exc: BaseException) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def guarded(fn):
    """Map package errors to the documented exit codes, one-line diagnostics."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FileNotFoundError, EmptyInputError) as exc:
            _fail(EXIT_INPUT_MISSING, exc)
        except InsufficientLengthError as exc:
            _fail(EXIT_INSUFFICIENT_DATA, exc)
        except DegenerateDatasetError as exc:
            _fail(EXIT_DEGENERATE_DATASET, exc)
        except ModelMismatchError as exc:
            _fail(EXIT_MODEL_MISMATCH, exc)
        except FreqGcnError as exc:
            _fail(1, exc)

    return wrapper


def _config_callback(ctx: click.Context, param: click.Parameter, value):
    """Load a JSON key-value file as defaults; explicit flags still win."""
    if value is None:
        return None
    path = Path(value)
    if not path.exists():
        raise click.BadParameter(f"no such config file: {path}")
    try:
        loaded = json.loads(path.read_bytes())
    except ValueError as exc:  # not JSON, not UTF-8, or an integer of too many digits
        raise click.BadParameter(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise click.BadParameter("config file must hold a JSON object")
    ctx.default_map = {**loaded, **(ctx.default_map or {})}
    return value


def config_option(fn):
    return click.option(
        "--config",
        type=click.Path(),
        callback=_config_callback,
        is_eager=True,
        expose_value=False,
        help="JSON key-value file supplying flag defaults; explicit flags win.",
    )(fn)


def _resolve_topology(spec: str) -> SkeletonTopology:
    path = Path(spec)
    if path.exists() and path.is_file():
        return read_topology(path)
    return builtin_topology(spec)


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise click.BadParameter(f"expected LO:HI, got {text!r}") from None
    return lo, hi


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {text!r}") from None
    return widths


def _ingest(path: Path, fps: float, topology: SkeletonTopology) -> pose.PoseSequence:
    seq = pose.load_sequence(path, fps=fps, expected_joints=topology.num_joints)
    seq = pose.interpolate_missing(seq)
    return pose.normalize_sequence(seq, topology.root, topology.neck)


@click.group()
@click.version_option(package_name="freqgcn")
def main():
    """Frequency-binned attention GCN over skeletal pose sequences."""


@main.command("extract")
@config_option
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="Sequence directory/container file, or a directory of sequence directories.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Feature CSV (single mode) or output directory (batch mode).")
@click.option("--fps", type=float, default=30.0, show_default=True)
@click.option("--c", "growth", type=float, default=1.15, show_default=True,
              help="Bin width growth parameter.")
@click.option("--bins", type=int, default=10, show_default=True, help="Number of bins.")
@click.option("--topology", default="body25", show_default=True,
              help="Preset name or edge-list file.")
@click.option("--pose-csv", type=click.Path(), default=None,
              help="Also dump the normalized sequence as frame,joint,x,y rows (single mode).")
@guarded
def cmd_extract(input_path, out_path, fps, growth, bins, topology, pose_csv):
    """Convert keypoint files to binned frequency features."""
    topo = _resolve_topology(topology)
    spec = frequency.BinSpec(c=growth, num_bins=bins)
    src = Path(input_path)  # load_sequence reports a missing input

    if src.is_dir() and not any(p.suffix == ".json" for p in src.iterdir()):
        # Batch mode: every subdirectory is one sequence.
        sub = sorted(p for p in src.iterdir() if p.is_dir())
        if not sub:
            raise EmptyInputError(f"{src} holds neither keypoint files nor sequence directories")
        out_dir = Path(out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        for seq_dir in sub:
            seq = _ingest(seq_dir, fps, topo)
            features = frequency.extract_features(seq, spec)
            frequency.write_features_csv(features, out_dir / f"{seq_dir.name}.csv")
        click.echo(f"extracted {len(sub)} sequences -> {out_dir}")
        return

    seq = _ingest(src, fps, topo)
    if pose_csv:
        pose.write_sequence_csv(seq, pose_csv)
    features = frequency.extract_features(seq, spec)
    frequency.write_features_csv(features, out_path)
    click.echo(f"extracted {features.num_joints * features.num_bins * 2} feature rows -> {out_path}")


def _load_feature_table(
    features_dir: Path, manifest_rows: list[dict[str, str]], topology: SkeletonTopology
) -> list[tuple[str, frequency.FrequencyFeatures, int, str]]:
    """(id, features, label, split) per manifest row; every file shares the first one's
    bin spec and the topology's joint count."""
    table = []
    for row in manifest_rows:
        seq_id = row["sequence_id"]
        csv_path = features_dir / f"{seq_id}.csv"
        if not csv_path.exists():
            raise FileNotFoundError(f"missing feature file: {csv_path}")
        features, spec = frequency.read_features_csv(csv_path)
        if table and spec != table[0][1].spec:
            raise ModelMismatchError(
                f"feature file for {seq_id} has bin spec {spec}, the first file {table[0][1].spec}"
            )
        if features.num_joints != topology.num_joints:
            raise ModelMismatchError(
                f"feature file for {seq_id} carries {features.num_joints} joints, "
                f"topology {topology.name} has {topology.num_joints}"
            )
        table.append((seq_id, features, int(row["label"]), row.get("split", "train") or "train"))
    return table


@main.command("train")
@config_option
@click.option("--features", "features_dir", type=click.Path(), required=True,
              help="Directory of <sequence_id>.csv feature files.")
@click.option("--manifest", type=click.Path(), required=True,
              help="CSV with sequence_id,label[,split,seed] rows.")
@click.option("--out", "out_path", type=click.Path(), required=True, help="Model document path.")
@click.option("--topology", default="body25", show_default=True)
@click.option("--channels", default="2,16,16", show_default=True,
              help="Comma-separated layer widths, input first.")
@click.option("--epochs", type=int, default=200, show_default=True)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--per-example", is_flag=True, help="Update per example instead of full batch.")
@click.option("--history", "history_path", type=click.Path(), default=None,
              help="Per-epoch loss/accuracy CSV [default: <out>.history.csv].")
@click.option("--metrics", "metrics_path", type=click.Path(), default=None,
              help="Held-out metrics CSV [default: <out>.metrics.csv].")
@guarded
def cmd_train(features_dir, manifest, out_path, topology, channels, epochs, lr, seed,
              per_example, history_path, metrics_path):
    """Train the classifier on extracted features."""
    features_dir = Path(features_dir)
    if not features_dir.is_dir():
        raise FileNotFoundError(f"no such feature directory: {features_dir}")
    manifest_path = Path(manifest)
    if not manifest_path.exists():
        raise FileNotFoundError(f"no such manifest: {manifest_path}")
    topo = _resolve_topology(topology)
    rows = synthetic.read_manifest(manifest_path)
    table = _load_feature_table(features_dir, rows, topo)

    config = training.TrainConfig(
        epochs=epochs, learning_rate=lr, seed=seed, full_batch=not per_example
    )
    train_set = [(f, label) for _, f, label, split in table if split == "train"]
    test_set = [(sid, f, label) for sid, f, label, split in table if split == "test"]
    trained, history = training.train(
        train_set, config, topo, table[0][1].spec, channel_widths=_parse_widths(channels)
    )
    model_mod.save_model(trained, out_path)

    history_file = Path(history_path) if history_path else Path(str(out_path) + ".history.csv")
    lines = ["epoch,loss,accuracy"]
    lines += [
        f"{epoch},{lo!r},{acc!r}"
        for epoch, (lo, acc) in enumerate(zip(history.losses, history.accuracies), start=1)
    ]
    write_atomic(history_file, "\n".join(lines) + "\n")

    click.echo(f"trained on {len(train_set)} sequences for {epochs} epochs -> {out_path}")
    if test_set:
        report = training.evaluate(trained, test_set)
        metrics_file = Path(metrics_path) if metrics_path else Path(str(out_path) + ".metrics.csv")
        out = ["metric,value"]
        out.append(f"accuracy,{report.accuracy!r}")
        out.append(f"sensitivity,{report.sensitivity!r}")
        out.append(f"specificity,{report.specificity!r}")
        write_atomic(metrics_file, "\n".join(out) + "\n")
        pred_file = Path(str(metrics_file) + ".predictions.csv")
        out = ["sequence_id,label,predicted,prob_abnormal"]
        out += [f"{sid},{y},{yhat},{p!r}" for sid, y, yhat, p in report.predictions]
        write_atomic(pred_file, "\n".join(out) + "\n")
        click.echo(
            f"held-out accuracy {report.accuracy:.4f} "
            f"sensitivity {report.sensitivity:.4f} specificity {report.specificity:.4f}"
        )


def _classify(
    path: Path, loaded: model_mod.Model, fps: float
) -> tuple[str, model_mod.Prediction, model_mod.AttentionReport, float, float]:
    """(sequence id, prediction, attention, extract and forward seconds) for one input; features
    the model cannot take are a ModelMismatchError. Only extraction from raw frames is timed."""
    if not path.exists():
        raise FileNotFoundError(f"no such input: {path}")
    extract_seconds = 0.0
    if path.suffix == ".csv":
        seq_id, features = path.stem, frequency.read_features_csv(path)[0]
    else:
        start = time.perf_counter()
        seq = _ingest(path, fps, loaded.graph.topology)
        seq_id = path.name if path.is_dir() else path.stem
        features = frequency.extract_features(seq, loaded.bin_spec)
        extract_seconds = time.perf_counter() - start
    start = time.perf_counter()
    try:
        prediction, report, _ = model_mod.model_forward(features, loaded)
    except ContractViolationError as exc:
        raise ModelMismatchError(f"{path.name}: {exc}") from exc
    return seq_id, prediction, report, extract_seconds, time.perf_counter() - start


@main.command("predict")
@config_option
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--input", "inputs", type=click.Path(), multiple=True, required=True,
              help="Feature CSVs or sequence directories; repeatable.")
@click.option("--fps", type=float, default=30.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Also write the prediction lines to this file.")
@click.option("--timing", is_flag=True, help="Report per-sequence wall-clock on stderr.")
@guarded
def cmd_predict(model_path, inputs, fps, out_path, timing):
    """Classify sequences; one 'id,label,prob_abnormal' line per input."""
    if not Path(model_path).exists():
        raise FileNotFoundError(f"no such model: {model_path}")
    loaded = model_mod.load_model(model_path)
    lines = []
    for raw in inputs:
        seq_id, prediction, _, extract_seconds, forward_seconds = _classify(
            Path(raw), loaded, fps
        )
        lines.append(f"{seq_id},{prediction.label},{prediction.probability[1]!r}")
        if timing:
            click.echo(
                f"# {seq_id}: classification {extract_seconds + forward_seconds:.3f}s "
                f"(extract {extract_seconds:.3f}s, forward {forward_seconds:.3f}s)",
                err=True,
            )
    body = "\n".join(lines) + "\n"
    click.echo(body, nl=False)
    if out_path:
        write_atomic(out_path, body)


@main.command("explain")
@config_option
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="One feature CSV or sequence directory.")
@click.option("--out", "out_prefix", type=click.Path(), required=True,
              help="Writes <prefix>.alpha.csv and <prefix>.ranking.csv.")
@click.option("--fps", type=float, default=30.0, show_default=True)
@click.option("--bars", is_flag=True, help="Render a per-joint importance bar chart.")
@guarded
def cmd_explain(model_path, input_path, out_prefix, fps, bars):
    """Write the attention weights and joint-importance ranking for one input."""
    if not Path(model_path).exists():
        raise FileNotFoundError(f"no such model: {model_path}")
    loaded = model_mod.load_model(model_path)
    report = _classify(Path(input_path), loaded, fps)[2]

    names = loaded.graph.topology.names
    alpha_file = Path(str(out_prefix) + ".alpha.csv")
    lines = ["joint,bin,alpha"]
    for joint in range(loaded.num_joints):
        for b in range(loaded.num_bins):
            lines.append(f"{joint},{b},{float(report.alpha[joint, b])!r}")
    write_atomic(alpha_file, "\n".join(lines) + "\n")

    ranking_file = Path(str(out_prefix) + ".ranking.csv")
    lines = ["joint,importance"]
    lines += [f"{j},{float(report.joint_importance[j])!r}" for j in report.ranking]
    write_atomic(ranking_file, "\n".join(lines) + "\n")

    if bars:
        top = report.joint_importance.max() or 1.0
        for j in report.ranking:
            width = int(round(40 * report.joint_importance[j] / top)) if top > 0 else 0
            click.echo(f"{names[j]:>14s} {'#' * width} {report.joint_importance[j]:.4f}")
    click.echo(f"wrote {alpha_file} and {ranking_file}")


@main.command("gradcheck")
@config_option
@click.option("--eps", type=float, default=1e-5, show_default=True,
              help="Central-difference step.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=3, show_default=True)
@click.option("--threshold", type=float, default=1e-4, show_default=True,
              help="Maximum acceptable relative error.")
@guarded
def cmd_gradcheck(eps, seed, trials, threshold):
    """Verify analytic gradients against central differences on a toy model."""
    if trials < 1 or seed < 0 or not (0 < eps < np.inf and 0 < threshold < np.inf):
        raise FreqGcnError(
            f"--trials must be at least 1, --seed at least 0 and --eps and --threshold "
            f"positive and finite, got {trials}, {seed}, {eps:g} and {threshold:g}"
        )
    rng = np.random.default_rng(seed)
    topo = builtin_topology("toy5")
    spec = frequency.BinSpec(c=1.3, num_bins=3)
    worst: dict[str, float] = {}
    for trial in range(trials):
        trained = model_mod.init_model(topo, spec, channel_widths=(2, 16, 16), seed=seed + trial)
        for param in trained.parameter_groups().values():
            param += rng.normal(scale=0.3, size=param.shape)
        features = training.draw_smooth_check_case(trained, rng, scale=1.5)
        errors = training.gradient_check(trained, features, label=trial % 2, eps=eps)
        for name, err in errors.items():
            worst[name] = max(worst.get(name, 0.0), err)
    failed = False
    for name, err in worst.items():
        verdict = "ok" if err < threshold else "FAIL"
        failed = failed or err >= threshold
        click.echo(f"{name:12s} max relative error {err:.3e}  {verdict}")
    if failed:
        click.echo(f"gradient check FAILED at eps={eps}", err=True)
        sys.exit(1)
    click.echo("gradient check passed")


@main.command("synth")
@config_option
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--n-per-class", type=int, default=30, show_default=True)
@click.option("--frames", type=int, default=1000, show_default=True)
@click.option("--fps", type=float, default=30.0, show_default=True)
@click.option("--band0", default="0.5:1.5", show_default=True,
              help="Class-0 frequency band LO:HI in Hz.")
@click.option("--band1", default="3:4", show_default=True,
              help="Class-1 frequency band LO:HI in Hz.")
@click.option("--signal-joints", default="1,4", show_default=True,
              help="Comma-separated joints carrying class-discriminative motion.")
@click.option("--amplitude", type=float, default=0.25, show_default=True)
@click.option("--noise", type=float, default=0.02, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--topology", default="toy5", show_default=True)
@click.option("--off-grid", is_flag=True,
              help="Draw frequencies anywhere in the band instead of on the DFT grid.")
@guarded
def cmd_synth(out_dir, n_per_class, frames, fps, band0, band1, signal_joints,
              amplitude, noise, seed, topology, off_grid):
    """Generate a labeled synthetic dataset in keypoint-file form."""
    try:
        joints = tuple(int(v) for v in signal_joints.split(","))
    except ValueError:
        raise FreqGcnError(
            f"--signal-joints expects comma-separated joint indices, got {signal_joints!r}"
        ) from None
    cfg = synthetic.SynthConfig(
        topology=topology,
        num_frames=frames,
        fps=fps,
        class0_band=_parse_band(band0),
        class1_band=_parse_band(band1),
        signal_joints=joints,
        amplitude=amplitude,
        noise_sigma=noise,
        seed=seed,
        on_grid=not off_grid,
    )
    dataset = synthetic.generate_dataset(cfg, n_per_class=n_per_class, seed=seed)
    manifest = synthetic.write_dataset(dataset, out_dir)
    click.echo(
        f"wrote {len(dataset.samples)} sequences "
        f"({len(dataset.train)} train / {len(dataset.test)} test) -> {manifest}"
    )


if __name__ == "__main__":
    main()
