"""Command-line front end: extract, train, predict, explain, gradcheck, synth.

A package error ends a command in one ``error:`` line and its type's ``exit_code``: 2 missing
input, 3 insufficient data, 4 degenerate dataset, 5 model mismatch, 1 any other, an output that
cannot be written and a failed allocation among them. A missing file, named with its kind by the
reader that opens it, and a flag that does not parse (click's usage error) exit 2. Every command is
deterministic given its flags and seeds; timing output goes to stderr so reruns stay byte-identical.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings
from pathlib import Path

import click
import numpy as np

from . import frequency, model as model_mod, pose, synthetic, training
from .errors import ContractViolationError, EmptyInputError, FreqGcnError, ModelMismatchError, NonFiniteError, ReadError
from .files import make_directory, read_input, table_text, write_atomic
from .graph import SkeletonTopology, builtin_topology, read_topology


def guarded(fn):
    """End a package error, a missing file or a failed allocation in one ``error:`` line, and show
    each warning the filters let through as one ``warning:`` line."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with warnings.catch_warnings():  # restores showwarning, and leaves the filters as they are
                warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
                return fn(*args, **kwargs)
        except (FreqGcnError, FileNotFoundError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code if isinstance(exc, FreqGcnError) else 2)
        except MemoryError as exc:  # sizes in an input that ask for more memory than there is
            click.echo(f"error: out of memory: {str(exc) or 'an allocation failed'}", err=True)
            sys.exit(1)

    return wrapper


def _split(sep: str, convert, expected: str, count: int | None = None):
    """A click callback that reads a flag as ``sep``-separated ``convert`` values, ``count`` of
    them if given; other text is click's usage error."""

    def parse(ctx: click.Context, param: click.Parameter, text: str) -> tuple:
        try:
            values = tuple(map(convert, text.split(sep)))
            if count in (None, len(values)):
                return values
        except ValueError:
            pass
        raise click.BadParameter(f"expected {expected}, got {text!r}")

    return parse


def _config_callback(ctx: click.Context, param: click.Parameter, value):
    """Load a JSON key-value file as defaults; explicit flags still win."""
    if value is None:
        return None
    try:
        loaded = json.loads(read_input(value, what="config file"))
    except (FileNotFoundError, ReadError) as exc:
        raise click.BadParameter(str(exc)) from None
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, a too long integer, deep nesting
        raise click.BadParameter(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise click.BadParameter("config file must hold a JSON object")
    names = {p.name for p in ctx.command.params} - {param.name}
    if unknown := [key for key in loaded if key not in names]:
        raise click.BadParameter(f"config key {unknown[0]!r} names no parameter of {ctx.info_name}")
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
    """A preset name, else a topology file; a bare name no file has, such as body52, is an unknown preset."""
    try:
        return builtin_topology(spec)
    except ContractViolationError as unknown:
        try:
            return read_topology(spec)
        except FileNotFoundError as missing:  # a bare name has no suffix and no directory
            raise unknown if Path(spec).name == spec and not Path(spec).suffix else missing from None


def _ingest(path: Path, fps: float, topology: SkeletonTopology) -> pose.PoseSequence:
    seq = pose.load_sequence(path, fps=fps, expected_joints=topology.num_joints)
    try:
        return pose.normalize_sequence(pose.interpolate_missing(seq), topology.root, topology.neck)
    except ContractViolationError as exc:  # a sequence the gap fill or the normalization cannot take
        raise ContractViolationError(f"{path.name}: {exc}") from None


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
        out_dir, outputs = Path(out_path), {}
        for seq_dir in sub:  # every sequence's features first, so a failure writes nothing
            features = frequency.extract_features(_ingest(seq_dir, fps, topo), spec)
            outputs |= frequency.features_files(features, out_dir / f"{seq_dir.name}.csv")
        make_directory(out_dir)
        write_atomic(outputs)  # one set: a file that cannot be written leaves every earlier one as it was
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
    bin spec and fps and the topology's joint count."""
    table = []
    for row in manifest_rows:
        seq_id = row["sequence_id"]
        features, spec = frequency.read_features_csv(features_dir / f"{seq_id}.csv")
        if table and spec != table[0][1].spec:
            raise ModelMismatchError(
                f"feature file for {seq_id} has bin spec {spec}, the first file {table[0][1].spec}"
            )
        if table and features.fps != table[0][1].fps:
            raise ModelMismatchError(
                f"feature file for {seq_id} has fps {features.fps}, the first file {table[0][1].fps}"
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
              callback=_split(",", int, "comma-separated integers"),
              help="Comma-separated layer widths, input first.")
@click.option("--epochs", type=int, default=200, show_default=True)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--history", "history_path", type=click.Path(), default=None,
              help="Per-epoch loss/accuracy CSV [default: <out>.history.csv].")
@click.option("--metrics", "metrics_path", type=click.Path(), default=None,
              help="Held-out metrics CSV [default: <out>.metrics.csv].")
@guarded
def cmd_train(features_dir, manifest, out_path, topology, channels, epochs, lr, seed,
              history_path, metrics_path):
    """Train the classifier on extracted features; the tables are one set, the model document goes last."""
    rows = synthetic.read_manifest(manifest)
    topo = _resolve_topology(topology)
    table = _load_feature_table(Path(features_dir), rows, topo)

    config = training.TrainConfig(epochs=epochs, learning_rate=lr, seed=seed)
    train_set = [(f, label) for _, f, label, split in table if split == "train"]
    test_set = [(sid, f, label) for sid, f, label, split in table if split == "test"]
    trained, history = training.train(train_set, config, topo, channel_widths=channels)
    try:
        report = training.evaluate(trained, test_set) if test_set else None
    except NonFiniteError:  # name the first held-out file whose logits are not finite, as predict does
        for sid, features, _ in test_set:
            _forward(f"{sid}.csv", features, trained)
        raise

    tables = {history_path or f"{out_path}.history.csv": table_text(
        "epoch,loss,accuracy", zip(range(1, epochs + 1), history.losses, history.accuracies))}
    if report:
        metrics_file = Path(metrics_path or f"{out_path}.metrics.csv")
        tables[metrics_file] = table_text(
            "metric,value", [(name, getattr(report, name)) for name in ("accuracy", "sensitivity", "specificity")])
        tables[f"{metrics_file}.predictions.csv"] = table_text(
            "sequence_id,label,predicted,prob_abnormal", report.predictions)
    write_atomic(tables)
    model_mod.save_model(trained, out_path)

    click.echo(f"trained on {len(train_set)} sequences for {epochs} epochs -> {out_path}")
    if report:
        click.echo(
            f"held-out accuracy {report.accuracy:.4f} "
            f"sensitivity {report.sensitivity:.4f} specificity {report.specificity:.4f}"
        )


def _classify(path: Path, loaded: model_mod.Model,
              fps: float) -> tuple[str, model_mod.ForwardCache, float, float]:
    """(sequence id, forward cache of the chunk of one, extract and forward seconds) for one input;
    features the model cannot take are a ModelMismatchError. Only extraction from raw frames is timed."""
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
    cache = _forward(path.name, features, loaded)
    return seq_id, cache, extract_seconds, time.perf_counter() - start


def _forward(name: str, features: frequency.FrequencyFeatures, loaded: model_mod.Model) -> model_mod.ForwardCache:
    """The forward cache of one input; features the model cannot take are a ModelMismatchError naming ``name``."""
    try:
        return model_mod.model_forward([features], loaded)
    except ContractViolationError as exc:
        raise ModelMismatchError(f"{name}: {exc}") from exc


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
    loaded = model_mod.load_model(model_path)
    lines = []
    for raw in inputs:
        seq_id, cache, extract_seconds, forward_seconds = _classify(Path(raw), loaded, fps)
        lines.append(f"{seq_id},{cache.logits[0].argmax()},{float(cache.probability[0, 1])!r}")
        if timing:
            click.echo(
                f"# {seq_id}: classification {extract_seconds + forward_seconds:.3f}s "
                f"(extract {extract_seconds:.3f}s, forward {forward_seconds:.3f}s)",
                err=True,
            )
    body = "\n".join(lines) + "\n"
    click.echo(body, nl=False)
    if out_path:
        write_atomic({out_path: body})


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
    loaded = model_mod.load_model(model_path)
    alpha = _classify(Path(input_path), loaded, fps)[1].alpha[0]
    importance, ranking = model_mod.joint_ranking(alpha)

    names = loaded.graph.topology.names
    alpha_file, ranking_file = Path(f"{out_prefix}.alpha.csv"), Path(f"{out_prefix}.ranking.csv")
    write_atomic({
        alpha_file: table_text("joint,bin,alpha",
                               [(j, b, a) for j, row in enumerate(alpha.tolist()) for b, a in enumerate(row)]),
        ranking_file: table_text("joint,importance", zip(ranking.tolist(), importance[ranking].tolist())),
    })

    if bars:
        top = importance.max() or 1.0
        for j in ranking:
            width = int(round(40 * importance[j] / top))
            click.echo(f"{names[j]:>14s} {'#' * width} {importance[j]:.4f}")
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
        for param in trained.params.values():
            param += rng.normal(scale=0.3, size=param.shape)
        features = training.draw_smooth_check_case(trained, rng)
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
@click.option("--band0", default="0.5:1.5", show_default=True, callback=_split(":", float, "LO:HI", 2),
              help="Class-0 frequency band LO:HI in Hz.")
@click.option("--band1", default="3:4", show_default=True, callback=_split(":", float, "LO:HI", 2),
              help="Class-1 frequency band LO:HI in Hz.")
@click.option("--signal-joints", default="1,4", show_default=True,
              callback=_split(",", int, "comma-separated joint indices"),
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
    cfg = synthetic.SynthConfig(
        topology=topology,
        num_frames=frames,
        fps=fps,
        class0_band=band0,
        class1_band=band1,
        signal_joints=signal_joints,
        amplitude=amplitude,
        noise_sigma=noise,
        seed=seed,
        on_grid=not off_grid,
    )
    samples = synthetic.generate_dataset(cfg, n_per_class=n_per_class, seed=seed)
    manifest = synthetic.write_dataset(samples, out_dir)
    n_train = sum(s.split == "train" for s in samples)
    click.echo(f"wrote {len(samples)} sequences ({n_train} train / {len(samples) - n_train} test) -> {manifest}")


if __name__ == "__main__":
    main()
