"""The three workloads: inputs made from the seed, the requests, and the output checks.

Each workload writes its inputs under a scratch directory before the worker
starts, lists the CLI requests the worker will run, and afterwards checks
every request's output. ``frames`` per request is the number of recording
frames the request consumes, directly or through feature files.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import inputs
from inputs import BINS, BODY25, GROWTH, TOY5

CHANNELS = (2, 16, 16)
CHANNELS_ARG = ",".join(map(str, CHANNELS))


class Workload:
    """Base: subclasses fill ``warmup``, ``requests`` and ``meta`` and define ``check``."""

    name = ""
    skeleton = BODY25
    uses_pose = uses_model = False
    epochs = 0
    train_examples = 0

    def __init__(self, seed: int, seconds: float, root: Path, edges: list[int]):
        self.seed = seed
        self.root = root
        self.edges = edges
        self.warmup: list[str] = []
        self.requests: list[list[str]] = []
        self.meta: list[dict] = []
        self.prepare(seconds)

    def prepare(self, seconds: float) -> None:
        raise NotImplementedError

    def check(self, index: int, outcome: dict) -> tuple[bool, float | None]:
        """(output passed its checks, accuracy score of this request or None)."""
        raise NotImplementedError

    def recording_meta(self, rec: inputs.Recording, input_bytes: int) -> dict:
        return {
            "frames": rec.frames, "keypoints": rec.confidence.size,
            "imputed_keypoints": rec.missing_keypoints,
            "empty_frames": len(rec.empty_frames), "input_bytes": input_bytes,
        }


def run_cli(args: list[str]) -> str:
    """Run the freqgcn CLI in this process for set-up; raises on any failure."""
    from freqgcn.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(args, standalone_mode=False)
    return out.getvalue()


def write_training_set(recs: list[inputs.Recording], splits: list[str], edges, directory: Path):
    """Reference features of each recording plus a manifest; returns the manifest path."""
    directory.mkdir(parents=True)
    rows = ["sequence_id,label,split,seed"]
    for i, (rec, split) in enumerate(zip(recs, splits)):
        features = inputs.reference_features(rec, BODY25, edges)
        inputs.write_features(features, edges, directory / f"seq_{i:04d}.csv")
        rows.append(f"seq_{i:04d},{rec.label},{split},{i}")
    manifest = directory / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


class ScreenBody25(Workload):
    """``predict`` on raw body25 frame directories, cycling a pool of recordings."""

    name = "screen-body25"
    uses_pose = uses_model = True
    POOL = 8
    FRAMES = 1000
    # The model is the same in every run: trained with a fixed seed on
    # recordings whose frequencies are spread evenly over each band, edges
    # included. On 300 unseen recordings it labels every one correctly, so
    # accuracy measures the program, not the luck of a small training set.
    MODEL_SEED = 2
    MODEL_TRAINING_SET = 16
    MODEL_EPOCHS = 80

    def prepare(self, seconds: float) -> None:
        rng = np.random.default_rng([self.seed, 1])
        pool = [inputs.make_recording(rng, BODY25, self.FRAMES, i % 2) for i in range(self.POOL)]
        fit_rng = np.random.default_rng([self.MODEL_SEED, 4])
        half = self.MODEL_TRAINING_SET // 2
        fit = [
            inputs.make_recording(fit_rng, BODY25, self.FRAMES, i % 2, (i // 2) / (half - 1))
            for i in range(self.MODEL_TRAINING_SET)
        ]
        manifest = write_training_set(
            fit, ["train"] * len(fit), self.edges, self.root / "model-features"
        )
        model = self.root / "model.txt"
        run_cli([
            "train", "--features", str(manifest.parent), "--manifest", str(manifest),
            "--out", str(model), "--topology", "body25", "--channels", CHANNELS_ARG,
            "--epochs", str(self.MODEL_EPOCHS), "--lr", "0.03", "--seed", str(self.MODEL_SEED),
        ])
        self.labels = [rec.label for rec in pool]
        dirs, pool_meta = [], []
        for i, rec in enumerate(pool):
            directory = self.root / "pool" / f"rec_{i:02d}"
            pool_meta.append(self.recording_meta(rec, inputs.write_frame_directory(rec, directory)))
            dirs.append(str(directory))
        self.first_output: dict[int, str] = {}
        self.warmup = ["predict", "--model", str(model), "--input", dirs[0]]
        for i in range(int(seconds / 0.02) + 1):
            self.requests.append(["predict", "--model", str(model), "--input", dirs[i % self.POOL]])
            self.meta.append({**pool_meta[i % self.POOL], "pool": i % self.POOL})

    def check(self, index: int, outcome: dict) -> tuple[bool, float | None]:
        slot = self.meta[index]["pool"]
        lines = outcome["stdout"].splitlines()
        if outcome["exit"] != 0 or len(lines) != 1:
            return False, None
        parts = lines[0].split(",")
        try:
            label, prob = int(parts[1]), float(parts[2])
        except (IndexError, ValueError):
            return False, None
        if len(parts) != 3 or label not in (0, 1) or not 0.0 <= prob <= 1.0:
            return False, None
        if self.first_output.setdefault(slot, outcome["stdout"]) != outcome["stdout"]:
            return False, None
        return True, float(label == self.labels[slot])


class ExtractToy5Mixed(Workload):
    """``extract`` on toy5 container files, every request a different frame count."""

    name = "extract-toy5-mixed"
    skeleton = TOY5
    uses_pose = True
    # Inputs made per measured second, about 2.5 times what the program manages
    # today; a run that uses them all ends early.
    REQUESTS_PER_SECOND = 15

    def prepare(self, seconds: float) -> None:
        rng = np.random.default_rng([self.seed, 2])
        count = min(1800, math.ceil(seconds * self.REQUESTS_PER_SECOND))
        lengths = inputs.mixed_lengths(self.seed, count + 1)
        (self.root / "in").mkdir(parents=True)
        (self.root / "out").mkdir()
        self.reference: list[np.ndarray] = []
        for i, frames in enumerate(lengths):
            rec = inputs.make_recording(rng, TOY5, frames, i % 2)
            src = self.root / "in" / f"rec_{i:04d}.json"
            dst = self.root / "out" / f"rec_{i:04d}.csv"
            size = inputs.write_container(rec, src)
            args = ["extract", "--input", str(src), "--out", str(dst),
                    "--topology", "toy5", "--bins", str(BINS), "--c", str(GROWTH)]
            if i == count:  # the warm-up takes the one length no measured request has
                self.warmup = args
                continue
            self.requests.append(args)
            self.meta.append({**self.recording_meta(rec, size), "csv": str(dst)})
            self.reference.append(inputs.reference_features(rec, TOY5, self.edges))

    def check(self, index: int, outcome: dict) -> tuple[bool, float | None]:
        from freqgcn.frequency import read_features_csv

        if outcome["exit"] != 0:
            return False, None
        try:
            features, _ = read_features_csv(self.meta[index]["csv"])
        except Exception:  # any output the reader rejects is a failed request, not a failed run
            return False, None
        ok = inputs.features_match(features.data, self.reference[index])
        return ok, float(ok)


class TrainBody25(Workload):
    """``train`` on 60 body25 feature files (40 train / 20 held out)."""

    name = "train-body25"
    uses_model = True
    epochs = 200
    SEQUENCES = 60
    HELD_OUT = 20
    FRAMES = 1000

    def prepare(self, seconds: float) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.train_examples = self.SEQUENCES - self.HELD_OUT
        half = self.train_examples // 2
        # Training frequencies spread evenly over each band, edges included;
        # held-out recordings draw theirs at random.
        recs = [
            inputs.make_recording(rng, BODY25, self.FRAMES, i % 2, (i // 2) / (half - 1))
            for i in range(self.train_examples)
        ] + [inputs.make_recording(rng, BODY25, self.FRAMES, i % 2) for i in range(self.HELD_OUT)]
        splits = ["train"] * self.train_examples + ["test"] * self.HELD_OUT
        manifest = write_training_set(recs, splits, self.edges, self.root / "features")
        (self.root / "out").mkdir()
        self.first_model: bytes | None = None

        def args(out: Path, epochs: int) -> list[str]:
            return ["train", "--features", str(manifest.parent), "--manifest", str(manifest),
                    "--out", str(out), "--topology", "body25", "--channels", CHANNELS_ARG,
                    "--epochs", str(epochs), "--lr", "0.01", "--seed", str(self.seed)]

        # One epoch warms every code path of a request without paying for 200.
        self.warmup = args(self.root / "out" / "warmup.txt", 1)
        for i in range(int(seconds) + 1):
            model = self.root / "out" / f"model_{i:03d}.txt"
            self.requests.append(args(model, self.epochs))
            self.meta.append({"frames": self.SEQUENCES * self.FRAMES, "model": str(model)})

    def check(self, index: int, outcome: dict) -> tuple[bool, float | None]:
        model = Path(self.meta[index]["model"])
        metrics = Path(str(model) + ".metrics.csv")
        if outcome["exit"] != 0 or not model.is_file() or not metrics.is_file():
            return False, None
        blob = model.read_bytes()
        if self.first_model is None:
            self.first_model = blob
        try:
            rows = dict(line.split(",", 1) for line in metrics.read_text().splitlines()[1:])
            accuracy = float(rows["accuracy"])
        except (KeyError, ValueError):
            return False, None
        return blob == self.first_model and math.isfinite(accuracy), accuracy


WORKLOADS = {w.name: w for w in (ScreenBody25, ExtractToy5Mixed, TrainBody25)}
