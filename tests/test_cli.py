import json
import resource
import shutil
import signal

import numpy as np
import pytest
from click.testing import CliRunner

from freqgcn.cli import main
from freqgcn.errors import FormatError
from freqgcn.frequency import read_features_csv
from freqgcn.graph import builtin_topology, write_topology
from freqgcn.synthetic import SynthConfig, generate_dataset, write_manifest


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synth -> extract -> train pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    runner = CliRunner()
    result = run(
        runner, "synth", "--out", root / "data", "--n-per-class", 4,
        "--frames", 240, "--seed", 3, "--topology", "toy5",
    )
    assert result.exit_code == 0, result.output
    result = run(
        runner, "extract", "--input", root / "data" / "sequences", "--out", root / "features",
        "--fps", 30, "--topology", "toy5", "--c", 1.15, "--bins", 14,
    )
    assert result.exit_code == 0, result.output
    result = run(
        runner, "train", "--features", root / "features",
        "--manifest", root / "data" / "manifest.csv", "--out", root / "model.txt",
        "--topology", "toy5", "--epochs", 80, "--lr", 0.01, "--seed", 1,
    )
    assert result.exit_code == 0, result.output
    return root


class TestSynthCommand:
    def test_writes_sequences_and_manifest(self, runner, tmp_path):
        result = run(runner, "synth", "--out", tmp_path / "d", "--n-per-class", 2,
                     "--frames", 40, "--seed", 0)
        assert result.exit_code == 0
        manifest = (tmp_path / "d" / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "sequence_id,label,split,seed"
        assert len(manifest) == 5
        assert (tmp_path / "d" / "sequences" / "seq_0000").is_dir()

    def test_deterministic_across_runs(self, runner, tmp_path):
        for name in ("a", "b"):
            result = run(runner, "synth", "--out", tmp_path / name, "--n-per-class", 2,
                         "--frames", 40, "--seed", 5)
            assert result.exit_code == 0
        a = (tmp_path / "a" / "manifest.csv").read_bytes()
        b = (tmp_path / "b" / "manifest.csv").read_bytes()
        assert a == b
        fa = sorted((tmp_path / "a" / "sequences").rglob("*.json"))
        fb = sorted((tmp_path / "b" / "sequences").rglob("*.json"))
        assert [p.read_bytes() for p in fa] == [p.read_bytes() for p in fb]

    def test_aliasing_band_fails(self, runner, tmp_path):
        result = runner.invoke(
            main, ["synth", "--out", str(tmp_path / "x"), "--band1", "3:20", "--frames", "40"]
        )
        assert result.exit_code == 1


class TestExtractCommand:
    def test_single_sequence_row_count(self, runner, workspace, tmp_path):
        seq_dir = workspace / "data" / "sequences" / "seq_0000"
        out = tmp_path / "one.csv"
        result = run(runner, "extract", "--input", seq_dir, "--out", out,
                     "--fps", 30, "--topology", "toy5", "--c", 1.15, "--bins", 14)
        assert result.exit_code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 5 * 14 * 2
        features, spec = read_features_csv(out)
        assert features.num_joints == 5
        assert spec.num_bins == 14

    def test_missing_directory_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["extract", "--input", str(tmp_path / "absent"), "--out", str(tmp_path / "f.csv")]
        )
        assert result.exit_code == 2
        assert "absent" in result.output

    def test_too_few_frames_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "tiny"), "--n-per-class", "2",
            "--frames", "40", "--seed", "0",
        ])
        assert result.exit_code == 0
        # 14 bins at c=1.15 span 45 spectrum indices and need 90 frames.
        result = runner.invoke(main, [
            "extract", "--input", str(tmp_path / "tiny" / "sequences" / "seq_0000"),
            "--out", str(tmp_path / "f.csv"), "--topology", "toy5",
            "--c", "1.15", "--bins", "14",
        ])
        assert result.exit_code == 3
        assert "90" in result.output

    @pytest.mark.parametrize("growth", ["0.9", "1e300"])
    def test_invalid_growth_exits_1(self, runner, workspace, tmp_path, growth):
        result = runner.invoke(main, [
            "extract", "--input", str(workspace / "data" / "sequences" / "seq_0000"),
            "--out", str(tmp_path / "f.csv"), "--topology", "toy5",
            "--c", growth, "--bins", "14",
        ])
        assert_one_line_diagnostic(result, 1)
        assert "growth parameter" in result.stderr

    def test_custom_topology_file(self, runner, workspace, tmp_path):
        from freqgcn.graph import builtin_topology, write_topology

        topo_file = tmp_path / "custom.topo"
        write_topology(builtin_topology("toy5"), topo_file)
        result = run(runner, "extract",
                     "--input", workspace / "data" / "sequences" / "seq_0000",
                     "--out", tmp_path / "f.csv", "--topology", topo_file,
                     "--c", 1.15, "--bins", 14)
        assert result.exit_code == 0
        features, _ = read_features_csv(tmp_path / "f.csv")
        assert features.num_joints == 5

    def test_pose_csv_dump(self, runner, workspace, tmp_path):
        seq_dir = workspace / "data" / "sequences" / "seq_0001"
        result = run(runner, "extract", "--input", seq_dir, "--out", tmp_path / "f.csv",
                     "--topology", "toy5", "--pose-csv", tmp_path / "pose.csv",
                     "--c", 1.15, "--bins", 14)
        assert result.exit_code == 0
        lines = (tmp_path / "pose.csv").read_text().splitlines()
        assert lines[0] == "frame,joint,x,y"
        assert len(lines) == 1 + 240 * 5


class TestTrainCommand:
    def test_outputs_exist(self, workspace):
        assert (workspace / "model.txt").exists()
        assert (workspace / "model.txt.history.csv").exists()
        assert (workspace / "model.txt.metrics.csv").exists()
        history = (workspace / "model.txt.history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy"
        assert len(history) == 1 + 80
        first_loss = float(history[1].split(",")[1])
        last_loss = float(history[-1].split(",")[1])
        assert last_loss < first_loss

    def test_metrics_file_reports_held_out_rates(self, workspace):
        rows = dict(
            line.split(",") for line in
            (workspace / "model.txt.metrics.csv").read_text().splitlines()[1:]
        )
        assert set(rows) == {"accuracy", "sensitivity", "specificity"}
        assert all(0.0 <= float(v) <= 1.0 for v in rows.values())

    def test_seeded_training_is_byte_identical(self, runner, workspace, tmp_path):
        for name in ("m1.txt", "m2.txt"):
            result = run(
                runner, "train", "--features", workspace / "features",
                "--manifest", workspace / "data" / "manifest.csv",
                "--out", tmp_path / name, "--topology", "toy5",
                "--epochs", 15, "--seed", 7,
            )
            assert result.exit_code == 0
        assert (tmp_path / "m1.txt").read_bytes() == (tmp_path / "m2.txt").read_bytes()

    def test_single_class_manifest_exits_4(self, runner, workspace, tmp_path):
        manifest = tmp_path / "bad.csv"
        lines = (workspace / "data" / "manifest.csv").read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if l.split(",")[1] == "0"]
        manifest.write_text("\n".join(kept) + "\n")
        result = runner.invoke(main, [
            "train", "--features", str(workspace / "features"), "--manifest", str(manifest),
            "--out", str(tmp_path / "m.txt"), "--topology", "toy5", "--epochs", "2",
        ])
        assert result.exit_code == 4

    def test_features_with_mixed_bin_specs_exit_5(self, runner, workspace, tmp_path):
        features = tmp_path / "features"
        features.mkdir()
        for source in (workspace / "features").iterdir():
            (features / source.name).write_bytes(source.read_bytes())
        result = run(runner, "extract",
                     "--input", workspace / "data" / "sequences" / "seq_0003",
                     "--out", features / "seq_0003.csv", "--topology", "toy5",
                     "--c", 1.2, "--bins", 14)
        assert result.exit_code == 0
        result = runner.invoke(main, [
            "train", "--features", str(features),
            "--manifest", str(workspace / "data" / "manifest.csv"),
            "--out", str(tmp_path / "m.txt"), "--topology", "toy5", "--epochs", "2",
        ])
        assert_one_line_diagnostic(result, 5)
        assert "seq_0003" in result.stderr and "bin spec" in result.stderr
        assert not (tmp_path / "m.txt").exists()

    def test_wrong_topology_exits_5(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "train", "--features", str(workspace / "features"),
            "--manifest", str(workspace / "data" / "manifest.csv"),
            "--out", str(tmp_path / "m.txt"), "--topology", "body25", "--epochs", "2",
        ])
        assert result.exit_code == 5


class TestPredictCommand:
    def test_feature_csv_and_sequence_inputs_agree(self, runner, workspace):
        feature_input = workspace / "features" / "seq_0000.csv"
        sequence_input = workspace / "data" / "sequences" / "seq_0000"
        result = run(runner, "predict", "--model", workspace / "model.txt",
                     "--input", feature_input, "--input", sequence_input, "--fps", 30)
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 2
        a = lines[0].split(",")
        b = lines[1].split(",")
        assert a[0] == b[0] == "seq_0000"
        assert a[1] == b[1]
        assert float(a[2]) == pytest.approx(float(b[2]), abs=1e-12)

    def test_memorized_training_example_is_consistent(self, runner, workspace):
        # seq_0000 is a class-0 training exemplar.
        result = run(runner, "predict", "--model", workspace / "model.txt",
                     "--input", workspace / "features" / "seq_0000.csv")
        label = int(result.output.strip().split(",")[1])
        prob = float(result.output.strip().split(",")[2])
        assert label == 0
        assert prob < 0.5

    def test_prediction_lines_written_to_out_file(self, runner, workspace, tmp_path):
        out = tmp_path / "pred.csv"
        result = run(runner, "predict", "--model", workspace / "model.txt",
                     "--input", workspace / "features" / "seq_0003.csv", "--out", out)
        assert result.exit_code == 0
        assert out.read_text() == result.output

    def test_corrupt_model_exits_5(self, runner, workspace, tmp_path):
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text("freqgcn-model v1\ngarbage\n")
        result = runner.invoke(main, [
            "predict", "--model", str(corrupt),
            "--input", str(workspace / "features" / "seq_0000.csv"),
        ])
        assert result.exit_code == 5

    def test_mismatched_features_exit_5(self, runner, workspace, tmp_path):
        other = tmp_path / "other.csv"
        result = run(runner, "extract",
                     "--input", workspace / "data" / "sequences" / "seq_0000",
                     "--out", other, "--topology", "toy5", "--c", 1.3, "--bins", 4)
        assert result.exit_code == 0
        result = runner.invoke(main, [
            "predict", "--model", str(workspace / "model.txt"), "--input", str(other),
        ])
        assert result.exit_code == 5

    def test_features_binned_with_another_growth_exit_5(self, runner, workspace, tmp_path):
        # Same (5, 14, 2) shape as the model expects, but c=1.2 bins cover other frequencies.
        other = tmp_path / "other.csv"
        result = run(runner, "extract",
                     "--input", workspace / "data" / "sequences" / "seq_0000",
                     "--out", other, "--topology", "toy5", "--c", 1.2, "--bins", 14)
        assert result.exit_code == 0
        for command in ("predict", "explain"):
            result = runner.invoke(main, [
                command, "--model", str(workspace / "model.txt"), "--input", str(other),
                "--out", str(tmp_path / "report"),
            ])
            assert_one_line_diagnostic(result, 5)
            assert "binned with" in result.stderr

    def test_timing_goes_to_stderr_not_stdout(self, runner, workspace):
        result = run(runner, "predict", "--model", workspace / "model.txt",
                     "--input", workspace / "features" / "seq_0000.csv", "--timing")
        assert result.exit_code == 0
        assert "#" not in result.stdout
        assert "classification" in result.stderr

    def test_repeated_runs_byte_identical(self, runner, workspace):
        args = ("predict", "--model", workspace / "model.txt",
                "--input", workspace / "features" / "seq_0001.csv")
        first = run(runner, *args)
        second = run(runner, *args)
        assert first.stdout == second.stdout


class TestExplainCommand:
    def test_writes_alpha_and_ranking(self, runner, workspace, tmp_path):
        prefix = tmp_path / "report"
        result = run(runner, "explain", "--model", workspace / "model.txt",
                     "--input", workspace / "features" / "seq_0004.csv", "--out", prefix)
        assert result.exit_code == 0
        alpha_rows = (tmp_path / "report.alpha.csv").read_text().splitlines()
        assert alpha_rows[0] == "joint,bin,alpha"
        assert len(alpha_rows) == 1 + 5 * 14
        ranking_rows = (tmp_path / "report.ranking.csv").read_text().splitlines()
        assert ranking_rows[0] == "joint,importance"
        assert len(ranking_rows) == 1 + 5
        importances = [float(r.split(",")[1]) for r in ranking_rows[1:]]
        assert importances == sorted(importances, reverse=True)

    def test_alpha_rows_sum_to_one_per_joint(self, runner, workspace, tmp_path):
        prefix = tmp_path / "r2"
        run(runner, "explain", "--model", workspace / "model.txt",
            "--input", workspace / "features" / "seq_0005.csv", "--out", prefix)
        totals = np.zeros(5)
        for line in (tmp_path / "r2.alpha.csv").read_text().splitlines()[1:]:
            joint, _, alpha = line.split(",")
            totals[int(joint)] += float(alpha)
        assert np.allclose(totals, 1.0, atol=1e-9)

    def test_bars_render(self, runner, workspace, tmp_path):
        result = run(runner, "explain", "--model", workspace / "model.txt",
                     "--input", workspace / "features" / "seq_0004.csv",
                     "--out", tmp_path / "r3", "--bars")
        assert result.exit_code == 0
        assert "#" in result.output


class TestGradcheckCommand:
    def test_default_run_passes(self, runner):
        result = run(runner, "gradcheck", "--trials", 2)
        assert result.exit_code == 0
        assert "passed" in result.output

    def test_coarse_epsilon_fails(self, runner):
        result = runner.invoke(main, ["gradcheck", "--eps", "1e-1", "--trials", "2"])
        assert result.exit_code == 1

    def test_seed_changes_inputs_not_verdict(self, runner):
        for seed in (1, 2, 3):
            result = run(runner, "gradcheck", "--seed", seed, "--trials", 1)
            assert result.exit_code == 0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_per_class": 2, "frames": 40, "seed": 11}))
        result = run(runner, "synth", "--config", config, "--out", tmp_path / "d1")
        assert result.exit_code == 0
        rows = (tmp_path / "d1" / "manifest.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # n_per_class came from the config
        # Explicit flag overrides the config value.
        result = run(runner, "synth", "--config", config, "--out", tmp_path / "d2",
                     "--n-per-class", 3)
        rows = (tmp_path / "d2" / "manifest.csv").read_text().splitlines()
        assert len(rows) == 1 + 6


def assert_one_line_diagnostic(result, exit_code):
    """A documented exit code with a single 'error:' line on stderr, not a traceback."""
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def predict_with_model(runner, workspace, tmp_path, edit):
    """Predict seq_0000 from raw frames with a model document altered by ``edit``."""
    lines = (workspace / "model.txt").read_text().splitlines()
    edit(lines)
    model = tmp_path / "model.txt"
    model.write_text("\n".join(lines) + "\n")
    return runner.invoke(main, [
        "predict", "--model", str(model),
        "--input", str(workspace / "data" / "sequences" / "seq_0000"),
    ])


class TestHostileModelDocument:
    def test_non_finite_parameter_exits_5(self, runner, workspace, tmp_path):
        def edit(lines):
            lines[lines.index("param head_bias 1 2") + 1] = "nan nan"

        result = predict_with_model(runner, workspace, tmp_path, edit)
        assert_one_line_diagnostic(result, 5)
        assert "non-finite" in result.stderr

    def test_invalid_bin_growth_exits_5(self, runner, workspace, tmp_path):
        def edit(lines):
            lines[[i for i, line in enumerate(lines) if line.startswith("bin-c ")][0]] = "bin-c 0.5"

        assert_one_line_diagnostic(predict_with_model(runner, workspace, tmp_path, edit), 5)

    def test_overflowing_bin_growth_exits_5(self, runner, workspace, tmp_path):
        def edit(lines):
            index = next(i for i, line in enumerate(lines) if line.startswith("bin-c "))
            lines[index] = "bin-c 1e300"

        result = predict_with_model(runner, workspace, tmp_path, edit)
        assert_one_line_diagnostic(result, 5)
        assert "overflows" in result.stderr

    def test_non_finite_prediction_exits_5(self, runner, workspace, tmp_path):
        def edit(lines):
            for name in ("layer0", "layer1"):
                header = next(i for i, line in enumerate(lines) if line.startswith(f"param {name} "))
                rows, cols = (int(v) for v in lines[header].split()[2:])
                lines[header + 1:header + 1 + rows] = [" ".join(["1e300"] * cols)] * rows

        result = predict_with_model(runner, workspace, tmp_path, edit)
        assert_one_line_diagnostic(result, 5)
        assert "not finite" in result.stderr
        assert result.stdout == ""

    def test_non_utf8_document_exits_5(self, runner, workspace, tmp_path):
        model = tmp_path / "model.txt"
        model.write_bytes((workspace / "model.txt").read_bytes().replace(b"toy5", b"toy\xff", 1))
        result = runner.invoke(main, [
            "predict", "--model", str(model),
            "--input", str(workspace / "features" / "seq_0000.csv"),
        ])
        assert_one_line_diagnostic(result, 5)
        assert "UTF-8" in result.stderr

    def test_edge_outside_skeleton_exits_5(self, runner, workspace, tmp_path):
        def edit(lines):
            lines[lines.index("edges 4") + 1] = "0 9"

        result = predict_with_model(runner, workspace, tmp_path, edit)
        assert_one_line_diagnostic(result, 5)
        assert "(0, 9)" in result.stderr


class TestHostileFeatureFile:
    @pytest.mark.parametrize("row", [
        "7,0,x,0.5",  # joint outside the 5 of toy5
        "-1,0,x,0.5",  # negative index, which would wrap to joint 4
        "0,0,x,0.5",  # duplicate of an existing cell
        "1.5,0,x,0.5",  # non-integer index
        "0,0,x,abc",  # unparseable value
        "0,0,x,inf",  # non-finite value
    ])
    def test_bad_row_exits_1(self, runner, workspace, tmp_path, row):
        source = workspace / "features" / "seq_0000.csv"
        target = tmp_path / "seq_0000.csv"
        body = source.read_text()
        target.write_text(body + row + "\n")
        (tmp_path / "seq_0000.csv.meta.json").write_bytes(
            (workspace / "features" / "seq_0000.csv.meta.json").read_bytes()
        )
        with pytest.raises(FormatError, match=f":{len(body.splitlines()) + 1}: "):
            read_features_csv(target)
        result = runner.invoke(main, [
            "predict", "--model", str(workspace / "model.txt"), "--input", str(target),
        ])
        assert_one_line_diagnostic(result, 1)


    @pytest.mark.parametrize("row,lineno", [
        ("7,0,x,0.5", 2),
        ("-1,0,x,0.5", 2),
        ("0,0,x,0.5", 3),  # in place of the "0,0,y" row: a duplicate of line 2
        ("1.5,0,x,0.5", 2),
        ("0,0,x,abc", 2),
        ("0,0,x,inf", 2),
        ("0,0,x,-0.5", 2),  # a magnitude cannot be negative
    ])
    def test_bad_row_in_place_exits_1(self, runner, workspace, tmp_path, row, lineno):
        def edit(lines):
            lines[lineno - 1] = row

        assert_rejected_at(runner, workspace, tmp_path, edit, lineno)

    def test_swapped_rows_exit_1(self, runner, workspace, tmp_path):
        def edit(lines):
            lines[6], lines[7] = lines[7], lines[6]

        assert_rejected_at(runner, workspace, tmp_path, edit, 7)

    def test_dropped_last_row_exits_1(self, runner, workspace, tmp_path):
        last = len((workspace / "features" / "seq_0000.csv").read_text().splitlines())
        assert_rejected_at(runner, workspace, tmp_path, lambda lines: lines.pop(), last)

    def test_non_utf8_file_exits_1(self, runner, workspace, tmp_path):
        target = tmp_path / "seq_0000.csv"
        body = (workspace / "features" / "seq_0000.csv").read_bytes()
        target.write_bytes(body + b"0,0,x,0.\xff\n")
        (tmp_path / "seq_0000.csv.meta.json").write_bytes(
            (workspace / "features" / "seq_0000.csv.meta.json").read_bytes()
        )
        with pytest.raises(FormatError, match="UTF-8"):
            read_features_csv(target)
        result = runner.invoke(main, [
            "predict", "--model", str(workspace / "model.txt"), "--input", str(target),
        ])
        assert_one_line_diagnostic(result, 1)
        assert "UTF-8" in result.stderr


def assert_rejected_at(runner, workspace, tmp_path, edit, lineno):
    """seq_0000's features with ``edit`` applied to its lines fail at ``lineno``, in
    the reader and through predict."""
    lines = (workspace / "features" / "seq_0000.csv").read_text().splitlines()
    edit(lines)
    target = tmp_path / "seq_0000.csv"
    target.write_text("\n".join(lines) + "\n")
    (tmp_path / "seq_0000.csv.meta.json").write_bytes(
        (workspace / "features" / "seq_0000.csv.meta.json").read_bytes()
    )
    with pytest.raises(FormatError, match=f"seq_0000.csv:{lineno}: "):
        read_features_csv(target)
    result = runner.invoke(main, [
        "predict", "--model", str(workspace / "model.txt"), "--input", str(target),
    ])
    assert_one_line_diagnostic(result, 1)
    assert f"seq_0000.csv:{lineno}: " in result.stderr


class TestHostileFeatureSidecar:
    @pytest.mark.parametrize("edit", [
        lambda meta: "{not json",
        lambda meta: {k: v for k, v in meta.items() if k != "fps"},
        lambda meta: {**meta, "num_bins": "x"},
        lambda meta: {**meta, "bin_edges": [1, 2]},
        lambda meta: {**meta, "fps": "abc"},
        lambda meta: {**meta, "bin_edges": meta["bin_edges"][:-1] + [meta["bin_edges"][-1] + 1]},
    ], ids=["invalid-json", "missing-fps", "num-bins-text", "short-edges", "fps-text",
            "edges-off-spec"])
    def test_train_exits_1(self, runner, workspace, tmp_path, edit):
        features = tmp_path / "features"
        features.mkdir()
        for source in (workspace / "features").iterdir():
            (features / source.name).write_bytes(source.read_bytes())
        sidecar = features / "seq_0000.csv.meta.json"
        edited = edit(json.loads(sidecar.read_text()))
        sidecar.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        result = runner.invoke(main, [
            "train", "--features", str(features),
            "--manifest", str(workspace / "data" / "manifest.csv"),
            "--out", str(tmp_path / "model.txt"), "--topology", "toy5", "--epochs", "1",
        ])
        assert_one_line_diagnostic(result, 1)
        assert "seq_0000.csv.meta.json" in result.stderr


class TestNumericFlagEdges:
    @pytest.mark.parametrize("fps", ["0", "-30", "nan"])
    def test_extract_bad_fps_exits_1(self, runner, workspace, tmp_path, fps):
        result = runner.invoke(main, [
            "extract", "--input", str(workspace / "data" / "sequences" / "seq_0000"),
            "--out", str(tmp_path / "f.csv"), "--topology", "toy5",
            "--c", "1.15", "--bins", "14", "--fps", fps,
        ])
        assert_one_line_diagnostic(result, 1)
        assert "fps" in result.stderr
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_raw_input_bad_fps_exits_1(self, runner, workspace, tmp_path, command):
        args = [command, "--model", str(workspace / "model.txt"),
                "--input", str(workspace / "data" / "sequences" / "seq_0000"), "--fps", "0"]
        if command == "explain":
            args += ["--out", str(tmp_path / "report")]
        result = runner.invoke(main, args)
        assert_one_line_diagnostic(result, 1)
        assert "fps" in result.stderr

    def test_train_zero_epochs_exits_1(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "train", "--features", str(workspace / "features"),
            "--manifest", str(workspace / "data" / "manifest.csv"),
            "--out", str(tmp_path / "model.txt"), "--topology", "toy5", "--epochs", "0",
        ])
        assert_one_line_diagnostic(result, 1)
        assert "epochs" in result.stderr

    @pytest.mark.parametrize("flags", [
        ["--trials", "0"], ["--eps", "0"], ["--eps", "nan"], ["--threshold", "nan"],
        ["--seed", "-1"],
    ])
    def test_gradcheck_flag_edges_exit_1(self, runner, flags):
        result = runner.invoke(main, ["gradcheck", "--trials", "1", *flags])
        assert_one_line_diagnostic(result, 1)
        assert "passed" not in result.output

    @pytest.mark.parametrize("flag", ["--eps", "--threshold"])
    def test_gradcheck_infinite_flag_is_named(self, runner, flag):
        result = runner.invoke(main, ["gradcheck", "--trials", "1", flag, "inf"])
        assert_one_line_diagnostic(result, 1)
        assert "positive and finite" in result.stderr and "inf" in result.stderr
        assert "passed" not in result.output

    @pytest.mark.parametrize("mode", [[], ["--per-example"]])
    def test_diverging_training_is_named_and_writes_nothing(self, runner, workspace, tmp_path,
                                                             mode):
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, [
            "train", "--features", str(workspace / "features"),
            "--manifest", str(workspace / "data" / "manifest.csv"),
            "--out", str(out / "model.txt"), "--topology", "toy5", "--epochs", "5",
            "--lr", "1e300", *mode,
        ])
        assert_one_line_diagnostic(result, 1)
        assert "diverged at epoch" in result.stderr
        assert list(out.iterdir()) == []


class TestHostileTopologyFile:
    @pytest.mark.parametrize("text,where", [
        ("# N=abc\n0 1\n", "bad.topo:1: "),
        ("# N=5\n0 1\n1 2\n1 3\n1 4\n0 9\n", "bad.topo: "),  # edge to a joint past N
        ("# N=5\n# joint 3\n0 1\n1 2\n1 3\n1 4\n", "bad.topo:2: "),  # joint with no name
        ("# N=5\n0 1\n1 2 3\n", "bad.topo:3: "),
        ("# N=5\n0 x\n", "bad.topo:2: "),
        ("# N=7\n0 1\n1 2\n1 3\n1 4\n", "bad.topo: "),  # too few edges to connect N
        ("# N=5\n# joint 0 r\xf6ot\n", "bad.topo: "),  # written below as Latin-1
    ], ids=["n-text", "edge-past-n", "joint-no-name", "three-fields", "edge-text",
            "n-unconnectable", "non-utf8"])
    def test_extract_exits_1(self, runner, workspace, tmp_path, text, where):
        topo = tmp_path / "bad.topo"
        topo.write_bytes(text.encode("latin-1"))
        result = runner.invoke(main, [
            "extract", "--input", str(workspace / "data" / "sequences" / "seq_0000"),
            "--out", str(tmp_path / "f.csv"), "--topology", str(topo),
            "--c", "1.15", "--bins", "14",
        ])
        assert_one_line_diagnostic(result, 1)
        assert where in result.stderr
        assert not (tmp_path / "f.csv").exists()


class TestHostileManifest:
    @pytest.mark.parametrize("row,shown", [
        ("seq_0000,x,train", "'x'"),  # label that is not a number
        ("seq_0000", "None"),  # row with no label cell
        ("seq_0000,2,train", "'2'"),  # a number but not a class
        (",1,train", "''"),  # empty sequence_id
    ], ids=["label-text", "no-label-cell", "label-2", "empty-id"])
    def test_train_exits_1(self, runner, workspace, tmp_path, row, shown):
        lines = (workspace / "data" / "manifest.csv").read_text().splitlines()
        lines[3] = row
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "train", "--features", str(workspace / "features"), "--manifest", str(manifest),
            "--out", str(tmp_path / "m.txt"), "--topology", "toy5", "--epochs", "2",
        ])
        assert_one_line_diagnostic(result, 1)
        assert "manifest.csv:4: " in result.stderr and shown in result.stderr
        assert not (tmp_path / "m.txt").exists()

    def test_non_utf8_manifest_exits_1(self, runner, workspace, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes((workspace / "data" / "manifest.csv").read_bytes() + b"s\xff,1\n")
        result = runner.invoke(main, [
            "train", "--features", str(workspace / "features"), "--manifest", str(manifest),
            "--out", str(tmp_path / "m.txt"), "--topology", "toy5", "--epochs", "2",
        ])
        assert_one_line_diagnostic(result, 1)
        assert "UTF-8" in result.stderr


class TestSynthFlagEdges:
    @pytest.mark.parametrize("flags,message", [
        (["--frames", "1"], "num_frames"),
        (["--n-per-class", "1"], "n_per_class"),
        (["--band0", "2:1"], "band"),
        (["--signal-joints", "a"], "--signal-joints"),
        (["--signal-joints", "9"], "signal joints"),
        (["--amplitude", "0"], "amplitude"),
        (["--fps", "0"], "fps"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--noise", "nan"], "noise_sigma must be finite"),
        (["--amplitude", "inf"], "amplitude must be finite"),
        (["--fps", "inf"], "fps must be finite"),
        (["--fps", "nan"], "fps must be finite"),
    ])
    def test_exits_1_and_writes_nothing(self, runner, tmp_path, flags, message):
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--out", str(out), "--frames", "40", *flags])
        assert_one_line_diagnostic(result, 1)
        assert message in result.stderr
        assert not out.exists()



def assert_usage_error(result):
    """Exit 2 from click's parameter handling: one 'Error:' line after the usage hint."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    assert len([line for line in result.stderr.splitlines() if line.startswith("Error: ")]) == 1


def written(name, body):
    """Input builder: ``body`` written to tmp/<name>."""
    def build(ws, tmp):
        path = tmp / name
        path.write_bytes(body.encode() if isinstance(body, str) else body)
        return path
    return build


def frame_dir(docs, names=None):
    """Input builder: a sequence directory holding one file per raw frame document."""
    def build(ws, tmp):
        seq = tmp / "seq"
        seq.mkdir()
        for k, doc in enumerate(docs):
            (seq / (names[k] if names else f"frame_{k:06d}.json")).write_bytes(doc)
        return seq
    return build


def edited_model(key, text, offset=0):
    """Input builder: the workspace model with the line ``offset`` after ``key`` set to ``text``."""
    def build(ws, tmp):
        lines = (ws / "model.txt").read_text().splitlines()
        lines[lines.index(key) + offset] = text
        return written("model.txt", "\n".join(lines) + "\n")(ws, tmp)
    return build


def features_copy(header=None, sidecar=True):
    """Input builder: seq_0000's feature file, with another header or without its sidecar."""
    def build(ws, tmp):
        lines = (ws / "features" / "seq_0000.csv").read_text().splitlines()
        lines[0] = header or lines[0]
        if sidecar:
            written("seq_0000.csv.meta.json",
                    (ws / "features" / "seq_0000.csv.meta.json").read_bytes())(ws, tmp)
        return written("seq_0000.csv", "\n".join(lines) + "\n")(ws, tmp)
    return build


def features_dir(sidecar):
    """Input builder: a copy of the workspace features with seq_0000's sidecar set to ``sidecar``."""
    def build(ws, tmp):
        shutil.copytree(ws / "features", tmp / "features")
        (tmp / "features" / "seq_0000.csv.meta.json").write_text(sidecar)
        return tmp / "features"
    return build


def absent(ws, tmp):
    return tmp / "absent"


def model_txt(ws, tmp):
    return ws / "model.txt"


def seq_0000_csv(ws, tmp):
    return ws / "features" / "seq_0000.csv"


def extract(src):
    return lambda ws, tmp, out: [
        "extract", "--input", src(ws, tmp), "--out", out / "f.csv",
        "--topology", "toy5", "--c", "1.15", "--bins", "14",
    ]


def predict(model=model_txt, features=seq_0000_csv):
    return lambda ws, tmp, out: [
        "predict", "--model", model(ws, tmp), "--input", features(ws, tmp),
        "--out", out / "pred.csv",
    ]


def explain(model=model_txt, features=seq_0000_csv):
    return lambda ws, tmp, out: [
        "explain", "--model", model(ws, tmp), "--input", features(ws, tmp),
        "--out", out / "report",
    ]


def train(features=lambda ws, tmp: ws / "features",
          manifest=lambda ws, tmp: ws / "data" / "manifest.csv", flags=()):
    return lambda ws, tmp, out: [
        "train", "--features", features(ws, tmp), "--manifest", manifest(ws, tmp),
        "--out", out / "model.txt", "--topology", "toy5", "--epochs", "2", *flags,
    ]


def synth(config=None, flags=()):
    return lambda ws, tmp, out: [
        "synth", "--out", out / "data", "--frames", "40", *flags,
        *(["--config", config(ws, tmp)] if config else []),
    ]


TOY5_FRAME = json.dumps({"people": [{"pose_keypoints_2d": [1.0, 2.0, 1.0] * 5}]})
NAN_FRAME = json.dumps({"people": [{"pose_keypoints_2d": [float("nan")] + [1.0] * 14}]})
NESTED_FRAME = json.dumps({"people": [{"pose_keypoints_2d": [[1, 2, 0.5]] * 15}]})
LONG_INT = "1" * 4301  # more digits than Python converts to an integer by default
LONG_INT_FRAME = '{"people": [{"pose_keypoints_2d": [%s%s]}]}' % (LONG_INT, ", 1.0" * 14)

ERROR_BRANCHES = [  # (id, command builder, exit code, stderr substring)
    # Values that the type holding them rejects.
    ("train-seed-negative", train(flags=["--seed", "-1"]), 1, "seed must be >= 0"),
    ("train-lr-inf", train(flags=["--lr", "inf"]), 1, "learning_rate must be finite and > 0, got inf"),
    ("train-lr-nan", train(flags=["--lr", "nan"]), 1, "learning_rate must be finite and > 0, got nan"),
    ("train-width-zero", train(flags=["--channels", "2,0"]), 1, "channels (2, 0)"),
    ("train-width-negative", train(flags=["--channels", "2,-1"]), 1, "channels (2, -1)"),
    ("train-one-width", train(flags=["--channels", "5"]), 1, "channels (5,)"),
    ("model-width-zero", predict(model=edited_model("channels 2 16 16", "channels 2 0")),
     5, "channels (2, 0)"),
    # Missing inputs.
    ("predict-no-model", predict(model=absent), 2, "no such model"),
    ("explain-no-model", explain(model=absent), 2, "no such model"),
    ("predict-no-input", predict(features=absent), 2, "no such input"),
    ("explain-no-input", explain(features=absent), 2, "no such input"),
    ("train-no-features-dir", train(features=absent), 2, "no such feature directory"),
    ("train-no-manifest", train(manifest=absent), 2, "no such manifest"),
    ("train-missing-feature-file",
     train(manifest=written("manifest.csv", "sequence_id,label\nseq_9999,0\n")),
     2, "missing feature file"),
    ("train-manifest-missing-columns",
     train(manifest=written("manifest.csv", "sequence_id,split\nseq_0000,train\n")),
     1, "manifest missing columns"),
    ("train-empty-manifest", train(manifest=written("manifest.csv", "sequence_id,label\n")),
     1, "empty manifest"),
    ("extract-no-frames-no-sequences",
     extract(lambda ws, tmp: (tmp / "seq").mkdir() or tmp / "seq"), 2, "holds neither"),
    # Flags that do not parse, and --config files.
    ("config-missing", synth(config=absent), 2, "no such config file"),
    ("config-invalid-json", synth(config=written("cfg.json", "{x")), 2, "not valid JSON"),
    ("config-not-object", synth(config=written("cfg.json", "[1]")), 2, "JSON object"),
    ("config-not-utf8", synth(config=written("cfg.json", b'{"seed": "\xff"}')),
     2, "not valid JSON"),
    ("config-long-integer", synth(config=written("cfg.json", '{"seed": %s}' % LONG_INT)),
     2, "not valid JSON"),
    ("band0-text", synth(flags=["--band0", "x"]), 2, "expected LO:HI"),
    ("channels-text", train(flags=["--channels", "a"]), 2, "comma-separated integers"),
    # Feature files.
    ("features-no-sidecar", predict(features=features_copy(sidecar=False)),
     1, "missing feature sidecar"),
    ("features-wrong-header", predict(features=features_copy(header="joint,bin,value")),
     1, "expected header"),
    ("features-sidecar-long-integer",
     train(features=features_dir('{"format": "freqgcn-features", "version": %s}' % LONG_INT)),
     1, "seq_0000.csv.meta.json: invalid JSON"),
    # Model documents.
    ("model-non-numeric-value", predict(model=edited_model("param head_bias 1 2", "0.5 abc", 1)),
     5, "bad values in param head_bias"),
    ("model-short-row", predict(model=edited_model("param head_bias 1 2", "0.5", 1)),
     5, "param head_bias declared 1x2"),
    ("model-no-end", predict(model=edited_model("end", "param extra 1 1")),
     5, "expected 'end'"),
    # Raw keypoint input.
    ("frame-no-people", extract(frame_dir([b"{}"] * 2)), 1, "'people'"),
    ("frame-people-not-list", extract(frame_dir([b'{"people": 3}'] * 2)), 1, "'people' is not"),
    ("frame-no-keypoints", extract(frame_dir([b'{"people": [{}]}'] * 2)),
     1, "pose_keypoints_2d"),
    ("frame-keypoints-not-list",
     extract(frame_dir([b'{"people": [{"pose_keypoints_2d": 3}]}'] * 2)),
     1, "flat numeric array"),
    ("frame-not-utf8", extract(frame_dir([TOY5_FRAME.encode(), b'{"people": "\xff"}'])),
     1, "not UTF-8"),
    ("frame-nested-triples", extract(frame_dir([NESTED_FRAME.encode()] * 3)), 1, "flat numeric array"),
    ("frame-long-integer", extract(frame_dir([TOY5_FRAME.encode(), LONG_INT_FRAME.encode()])),
     1, "invalid keypoint document"),
    ("frame-name-no-digits",
     extract(frame_dir([TOY5_FRAME.encode()] * 2, ["a.json", "b.json"])),
     1, "no numeric component"),
    ("frame-number-twice",
     extract(frame_dir([TOY5_FRAME.encode()] * 3,
                       ["frame_000001.json", "frame_000002.json", "frame_000002 (copy).json"])),
     1, "frame_000002 (copy).json and frame_000002.json carry the same frame number 2"),
    ("container-not-array", extract(written("clip.json", TOY5_FRAME)), 1, "JSON array"),
    ("container-empty", extract(written("clip.json", "[]")), 2, "holds no frames"),
    ("container-all-frames-empty",
     extract(written("clip.json", '[{"people": []}, {"people": []}]')),
     1, "missing in every frame"),
    ("container-non-finite-keypoint",
     extract(written("clip.json", f"[{TOY5_FRAME}, {NAN_FRAME}]")),
     1, "clip.json: keypoint coordinates must be finite"),
    ("container-nested-triples", extract(written("clip.json", f"[{NESTED_FRAME}, {NESTED_FRAME}]")),
     1, "flat numeric array"),
    ("container-long-integer", extract(written("clip.json", f"[{TOY5_FRAME}, {LONG_INT_FRAME}]")),
     1, "invalid container file"),
]


class TestErrorBranches:
    @pytest.mark.parametrize("build,exit_code,message",
                             [case[1:] for case in ERROR_BRANCHES],
                             ids=[case[0] for case in ERROR_BRANCHES])
    def test_documented_exit_and_nothing_written(self, runner, workspace, tmp_path, build,
                                                  exit_code, message):
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, [str(a) for a in build(workspace, tmp_path, out)])
        if exit_code == 2 and "Usage:" in result.stderr:
            assert_usage_error(result)
        else:
            assert_one_line_diagnostic(result, exit_code)
        assert message in result.stderr
        assert list(out.iterdir()) == []


def cli_run(runner, *args):
    """A CLI run as a call that returns the exception the command ended in, if any."""
    return lambda: runner.invoke(main, [str(a) for a in args]).exception


def library_call(write, *args):
    """A call of ``write`` that returns the OSError it raised, if any."""
    def call():
        try:
            write(*args)
        except OSError as exc:
            return exc
    return call


def explain_into(prefix):
    return lambda runner, ws, path: cli_run(
        runner, "explain", "--model", ws / "model.txt", "--input", ws / "features" / "seq_0000.csv",
        "--out", path.parent / prefix)


def explain_ranking(runner, ws, path):
    (path.parent / "report.alpha.csv").symlink_to("/dev/null")  # only the ranking meets the limit
    return explain_into("report")(runner, ws, path)


WRITERS = [  # (id, file name, the write as a call prepared before the limit is set)
    ("pose-csv", "pose.csv", lambda runner, ws, path: cli_run(
        runner, "extract", "--input", ws / "data" / "sequences" / "seq_0000", "--out", path.parent / "f.csv",
        "--topology", "toy5", "--c", "1.15", "--bins", "14", "--pose-csv", path)),
    ("explain-alpha", "report.alpha.csv", explain_into("report")),
    ("explain-ranking", "report.ranking.csv", explain_ranking),
    ("topology", "body25.txt", lambda runner, ws, path: library_call(
        write_topology, builtin_topology("body25"), path)),
    ("manifest", "manifest.csv", lambda runner, ws, path: library_call(
        write_manifest, generate_dataset(SynthConfig(num_frames=40), 2, 0), path)),
]


@pytest.mark.parametrize("name,prepare", [case[1:] for case in WRITERS], ids=[case[0] for case in WRITERS])
def test_a_write_failing_midway_leaves_the_previous_file(runner, workspace, tmp_path, name, prepare):
    path = tmp_path / name
    path.write_text("previous\n", encoding="utf-8")
    write = prepare(runner, workspace, path)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (64, hard))  # writes past 64 bytes fail with EFBIG
    try:
        error = write()
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert isinstance(error, OSError)
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
