"""CLI subcommands: flows, exit codes, config resolution, reproducibility."""

import argparse
import hashlib
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from otconvert.cli import (METHODS, SCHEMAS, _config_text, _resolve, build_parser,
                           entry)
from otconvert.discrete import COST_KINDS, SinkhornConfig, cost_matrix, sinkhorn
from otconvert.fileio import (parse_kv_text, read_feature_file,
                              read_not_pair, read_velocity_field,
                              write_feature_file)
from otconvert.metrics import W2_MODES
from otconvert.neural import LR_DECAYS
from otconvert.rng import make_rng
from otconvert.synth import TASK_NAMES


def run_cli(capsys, *argv):
    code = entry([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_frames(path, n=40, d=16, seed=0, shift=0.0):
    rng = make_rng(seed)
    values = rng.normal(size=(n, d)) + shift
    write_feature_file(path, values, tag="test-frames")
    return values


class TestSynth:
    def test_gauss_shift_outputs(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, _ = run_cli(capsys, "synth", "--task", "gauss_shift",
                                  "--n", 50, "--dim", 3, "--seed", 7,
                                  "--out-dir", out)
        assert code == 0
        listed = json.loads(stdout)["files"]
        for name in ("source.otf", "target.otf", "truth.json",
                     "dataset.spec", "run.cfg"):
            assert name in listed
            assert (out / name).exists()
        truth = json.loads((out / "truth.json").read_text())
        shift = np.array(truth["shift"])
        assert shift.shape == (3,)
        assert np.isclose(np.linalg.norm(shift), 3.0)
        src = read_feature_file(out / "source.otf")
        assert src.values.shape == (50, 3)

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run_cli(capsys, "synth", "--task", "clusters_outlier",
                                 "--n", 60, "--dim", 2, "--seed", 3,
                                 "--out-dir", out)
            assert code == 0
        for name in ("source.otf", "target.otf", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_clusters_truth_carries_labels(self, tmp_path, capsys):
        out = tmp_path / "c"
        run_cli(capsys, "synth", "--task", "clusters_outlier", "--n", 40,
                "--dim", 2, "--seed", 1, "--out-dir", out)
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["target_labels"]) == 40
        assert set(truth["target_labels"]) == {0, 1}

    @pytest.mark.parametrize("key", ["n", "dim"])
    @pytest.mark.parametrize("task", TASK_NAMES)
    def test_size_below_one_exits_2_naming_key(self, tmp_path, capsys, task, key):
        sizes = {"n": 10, "dim": 3, key: 0}
        code, stdout, err = run_cli(capsys, "synth", "--task", task,
                                    "--n", sizes["n"], "--dim", sizes["dim"],
                                    "--out-dir", tmp_path / "data")
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [f"error: {key} must be >= 1, got 0"]

    def test_two_conditions_emits_dataset_spec(self, tmp_path, capsys):
        out = tmp_path / "tc"
        code, _, _ = run_cli(capsys, "synth", "--task", "two_conditions",
                             "--n", 30, "--dim", 2, "--seed", 2,
                             "--out-dir", out)
        assert code == 0
        spec = parse_kv_text((out / "dataset.spec").read_text())
        assert spec["conditions"] == "plus,minus"
        for label in ("plus", "minus"):
            assert (out / f"{label}_source.otf").exists()
            assert (out / f"{label}_target.otf").exists()


class TestConvert:
    def test_self_reference_cost_is_negligible(self, tmp_path, capsys):
        src = tmp_path / "src.otf"
        make_frames(src, seed=1)
        out = tmp_path / "out.otf"
        code, stdout, _ = run_cli(capsys, "convert", "--source", src,
                                  "--reference", src, "--method", "sinkvc",
                                  "--epsilon", 0.005, "--out", out)
        assert code == 0
        report = json.loads(stdout)
        assert report["mean_transport_cost"] < 1e-3
        assert (tmp_path / "out.otf.report.json").exists()
        assert (tmp_path / "out.otf.run.cfg").exists()

    def test_defaults_in_resolved_config(self, tmp_path, capsys):
        src = tmp_path / "src.otf"
        make_frames(src, seed=2)
        out = tmp_path / "out.otf"
        code, _, _ = run_cli(capsys, "convert", "--source", src,
                             "--reference", src, "--out", out)
        assert code == 0
        resolved = parse_kv_text((tmp_path / "out.otf.run.cfg").read_text())
        assert resolved["epsilon"] == "0.1"
        assert resolved["k"] == "4"
        assert resolved["method"] == "sinkvc"

    def test_run_twice_is_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "src.otf"
        ref = tmp_path / "ref.otf"
        make_frames(src, seed=3)
        make_frames(ref, seed=4, shift=0.5)
        out = tmp_path / "out.otf"
        run_cli(capsys, "convert", "--source", src, "--reference", ref,
                "--out", out)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        run_cli(capsys, "convert", "--source", src, "--reference", ref,
                "--out", out)
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second

    def test_rerun_from_emitted_config_only(self, tmp_path, capsys):
        src = tmp_path / "src.otf"
        ref = tmp_path / "ref.otf"
        make_frames(src, n=30, d=2, seed=5)
        make_frames(ref, n=30, d=2, seed=6, shift=2.0)
        out = tmp_path / "out.otf"
        model = tmp_path / "field.otm"
        code, _, _ = run_cli(
            capsys, "convert", "--source", src, "--reference", ref,
            "--method", "fmvc", "--cost", "squared_euclidean",
            "--model", model, "--out", out, "--seed", 9,
            "--config", _small_fm_overrides(tmp_path))
        assert code == 0
        cfg_path = tmp_path / "out.otf.run.cfg"
        cfg_bytes = cfg_path.read_bytes()
        keep = {name: (tmp_path / name).read_bytes()
                for name in ("out.otf", "out.otf.report.json", "field.otm")}
        for name in keep:
            (tmp_path / name).unlink()
        code, _, _ = run_cli(capsys, "convert", "--config", cfg_path)
        assert code == 0
        for name, blob in keep.items():
            assert (tmp_path / name).read_bytes() == blob, name
        assert cfg_path.read_bytes() == cfg_bytes

    def test_knn_method(self, tmp_path, capsys):
        src = tmp_path / "src.otf"
        make_frames(src, seed=7)
        out = tmp_path / "out.otf"
        code, stdout, _ = run_cli(capsys, "convert", "--source", src,
                                  "--reference", src, "--method", "knn",
                                  "--k", 1, "--out", out)
        assert code == 0
        report = json.loads(stdout)
        assert report["method"] == "knn"
        assert report["mean_transport_cost"] < 1e-12
        converted = read_feature_file(out)
        assert np.array_equal(converted.values, read_feature_file(src).values)
        assert converted.tag == "test-frames"  # source tag carried through

    @pytest.mark.parametrize("method", ["sinkvc", "knn"])
    def test_cost_other_than_cosine_rejected_outside_fmvc(self, tmp_path, method):
        src = tmp_path / "src.otf"
        make_frames(src, n=20, d=4, seed=8)
        argv = ["convert", "--source", src, "--reference", src,
                "--method", method, "--out", tmp_path / "out.otf"]
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", *(str(a) for a in argv),
             "--cost", "squared_euclidean"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--cost applies only to --method fmvc" in lines[0]
        assert not (tmp_path / "out.otf").exists()
        # the default cost, as recorded in .run.cfg, still runs
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", *(str(a) for a in argv),
             "--cost", "cosine_distance"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "convert", "--source",
                               tmp_path / "nope.otf", "--reference",
                               tmp_path / "nope.otf", "--out",
                               tmp_path / "out.otf")
        assert code == 2
        assert "nope.otf" in err

    def test_bad_magic_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.otf"
        bad.write_bytes(b"GARBAGE!" + bytes(64))
        code, _, err = run_cli(capsys, "convert", "--source", bad,
                               "--reference", bad, "--out", tmp_path / "o.otf")
        assert code == 2
        assert "magic" in err


def _small_fm_overrides(tmp_path):
    path = tmp_path / "small_fm.cfg"
    path.write_text(
        "command = convert\n"
        "fm_hidden_dims = 16,16\n"
        "fm_batch_size = 64\n"
        "fm_iterations = 120\n"
    )
    return path


class TestTrainFm:
    def _synth(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--task", "gauss_shift", "--n", 200,
                "--dim", 2, "--seed", 5, "--out-dir", data)
        return data

    def test_training_run_outputs(self, tmp_path, capsys):
        data = self._synth(tmp_path, capsys)
        model = tmp_path / "fm.otm"
        cfg = tmp_path / "fm.cfg"
        cfg.write_text(
            "command = train-fm\n"
            "seed = 1\n"
            f"source = {data / 'source.otf'}\n"
            f"reference = {data / 'target.otf'}\n"
            f"out_model = {model}\n"
            "cost = squared_euclidean\n"
            "fm_hidden_dims = 32,32\n"
            "fm_batch_size = 128\n"
            "fm_iterations = 300\n"
        )
        code, stdout, _ = run_cli(capsys, "train-fm", "--config", cfg)
        assert code == 0
        summary = json.loads(stdout)
        # threshold recorded from an oracle run of this exact setup (0.58)
        assert summary["final_loss"] < 1.5
        field, echoed = read_velocity_field(model)
        assert field.dim == 2
        assert "train-fm" in echoed
        trace_path = tmp_path / "fm.otm.loss.csv"
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 301
        assert (tmp_path / "fm.otm.run.cfg").exists()

    def test_run_twice_is_byte_identical(self, tmp_path, capsys):
        data = self._synth(tmp_path, capsys)
        out = tmp_path / "out"
        out.mkdir()
        cfg = tmp_path / "fm.cfg"
        cfg.write_text("command = train-fm\nfm_hidden_dims = 16,16\n"
                       "fm_batch_size = 64\nfm_iterations = 40\n")
        argv = ["train-fm", "--config", cfg, "--source", data / "source.otf",
                "--reference", data / "target.otf", "--out-model", out / "fm.otm",
                "--seed", 3]
        runs = []
        for _ in range(2):
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0
            runs.append((stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert {"fm.otm", "fm.otm.loss.csv"} <= set(runs[0][1])
        assert runs[0] == runs[1]

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "fm.cfg"
        cfg.write_text("command = train-fm\nseed = 1\n")
        code, _, err = run_cli(capsys, "train-fm", "--config", cfg)
        assert code == 2
        assert "source" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "fm.cfg"
        cfg.write_text("command = train-fm\nlerning_rate = 0.1\n")
        code, _, err = run_cli(capsys, "train-fm", "--config", cfg)
        assert code == 2
        assert "lerning_rate" in err

    def test_divergence_exits_4_with_one_line_and_trace(self, tmp_path, capsys):
        data = self._synth(tmp_path, capsys)
        model = tmp_path / "fm.otm"
        cfg = tmp_path / "fm.cfg"
        cfg.write_text("command = train-fm\nfm_hidden_dims = 8\n"
                       "fm_batch_size = 16\nfm_learning_rate = 1e30\n")
        # a subprocess, so numpy's overflow warnings would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", "train-fm", "--config", str(cfg),
             "--source", str(data / "source.otf"),
             "--reference", str(data / "target.otf"), "--out-model", str(model)],
            capture_output=True, text=True)
        assert proc.returncode == 4
        trace_path = tmp_path / "fm.otm.loss.csv"
        assert proc.stderr.splitlines() == [
            "training diverged: training loss became non-finite at iteration 1"
            f" (trace written to {trace_path})"]
        assert trace_path.read_text().splitlines()[0] == "iteration,loss"
        assert len(trace_path.read_text().splitlines()) == 2
        assert not model.exists()

    def test_finite_blow_up_exits_4_with_one_line_and_trace(self, tmp_path, capsys):
        # at this rate the loss stays finite but jumps from 16 to 5e50
        data = tmp_path / "tc"
        run_cli(capsys, "synth", "--task", "two_conditions", "--n", 200,
                "--dim", 2, "--seed", 1, "--out-dir", data)
        model = tmp_path / "fm.otm"
        cfg = tmp_path / "fm.cfg"
        cfg.write_text("command = train-fm\nfm_hidden_dims = 8\n"
                       "fm_batch_size = 16\nfm_learning_rate = 1e12\n")
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", "train-fm", "--config", str(cfg),
             "--source", str(data / "plus_source.otf"),
             "--reference", str(data / "plus_target.otf"), "--out-model", str(model)],
            capture_output=True, text=True)
        assert proc.returncode == 4
        trace_path = tmp_path / "fm.otm.loss.csv"
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("training diverged: training loss ")
        assert lines[0].endswith(" times the first at iteration 1"
                                 f" (trace written to {trace_path})")
        losses = [float(row.split(",")[1])
                  for row in trace_path.read_text().splitlines()[1:]]
        assert len(losses) == 2 and losses[1] > 1e8 * losses[0]
        assert not model.exists()

    def test_wrong_command_config_exits_2(self, tmp_path, capsys):
        src = tmp_path / "s.otf"
        make_frames(src, n=10, d=2)
        code, _, _ = run_cli(capsys, "convert", "--source", src,
                             "--reference", src, "--out", tmp_path / "o.otf")
        assert code == 0
        code, _, err = run_cli(capsys, "train-fm", "--config",
                               tmp_path / "o.otf.run.cfg")
        assert code == 2
        assert "convert" in err


class TestTrainNot:
    def _dataset(self, tmp_path, capsys):
        data = tmp_path / "tc"
        run_cli(capsys, "synth", "--task", "two_conditions", "--n", 300,
                "--dim", 2, "--seed", 4, "--out-dir", data)
        return data / "dataset.spec"

    def test_training_run_outputs(self, tmp_path, capsys):
        spec = self._dataset(tmp_path, capsys)
        model = tmp_path / "pair.otm"
        cfg = tmp_path / "not.cfg"
        cfg.write_text(
            "command = train-not\n"
            "seed = 2\n"
            f"dataset_spec = {spec}\n"
            f"out_model = {model}\n"
            "hidden_dims = 16,16\n"
            "batch_size = 32\n"
            "total_outer_iterations = 60\n"
            "checkpoint_every = 30\n"
            "eval_samples = 32\n"
        )
        code, stdout, _ = run_cli(capsys, "train-not", "--config", cfg)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["outer_iterations"] == 60
        assert summary["checkpoint"]["iteration"] == 60
        labels = {c["label"] for c in summary["checkpoint"]["conditions"]}
        assert labels == {"plus", "minus"}
        pair, echoed = read_not_pair(model)
        assert pair.map_model.condition_dim == 2
        assert "train-not" in echoed
        lines = (tmp_path / "pair.otm.loss.csv").read_text().splitlines()
        assert lines[0] == "iteration,potential_loss,map_loss"
        assert len(lines) == 61

    def test_w_below_one_exits_2(self, tmp_path, capsys):
        spec = self._dataset(tmp_path, capsys)
        code, _, err = run_cli(capsys, "train-not", "--dataset-spec", spec,
                               "--out-model", tmp_path / "p.otm",
                               "--extremal", "--w", 0.5)
        assert code == 2
        assert "w" in err

    @pytest.mark.parametrize("flags, config_line, key", [
        (["--extremal", "--w", "nan"], "", "w"),
        ([], "divergence_guard = nan\n", "divergence_guard"),
    ], ids=["w", "divergence_guard"])
    def test_non_finite_float_exits_2_naming_key(self, tmp_path, capsys,
                                                 flags, config_line, key):
        spec = self._dataset(tmp_path, capsys)
        model = tmp_path / "p.otm"
        cfg = tmp_path / "not.cfg"
        cfg.write_text("command = train-not\n"
                       "hidden_dims = 8\n"
                       "total_outer_iterations = 5\n" + config_line)
        code, stdout, err = run_cli(capsys, "train-not", "--config", cfg,
                                    "--dataset-spec", spec, "--out-model", model,
                                    *flags)
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0] == f"error: {key} must be finite, got nan"
        assert not model.exists()

    @pytest.mark.parametrize("config_line, message", [
        ("batch_size = 0", "batch_size must be >= 1"),
        ("batch_size = -3", "batch_size must be >= 1"),
        ("eval_samples = 0", "eval_samples must be >= 1"),
        ("hidden_dims = 3,0,3", "hidden_dims must all be >= 1, got (3, 0, 3)"),
        ("map_lr = -0.001", "map_lr must be > 0, got -0.001"),
        ("potential_lr = 0", "potential_lr must be > 0, got 0.0"),
        ("divergence_guard = 0", "divergence_guard must be > 0, got 0.0"),
    ], ids=["batch_size_0", "batch_size_negative", "eval_samples", "hidden_dims",
            "map_lr_negative", "potential_lr_0", "divergence_guard_0"])
    def test_bad_size_exits_2_naming_key(self, tmp_path, capsys, config_line, message):
        spec = self._dataset(tmp_path, capsys)
        model = tmp_path / "p.otm"
        cfg = tmp_path / "not.cfg"
        cfg.write_text(f"command = train-not\ntotal_outer_iterations = 5\n{config_line}\n")
        code, stdout, err = run_cli(capsys, "train-not", "--config", cfg,
                                    "--dataset-spec", spec, "--out-model", model)
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not model.exists()
        assert not (tmp_path / "p.otm.loss.csv").exists()

    def test_divergence_guard_exits_4_with_trace(self, tmp_path, capsys):
        spec = self._dataset(tmp_path, capsys)
        model = tmp_path / "p.otm"
        cfg = tmp_path / "not.cfg"
        cfg.write_text(
            "command = train-not\n"
            f"dataset_spec = {spec}\n"
            f"out_model = {model}\n"
            "hidden_dims = 8\n"
            "total_outer_iterations = 10\n"
            "divergence_guard = 1e-9\n"
        )
        code, _, err = run_cli(capsys, "train-not", "--config", cfg)
        assert code == 4
        trace_path = tmp_path / "p.otm.loss.csv"
        assert str(trace_path) in err
        assert trace_path.read_text().startswith("iteration,potential_loss")
        assert not model.exists()  # no half-written model

    def test_non_finite_loss_exits_4_with_trace(self, tmp_path, capsys):
        spec = self._dataset(tmp_path, capsys)
        model = tmp_path / "p.otm"
        cfg = tmp_path / "not.cfg"
        cfg.write_text("command = train-not\nhidden_dims = 8\n"
                       "total_outer_iterations = 10\nmap_lr = 1e30\n"
                       "potential_lr = 1e30\ndivergence_guard = 1e30\n")
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", "train-not", "--config", str(cfg),
             "--dataset-spec", str(spec), "--out-model", str(model)],
            capture_output=True, text=True)
        assert proc.returncode == 4
        trace_path = tmp_path / "p.otm.loss.csv"
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "became non-finite" in lines[0]
        assert lines[0].endswith(f" (trace written to {trace_path})")
        assert trace_path.read_text().startswith("iteration,potential_loss,map_loss\n")
        assert not model.exists()


class TestEval:
    def test_fd_of_identical_sets_is_zero(self, tmp_path, capsys):
        a = tmp_path / "a.otf"
        make_frames(a, n=60, d=4, seed=8)
        code, stdout, _ = run_cli(capsys, "eval", "--a", a, "--b", a,
                                  "--metrics", "fd")
        assert code == 0
        assert json.loads(stdout)["frechet"] < 1e-10

    def test_w2_matches_shift_norm_squared(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--task", "gauss_shift", "--n", 500,
                "--dim", 2, "--seed", 11, "--out-dir", data)
        truth = json.loads((data / "truth.json").read_text())
        expected = float(np.sum(np.square(truth["shift"])))
        code, stdout, _ = run_cli(capsys, "eval", "--a", data / "source.otf",
                                  "--b", data / "target.otf", "--metrics", "w2")
        assert code == 0
        got = json.loads(stdout)["w2_squared"]
        assert abs(got - expected) < 0.2 * expected

    def test_theorem1_holds_on_synth_output(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--task", "gauss_affine", "--n", 64,
                "--dim", 3, "--seed", 12, "--out-dir", data)
        code, stdout, _ = run_cli(capsys, "eval", "--a", data / "source.otf",
                                  "--b", data / "target.otf",
                                  "--metrics", "w2,fd,theorem1")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["theorem1"]["holds"] is True
        assert payload["theorem1"]["fd"] <= payload["theorem1"]["two_w2sq"] + 1e-8

    def test_exact_mode_over_capacity_suggests_sinkhorn(self, tmp_path, capsys):
        a = tmp_path / "a.otf"
        b = tmp_path / "b.otf"
        make_frames(a, n=80, d=3, seed=13)
        make_frames(b, n=80, d=3, seed=14)
        code, stdout, err = run_cli(capsys, "eval", "--a", a, "--b", b,
                                    "--metrics", "w2", "--w2-mode", "exact_small")
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "64" in lines[0] and "--w2-mode sinkhorn" in lines[0]

    def test_exact_mode_on_unequal_counts_suggests_sinkhorn(self, tmp_path, capsys):
        a = tmp_path / "a.otf"
        b = tmp_path / "b.otf"
        make_frames(a, n=20, d=3, seed=13)
        make_frames(b, n=7, d=3, seed=14)
        code, stdout, err = run_cli(capsys, "eval", "--a", a, "--b", b,
                                    "--metrics", "w2", "--w2-mode", "exact_small")
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "20x7" in lines[0] and "--w2-mode sinkhorn" in lines[0]

    def test_unknown_metric_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.otf"
        make_frames(a, n=10, d=2, seed=15)
        code, _, err = run_cli(capsys, "eval", "--a", a, "--b", a,
                               "--metrics", "w3")
        assert code == 2
        assert "w3" in err

    def test_report_written_when_asked(self, tmp_path, capsys):
        a = tmp_path / "a.otf"
        make_frames(a, n=20, d=3, seed=16)
        report = tmp_path / "metrics.json"
        code, stdout, _ = run_cli(capsys, "eval", "--a", a, "--b", a,
                                  "--metrics", "fd", "--report", report)
        assert code == 0
        assert json.loads(report.read_text()) == json.loads(stdout)
        assert (tmp_path / "metrics.json.run.cfg").exists()


@pytest.mark.parametrize("command, flags", [
    ("eval", ("--a", "--b", "--report")),
    ("convert", ("--source", "--reference", "--out")),
    ("train-fm", ("--source", "--reference", "--out-model")),
], ids=["eval", "convert", "train-fm"])
def test_feature_widths_that_differ_name_both_files(tmp_path, capsys, command, flags):
    first, second = tmp_path / "a3.otf", tmp_path / "b4.otf"
    make_frames(first, n=20, d=3, seed=17)
    make_frames(second, n=20, d=4, seed=18)
    code, stdout, err = run_cli(capsys, command, flags[0], first, flags[1], second,
                                flags[2], tmp_path / "out")
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"({first}) has 3" in lines[0] and f"({second}) has 4" in lines[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a3.otf", "b4.otf"]


@pytest.mark.parametrize("side", ["source", "reference"])
@pytest.mark.parametrize("command", [
    ("convert", "--method", "sinkvc"),
    ("convert", "--method", "knn"),
    ("convert", "--method", "fmvc"),
    ("train-fm",),
], ids=["sinkvc", "knn", "fmvc", "train-fm"])
def test_zero_norm_row_names_its_file(tmp_path, capsys, command, side):
    paths = {"source": tmp_path / "src.otf", "reference": tmp_path / "ref.otf"}
    make_frames(paths["source"], n=12, d=3, seed=21)
    make_frames(paths["reference"], n=15, d=3, seed=22)
    values = read_feature_file(paths[side]).values.copy()
    values[1] = 0.0
    write_feature_file(paths[side], values, tag="test-frames")
    out_flag = "--out" if command[0] == "convert" else "--out-model"
    code, stdout, err = run_cli(capsys, *command, "--source", paths["source"],
                                "--reference", paths["reference"],
                                out_flag, tmp_path / "out")
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"'{side}' ({paths[side]}): row 1 has zero norm" in lines[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ref.otf", "src.otf"]


class TestEvalComputesOnce:
    def test_one_solve_and_one_fit_per_eval(self, tmp_path, capsys,
                                            monkeypatch):
        from otconvert import cli, metrics

        calls = {"sinkhorn": 0, "frechet_distance": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (cli, metrics):
            counting(module, "sinkhorn")
            counting(module, "frechet_distance")
        a = tmp_path / "a.otf"
        b = tmp_path / "b.otf"
        make_frames(a, n=80, d=3, seed=17)
        make_frames(b, n=70, d=3, seed=18, shift=0.5)
        code, stdout, _ = run_cli(capsys, "eval", "--a", a, "--b", b,
                                  "--metrics", "w2,fd,theorem1")
        assert code == 0
        assert calls == {"sinkhorn": 1, "frechet_distance": 1}
        payload = json.loads(stdout)
        assert payload["w2_squared"] == payload["theorem1"]["two_w2sq"]
        assert payload["frechet"] == payload["theorem1"]["fd"]


def _bad_tag_otf(tmp_path):
    path = tmp_path / "bad.otf"
    path.write_bytes(b"OTFEAT01" + struct.pack("<BQQH", 0, 1, 2, 2)
                     + b"\xff\xfe" + bytes(16))
    return path, ["eval", "--a", path, "--b", path, "--metrics", "fd"]


def _spec_with(tmp_path, vector_line: bytes):
    make_frames(tmp_path / "s.otf", n=10, d=2, seed=19)
    spec = tmp_path / "bad.spec"
    spec.write_bytes(b"conditions = c\n" + vector_line
                     + b"c.source = s.otf\nc.target = s.otf\n")
    return spec, ["train-not", "--dataset-spec", spec,
                  "--out-model", tmp_path / "p.otm"]


def _non_numeric_vector(tmp_path):
    return _spec_with(tmp_path, b"c.vector = one\n")


def _non_utf8_spec(tmp_path):
    return _spec_with(tmp_path, b"c.vector = 1\xff\n")


def _non_utf8_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"command = synth\ntask = gauss_shift\xff\n")
    return cfg, ["synth", "--config", cfg, "--out-dir", tmp_path / "d"]


_NO_ROWS = np.zeros((0, 2))
_NAN_ROW = np.array([[1.0, 2.0]] * 4 + [[3.0, np.nan]])


def _bad_and_good_otf(tmp_path, values):
    bad, good = tmp_path / "bad.otf", tmp_path / "s.otf"
    write_feature_file(bad, values)
    make_frames(good, n=10, d=2, seed=19)
    return bad, good


def _empty_convert_reference(tmp_path):
    bad, good = _bad_and_good_otf(tmp_path, _NO_ROWS)
    return bad, ["convert", "--source", good, "--reference", bad,
                 "--out", tmp_path / "o.otf"]


def _nan_train_fm_source(tmp_path):
    bad, good = _bad_and_good_otf(tmp_path, _NAN_ROW)
    return bad, ["train-fm", "--source", bad, "--reference", good,
                 "--out-model", tmp_path / "f.otm"]


def _empty_eval_a(tmp_path):
    bad, good = _bad_and_good_otf(tmp_path, _NO_ROWS)
    return bad, ["eval", "--a", bad, "--b", good, "--report", tmp_path / "r.json"]


def _nan_eval_b(tmp_path):
    bad, good = _bad_and_good_otf(tmp_path, _NAN_ROW)
    return bad, ["eval", "--a", good, "--b", bad, "--metrics", "fd"]


def _nan_train_not_source(tmp_path):
    bad, _ = _bad_and_good_otf(tmp_path, _NAN_ROW)
    spec = tmp_path / "nan.spec"
    spec.write_bytes(b"conditions = c\nc.vector = 1\n"
                     b"c.source = bad.otf\nc.target = s.otf\n")
    return bad, ["train-not", "--dataset-spec", spec,
                 "--out-model", tmp_path / "p.otm"]


@pytest.mark.parametrize("make_case", [_bad_tag_otf, _non_numeric_vector,
                                       _non_utf8_spec, _non_utf8_config,
                                       _empty_convert_reference, _nan_train_fm_source,
                                       _empty_eval_a, _nan_eval_b,
                                       _nan_train_not_source])
def test_undecodable_input_exits_2_with_one_line(tmp_path, make_case):
    bad, argv = make_case(tmp_path)
    inputs = set(tmp_path.iterdir())
    proc = subprocess.run(
        [sys.executable, "-m", "otconvert", *(str(a) for a in argv)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert bad.name in lines[0]
    assert set(tmp_path.iterdir()) == inputs  # no output file left behind


@pytest.mark.parametrize("body, key", [
    (b"c.vector = 1\nc.source = s.otf\nc.target = s.otf\nc.weight = 2\n", "c.weight"),
    (b"c.vector = 1\nc.target = s.otf\n", "c.source"),
    (b"c.vector = 1\nc.source = s.otf\nc.target = wide.otf\n", "c.target"),
    (b"c.vector = 1\nc.source = s.otf\nc.target = empty.otf\n", "c.target"),
    (b"c.vector = nan\nc.source = s.otf\nc.target = s.otf\n", "c.vector"),
    (b"c.vector = 1\nc.source = s.otf\nc.target = nothere.otf\n", "c.target"),
], ids=["unknown-key", "missing-source", "wide-target", "empty-target", "nan-vector",
        "absent-target-file"])
def test_dataset_spec_key_error_exits_2_naming_file_and_key(tmp_path, body, key):
    make_frames(tmp_path / "s.otf", n=10, d=2, seed=19)
    make_frames(tmp_path / "wide.otf", n=10, d=3, seed=19)
    write_feature_file(tmp_path / "empty.otf", np.zeros((0, 2)))
    spec = tmp_path / "keys.spec"
    spec.write_bytes(b"conditions = c\n" + body)
    proc = subprocess.run(
        [sys.executable, "-m", "otconvert", "train-not", "--dataset-spec", str(spec),
         "--out-model", str(tmp_path / "p.otm")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(spec) in lines[0] and key in lines[0]
    assert not (tmp_path / "p.otm").exists()


@pytest.mark.parametrize("argv", [
    ["convert", "--source", "s.otf", "--reference", "r.otf", "--out", "o.otf",
     "--epsilon", "abc"],
    ["convert", "--source", "s.otf", "--reference", "r.otf", "--out", "o.otf",
     "--k", "1.5"],
    ["synth", "--task", "gauss_shift", "--out-dir", "d", "--n", "x"],
])
def test_malformed_flag_value_exits_2_with_one_line(argv):
    proc = subprocess.run([sys.executable, "-m", "otconvert", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert repr(argv[-1]) in lines[0]


def _subparser(command):
    parser = build_parser()
    if command is None:
        return parser
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices[command]


def test_every_flag_has_a_schema_key():
    for command in SCHEMAS:
        for action in _subparser(command)._actions:
            if action.dest not in ("help", "config"):
                assert action.dest in SCHEMAS[command], (command, action.dest)


# sha256 of each `COLUMNS=80 python -m otconvert [command] --help` text;
# argparse wraps to the terminal width, hence the pinned width
_HELP_DIGESTS = {
    None: "c82cf6916f2667b796e943fbff026d076fb576008f99059f5a7766ebfb288953",
    "convert": "0c99013dbb6377d7f0b2fe4b33f3bf9a0e264c3b2e2d7ea63e672648e71d232c",
    "train-fm": "9c849980cc6e2826e5875779f85173de74d9be1fffdd915ea68fee3af36d15db",
    "train-not": "aa0a845f92cecf48a7eef1033042a4f64c7b3502a431cbef5a5ab890d0a55860",
    "eval": "aded6f027b76e9e8be1b46f60130fb46b64de80b054b01dc5d6462fb5932e3fd",
    "synth": "7bb81502de2b3f66d28466e44146b95007d146daf8f302eae87da3d0ffc77079",
}


@pytest.mark.parametrize("command", list(_HELP_DIGESTS))
def test_help_text_bytes(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = _subparser(command).format_help()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _HELP_DIGESTS[command]


# (config key, allowed values, argv that is valid up to that key)
_CHOICE_CASES = [
    ("method", METHODS, ["convert", "--source", "s.otf", "--reference", "r.otf",
                         "--out", "o.otf"]),
    ("cost", COST_KINDS, ["convert", "--source", "s.otf", "--reference", "r.otf",
                          "--out", "o.otf"]),
    ("w2_mode", ("auto", *W2_MODES), ["eval", "--a", "a.otf", "--b", "b.otf",
                                      "--report", "m.json"]),
    ("task", TASK_NAMES, ["synth", "--out-dir", "d"]),
    ("lr_decay", LR_DECAYS, ["train-not", "--dataset-spec", "x.spec",
                             "--out-model", "p.otm"]),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key, allowed, argv", _CHOICE_CASES,
                         ids=[case[0] for case in _CHOICE_CASES])
def test_bad_choice_exits_2_with_one_line(key, allowed, argv, via, tmp_path,
                                         capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        argv = [*argv, "--" + key.replace("_", "-"), "bogus"]
    else:
        (tmp_path / "bad.cfg").write_text(f"command = {argv[0]}\n{key} = bogus\n")
        argv = [*argv, "--config", "bad.cfg"]
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert repr(key) in lines[0] and "'bogus'" in lines[0]
    assert all(value in lines[0] for value in allowed)
    assert sorted(tmp_path.iterdir()) == before


# sha256 of the .run.cfg each argv resolves to at default settings: a changed
# default, key, kind or value format changes it. The second field names the
# file a real run writes, for the commands that are cheap at their defaults.
_DEFAULT_RUN_CFGS = {
    "convert-sinkvc": (
        ["convert", "--source", "src.otf", "--reference", "ref.otf", "--out", "out.otf"],
        "out.otf.run.cfg",
        "43c0fde75ff8dc23bfcc58a04ad9e55b6d818ced6564d6cf8dae8fbc4d0801db"),
    "convert-knn": (
        ["convert", "--source", "src.otf", "--reference", "ref.otf",
         "--method", "knn", "--out", "out.otf"],
        "out.otf.run.cfg",
        "78ba3336c63ace9c70b4d8e777240ad83b45d1e9fda86d8de6b5c17ee1421ae2"),
    "convert-fmvc": (
        ["convert", "--source", "src.otf", "--reference", "ref.otf",
         "--method", "fmvc", "--out", "out.otf"],
        None,
        "01f93404e6e8b235e3163ea811197fa902cbeb49be1a430df5a86a92c7d04ee0"),
    "train-fm": (
        ["train-fm", "--source", "src.otf", "--reference", "ref.otf",
         "--out-model", "field.otm"],
        None,
        "2f0b1b4321a40e303fa4d7d661af43afe370da38c5127b5c857ec1683c710174"),
    "train-not": (
        ["train-not", "--dataset-spec", "dataset.spec", "--out-model", "pair.otm"],
        None,
        "68a487f9c951ac34e4e13524067c3cc0b15d5ba5621084ccd5bc37110b288af0"),
    "eval": (
        ["eval", "--a", "src.otf", "--b", "ref.otf", "--report", "metrics.json"],
        "metrics.json.run.cfg",
        "96d59397a91964ebead7738572b93d507fe053abf2baed3ac178e9f60333e311"),
    "synth": (
        ["synth", "--task", "gauss_shift", "--out-dir", "data"],
        "data/run.cfg",
        "7520db01d7a331d72f7b8e2ba191c53c157de9912b84014cfc96db1de74be57e"),
}


@pytest.mark.parametrize("case", sorted(_DEFAULT_RUN_CFGS))
def test_default_run_cfg_bytes(case, tmp_path, capsys, monkeypatch):
    argv, written, digest = _DEFAULT_RUN_CFGS[case]
    args = build_parser().parse_args(argv)
    text = _config_text(_resolve(args, args.subcommand))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    if written is not None:
        monkeypatch.chdir(tmp_path)
        make_frames("src.otf", n=30, d=4, seed=20)
        make_frames("ref.otf", n=30, d=4, seed=21, shift=0.5)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (tmp_path / written).read_text(encoding="utf-8") == text


# a budget the ε=1e-4 plans below cannot meet
_SHORT_BUDGET = 50


class TestSinkhornNonConvergence:
    def _data(self, tmp_path, capsys, task="gauss_shift", n=50, dim=4, seed=3):
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--task", task, "--n", n,
                "--dim", dim, "--seed", seed, "--out-dir", data)
        return data

    def test_convert_warns_once_on_stderr(self, tmp_path, capsys):
        data = self._data(tmp_path, capsys)
        args = ["convert", "--source", data / "source.otf",
                "--reference", data / "target.otf"]
        code, _, err = run_cli(capsys, *args, "--out", tmp_path / "ok.otf")
        assert code == 0
        assert err == ""
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"sinkhorn_max_iterations = {_SHORT_BUDGET}\n")
        code, stdout, err = run_cli(capsys, *args, "--out", tmp_path / "o.otf",
                                    "--config", cfg, "--epsilon", 1e-4)
        assert code == 0
        stats = json.loads(stdout)["plan_stats"]
        assert stats["iterations_used"] == _SHORT_BUDGET
        assert stats["marginal_error"] >= 1e-6
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")

    def test_train_fm_warns_once_on_stderr(self, tmp_path, capsys):
        data = self._data(tmp_path, capsys)
        cfg = tmp_path / "fm.cfg"
        cfg.write_text("command = train-fm\n"
                       "fm_hidden_dims = 8\n"
                       "fm_batch_size = 16\n"
                       "fm_iterations = 2\n"
                       f"sinkhorn_max_iterations = {_SHORT_BUDGET}\n")
        code, stdout, err = run_cli(capsys, "train-fm", "--config", cfg,
                                    "--source", data / "source.otf",
                                    "--reference", data / "target.otf",
                                    "--out-model", tmp_path / "f.otm",
                                    "--epsilon", 1e-4)
        assert code == 0
        out = json.loads(stdout)
        assert out["plan_iterations"] == _SHORT_BUDGET
        assert out["plan_marginal_error"] >= 1e-6
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")

    def test_eval_warns_once_on_stderr(self, tmp_path, capsys):
        data = self._data(tmp_path, capsys)
        args = ["eval", "--a", data / "source.otf", "--b", data / "target.otf",
                "--w2-mode", "sinkhorn", "--metrics", "w2,fd,theorem1"]
        code, converged, err = run_cli(capsys, *args)
        assert code == 0
        assert err == ""
        report = tmp_path / "m.json"
        code, stdout, err = run_cli(capsys, *args, "--epsilon", 1e-4,
                                    "--report", report)
        assert code == 0
        assert report.read_text() == stdout
        assert set(json.loads(stdout)) == set(json.loads(converged))
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: Sinkhorn stopped after 10000 iterations")
        assert lines[0].endswith("; raise --epsilon")

    def test_each_warning_is_printed_as_issued(self):
        # in a fresh interpreter, so the process's own warning filters apply
        code = (
            "import sys, warnings\n"
            "from otconvert import cli\n"
            "from otconvert.errors import ConvergenceWarning\n"
            "def command(resolved):\n"
            "    print('before', file=sys.stderr)\n"
            "    for _ in range(2):\n"
            "        warnings.warn('stopped short', ConvergenceWarning)\n"
            "    warnings.warn('something else', RuntimeWarning)\n"
            "    return 0\n"
            "cli._COMMANDS['eval'] = command\n"
            "shown = warnings.showwarning\n"
            "code = cli.entry(['eval', '--a', 'a.otf', '--b', 'b.otf'])\n"
            "assert warnings.showwarning is shown\n"
            "raise SystemExit(code)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[:3] == ["before"] + 2 * ["warning: stopped short; raise --epsilon"]
        assert len(lines) == 4 and lines[3].endswith("RuntimeWarning: something else")

    def test_train_fm_on_gauss_affine_converges(self, tmp_path, capsys):
        # plain iterations alone run out the 10,000-iteration budget here at
        # the default ε=0.1, stopping at marginal error 1.07e-6
        data = self._data(tmp_path, capsys, task="gauss_affine", n=90, dim=3, seed=2)
        source = read_feature_file(data / "source.otf").values.astype(np.float64)
        target = read_feature_file(data / "target.otf").values.astype(np.float64)
        cfg = SinkhornConfig()
        plan = sinkhorn(cost_matrix(source, target, "squared_euclidean"), cfg=cfg)
        assert plan.iterations_used < cfg.max_iterations
        assert plan.marginal_error < cfg.tolerance
        fm_cfg = tmp_path / "fm.cfg"
        fm_cfg.write_text("command = train-fm\n"
                          "fm_hidden_dims = 8\n"
                          "fm_batch_size = 16\n"
                          "fm_iterations = 2\n")
        code, stdout, err = run_cli(capsys, "train-fm", "--config", fm_cfg,
                                    "--source", data / "source.otf",
                                    "--reference", data / "target.otf",
                                    "--out-model", tmp_path / "f.otm",
                                    "--cost", "squared_euclidean")
        assert code == 0
        assert "warning:" not in err
        assert json.loads(stdout)["plan_iterations"] == plan.iterations_used


@pytest.mark.parametrize("config_line, message", [
    ("fm_learning_rate = nan", "fm_learning_rate must be finite, got nan"),
    ("fm_iterations = 0", "fm_iterations must be >= 1"),
    ("sinkhorn_max_iterations = 0", "sinkhorn_max_iterations must be >= 1"),
    ("sinkhorn_tolerance = 0", "sinkhorn_tolerance must be > 0, got 0.0"),
    ("fm_hidden_dims = 3,0,3", "fm_hidden_dims must all be >= 1, got (3, 0, 3)"),
    ("fm_learning_rate = -0.01", "fm_learning_rate must be > 0, got -0.01"),
    ("fm_learning_rate = 0", "fm_learning_rate must be > 0, got 0.0"),
], ids=["fm_learning_rate", "fm_iterations", "sinkhorn_max_iterations",
        "sinkhorn_tolerance", "fm_hidden_dims", "fm_learning_rate_negative",
        "fm_learning_rate_0"])
def test_setting_error_names_the_config_key(config_line, message, tmp_path, capsys):
    make_frames(tmp_path / "src.otf", n=20, d=4, seed=20)
    make_frames(tmp_path / "ref.otf", n=20, d=4, seed=21, shift=0.5)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = convert\nmethod = fmvc\n{config_line}\n")
    out = tmp_path / "out.otf"
    code, stdout, err = run_cli(capsys, "convert", "--config", cfg,
                                "--source", tmp_path / "src.otf",
                                "--reference", tmp_path / "ref.otf", "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        data = tmp_path / "d"
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", "synth", "--task",
             "gauss_shift", "--n", "20", "--dim", "2", "--seed", "0",
             "--out-dir", str(data)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (data / "source.otf").exists()

    def test_bad_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", "transmogrify"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_thread_env_var_accepted(self, tmp_path):
        import os
        env = dict(os.environ, OT_CONVERT_THREADS="1")
        data = tmp_path / "d"
        proc = subprocess.run(
            [sys.executable, "-m", "otconvert", "synth", "--task",
             "gauss_shift", "--n", "10", "--dim", "2", "--seed", "0",
             "--out-dir", str(data)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_unset_thread_count_trains_like_one_thread(self, tmp_path):
        """Unset OT_CONVERT_THREADS gives the bytes of OT_CONVERT_THREADS=1.

        On a machine with two or more cores, multi-threaded BLAS sums the
        stock-width GEMMs in another order, so a default of all cores would
        change the losses and parameters.
        """
        import os
        bare = {k: v for k, v in os.environ.items()
                if k not in ("OT_CONVERT_THREADS", "OMP_NUM_THREADS",
                             "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                             "NUMEXPR_NUM_THREADS")}
        data = tmp_path / "d"
        subprocess.run([sys.executable, "-m", "otconvert", "synth", "--task",
                        "gauss_shift", "--n", "200", "--dim", "8", "--seed", "0",
                        "--out-dir", str(data)], check=True, env=bare)
        cfg = tmp_path / "fm.cfg"
        cfg.write_text("command = train-fm\nfm_iterations = 3\n")
        runs = []
        for label, env in (("unset", bare), ("one", dict(bare, OT_CONVERT_THREADS="1"))):
            model = tmp_path / f"{label}.otm"
            proc = subprocess.run(
                [sys.executable, "-m", "otconvert", "train-fm", "--config", str(cfg),
                 "--source", str(data / "source.otf"),
                 "--reference", str(data / "target.otf"), "--out-model", str(model)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            field, _ = read_velocity_field(model)
            runs.append((field.model.params.tobytes(),
                         (tmp_path / f"{label}.otm.loss.csv").read_bytes()))
        assert runs[0] == runs[1]
