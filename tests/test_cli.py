import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from fairprop.cli import main
from fairprop.data import SynthConfig, load_dataset, synth_generate
from fairprop.train import RunConfig


@pytest.fixture
def runner():
    return CliRunner()


SYNTH_DOC = {"n": 60, "mean_degree": 4.0, "feat_dim": 6, "seed": 0}
NODE_SCHEMA = {"id": "id", "sensitive": "sensitive", "sensitive_pos_value": "1", "label": "label"}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_config_doc(tmp_path, **overrides):
    doc = {
        "dataset": {"synth": SYNTH_DOC},
        "scheme": "fair",
        "lambda_s": 1.0,
        "lambda_f": 5.0,
        "hidden": [8],
        "epochs": 2,
        "seeds": [0],
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


class TestSynth:
    def test_writes_loadable_dataset(self, runner, tmp_path):
        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        result = runner.invoke(main, ["synth", "--config", cfg, "--out", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output
        assert "n=60" in result.output
        with open(tmp_path / "data" / "nodes.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 60
        assert set(rows[0]) >= {"id", "sensitive", "label", "f0"}
        assert (tmp_path / "data" / "edges.txt").read_text().strip()

    def test_round_trip_matches_generated_dataset(self, runner, tmp_path):
        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        data_dir = tmp_path / "data"
        result = runner.invoke(main, ["synth", "--config", cfg, "--out", str(data_dir)])
        assert result.exit_code == 0, result.output
        loaded = load_dataset(data_dir / "nodes.csv", data_dir / "edges.txt", NODE_SCHEMA)
        made = synth_generate(SynthConfig(**SYNTH_DOC))
        assert np.array_equal(loaded.graph.edges, made.graph.edges)
        for part in ("indptr", "indices", "data"):
            a = getattr(loaded.graph.adjacency, part)
            b = getattr(made.graph.adjacency, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert loaded.features.tobytes() == made.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, made.labels)
        np.testing.assert_array_equal(loaded.sensitive, made.sensitive)
        lines = (data_dir / "edges.txt").read_text().splitlines()
        assert lines == [f"{i} {j}" for i, j in made.graph.edges.tolist()]


    def test_written_files_are_pinned(self, runner, tmp_path):
        # the bytes of both files are fixed: a changed writer must reproduce them
        doc = {"n": 50, "mean_degree": 4.0, "feat_dim": 6, "seed": 0}
        cfg = write_json(tmp_path / "synth.json", doc)
        data_dir = tmp_path / "data"
        result = runner.invoke(main, ["synth", "--config", cfg, "--out", str(data_dir)])
        assert result.exit_code == 0, result.output
        digests = {
            name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
            for name in ("nodes.csv", "edges.txt")
        }
        assert digests == {
            "nodes.csv": "ef78b08f1df18c3a40405bdd2a9bbc0e443f9e297a312c512618c0d4c981a53e",
            "edges.txt": "bc9a9b1afb9a16ae4169590a6fe5e8a746e1ce290d08830add5c96563b6afbef",
        }

    def test_blocks_of_rows_write_the_same_bytes(self, runner, tmp_path, monkeypatch):
        import fairprop.cli as cli

        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        written = {}
        for rows in (7, SYNTH_DOC["n"]):  # several blocks, one of them short; one block
            monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", rows)
            out = tmp_path / f"rows{rows}"
            assert runner.invoke(main, ["synth", "--config", cfg, "--out", str(out)]).exit_code == 0
            written[rows] = [(out / name).read_bytes() for name in ("nodes.csv", "edges.txt")]
        assert written[7] == written[SYNTH_DOC["n"]]

    def test_traced_peak_is_the_generator_peak(self, runner, tmp_path):
        # the text of one block of rows, not of a whole file, is held at a
        # time: writing the files adds under 2 MiB to the generator's peak
        doc = {"n": 10_000, "seed": 0}
        cfg = write_json(tmp_path / "synth.json", doc)
        tracemalloc.start()
        try:
            synth_generate(SynthConfig(**doc))
            generator_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            result = runner.invoke(main, ["synth", "--config", cfg, "--out", str(tmp_path / "data")])
            command_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert command_peak <= generator_peak + 2 * 2**20, (
            f"synth peaked at {command_peak / 2**20:.1f} MiB, "
            f"the generator at {generator_peak / 2**20:.1f} MiB"
        )


class TestTrainEvalPipeline:
    def test_synth_train_eval_metrics(self, runner, tmp_path):
        # full pipeline: generate data, train on it from CSV, evaluate the
        # checkpoint, then score an external prediction file
        synth_cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        data_dir = tmp_path / "data"
        assert (
            runner.invoke(
                main, ["synth", "--config", synth_cfg, "--out", str(data_dir)]
            ).exit_code
            == 0
        )

        doc = run_config_doc(
            tmp_path,
            dataset={
                "node_csv": str(data_dir / "nodes.csv"),
                "edges": str(data_dir / "edges.txt"),
                "schema": NODE_SCHEMA,
            },
        )
        train_cfg = write_json(tmp_path / "run.json", doc)
        result = runner.invoke(main, ["train", "--config", train_cfg])
        assert result.exit_code == 0, result.output
        assert "acc=" in result.output and "dp=" in result.output

        fp = RunConfig.from_dict(doc).fingerprint()
        ckpt = tmp_path / "out" / f"{fp}-seed0.json"
        assert ckpt.exists()
        result = runner.invoke(
            main, ["eval", "--checkpoint", str(ckpt), "--config", train_cfg]
        )
        assert result.exit_code == 0, result.output
        assert "eo=" in result.output

        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        with open(data_dir / "nodes.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        pred.write_text("id,pred\n" + "".join(f"{r['id']},1\n" for r in rows))
        truth.write_text(
            "id,label,sensitive\n"
            + "".join(f"{r['id']},{r['label']},{r['sensitive']}\n" for r in rows)
        )
        result = runner.invoke(
            main, ["metrics", "--pred", str(pred), "--truth", str(truth)]
        )
        assert result.exit_code == 0, result.output
        assert "dp=0.0000" in result.output  # constant predictions have no gap


class TestEvalHashing:
    def test_eval_hashes_each_dataset_file_once(self, runner, tmp_path, monkeypatch):
        import collections

        from fairprop import train

        data_dir = tmp_path / "data"
        synth_cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        assert runner.invoke(main, ["synth", "--config", synth_cfg, "--out", str(data_dir)]).exit_code == 0
        files = {"node_csv": str(data_dir / "nodes.csv"), "edges": str(data_dir / "edges.txt")}
        doc = run_config_doc(tmp_path, dataset=dict(files, schema=NODE_SCHEMA))
        cfg = write_json(tmp_path / "run.json", doc)
        assert runner.invoke(main, ["train", "--config", cfg]).exit_code == 0
        ckpt = tmp_path / "out" / f"{RunConfig.from_dict(doc).fingerprint()}-seed0.json"

        hashed = collections.Counter()
        file_sha256 = train.file_sha256

        def counting(path):
            hashed[path] += 1
            return file_sha256(path)

        monkeypatch.setattr(train, "file_sha256", counting)
        result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--config", cfg])
        assert result.exit_code == 0, result.output
        assert hashed == {files["node_csv"]: 1, files["edges"]: 1}


class TestEvalCheckpointBinding:
    @staticmethod
    def _train(runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path))
        assert runner.invoke(main, ["train", "--config", cfg]).exit_code == 0
        fp = RunConfig.from_dict(run_config_doc(tmp_path)).fingerprint()
        return str(tmp_path / "out" / f"{fp}-seed0.json")

    def _eval_error(self, tmp_path, monkeypatch, capsys, ckpt, **overrides):
        import fairprop.cli as cli

        cfg = write_json(tmp_path / "other.json", run_config_doc(tmp_path, **overrides))
        monkeypatch.setattr("sys.argv", ["fairprop", "eval", "--checkpoint", ckpt, "--config", cfg])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        return err

    def test_other_scheme_is_refused(self, runner, tmp_path, monkeypatch, capsys):
        ckpt = self._train(runner, tmp_path)
        err = self._eval_error(tmp_path, monkeypatch, capsys, ckpt, scheme="mlp")
        assert "scheme 'fair'" in err and "'mlp'" in err

    def test_other_fingerprint_is_refused(self, runner, tmp_path, monkeypatch, capsys):
        ckpt = self._train(runner, tmp_path)
        err = self._eval_error(tmp_path, monkeypatch, capsys, ckpt, lambda_f=7.0)
        other = RunConfig.from_dict(run_config_doc(tmp_path, lambda_f=7.0)).fingerprint()
        assert "fingerprint" in err and other in err

    def test_unbound_checkpoint_is_refused(self, runner, tmp_path, monkeypatch, capsys):
        ckpt = self._train(runner, tmp_path)
        with open(ckpt) as f:
            doc = json.load(f)
        del doc["scheme"], doc["fingerprint"]
        write_json(tmp_path / "old.json", doc)
        err = self._eval_error(tmp_path, monkeypatch, capsys, str(tmp_path / "old.json"))
        assert "scheme None" in err

    def test_matching_config_evaluates(self, runner, tmp_path):
        ckpt = self._train(runner, tmp_path)
        cfg = write_json(tmp_path / "same.json", run_config_doc(tmp_path, seeds=[3]))
        result = runner.invoke(main, ["eval", "--checkpoint", ckpt, "--config", cfg])
        assert result.exit_code == 0, result.output


class TestMetrics:
    @staticmethod
    def _invoke(runner, tmp_path, truth_rows, pred_rows=("a,1", "b,0", "c,1", "d,0", "e,1")):
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        pred.write_text("id,pred\n" + "".join(f"{r}\n" for r in pred_rows))
        truth.write_text("id,label,sensitive\n" + "".join(f"{r}\n" for r in truth_rows))
        return runner.invoke(main, ["metrics", "--pred", str(pred), "--truth", str(truth)])

    def test_duplicate_prediction_id_is_one_error(self, runner, tmp_path):
        # the second prediction for b would silently replace the first
        preds = ["a,1", "b,0", "c,1", "b,1"]
        result = self._invoke(runner, tmp_path, ["a,1,1", "b,1,-1", "c,0,-1"], preds)
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == f"duplicate id 'b' in {tmp_path / 'pred.csv'}"

    def test_duplicate_truth_id_is_one_error(self, runner, tmp_path):
        # a would be counted twice in every metric
        result = self._invoke(runner, tmp_path, ["a,1,1", "b,1,-1", "c,0,-1", "a,1,1"])
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == f"duplicate id 'a' in {tmp_path / 'truth.csv'}"

    def test_unlabeled_truth_rows_left_out(self, runner, tmp_path):
        # d (empty label) and e (negative label) are unlabeled, as in the node
        # CSV. Over a, b, c: acc = 1/3; dp = |1 - 1/2| (counting d and e it
        # would be |2/3 - 1/2|); eo over the positives a and b is |1 - 0|.
        rows = ["a,1,1", "b,1,-1", "c,0,-1", "d,,1", "e,-1,1"]
        result = self._invoke(runner, tmp_path, rows)
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "acc=0.3333 dp=0.5000 eo=1.0000"

    def test_float_written_truth_label(self, runner, tmp_path):
        # the node CSV loads a label written 1.0 as class 1; so does metrics
        rows = ["a,1.0,1", "b,1,-1", "c,0.0,-1", "d,,1", "e,-1,1"]
        result = self._invoke(runner, tmp_path, rows)
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "acc=0.3333 dp=0.5000 eo=1.0000"

    def test_non_integer_truth_label_is_one_error(self, runner, tmp_path):
        result = self._invoke(runner, tmp_path, ["a,1,1", "b,2.7,-1"])
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "non-integer label '2.7' in column 'label'"

    def test_no_labeled_truth_row_is_one_error(self, runner, tmp_path):
        result = self._invoke(runner, tmp_path, ["a,,1", "b,-1,-1"])
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == f"no labeled row in {tmp_path / 'truth.csv'}"


class TestSweep:
    def test_sweep_command(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path, epochs=1))
        grid = write_json(
            tmp_path / "grid.json", {"lambda_s": [1.0], "lambda_f": [0.0, 5.0]}
        )
        result = runner.invoke(main, ["sweep", "--config", cfg, "--grid", grid])
        assert result.exit_code == 0, result.output
        assert result.output.count("lambda_f=") == 2
        assert (tmp_path / "out" / "sweep.csv").exists()


class TestErrors:
    def test_unknown_config_field(self, runner, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"nope": 1})
        result = runner.invoke(main, ["train", "--config", cfg])
        assert result.exit_code != 0

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["train", "--config", "/does/not/exist.json"])
        assert result.exit_code != 0

    def test_entry_reports_one_line_error(self, tmp_path, capsys, monkeypatch):
        import fairprop.cli as cli

        cfg = write_json(tmp_path / "bad.json", {"nope": 1})
        monkeypatch.setattr("sys.argv", ["fairprop", "train", "--config", cfg])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
