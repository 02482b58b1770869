import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from fairprop.cli import main
from fairprop.data import SynthConfig, load_dataset, read_results, synth_generate
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


def refused_before_loading(tmp_path, capsys, monkeypatch, command, line, overrides, grid_overrides=()):
    """Run ``command`` (train or sweep) on a run config with ``overrides`` and
    a grid with ``grid_overrides``; it must exit 1 with the one stderr line
    ``error: <line>``, having loaded no dataset and made no out/."""
    import fairprop.cli as cli

    def no_dataset(cfg):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr("fairprop.train.load_run_dataset", no_dataset)
    cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path, **overrides))
    grid_doc = dict({"lambda_s": [1.0], "lambda_f": [0.0, 5.0]}, **dict(grid_overrides))
    grid = write_json(tmp_path / "grid.json", grid_doc)
    args = ["--config", cfg] + (["--grid", grid] if command == "sweep" else [])
    monkeypatch.setattr("sys.argv", ["fairprop", command, *args])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "out").exists()


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


class TestTrainSummary:
    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
    def test_line_is_the_mean_and_std_of_the_written_rows(self, runner, tmp_path, seeds):
        # one seed has no sample std: it prints as 0
        doc = run_config_doc(tmp_path, epochs=1, seeds=seeds)
        result = runner.invoke(main, ["train", "--config", write_json(tmp_path / "run.json", doc)])
        assert result.exit_code == 0, result.output
        path = tmp_path / "out" / "results.csv"
        rows = read_results(path)
        accs, dps = np.array([r.accuracy for r in rows]), np.array([r.dp for r in rows])
        acc_std, dp_std = (accs.std(ddof=1), dps.std(ddof=1)) if len(seeds) > 1 else (0.0, 0.0)
        assert result.output == (
            f"scheme=fair acc={accs.mean():.4f}±{acc_std:.4f} "
            f"dp={dps.mean():.4f}±{dp_std:.4f} results={path}\n"
        )


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

    def test_a_truncated_checkpoint_is_one_line_naming_the_file(self, runner, tmp_path, monkeypatch, capsys):
        # it printed json's bare "Expecting ',' delimiter: line 1 column 100 (char 99)"
        ckpt = self._train(runner, tmp_path)
        cut = tmp_path / "cut.json"
        with open(ckpt) as f:
            cut.write_text(f.read()[:100])
        err = self._eval_error(tmp_path, monkeypatch, capsys, str(cut))
        assert err.startswith(f"error: checkpoint {cut}: not a JSON object (Expecting ")

    def test_matching_config_evaluates(self, runner, tmp_path):
        ckpt = self._train(runner, tmp_path)
        cfg = write_json(tmp_path / "same.json", run_config_doc(tmp_path, seeds=[3]))
        result = runner.invoke(main, ["eval", "--checkpoint", ckpt, "--config", cfg])
        assert result.exit_code == 0, result.output


class TestOutDirOverride:
    def test_train_writes_under_the_environment_directory(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "elsewhere"
        monkeypatch.setenv("FAIRPROP_OUT_DIR", str(out))
        doc = run_config_doc(tmp_path, seeds=[0, 2])
        result = runner.invoke(main, ["train", "--config", write_json(tmp_path / "run.json", doc)])
        assert result.exit_code == 0, result.output
        assert result.output.rstrip().endswith(f"results={out / 'results.csv'}")
        fp = RunConfig.from_dict(doc).fingerprint()  # the output directory is not hashed
        assert sorted(p.name for p in out.iterdir()) == [f"{fp}-seed0.json", f"{fp}-seed2.json", "results.csv"]
        assert [r.seed for r in read_results(out / "results.csv")] == [0, 2]
        assert not (tmp_path / "out").exists()


class TestEvalSeed:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        # seed 0's test rows overlap seed 3's training rows, and its
        # standardization differs: scored under seed 0, the seed-3 checkpoint
        # read acc 0.8400 dp 0.5228 against its trained 0.8267 and 0.6105
        tmp_path = tmp_path_factory.mktemp("eval-seed")
        doc = run_config_doc(
            tmp_path, dataset={"synth": {"n": 300, "seed": 0}}, epochs=30, seeds=[0, 3]
        )
        cfg = write_json(tmp_path / "run.json", doc)
        assert CliRunner().invoke(main, ["train", "--config", cfg]).exit_code == 0
        ckpt = tmp_path / "out" / f"{RunConfig.from_dict(doc).fingerprint()}-seed3.json"
        (row,) = [r for r in read_results(tmp_path / "out" / "results.csv") if r.seed == 3]
        return cfg, str(ckpt), row

    @staticmethod
    def _entry(monkeypatch, capsys, *args):
        import fairprop.cli as cli

        monkeypatch.setattr("sys.argv", ["fairprop", "eval", *args])
        try:
            cli.entry()
        except SystemExit as exc:
            return exc.code, capsys.readouterr()
        return 0, capsys.readouterr()

    def test_defaults_to_the_checkpoint_seed(self, trained, monkeypatch, capsys):
        cfg, ckpt, row = trained
        code, out = self._entry(monkeypatch, capsys, "--checkpoint", ckpt, "--config", cfg)
        assert code == 0, out.err
        assert out.out.startswith(f"acc={row.accuracy:.4f} dp={row.dp:.4f} eo={row.eo:.4f} ")

    def test_the_checkpoint_seed_is_accepted(self, trained, monkeypatch, capsys):
        cfg, ckpt, row = trained
        code, out = self._entry(monkeypatch, capsys, "--checkpoint", ckpt, "--config", cfg, "--seed", "3")
        assert code == 0, out.err
        assert out.out.startswith(f"acc={row.accuracy:.4f} dp={row.dp:.4f} ")

    def test_another_seed_is_refused(self, trained, monkeypatch, capsys):
        cfg, ckpt, _ = trained
        code, out = self._entry(monkeypatch, capsys, "--checkpoint", ckpt, "--config", cfg, "--seed", "0")
        assert code == 1 and out.out == ""
        assert out.err == f"error: checkpoint {ckpt} was trained with seed 3, not --seed 0\n"

    def test_a_checkpoint_without_a_seed_needs_one(self, trained, monkeypatch, capsys, tmp_path):
        cfg, ckpt, row = trained
        with open(ckpt) as f:
            doc = json.load(f)
        del doc["seed"]
        unseeded = write_json(tmp_path / "unseeded.json", doc)
        code, out = self._entry(monkeypatch, capsys, "--checkpoint", unseeded, "--config", cfg)
        assert code == 1
        assert out.err == f"error: checkpoint {unseeded} records no seed: pass --seed\n"
        code, out = self._entry(monkeypatch, capsys, "--checkpoint", unseeded, "--config", cfg, "--seed", "3")
        assert code == 0 and out.out.startswith(f"acc={row.accuracy:.4f} dp={row.dp:.4f} ")


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

    def test_sensitive_outside_plus_minus_one_is_one_error(self, runner, tmp_path):
        # with 0/1 coding both groups are present, but group -1 would read as empty
        result = self._invoke(runner, tmp_path, ["a,1,1", "b,1,0", "c,0,0"])
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == (
            f"sensitive value '0' in {tmp_path / 'truth.csv'}: expected -1 or 1"
        )
        # a cell that is not an integer at all gets the same one line
        for value in ("x", "1.0"):
            result = self._invoke(runner, tmp_path, ["a,1,1", f"b,1,{value}", "c,0,-1"])
            assert isinstance(result.exception, ValueError)
            assert str(result.exception) == (
                f"sensitive value {value!r} in {tmp_path / 'truth.csv'}: expected -1 or 1"
            )

    def test_non_integer_prediction_is_one_error(self, runner, tmp_path):
        preds = ["a,1", "b,yes", "c,1"]
        result = self._invoke(runner, tmp_path, ["a,1,1", "b,1,-1", "c,0,-1"], preds)
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == (
            f"pred value 'yes' in {tmp_path / 'pred.csv'}: expected an integer"
        )

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

    def test_a_third_class_is_one_error(self, runner, tmp_path):
        # a class 2 label or prediction would be read as a class never positive
        truth = ["a,1,1", "b,2,-1", "c,0,-1"]
        result = self._invoke(runner, tmp_path, truth, ["a,1", "b,1", "c,0"])
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "label 2 is not 0 or 1: fairprop is two-class"
        result = self._invoke(runner, tmp_path, ["a,1,1", "b,1,-1", "c,0,-1"], ["a,1", "b,2", "c,0"])
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "prediction 2 is not 0 or 1: fairprop is two-class"

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

    def test_resumed_summary_covers_every_seed(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path, epochs=1, seeds=[0, 1, 2]))
        grid = write_json(tmp_path / "grid.json", {"lambda_s": [1.0], "lambda_f": [0.0, 5.0]})
        args = ["sweep", "--config", cfg, "--grid", grid]
        assert runner.invoke(main, args).exit_code == 0
        path = tmp_path / "out" / "sweep.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-2]))  # lambda_f=5 loses seeds 1 and 2

        resumed = runner.invoke(main, args)  # trains the two lost runs
        again = runner.invoke(main, args)  # trains nothing
        assert resumed.exit_code == again.exit_code == 0, resumed.output + again.output
        rows = read_results(path)
        expected = []
        for lam_f in (0.0, 5.0):
            rs = [r for r in rows if r.lambda_f == lam_f]
            accs, dps = np.array([r.accuracy for r in rs]), np.array([r.dp for r in rs])
            expected.append(
                f"lambda_s=1.0 lambda_f={lam_f} "
                f"acc={accs.mean():.4f}±{accs.std(ddof=1):.4f} "
                f"dp={dps.mean():.4f}±{dps.std(ddof=1):.4f} seeds=3"
            )
        for result in (resumed, again):
            assert result.output.splitlines()[:-1] == expected
            assert result.output.splitlines()[-1] == f"results={path}"


    @pytest.mark.parametrize(
        "grid_doc, key",
        [
            ({"lambda_s": [1.0]}, "lambda_f"),
            ({"lambda_f": [0.0]}, "lambda_s"),
            ({"lambda_s": 1.0, "lambda_f": [0.0]}, "lambda_s"),
            ({"lambda_s": [1.0], "lambda_f": []}, "lambda_f"),
            ([1.0, 0.0], "lambda_s"),
        ],
    )
    def test_grid_without_a_list_is_one_error(self, tmp_path, capsys, monkeypatch, grid_doc, key):
        import fairprop.cli as cli

        cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path, epochs=1))
        grid = write_json(tmp_path / "grid.json", grid_doc)
        monkeypatch.setattr("sys.argv", ["fairprop", "sweep", "--config", cfg, "--grid", grid])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: grid file {grid} needs a list of values under {key!r}"
        assert not (tmp_path / "out" / "sweep.csv").exists()


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

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "field, value", [("hidden", [8.5]), ("num_layers", 2.5), ("prop_k", 1.5), ("epochs", 2.5)]
    )
    def test_non_integer_count_is_one_error(self, tmp_path, capsys, monkeypatch, command, field, value):
        # a sweep trained each run into the same TypeError and wrote NaN rows
        if field == "hidden":
            line = "hidden width must be an integer, got 8.5"
        else:
            line = f"{field} must be an integer, got {value}"
        refused_before_loading(tmp_path, capsys, monkeypatch, command, line, {field: value})

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "field, value, line",
        [
            ("hidden", 8, "hidden must be a list of integers, got 8"),
            ("seeds", [1.5, 2], "seed in seeds must be an integer, got 1.5"),
            ("seeds", [True], "seed in seeds must be an integer, got True"),
            ("seeds", [-1], "seed in seeds must be >= 0, got -1"),
        ],
    )
    def test_malformed_hidden_or_seeds_is_one_error(self, tmp_path, capsys, monkeypatch, command, field, value, line):
        # a float seed failed in make_splits after sweep had made its
        # directory; seed True wrote a row no later run could read; seed -1
        # failed in numpy once the dataset had loaded
        refused_before_loading(tmp_path, capsys, monkeypatch, command, line, {field: value})

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "field, value, line",
        [
            (
                "split_fractions",
                [0.25, 0.25, 0.25, 0.25],
                "split_fractions must be a list of three numbers, got [0.25, 0.25, 0.25, 0.25]",
            ),
            ("standardize", "no", "standardize must be true or false, got 'no'"),
            ("lambda_s", "1.0", "lambda_smooth must be a number, got '1.0'"),
            ("weight_decay", None, "weight_decay must be a number, got None"),
        ],
    )
    def test_malformed_run_field_is_one_error(self, tmp_path, capsys, monkeypatch, command, field, value, line):
        # four fractions trained with the fourth ignored, "no" trained
        # standardized, and "1.0" or null failed in a range comparison
        refused_before_loading(tmp_path, capsys, monkeypatch, command, line, {field: value})

    @pytest.mark.parametrize("key", ["lambda_s", "lambda_f"])
    @pytest.mark.parametrize("value", ["abc", None, True])
    def test_grid_value_that_is_not_a_number_is_one_line(self, tmp_path, capsys, monkeypatch, key, value):
        # "abc" and null failed inside float() with Python's own line, and
        # true trained at 1.0 and printed lambda_s=1.0
        line = f"grid file {tmp_path / 'grid.json'} needs numbers under {key!r}, got {value!r}"
        refused_before_loading(tmp_path, capsys, monkeypatch, "sweep", line, {}, {key: [1.0, value]})

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "dataset, line",
        [
            (
                {"node_csv": "nodes.csv", "schema": NODE_SCHEMA},
                "dataset entry lacks 'edges'",
            ),
            (
                {"synth": SYNTH_DOC, "node_csv": "nodes.csv"},
                "dataset entry holds 'node_csv' beside 'synth'",
            ),
            (
                {"node_csv": "n.csv", "edges": "e.txt", "schema": {"id": "id", "sensitive": "s", "label": "y"}},
                "dataset schema lacks 'sensitive_pos_value'",
            ),
            ({"synth": dict(SYNTH_DOC, group_frac=2.0)}, "group_frac must be in (0, 1), got 2.0"),
        ],
    )
    def test_malformed_dataset_entry_is_one_error(self, tmp_path, capsys, monkeypatch, command, dataset, line):
        # a missing key failed with a bare KeyError ('edges'), after sweep had
        # made its directory; synth beside node_csv trained on the synthetic
        # graph, and group_frac 2.0 silently drew n - 1 positive nodes
        refused_before_loading(tmp_path, capsys, monkeypatch, command, line, {"dataset": dataset})

    def test_empty_dataset_entry_is_one_error(self, tmp_path, capsys, monkeypatch):
        # it failed with a bare KeyError: 'node_csv'
        import fairprop.cli as cli

        cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path, dataset={}))
        monkeypatch.setattr("sys.argv", ["fairprop", "train", "--config", cfg])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset entry is empty: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_sweep_on_an_empty_dataset_entry_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # sweep made its out_dir before the dataset loaded, and left it empty
        import fairprop.cli as cli

        cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path, dataset={}))
        grid = write_json(tmp_path / "grid.json", {"lambda_s": [1.0], "lambda_f": [0.0]})
        monkeypatch.setattr("sys.argv", ["fairprop", "sweep", "--config", cfg, "--grid", grid])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset entry is empty: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc, line",
        [
            ({"n": 50, "nodes": 3}, "has unknown key 'nodes'"),
            ([50, 3], "must be an object, got [50, 3]"),
        ],
    )
    def test_malformed_synth_config_is_one_line(self, tmp_path, capsys, monkeypatch, doc, line):
        # the file went to SynthConfig(**doc) as it was, which printed Python's
        # own line: an unexpected keyword argument, or ** of a list
        import fairprop.cli as cli

        path = write_json(tmp_path / "synth.json", doc)
        monkeypatch.setattr("sys.argv", ["fairprop", "synth", "--config", path, "--out", str(tmp_path / "data")])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"error: synth config {path} {line}\n"
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "command, cut, what",
        [
            ("train", "config", "config"),
            ("sweep", "config", "config"),
            ("sweep", "grid", "grid file"),
            ("eval", "config", "config"),
            ("synth", "config", "synth config"),
        ],
    )
    def test_cut_short_json_names_the_file(self, tmp_path, capsys, monkeypatch, command, cut, what):
        # json's own message named no file: "Expecting property name enclosed
        # in double quotes: line 1 column 14 (char 13)"
        import fairprop.cli as cli

        files = {"config": tmp_path / "run.json", "grid": tmp_path / "grid.json", "cut": tmp_path / "cut.json"}
        write_json(files["config"], SYNTH_DOC if command == "synth" else run_config_doc(tmp_path))
        write_json(files["grid"], {"lambda_s": [1.0], "lambda_f": [0.0]})
        files["cut"].write_text(files[cut].read_text()[:13])
        paths = dict({key: str(path) for key, path in files.items()}, **{cut: str(files["cut"])})
        args = {
            "train": ["--config", paths["config"]],
            "sweep": ["--config", paths["config"], "--grid", paths["grid"]],
            "eval": ["--checkpoint", paths["grid"], "--config", paths["config"]],
            "synth": ["--config", paths["config"], "--out", str(tmp_path / "data")],
        }[command]
        monkeypatch.setattr("sys.argv", ["fairprop", command, *args])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} {paths[cut]}: not a JSON object (") and err.count("\n") == 1
        assert not (tmp_path / "out").exists() and not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_config_that_is_not_an_object_is_one_line(self, tmp_path, capsys, monkeypatch, command):
        # a list read as field names ("unknown config fields: [1, 2]"), and
        # with FAIRPROP_OUT_DIR set failed inside Python ("list indices must
        # be integers or slices, not str")
        import fairprop.cli as cli

        cfg = write_json(tmp_path / "run.json", [1, 2])
        grid = write_json(tmp_path / "grid.json", {"lambda_s": [1.0], "lambda_f": [0.0]})
        args = ["--config", cfg] + (["--grid", grid] if command == "sweep" else [])
        monkeypatch.setenv("FAIRPROP_OUT_DIR", str(tmp_path / "out"))
        monkeypatch.setattr("sys.argv", ["fairprop", command, *args])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"error: config {cfg} must be an object, got [1, 2]\n"
        assert not (tmp_path / "out").exists()

    def test_empty_node_csv_names_the_file(self, tmp_path, capsys, monkeypatch):
        import fairprop.cli as cli

        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.txt"
        nodes.write_text("")
        edges.write_text("0 1\n")
        dataset = {"node_csv": str(nodes), "edges": str(edges), "schema": NODE_SCHEMA}
        cfg = write_json(tmp_path / "run.json", run_config_doc(tmp_path, dataset=dataset))
        monkeypatch.setattr("sys.argv", ["fairprop", "train", "--config", cfg])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and str(nodes) in err and "\n" not in err
