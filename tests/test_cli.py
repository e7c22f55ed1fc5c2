"""End-to-end command-line flows run through fresh interpreter processes."""
from __future__ import annotations

import errno
import hashlib
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from hierknn import FeatureBank, bank_load, bank_save, default_taxonomy
from conftest import SMALL_CONFIG, bank_from_arrays, run_cli as run, unit_rows


def assert_usage_error(proc):
    """Exit 1 with argparse's usage line and error message, not a crash.

    Exit code 1 alone also matches a child that could not import hierknn
    or died on an uncaught exception, so stderr is checked as well.
    """
    assert proc.returncode == 1
    assert "usage:" in proc.stderr, proc.stderr
    assert "error:" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def make_synth(cwd, bank="bank.hbnk", queries="q.jsonl", seed_line=None, extra=()):
    text = SMALL_CONFIG if seed_line is None else SMALL_CONFIG.replace("seed = 5", seed_line)
    (cwd / "synth.cfg").write_text(text, encoding="utf-8")
    proc = run(["synth", "--config", "synth.cfg", "--out", bank, "--queries", queries, *extra], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestBasics:
    def test_version_flag(self, tmp_path):
        proc = run(["--version"], tmp_path)
        assert proc.returncode == 0
        assert "hierknn" in proc.stdout

    def test_unknown_command_is_usage_error(self, tmp_path):
        proc = run(["frobnicate"], tmp_path)
        assert_usage_error(proc)

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        proc = run(["classify", "--bank", "b"], tmp_path)
        assert_usage_error(proc)

    def test_taxonomy_validate_prints_digest(self, tmp_path):
        proc = run(["taxonomy", "validate"], tmp_path)
        assert proc.returncode == 0
        assert "digest:" in proc.stdout
        assert "level 3: 13 nodes" in proc.stdout
        assert proc.stdout.strip().endswith("ok")


class TestBankCommands:
    def test_build_info_merge(self, tmp_path):
        """Build two small banks, inspect one, and merge them."""
        lines_a = [
            json.dumps({"id": "a0", "label": "BL", "vector": [1.0, 0.0, 0.0, 0.0]}),
            json.dumps({"id": "a1", "label": "LY", "vector": [0.0, 1.0, 0.0, 0.0]}),
        ]
        lines_b = [
            json.dumps({"id": "b0", "label": "SNE", "vector": [0.0, 0.0, 1.0, 0.0]}),
        ]
        (tmp_path / "a.jsonl").write_text("\n".join(lines_a) + "\n", encoding="utf-8")
        (tmp_path / "b.jsonl").write_text("\n".join(lines_b) + "\n", encoding="utf-8")

        assert run(["bank", "build", "--manifest", "a.jsonl", "--out", "a.hbnk"], tmp_path).returncode == 0
        assert run(["bank", "build", "--manifest", "b.jsonl", "--out", "b.hbnk"], tmp_path).returncode == 0

        info = run(["bank", "info", "a.hbnk"], tmp_path)
        assert info.returncode == 0
        assert "dim: 4" in info.stdout
        assert "entries: 2" in info.stdout
        assert "taxonomy digest:" in info.stdout
        assert "BL: 1" in info.stdout

        merged = run(["bank", "merge", "a.hbnk", "b.hbnk", "--out", "m.hbnk"], tmp_path)
        assert merged.returncode == 0
        info2 = run(["bank", "info", "m.hbnk"], tmp_path)
        assert "entries: 3" in info2.stdout

    def test_duplicate_id_merge_is_data_error(self, tmp_path):
        line = json.dumps({"id": "dup", "label": "BL", "vector": [1.0, 0.0]})
        (tmp_path / "a.jsonl").write_text(line + "\n", encoding="utf-8")
        run(["bank", "build", "--manifest", "a.jsonl", "--out", "a.hbnk"], tmp_path)
        proc = run(["bank", "merge", "a.hbnk", "a.hbnk", "--out", "m.hbnk"], tmp_path)
        assert proc.returncode == 2
        assert "duplicate id" in proc.stderr


class TestClassifyAndEvaluate:
    def test_full_flow(self, tmp_path):
        """synth -> classify -> evaluate produces a scored report."""
        make_synth(tmp_path)
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                    "--out", "preds.jsonl", "--k", "5"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        preds = [json.loads(l) for l in (tmp_path / "preds.jsonl").read_text().splitlines()]
        queries = [json.loads(l) for l in (tmp_path / "q.jsonl").read_text().splitlines()]
        assert [p["id"] for p in preds] == [q["id"] for q in queries]
        assert all({"y1", "y2", "y3", "fallback"} <= set(p) for p in preds)

        ev = run(["evaluate", "--preds", "preds.jsonl", "--truth", "q.jsonl",
                  "--report", "report.json", "--cm", "cm.csv"], tmp_path)
        assert ev.returncode == 0, ev.stderr
        assert "macro_f1:" in ev.stdout
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_samples"] == len(queries)
        assert 0.0 <= report["macro_f1"] <= 1.0
        assert len(report["classes"]) == 13
        cm_lines = (tmp_path / "cm.csv").read_text().splitlines()
        assert len(cm_lines) == 14 and cm_lines[0].startswith("true,")

    def test_evaluate_keeps_no_vectors(self, tmp_path, monkeypatch, capsys):
        """evaluate keeps only each record's id and leaf name: over a truth file
        of 2,000 records with 256-float vectors, its traced peak stays below the
        float64 size of those vectors."""
        import hierknn.cli

        rng = np.random.default_rng(9)
        names = default_taxonomy().names(3)
        with open(tmp_path / "t.jsonl", "w", encoding="utf-8") as truth, \
                open(tmp_path / "p.jsonl", "w", encoding="utf-8") as preds:
            for i in range(2000):
                leaf = names[i % len(names)]
                truth.write(json.dumps({"id": f"q{i}", "label": leaf,
                                        "vector": rng.standard_normal(256).tolist()}) + "\n")
                preds.write(json.dumps({"id": f"q{i}", "y3": leaf}) + "\n")
        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code = hierknn.cli.main(["evaluate", "--preds", "p.jsonl", "--truth", "t.jsonl"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == "macro_f1: 1.0 over 2000 samples\n"
        assert peak < 2000 * 256 * 8, peak

    def test_empty_truth_file_is_named(self, tmp_path):
        """No macro F1 over zero records: exit 2 naming the truth file, and no
        report or manifest. A prediction without a truth record is named first."""
        (tmp_path / "empty.jsonl").write_text("\n", encoding="utf-8")
        proc = run(["evaluate", "--preds", "empty.jsonl", "--truth", "empty.jsonl",
                    "--report", "r.json", "--cm", "cm.csv"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error: empty.jsonl: no truth records to score" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl"]

        (tmp_path / "p.jsonl").write_text(json.dumps({"id": "q0", "y3": "BL"}) + "\n",
                                          encoding="utf-8")
        proc = run(["evaluate", "--preds", "p.jsonl", "--truth", "empty.jsonl"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error: prediction id 'q0' has no truth record" in proc.stderr

    def test_flat_flag_changes_only_method(self, tmp_path):
        make_synth(tmp_path)
        a = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                 "--out", "h.jsonl"], tmp_path)
        b = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                 "--out", "f.jsonl", "--flat"], tmp_path)
        assert a.returncode == 0 and b.returncode == 0
        flat = [json.loads(l) for l in (tmp_path / "f.jsonl").read_text().splitlines()]
        assert all(p["fallback"] == [False, False, False] for p in flat)

    def test_dim_mismatch_is_data_error(self, tmp_path):
        make_synth(tmp_path)
        bad = json.dumps({"id": "q0", "vector": [1.0, 0.0]})
        (tmp_path / "bad.jsonl").write_text(bad + "\n", encoding="utf-8")
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "bad.jsonl",
                    "--out", "p.jsonl"], tmp_path)
        assert proc.returncode == 2
        assert "dim mismatch" in proc.stderr


class TestEnsembleCommand:
    def test_two_member_vote(self, tmp_path):
        make_synth(tmp_path, bank="m0.hbnk", queries="q.jsonl")
        make_synth(tmp_path, bank="m1.hbnk", queries="q1.jsonl", seed_line="seed = 6")
        proc = run(["ensemble", "--banks", "m0.hbnk,m1.hbnk", "--queries", "q.jsonl",
                    "--out", "e.jsonl", "--k", "5"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        preds = [json.loads(l) for l in (tmp_path / "e.jsonl").read_text().splitlines()]
        queries = (tmp_path / "q.jsonl").read_text().splitlines()
        assert len(preds) == len(queries)
        assert all("label" in p for p in preds)


class TestAblateCommand:
    def test_member_count_grid_shape(self, tmp_path):
        """Synthetic mode with 7 members emits a header plus 7 grid rows."""
        proc = run(["ablate", "--banks", "7", "--k", "7", "--out", "grid.csv"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "members,without_hierarchy_mf1,with_hierarchy_mf1"
        assert len(lines) == 8
        members = [int(l.split(",")[0]) for l in lines[1:]]
        assert members == [1, 2, 3, 4, 5, 6, 7]
        for line in lines[1:]:
            _, flat_mf1, hier_mf1 = line.split(",")
            assert 0.0 <= float(flat_mf1) <= 1.0
            assert 0.0 <= float(hier_mf1) <= 1.0

    def test_bank_file_mode_requires_queries(self, tmp_path):
        make_synth(tmp_path)
        proc = run(["ablate", "--banks", "bank.hbnk", "--out", "g.csv"], tmp_path)
        assert_usage_error(proc)

    def test_bank_file_mode_rejects_member_count_flags(self, tmp_path):
        """Flags that only shape generated members are a usage error with saved banks."""
        make_synth(tmp_path)
        base = ["ablate", "--banks", "bank.hbnk,bank.hbnk", "--queries", "q.jsonl", "--out", "g.csv"]
        for extra in (["--rot", "0.5", "--config", "nonexist.cfg"], ["--bias", "0.2"],
                      ["--noise", "0.1"], ["--shift-seed", "3"]):
            proc = run(base + extra, tmp_path)
            assert_usage_error(proc)
            for flag in extra[::2]:
                assert flag in proc.stderr, proc.stderr
            assert not (tmp_path / "g.csv").exists()

    def test_bank_file_mode_rejects_an_empty_query_set(self, tmp_path):
        """No macro F1 over zero queries: exit 2 naming the file, and no grid."""
        make_synth(tmp_path)
        (tmp_path / "empty.jsonl").write_text("\n", encoding="utf-8")
        proc = run(["ablate", "--banks", "bank.hbnk", "--queries", "empty.jsonl",
                    "--out", "g.csv"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error: empty.jsonl: no queries to score" in proc.stderr
        assert not (tmp_path / "g.csv").exists()

    def test_bank_file_mode_scores_saved_banks(self, tmp_path):
        make_synth(tmp_path, bank="m0.hbnk", queries="q.jsonl")
        make_synth(tmp_path, bank="m1.hbnk", queries="q1.jsonl", seed_line="seed = 6")
        proc = run(["ablate", "--banks", "m0.hbnk,m1.hbnk", "--queries", "q.jsonl",
                    "--k", "5", "--out", "g.csv"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert len(lines) == 3


class TestSynthCommand:
    def test_outputs_and_shift_flags(self, tmp_path):
        make_synth(tmp_path)
        queries = [json.loads(l) for l in (tmp_path / "q.jsonl").read_text().splitlines()]
        assert all({"id", "label", "vector"} <= set(q) for q in queries)
        info = run(["bank", "info", "bank.hbnk"], tmp_path)
        assert info.returncode == 0, info.stderr
        assert "dim: 8" in info.stdout

        make_synth(tmp_path, bank="b2.hbnk", queries="q2.jsonl",
                   extra=["--rot", "0.3", "--noise", "0.1", "--shift-seed", "1"])
        shifted = [json.loads(l) for l in (tmp_path / "q2.jsonl").read_text().splitlines()]
        assert shifted[0]["vector"] != queries[0]["vector"]
        assert [s["label"] for s in shifted] == [q["label"] for q in queries]


class TestTrainToyCommand:
    def test_trace_csv(self, tmp_path):
        proc = run(["traintoy", "--epochs", "8", "--per-class", "12", "--out", "trace.csv"],
                   tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,dino_loss,sup_loss,total_loss,eval_mf1"
        assert len(lines) == 9

    def test_non_finite_loss_setting_rejected(self, tmp_path):
        """A non-finite weight, temperature, dataset setting or step size exits 2
        naming the field, before training starts: no numpy warning, no trace,
        and no manifest that JSON could not read."""
        for flag, value, field in (("--tau-t", "inf", "tau_teacher"),
                                   ("--tau-s", "inf", "tau_student"),
                                   ("--lambda-dino", "nan", "lambda_dino"),
                                   ("--lambda-sup", "inf", "lambda_sup"),
                                   ("--separation", "inf", "separation"),
                                   ("--view-sigma", "nan", "view_sigma"),
                                   ("--lr", "inf", "lr")):
            proc = run(["traintoy", flag, value, "--out", "t.csv"], tmp_path)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == f"error: {field} must be finite, got {value}\n", proc.stderr
            assert not (tmp_path / "t.csv").exists()
            assert not (tmp_path / "t.csv.manifest.json").exists()

    @pytest.mark.parametrize("flag, value", [("--tau-s", "1e-300"), ("--separation", "1e200"),
                                             ("--lambda-dino", "1e308")])
    def test_diverging_run_prints_only_its_error(self, tmp_path, flag, value):
        """A run whose loss stops being finite exits 2 with one line on stderr:
        no numpy warning, with its source line, comes before it."""
        proc = run(["traintoy", flag, value, "--out", "t.csv"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: training diverged at epoch 2 (loss=nan, lr=0.1)\n"
        assert not (tmp_path / "t.csv").exists()


class TestGradCheckCommand:
    def test_reports_three_losses(self, tmp_path):
        proc = run(["grad-check", "--trials", "5", "--out", "gc.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        worst = json.loads((tmp_path / "gc.json").read_text())
        assert set(worst) >= {"dino", "balanced_ce", "total"}
        assert all(v < 1e-4 for v in worst.values())

    @pytest.mark.gate
    def test_two_runs_write_identical_bytes(self, tmp_path):
        """Two fresh-process runs with one seed print and write the same bytes,
        manifest included."""
        procs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            procs.append(run(["grad-check", "--seed", "9", "--trials", "20", "--out", "gc.json"],
                             tmp_path / name))
            assert procs[-1].returncode == 0, procs[-1].stderr
        assert procs[0].stdout == procs[1].stdout
        for out in ("gc.json", "gc.json.manifest.json"):
            assert (tmp_path / "a" / out).read_bytes() == (tmp_path / "b" / out).read_bytes(), out


class TestRunManifests:
    def test_manifest_records_inputs_and_flags(self, tmp_path):
        make_synth(tmp_path)
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                    "--out", "p.jsonl", "--k", "3"], tmp_path)
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "p.jsonl.manifest.json").read_text())
        assert doc["command"] == "classify"
        assert doc["flags"]["k"] == 3
        digest = hashlib.sha256((tmp_path / "bank.hbnk").read_bytes()).hexdigest()
        assert doc["inputs"]["bank.hbnk"] == digest
        assert "timestamp" not in json.dumps(doc)

    def test_piped_input_digest_is_of_the_bytes_read(self, tmp_path):
        """A bank read from a pipe is hashed as it is read: the pipe is empty afterwards."""
        make_synth(tmp_path)
        data = (tmp_path / "bank.hbnk").read_bytes()
        assert len(data) < 16384  # fits a pipe buffer, so one write cannot block
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            proc = run(["classify", "--bank", "/dev/stdin", "--queries", "q.jsonl",
                        "--out", "p.jsonl"], tmp_path, stdin=read_end)
        finally:
            os.close(read_end)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "p.jsonl.manifest.json").read_text())
        assert doc["inputs"]["/dev/stdin"] == hashlib.sha256(data).hexdigest()
        queries = (tmp_path / "q.jsonl").read_bytes()
        assert doc["inputs"]["q.jsonl"] == hashlib.sha256(queries).hexdigest()

    def test_bank_over_64_kib_through_a_pipe(self, tmp_path):
        """The stock synth bank, over the 64 KiB a pipe's first read buffer
        holds, is fed to an OS pipe by a writer thread: ``bank_load`` gives
        the file-mode bank, and ``classify --bank /dev/stdin`` the file-mode
        predictions and the digest of every byte."""
        synth = run(["synth", "--out", "bank.hbnk", "--queries", "q.jsonl"], tmp_path)
        assert synth.returncode == 0, synth.stderr
        data = (tmp_path / "bank.hbnk").read_bytes()
        assert len(data) > 1 << 16

        def through_a_pipe(consume):
            read_end, write_end = os.pipe()

            def write():
                with open(write_end, "wb") as sink:
                    sink.write(data)

            writer = threading.Thread(target=write)
            writer.start()
            try:
                with open(read_end, "rb") as source:
                    return consume(source)
            finally:
                writer.join(timeout=60)
                assert not writer.is_alive()

        tax = default_taxonomy()
        with open(tmp_path / "bank.hbnk", "rb") as fh:
            from_file = bank_load(fh, tax)
        from_pipe = through_a_pipe(lambda source: bank_load(source, tax))
        for column in ("id_offsets", "id_blob", "labels", "vectors"):
            assert getattr(from_pipe, column).tobytes() == getattr(from_file, column).tobytes()
        classify = ["classify", "--queries", "q.jsonl", "--bank"]
        assert run([*classify, "bank.hbnk", "--out", "f.jsonl"], tmp_path).returncode == 0
        proc = through_a_pipe(
            lambda source: run([*classify, "/dev/stdin", "--out", "p.jsonl"], tmp_path, stdin=source))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "p.jsonl").read_bytes() == (tmp_path / "f.jsonl").read_bytes()
        doc = json.loads((tmp_path / "p.jsonl.manifest.json").read_text())
        assert doc["inputs"]["/dev/stdin"] == hashlib.sha256(data).hexdigest()

    def test_input_digest_covers_unread_bytes(self, tmp_path):
        """An input the command stops reading early is still hashed whole."""
        from hierknn.cli import _Files

        path = tmp_path / "in.bin"
        path.write_bytes(bytes(range(256)) * 1000)
        files = _Files()
        with files.open(str(path), "rb") as fh:
            assert fh.read(10) == bytes(range(10))
        assert files.inputs == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


class TestBadInputs:
    """Invalid data exits 2 naming the record, with no traceback and no output."""

    @staticmethod
    def assert_data_error(proc, needle, out):
        assert proc.returncode == 2, proc.stderr
        assert needle in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("vector, qid", [
        ([float("nan")] * 8, "all-nan"),
        ([0.0] * 8, "all-zero"),
        ([1.0] * 7 + [float("inf")], "has-inf"),
        ({"a": 1}, "dict-vector"),
        ("abc", "string-vector"),
        (["x"] + [1.0] * 7, "string-entry"),
        ([True] + [1.0] * 7, "bool-entry"),
        (["1.5"] + [1.0] * 7, "numeric-string-entry"),
    ])
    def test_unusable_query_vectors(self, tmp_path, vector, qid):
        make_synth(tmp_path)
        good = (tmp_path / "q.jsonl").read_text().splitlines()[0]
        bad = json.dumps({"id": qid, "label": "BL", "vector": vector})
        (tmp_path / "bad.jsonl").write_text(good + "\n" + bad + "\n", encoding="utf-8")
        for args, out in (
            (["classify", "--bank", "bank.hbnk"], "p.jsonl"),
            (["classify", "--bank", "bank.hbnk", "--flat"], "pf.jsonl"),
            (["ensemble", "--banks", "bank.hbnk,bank.hbnk"], "e.jsonl"),
            (["ablate", "--banks", "bank.hbnk"], "g.csv"),
        ):
            proc = run([*args, "--queries", "bad.jsonl", "--out", out], tmp_path)
            self.assert_data_error(proc, repr(qid), tmp_path / out)

    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "line 8: seed must be >= 0, got '-1'"),
        ("noise_sigma = nan", "line 8: noise_sigma must be finite, got 'nan'"),
        ("lineage_separation = inf", "line 8: lineage_separation must be finite, got 'inf'"),
        ("dim = 3", "line 8: dim must be >= 4, got '3'"),
        ("noise_sigma = -1", "line 8: noise_sigma must be positive, got '-1.0'"),
        ("leaf_separation = 9",
         "line 8: need lineage_separation > leaf_separation > 0, got '3.0' and '9.0'"),
        ("lineage_separation = 1",  # leaf_separation, the other key, is on line 5
         "line 8: need lineage_separation > leaf_separation > 0, got '1.0' and '1.4'"),
    ], ids=["negative-seed", "nan-noise", "inf-separation", "small-dim", "negative-noise",
            "leaf-above-lineage", "lineage-below-leaf"])
    def test_out_of_range_synth_config_names_key_and_line(self, tmp_path, line, message):
        (tmp_path / "synth.cfg").write_text(SMALL_CONFIG + line + "\n", encoding="utf-8")
        proc = run(["synth", "--config", "synth.cfg", "--out", "b.hbnk", "--queries", "q.jsonl"],
                   tmp_path)
        self.assert_data_error(proc, f"error: {message}\n", tmp_path / "b.hbnk")

    def classify_then_edit(self, tmp_path, edit):
        """Predictions for the synth queries with edit(predictions) applied."""
        make_synth(tmp_path)
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                    "--out", "p.jsonl"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        preds = [json.loads(l) for l in (tmp_path / "p.jsonl").read_text().splitlines()]
        lines = [json.dumps(p) for p in edit(preds)]
        (tmp_path / "p.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return preds

    def test_repeated_prediction_id(self, tmp_path):
        """A prediction id that repeats is rejected, not silently overwritten."""
        preds = self.classify_then_edit(tmp_path, lambda p: p + [dict(p[0], y3="BL")])
        proc = run(["evaluate", "--preds", "p.jsonl", "--truth", "q.jsonl",
                    "--report", "r.json"], tmp_path)
        self.assert_data_error(proc, f"duplicate prediction id {preds[0]['id']!r}",
                               tmp_path / "r.json")

    def test_repeated_truth_id(self, tmp_path):
        """A truth id that repeats is rejected, not scored twice."""
        self.classify_then_edit(tmp_path, lambda p: p)
        truth = tmp_path / "q.jsonl"
        lines = truth.read_text().splitlines()
        truth.write_text("\n".join(lines + lines[:50]) + "\n", encoding="utf-8")
        proc = run(["evaluate", "--preds", "p.jsonl", "--truth", "q.jsonl",
                    "--report", "r.json"], tmp_path)
        self.assert_data_error(proc, f"duplicate truth id {json.loads(lines[0])['id']!r}",
                               tmp_path / "r.json")
        assert "macro_f1" not in proc.stdout

    def test_prediction_without_truth_record(self, tmp_path):
        """A prediction whose id the truth lacks is rejected, not left out of the score."""
        preds = self.classify_then_edit(tmp_path, lambda p: p)
        truth = tmp_path / "q.jsonl"
        truth.write_text("\n".join(truth.read_text().splitlines()[:10]) + "\n",
                         encoding="utf-8")
        proc = run(["evaluate", "--preds", "p.jsonl", "--truth", "q.jsonl",
                    "--report", "r.json"], tmp_path)
        self.assert_data_error(proc, f"prediction id {preds[10]['id']!r} has no truth record",
                               tmp_path / "r.json")
        assert "macro_f1" not in proc.stdout

    def test_non_string_leaf_in_predictions(self, tmp_path):
        preds = self.classify_then_edit(tmp_path, lambda p: [dict(p[0], y3=["BL"])] + p[1:])
        proc = run(["evaluate", "--preds", "p.jsonl", "--truth", "q.jsonl",
                    "--report", "r.json"], tmp_path)
        self.assert_data_error(proc, repr(preds[0]["id"]), tmp_path / "r.json")

    @pytest.mark.parametrize("field", ["y3", "label"])
    def test_unknown_leaf_in_predictions_and_truth(self, tmp_path, field):
        """An unknown leaf names its record, in the predictions and in the truth."""
        preds = self.classify_then_edit(tmp_path, lambda p: p)
        path = tmp_path / ("p.jsonl" if field == "y3" else "q.jsonl")
        records = [json.loads(l) for l in path.read_text().splitlines()]
        records[1][field] = "ZZ"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        proc = run(["evaluate", "--preds", "p.jsonl", "--truth", "q.jsonl",
                    "--report", "r.json"], tmp_path)
        self.assert_data_error(proc, f"record {preds[1]['id']!r}: unknown leaf 'ZZ'",
                               tmp_path / "r.json")

    def test_unknown_leaf_in_ablate_queries(self, tmp_path):
        make_synth(tmp_path)
        records = [json.loads(l) for l in (tmp_path / "q.jsonl").read_text().splitlines()]
        records[2]["label"] = "ZZ"
        lines = "".join(json.dumps(r) + "\n" for r in records)
        (tmp_path / "bad.jsonl").write_text(lines, encoding="utf-8")
        proc = run(["ablate", "--banks", "bank.hbnk,bank.hbnk", "--queries", "bad.jsonl",
                    "--out", "g.csv"], tmp_path)
        self.assert_data_error(proc, f"record {records[2]['id']!r}: unknown leaf 'ZZ'",
                               tmp_path / "g.csv")

    @pytest.mark.parametrize("args, bad", [
        (["taxonomy", "validate", "--config", "bad.txt"], "bad.txt"),
        (["synth", "--config", "bad.cfg", "--out", "out", "--queries", "out.jsonl"], "bad.cfg"),
        (["classify", "--bank", "bank.hbnk", "--queries", "bad.jsonl", "--out", "out"],
         "bad.jsonl"),
    ])
    def test_non_utf8_input_names_the_file(self, tmp_path, args, bad):
        """A taxonomy, synth config or query file that is not UTF-8 is named."""
        make_synth(tmp_path)
        (tmp_path / bad).write_bytes(b"\xff\xfe not utf-8\n")
        proc = run(args, tmp_path)
        self.assert_data_error(proc, f"error: {bad}: not UTF-8 text", tmp_path / "out")

    def test_non_utf8_query_line_names_line_and_byte(self, tmp_path):
        """A regular file's first byte that is not UTF-8 is named by line and offset."""
        make_synth(tmp_path)
        lines = (tmp_path / "q.jsonl").read_bytes().splitlines(keepends=True)
        bad = lines[2].replace(b'"id": "', b'"id": "\xff', 1)
        (tmp_path / "bad.jsonl").write_bytes(lines[0] + lines[1] + bad + lines[3])
        offset = len(lines[0]) + len(lines[1]) + bad.index(b"\xff")
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "bad.jsonl",
                    "--out", "out"], tmp_path)
        self.assert_data_error(
            proc, f"error: bad.jsonl: not UTF-8 text (line 3, byte {offset})\n",
            tmp_path / "out")

    @staticmethod
    def bank_bytes(tmp_path):
        """The synth bank's bytes."""
        make_synth(tmp_path)
        return bytearray((tmp_path / "bank.hbnk").read_bytes())

    @staticmethod
    def run_on_a_pipe(args, tmp_path, data):
        """Run ``args``, which read a bank from /dev/stdin, with ``data`` in an OS pipe."""
        assert len(data) < 16384  # fits a pipe buffer, so one write cannot block
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, bytes(data))
            os.close(write_end)
            return run(args, tmp_path, stdin=read_end)
        finally:
            os.close(read_end)

    def test_oversized_v2_bank_header(self, tmp_path):
        data = self.bank_bytes(tmp_path)
        data[12:20] = (2**40).to_bytes(8, "little")
        (tmp_path / "huge.hbnk").write_bytes(bytes(data))
        info = run(["bank", "info", "huge.hbnk"], tmp_path)
        assert info.returncode == 2 and str(2**40) in info.stderr, info.stderr
        assert "Traceback" not in info.stderr
        proc = run(["classify", "--bank", "huge.hbnk", "--queries", "q.jsonl",
                    "--out", "p.jsonl"], tmp_path)
        self.assert_data_error(proc, str(2**40), tmp_path / "p.jsonl")

    def test_oversized_v2_bank_header_through_a_pipe(self, tmp_path):
        """A pipe is read to its end, and the header's count is checked
        against the bytes read: a truncated stream, and a data error."""
        data = self.bank_bytes(tmp_path)
        data[12:20] = (2**40).to_bytes(8, "little")
        info = self.run_on_a_pipe(["bank", "info", "/dev/stdin"], tmp_path, data)
        assert info.returncode == 2, info.stderr
        assert "truncated" in info.stderr, info.stderr
        assert "Traceback" not in info.stderr, info.stderr

    def test_invalid_utf8_v2_bank_id(self, tmp_path):
        data = self.bank_bytes(tmp_path)
        # the id blob, after the 60-byte header and count + 1 u64 offsets
        offset = 60 + 8 * (int.from_bytes(data[12:20], "little") + 1)
        data[offset] = 0xFF
        (tmp_path / "badid.hbnk").write_bytes(bytes(data))
        info = run(["bank", "info", "badid.hbnk"], tmp_path)
        assert info.returncode == 2, info.stderr
        assert f"entry 0: id at byte {offset} is not valid UTF-8" in info.stderr, info.stderr
        assert "Traceback" not in info.stderr, info.stderr
        proc = run(["classify", "--bank", "badid.hbnk", "--queries", "q.jsonl",
                    "--out", "p.jsonl"], tmp_path)
        self.assert_data_error(proc, "entry 0", tmp_path / "p.jsonl")

    def test_version_1_bank_rejected_by_name(self, tmp_path):
        """A version-1 header, on the fixture bank's body or as a 52-byte
        empty v1 bank, makes ``bank info`` and ``classify`` exit 2 naming the
        version and the rebuild, from a file or a pipe, and write nothing."""
        data = self.bank_bytes(tmp_path)
        data[4:8] = (1).to_bytes(4, "little")
        empty = data[:12] + bytes(8) + data[20:52]  # count 0, and no entries
        classify = ["classify", "--queries", "q.jsonl", "--out", "p.jsonl", "--bank"]
        for v1 in (data, empty):
            (tmp_path / "v1.hbnk").write_bytes(bytes(v1))
            for name, proc in (
                ("v1.hbnk", run(["bank", "info", "v1.hbnk"], tmp_path)),
                ("/dev/stdin", self.run_on_a_pipe(["bank", "info", "/dev/stdin"], tmp_path, v1)),
                ("v1.hbnk", run([*classify, "v1.hbnk"], tmp_path)),
                ("/dev/stdin", self.run_on_a_pipe([*classify, "/dev/stdin"], tmp_path, v1)),
            ):
                self.assert_data_error(proc, f"error: {name}: version 1 bank",
                                       tmp_path / "p.jsonl")
                assert "rebuild it with 'bank build' or 'synth'" in proc.stderr, proc.stderr
                assert "truncated" not in proc.stderr, proc.stderr

    def test_bad_member_bank_named_alike_by_ensemble_and_ablate(self, tmp_path, tax):
        """An empty member, one of another dim and one with a version-1 header
        make ``ensemble`` and file-mode ``ablate`` exit 2 with one message
        that names the member's file, and write nothing; ``classify`` on the
        empty or the version-1 bank alone prints the same message."""
        data = self.bank_bytes(tmp_path)
        data[4:8] = (1).to_bytes(4, "little")
        (tmp_path / "v1.hbnk").write_bytes(bytes(data))
        rng = np.random.default_rng(0)
        for name, bank in (("empty.hbnk", FeatureBank.empty(8, tax.digest)),
                           ("wide.hbnk", bank_from_arrays(tax, unit_rows(rng, 3, 12), [0, 1, 2]))):
            with open(tmp_path / name, "wb") as fh:
                bank_save(bank, fh)
        for bad, why in (("empty.hbnk", "empty bank"), ("wide.hbnk", "dim mismatch (12 vs 8)"),
                         ("v1.hbnk", "version 1 bank")):
            runs = {out: run([cmd, "--banks", f"bank.hbnk,{bad}", "--queries", "q.jsonl",
                              "--out", out], tmp_path)
                    for cmd, out in (("ensemble", "e.jsonl"), ("ablate", "g.csv"))}
            if bad != "wide.hbnk":  # alone, a dim-12 bank mismatches no other bank
                runs["p.jsonl"] = run(["classify", "--bank", bad, "--queries", "q.jsonl",
                                       "--out", "p.jsonl"], tmp_path)
            for out, proc in runs.items():
                self.assert_data_error(proc, f"error: {bad}: {why}", tmp_path / out)
            assert len({proc.stderr for proc in runs.values()}) == 1

    def test_bank_whose_walk_cannot_finish_fails_every_mode(self, tmp_path, tax):
        """Entries labelled [Blast, monocytic, MO] leave the walk no entry under
        Blast, so the flat runs, which vote from the walk's tally, exit 2 with
        the walk's message as ``classify`` and ``ablate`` do, and write nothing."""
        rng = np.random.default_rng(18)
        near = unit_rows(rng, 4, 5)
        path = [tax.index_of(1, "Blast"), tax.index_of(2, "monocytic"), tax.index_of(3, "MO")]
        bank = FeatureBank(5, ["a", "b", "c", "d"], np.asarray([path] * 4, dtype=np.uint16),
                           near, tax.digest)
        with open(tmp_path / "walk.hbnk", "wb") as fh:
            bank_save(bank, fh)
        (tmp_path / "q.jsonl").write_text(
            "".join(json.dumps({"id": f"q{i}", "label": "MO", "vector": v.tolist()}) + "\n"
                    for i, v in enumerate(near)), encoding="utf-8")
        for args, out in (
            (["classify", "--bank", "walk.hbnk"], "p.jsonl"),
            (["classify", "--bank", "walk.hbnk", "--flat"], "pf.jsonl"),
            (["ensemble", "--banks", "walk.hbnk", "--flat"], "e.jsonl"),
            (["ablate", "--banks", "walk.hbnk"], "g.csv"),
        ):
            proc = run([*args, "--queries", "q.jsonl", "--out", out], tmp_path)
            self.assert_data_error(proc, "no bank entry under predicted level-1 node 'Blast'",
                                   tmp_path / out)


class TestFailedWrite:
    def test_error_names_the_output(self, tmp_path):
        """A write that fails names the file it was writing to: here a classify
        child that may write at most 700 bytes to a file (its RLIMIT_FSIZE)."""
        make_synth(tmp_path)
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                    "--out", "pred.jsonl", "--k", "3"], tmp_path, file_size=700)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: 'pred.jsonl'\n")

    def test_output_path_given_twice_is_refused(self, tmp_path, tax):
        """A second output that resolves to the first exits 2 naming it, writes
        nothing to it and no run manifest: the first output is left whole."""
        (tmp_path / "synth.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
        proc = run(["synth", "--config", "synth.cfg", "--out", "y.hbnk",
                    "--queries", "./y.hbnk"], tmp_path)
        assert (proc.returncode, proc.stderr) == (2, "error: ./y.hbnk: output path given twice\n")
        with open(tmp_path / "y.hbnk", "rb") as fh:
            assert len(bank_load(fh, tax)) > 0
        make_synth(tmp_path)
        assert run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                    "--out", "p.jsonl"], tmp_path).returncode == 0
        proc = run(["evaluate", "--preds", "p.jsonl", "--truth", "q.jsonl",
                    "--report", "r.out", "--cm", "./r.out"], tmp_path)
        assert (proc.returncode, proc.stderr) == (2, "error: ./r.out: output path given twice\n")
        assert "macro_f1" in json.loads((tmp_path / "r.out").read_text())
        for first in ("y.hbnk", "r.out"):
            assert not (tmp_path / f"{first}.manifest.json").exists()


class TestSizes:
    """A size a user can type is refused before it is allocated, or its failed
    allocation is reported: exit 2, no traceback, no output. Each child runs
    with its address space capped, so a regression fails fast in the child
    instead of taking the host's memory."""

    CAP = 1 << 30

    @pytest.mark.parametrize("count", ["1001", "1000000000000"])
    def test_member_count_over_the_cap_refused(self, tmp_path, count):
        proc = run(["ablate", "--banks", count, "--out", "g.csv"], tmp_path,
                   address_space=self.CAP)
        TestBadInputs.assert_data_error(
            proc, f"error: --banks {count} is more than the 1000 members", tmp_path / "g.csv")

    @pytest.mark.parametrize("args", [
        ["traintoy", "--dim", "1000000000000", "--out", "out"],
        ["synth", "--config", "huge.cfg", "--out", "out", "--queries", "q.jsonl"],
    ])
    def test_failed_allocation_names_the_command(self, tmp_path, args):
        (tmp_path / "huge.cfg").write_text(f"counts = {', '.join(['10' * 7] * 13)}\n",
                                           encoding="utf-8")
        proc = run(args, tmp_path, address_space=self.CAP)
        TestBadInputs.assert_data_error(proc, f"error: {args[0]}: out of memory",
                                        tmp_path / "out")
        assert not (tmp_path / "out.manifest.json").exists()


@pytest.mark.gate
class TestPinnedOutputs:
    """The determinism fixture's outputs, byte for byte.

    The digests were recorded from the release before classify, ensemble
    and ablate shared one batched inference path; any change to retrieval
    order, vote tie-breaking or output formatting shows up here. The run
    manifests' digests were recorded before the CLI opened its files
    through one layer; a change in which inputs, flags or version a
    manifest records shows up here too. The saved banks, and the three
    manifests that hash a saved bank as an input, were re-pinned when
    banks began to be written as ``.hbnk`` v2.
    """

    PINNED = {
        "preds.jsonl": "4d11a493162feafc91832be980867e9ad099c00cec394298c6516ef75cfef329",
        "flat.jsonl": "530d6c311e1dd344f81343fb710e66050905870b1107cdde17a1c5cb50e65086",
        "ens.jsonl": "c441dc6ed092bf620a6e9fbbf6145d333e2ae6895c07e82ee17f458c13191e2a",
        "grid.csv": "8b429a0d61b64bb243ebaed39160dca3658a64861a6374c023f4a013c36de7b4",
        # run manifests: command, flags, input digests and version, one per command
        "bank.hbnk.manifest.json":
            "6962523c3a29151b814d23c3f59d6b28e62b892cd5c5e77e2693215623472e1e",
        "bank2.hbnk.manifest.json":
            "6772f03a2ee594713b67d026d39eb73108afc848c47ff61d8927b71f6f9e1e79",
        "preds.jsonl.manifest.json":
            "7baf51e49405a79846c76359bc0c82261124193b428618cf8337e2b213e528aa",
        "flat.jsonl.manifest.json":
            "5880c0101eaf67ab39fe85b9ed9dd8a7c62522994aa71c237dd0da9f9c4bfa64",
        "ens.jsonl.manifest.json":
            "888bd12228ed1fd6db2e0ea21756f29c13ed22ee489eb44e45ad0f65dd22d0c5",
        "grid.csv.manifest.json":
            "d0338ec17b9d71788ff5d6098ae941560a2a21a86909260f9023ce454bb4c6d0",
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        make_synth(tmp_path)
        make_synth(tmp_path, bank="bank2.hbnk", queries="q2.jsonl", seed_line="seed = 6")
        (tmp_path / "synth.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
        for args in (
            ["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
             "--out", "preds.jsonl", "--k", "5"],
            ["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
             "--out", "flat.jsonl", "--k", "5", "--flat"],
            ["ensemble", "--banks", "bank.hbnk,bank2.hbnk", "--queries", "q.jsonl",
             "--out", "ens.jsonl", "--k", "5"],
            ["ablate", "--banks", "3", "--config", "synth.cfg", "--k", "5",
             "--rot", "0.3", "--noise", "0.1", "--out", "grid.csv"],
        ):
            proc = run(args, tmp_path)
            assert proc.returncode == 0, proc.stderr
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINNED}
        assert digests == self.PINNED

    # evaluate over the hierarchical and the --flat predictions: report, grid and manifests
    PINNED_EVALUATE = {
        "report.json": "3e6cd8653f146e7a123a9290c888b52efae2637aaeda8f026749f088b9898c2d",
        "cm.csv": "d913a5aa601d26fe4205c92d7d34adf6ba5f71e771c8750288dfa10f714201c7",
        "flat_report.json": "d1c54ad66c8588f4c2236a40e883052b23ffcdf7f49b9952b4b9c1b49a477c97",
        "flat_cm.csv": "020c958acdb64cf1621f598f278692241e8e463c688f435728c8fc221321c619",
        # one run manifest per command, beside its first output
        "report.json.manifest.json":
            "730a055e70accceb19f56ba5bff5c2a6b92940395cce036cb7505332ceb380d2",
        "flat_report.json.manifest.json":
            "dc0b872e164903ebcaeb026ebb7aa4dc7c6153795ccaebf61114a1bac87508b9",
    }
    PINNED_EVALUATE_STDOUT = {
        "preds.jsonl": "macro_f1: 0.34554334554334554 over 36 samples\n",
        "flat.jsonl": "macro_f1: 0.39416139416139423 over 36 samples\n",
    }

    def test_evaluate_matches_pinned_digests(self, tmp_path):
        make_synth(tmp_path)
        for out, flat in (("preds.jsonl", ()), ("flat.jsonl", ("--flat",))):
            proc = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                        "--out", out, "--k", "5", *flat], tmp_path)
            assert proc.returncode == 0, proc.stderr
        stdout = {}
        for preds, prefix in (("preds.jsonl", ""), ("flat.jsonl", "flat_")):
            proc = run(["evaluate", "--preds", preds, "--truth", "q.jsonl",
                        "--report", f"{prefix}report.json", "--cm", f"{prefix}cm.csv"], tmp_path)
            assert proc.returncode == 0, proc.stderr
            stdout[preds] = proc.stdout
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINNED_EVALUATE}
        assert digests == self.PINNED_EVALUATE
        assert stdout == self.PINNED_EVALUATE_STDOUT

    # synth with a query shift, and a bank built from the shifted queries
    PINNED_SYNTH = {
        "bank.hbnk": "54f27868135733e0bd9306dc1c4b5e62c00c349b5fcc1a67a215db355863703d",
        "q.jsonl": "e60cbe5d1be4e633a940514c06b1c5ff219db54097a11821d80e55578e5c03a9",
        "qbank.hbnk": "06e131366c34857c235c6a17f9312cd8189ce73ae01c3a452b1ae8a5ed30b13e",
        "bank.hbnk.manifest.json":
            "3064d43f04bf6f6120068089dcb9e3adde5c6fa42e91791f28d0a59d97832b73",
        "qbank.hbnk.manifest.json":
            "b37ecfd7e93e97c9a9a1cf3b1edb955d7e27820ad91aefaf383ad2228896a279",
    }

    def test_synth_and_build_match_pinned_digests(self, tmp_path):
        make_synth(tmp_path, extra=("--rot", "0.3", "--bias", "0.1", "--noise", "0.1"))
        proc = run(["bank", "build", "--manifest", "q.jsonl", "--out", "qbank.hbnk"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINNED_SYNTH}
        assert digests == self.PINNED_SYNTH


class TestEntryPoint:
    def test_commands_reach_classify_batch(self, tmp_path, monkeypatch):
        """classify, classify --flat, ensemble and ablate all run classify_batch."""
        import hierknn.cli
        import hierknn.ensemble
        import hierknn.infer

        calls = []
        real = hierknn.infer.classify_batch

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(hierknn.cli, "classify_batch", counting)
        monkeypatch.setattr(hierknn.ensemble, "classify_batch", counting)
        make_synth(tmp_path)
        monkeypatch.chdir(tmp_path)
        for argv, batches in (
            (["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl", "--out", "p"], 1),
            (["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl", "--out", "f",
              "--flat"], 1),
            (["ensemble", "--banks", "bank.hbnk,bank.hbnk", "--queries", "q.jsonl",
              "--out", "e"], 2),
            (["ablate", "--banks", "3", "--config", "synth.cfg", "--out", "g"], 3),
        ):
            calls.clear()
            assert hierknn.cli.main(argv) == 0
            assert len(calls) == batches, argv


class TestProcess:
    """What a ``python -m hierknn`` child loads, and how it leaves once its command is done."""

    def test_classify_child_loads_no_training_code(self, tmp_path):
        """classify loads the modules it needs and the package's eager ones, not toytrain."""
        make_synth(tmp_path)
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl", "--out", "p.jsonl"],
                   tmp_path, entry=("-X", "importtime", "-m", "hierknn"))
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        ours = {name for name in loaded if name.split(".")[0] == "hierknn"}
        assert "hierknn.toytrain" not in ours
        assert ours == {f"hierknn{m}" for m in (
            "", ".bank", ".cli", ".ensemble", ".errors", ".infer", ".knn", ".metrics",
            ".synth", ".taxonomy",
        )}

    def test_closed_stdout_pipe_is_reported_as_python_reports_it(self, tmp_path):
        """Output that cannot be flushed at exit gives Python's own message and exit 120."""
        make_synth(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run(["bank", "info", "bank.hbnk"], tmp_path, stdout=write_end,
                       unset=("PYTHONUNBUFFERED",))
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert proc.stderr == (
            "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
            "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n"
        )

    def test_atexit_callbacks_run_after_the_output(self, tmp_path):
        """A callback registered before the command still prints, after the command's output."""
        make_synth(tmp_path)
        script = ("import atexit, runpy\n"
                  "atexit.register(print, 'atexit callback ran')\n"
                  "runpy.run_module('hierknn', run_name='__main__')\n")
        proc = run(["bank", "info", "bank.hbnk"], tmp_path, entry=("-c", script),
                   unset=("PYTHONUNBUFFERED",))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("dim: 8\n")
        assert proc.stdout.endswith("\natexit callback ran\n")
