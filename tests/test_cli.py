"""End-to-end command-line flows run through fresh interpreter processes."""
from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from conftest import run_cli as run
from conftest import save_v1
from hierknn import bank_load, bank_save, default_taxonomy

SMALL_CONFIG = """
dim = 8
per_leaf_counts = 12, 10, 8, 20, 30, 12, 8, 6, 10, 24, 6, 5, 9
lineage_separation = 3.0
leaf_separation = 1.4
noise_sigma = 0.7
seed = 5
"""


def assert_usage_error(proc):
    """Exit 1 with argparse's usage line and error message, not a crash.

    Exit code 1 alone also matches a child that could not import hierknn
    or died on an uncaught exception, so stderr is checked as well.
    """
    assert proc.returncode == 1
    assert "usage:" in proc.stderr, proc.stderr
    assert "error:" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def rewrite_as_v1(path) -> bytes:
    """Rewrite the bank at ``path`` as a version-1 file; return its bytes."""
    bank = bank_load(io.BytesIO(path.read_bytes()), default_taxonomy())
    buf = io.BytesIO()
    save_v1(bank, buf)
    path.write_bytes(buf.getvalue())
    return buf.getvalue()


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


class TestGradCheckCommand:
    def test_reports_three_losses(self, tmp_path):
        proc = run(["grad-check", "--trials", "5", "--out", "gc.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        worst = json.loads((tmp_path / "gc.json").read_text())
        assert set(worst) >= {"dino", "balanced_ce", "total"}
        assert all(v < 1e-4 for v in worst.values())


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
    def bank_bytes(tmp_path, version):
        """The synth bank's bytes, rewritten as v1 first when ``version`` is 1."""
        make_synth(tmp_path)
        path = tmp_path / "bank.hbnk"
        return bytearray(rewrite_as_v1(path) if version == 1 else path.read_bytes())

    def check_oversized_header(self, tmp_path, version):
        data = self.bank_bytes(tmp_path, version)
        data[12:20] = (2**40).to_bytes(8, "little")
        (tmp_path / "huge.hbnk").write_bytes(bytes(data))
        info = run(["bank", "info", "huge.hbnk"], tmp_path)
        assert info.returncode == 2 and str(2**40) in info.stderr, info.stderr
        assert "Traceback" not in info.stderr
        proc = run(["classify", "--bank", "huge.hbnk", "--queries", "q.jsonl",
                    "--out", "p.jsonl"], tmp_path)
        self.assert_data_error(proc, str(2**40), tmp_path / "p.jsonl")

    def test_oversized_bank_header(self, tmp_path):
        self.check_oversized_header(tmp_path, version=1)

    def test_oversized_v2_bank_header(self, tmp_path):
        self.check_oversized_header(tmp_path, version=2)

    def check_oversized_header_through_a_pipe(self, tmp_path, version):
        """A pipe is read to its end, and the header's count is checked
        against the bytes read: a truncated stream, and a data error."""
        data = self.bank_bytes(tmp_path, version)
        data[12:20] = (2**40).to_bytes(8, "little")
        assert len(data) < 16384  # fits a pipe buffer, so one write cannot block
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, bytes(data))
            os.close(write_end)
            info = run(["bank", "info", "/dev/stdin"], tmp_path, stdin=read_end)
        finally:
            os.close(read_end)
        assert info.returncode == 2, info.stderr
        assert "truncated" in info.stderr, info.stderr
        assert "Traceback" not in info.stderr, info.stderr

    def test_oversized_bank_header_through_a_pipe(self, tmp_path):
        self.check_oversized_header_through_a_pipe(tmp_path, version=1)

    def test_oversized_v2_bank_header_through_a_pipe(self, tmp_path):
        self.check_oversized_header_through_a_pipe(tmp_path, version=2)

    def check_invalid_utf8_bank_id(self, tmp_path, version):
        data = self.bank_bytes(tmp_path, version)
        if version == 1:  # entry 0's id, after the 52-byte header and its u16 length
            offset = 54
        else:  # the id blob, after the 60-byte header and count + 1 u64 offsets
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

    def test_invalid_utf8_bank_id(self, tmp_path):
        self.check_invalid_utf8_bank_id(tmp_path, version=1)

    def test_invalid_utf8_v2_bank_id(self, tmp_path):
        self.check_invalid_utf8_bank_id(tmp_path, version=2)


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

    # the fixture bank as version 1 wrote it, before banks were written as v2
    V1_BANK = "74a163980b520e35988114b8e91192b6d5a2e144e09930d058e83f82370f30db"

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


    def test_v1_fixture_bank_loads_resaves_and_classifies_as_pinned(self, tmp_path):
        """The fixture bank written as v1 is the pinned v1 file; it loads,
        saves again as the pinned v2 bank, and classifies to the pinned
        predictions."""
        make_synth(tmp_path)
        v1 = rewrite_as_v1(tmp_path / "bank.hbnk")
        assert hashlib.sha256(v1).hexdigest() == self.V1_BANK
        resaved = io.BytesIO()
        bank_save(bank_load(io.BytesIO(v1), default_taxonomy()), resaved)
        assert hashlib.sha256(resaved.getvalue()).hexdigest() == self.PINNED_SYNTH["bank.hbnk"]
        proc = run(["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                    "--out", "preds.jsonl", "--k", "5"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        preds = hashlib.sha256((tmp_path / "preds.jsonl").read_bytes()).hexdigest()
        assert preds == self.PINNED["preds.jsonl"]


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
