"""The `gate` marker selects every test that CI reruns on one BLAS thread and
under other CPU dispatch settings."""
from __future__ import annotations

from pathlib import Path

from conftest import run_cli

CHECKOUT = Path(__file__).resolve().parent.parent

# The gates CI named one by one before they carried the marker: a test, a
# class or a module, each relative to the checkout.
GATES = (
    "tests/test_acceptance.py::test_criterion_1_retrieval_matches_brute_force_oracle",
    "tests/test_acceptance.py::test_criterion_7_bank_round_trip_bit_exact",
    "tests/test_acceptance.py::test_criterion_8_commands_are_deterministic",
    "tests/test_cli.py::TestPinnedOutputs",
    "tests/test_infer.py::TestSmallScope",
    "tests/test_ensemble.py::TestCombine::test_every_small_member_vote",
    "tests/test_ensemble.py::TestCombine::test_thousand_members_vote_in_bounded_memory",
    "tests/test_metamorphic.py",
    "tests/test_infer.py::TestClassifyBatch::test_matches_reference_walk",
    "tests/test_toytrain.py::TestToyDataset::test_columns_match_per_sample_draws",
    "tests/test_cli.py::TestGradCheckCommand::test_two_runs_write_identical_bytes",
)


def test_marker_selects_every_gate():
    """Collecting with -m gate selects at least one test under each gate, so a
    dropped marker fails here instead of quietly shrinking the CI reruns."""
    proc = run_cli(["--co", "-q", "-m", "gate", "-p", "no:cacheprovider", "tests"],
                   CHECKOUT, entry=("-m", "pytest"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    selected = [line for line in proc.stdout.splitlines() if "::" in line]
    for gate in GATES:
        assert any(line == gate or line.startswith((gate + "::", gate + "["))
                   for line in selected), f"{gate} is not marked gate"
