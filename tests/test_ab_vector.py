"""``tools/ab_vector.py``: the same-process A/B of the vector loop."""

from __future__ import annotations

import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL_VECTOR = ROOT / "src" / "repro" / "uarch" / "kernel_vector.py"


def _tool():
    if "ab_vector" not in sys.modules:  # registered first: its dataclass looks itself up
        spec = importlib.util.spec_from_file_location("ab_vector", ROOT / "tools" / "ab_vector.py")
        module = sys.modules["ab_vector"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["ab_vector"]


def _run(other: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    code = _tool().main(
        [str(other), "--genomes", "2", "--extended", "0", "--proxy-passes", "0",
         "--reference-ops", "0", *extra],
        out=out,
    )
    return code, out.getvalue()


def test_the_tree_against_itself_matches():
    code, report = _run(KERNEL_VECTOR)
    assert code == 0, report
    (row,) = [line.split() for line in report.splitlines() if line.startswith("ga/baseline")]
    assert row[1] == "2" and row[6] == "0", report  # programs, mismatches


def test_a_planted_difference_is_reported(tmp_path):
    source = KERNEL_VECTOR.read_text()
    planted = "stats.branch_mispredictions = branch_mispredictions + 1"
    mutant = source.replace("stats.branch_mispredictions = branch_mispredictions", planted)
    assert planted in mutant
    (tmp_path / "kernel_vector.py").write_text(mutant)
    code, report = _run(tmp_path / "kernel_vector.py")
    assert code == 1
    assert report.count("MISMATCH ga/baseline") == 2, report
    assert "stats.branch_mispredictions" in report


def test_the_reference_group_and_fast_share():
    """Both reference stressmarks on three configs, 2k-op genomes, and the
    share of this tree's iterations that fast mode skipped per group."""
    code, report = _run(KERNEL_VECTOR, "--genome-ops", "2000", "--reference-ops", "4000")
    assert code == 0, report
    rows = {line.split()[0]: line.split() for line in report.splitlines()[1:]}
    assert set(rows) == {"ga/baseline", "reference"}, report
    assert rows["reference"][1] == "6" and rows["reference"][6] == "0", report
    assert all(0.5 < float(row[7]) <= 1.0 for row in rows.values()), report
