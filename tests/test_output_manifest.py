"""`tools/output_manifest.py --compare` on small hand-made `--numbers` files."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_manifest.py"
_spec = importlib.util.spec_from_file_location("output_manifest", TOOL)
manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(manifest)

WORK = '"rephased 12  newton 5  steepest 0  rejected 1  tolerance 2  no-lower-value 0"'
LINES = [
    "out-000\texit\ttext\t0",
    f"out-000\twork\ttext\t{WORK}",
    "out-000/report.json\tcriterion_value\tnumber\t1.5",
    "out-000/report.json\tgradient_max\tnumber\tnan",
    "out-000/shifts.csv\t1:theta_hat\tnumber\t0.25",
    "out-000/shifts.csv\t2:theta_hat\tnumber\t-2.0",
]


def compare(tmp_path, capsys, changed):
    """`--compare` of LINES against LINES with `changed` applied: (exit code, output)."""
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write_text("\n".join(LINES) + "\n", encoding="utf-8")
    b.write_text("\n".join(changed(list(LINES))) + "\n", encoding="utf-8")
    code = manifest.compare(str(a), str(b))
    return code, capsys.readouterr().out


def replace(index, line):
    def changed(lines):
        lines[index] = line
        return lines
    return changed


def test_identical_files_pass(tmp_path, capsys):
    code, out = compare(tmp_path, capsys, lambda lines: lines)
    assert code == 0
    assert "DIFF" not in out and "BEYOND" not in out
    assert "summary: 3 numbers in 2 files; 0 files beyond" in out


@pytest.mark.parametrize("changed, expected", [
    (replace(2, f"out-000/report.json\tcriterion_value\tnumber\t{1.5 * (1 + 2e-12)!r}"),
     "2e-12  criterion_value  BEYOND TOLERANCE"),
    (replace(5, "out-000/shifts.csv\t2:theta_hat\tnumber\tnan"),
     "DIFF out-000/shifts.csv 2:theta_hat: -2.0 | nan"),
    (replace(1, 'out-000\twork\ttext\t"rephased 13  newton 5"'),
     f'DIFF out-000 work: {WORK} | "rephased 13  newton 5"'),
    (lambda lines: lines[:4] + lines[5:],
     "DIFF out-000/shifts.csv 1:theta_hat: only in A"),
], ids=["relative-move", "number-against-nan", "work-line", "key-on-one-side"])
def test_differences_are_reported(tmp_path, capsys, changed, expected):
    code, out = compare(tmp_path, capsys, changed)
    assert code == 1
    assert any(line.endswith(expected) for line in out.splitlines())
