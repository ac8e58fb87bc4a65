import importlib.util
import pathlib

import numpy as np

from cohabs.observables import WignerGrid, save_wigner_csv, save_wigner_text

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def write_tree(root: pathlib.Path, values: np.ndarray, summary: str) -> pathlib.Path:
    root.mkdir()
    (root / "summary.json").write_text(summary)
    axis = np.linspace(-1.0, 1.0, values.shape[0])
    grid = WignerGrid(axis, axis.copy(), values, float(values.sum()))
    save_wigner_text(grid, root / "wigner_max.txt")
    save_wigner_csv(grid, root / "wigner_max.csv")
    return root


def test_agreement_and_each_kind_of_difference(tmp_path, capsys):
    values = np.arange(9.0).reshape(3, 3) / 10
    a = write_tree(tmp_path / "a", values, '{"c": 1}')
    assert compare_outputs.compare(a, write_tree(tmp_path / "b", values, '{"c": 1}'), 1e-12)
    # a Wigner difference within the tolerance passes, beyond it fails
    shifted = write_tree(tmp_path / "c", values + 1e-9, '{"c": 1}')
    assert compare_outputs.compare(a, shifted, 1e-8)
    assert not compare_outputs.compare(a, shifted, 1e-12)
    # any byte difference in other files fails, as does a missing file
    assert not compare_outputs.compare(a, write_tree(tmp_path / "d", values, '{"c": 2}'), 1e-12)
    (tmp_path / "d" / "summary.json").unlink()
    assert not compare_outputs.compare(a, tmp_path / "d", 1e-12)
    # a numeric difference in other text is reported, and still fails
    capsys.readouterr()
    e = write_tree(tmp_path / "e", values, '{"c": 1.5e-3}')
    assert not compare_outputs.compare(e, write_tree(tmp_path / "f", values, '{"c": 1.25e-3}'),
                                       1e-12)
    assert "summary.json bytes differ, max|d|=2.500e-04" in capsys.readouterr().out


def test_last_digit_flip_agrees_at_default_atol(tmp_path):
    # one unit in the 12th significant digit of 0.1-scale values parses to
    # 1.0000056e-12, above 1e-12: the decimal difference is what is compared
    a = write_tree(tmp_path / "a", np.array([[0.123456789012, 0.5], [-0.1, 0.3]]), "{}")
    b = write_tree(tmp_path / "b", np.array([[0.123456789013, 0.5], [-0.1, 0.3]]), "{}")
    assert "0.123456789013" in (b / "wigner_max.txt").read_text()
    assert abs(0.123456789013 - 0.123456789012) > 1e-12
    assert compare_outputs.compare(a, b, 1e-12)
    # two units are a real difference
    c = write_tree(tmp_path / "c", np.array([[0.123456789014, 0.5], [-0.1, 0.3]]), "{}")
    assert not compare_outputs.compare(a, c, 1e-12)


def test_verdict_names_what_disagrees(tmp_path, capsys):
    values = np.arange(9.0).reshape(3, 3) / 10
    a = write_tree(tmp_path / "a", values, '{"c": 1.5e-3}')
    # only summary.json differs: the verdict names it, not the equal grids
    assert not compare_outputs.compare(a, write_tree(tmp_path / "b", values, '{"c": 1.25e-3}'),
                                       1e-12)
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict == "DISAGREE: 1 byte-differing (summary.json max|d|=2.500e-04)"
    # a missing file and a grid beyond the tolerance are named too (the
    # normalization integral, the sum of the nine values, moves by 9e-9)
    c = write_tree(tmp_path / "c", values + 1e-9, '{"c": 1.5e-3}')
    (c / "wigner_max.csv").unlink()
    assert not compare_outputs.compare(a, c, 1e-12)
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict == ("DISAGREE: 1 missing (wigner_max.csv), "
                       "1 Wigner over atol 1e-12 (wigner_max.txt max|dW|=9.000e-09)")
    assert compare_outputs.compare(a, a, 1e-12)
    assert capsys.readouterr().out.splitlines()[-1].startswith("AGREE")
