import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import curveshift
from curveshift import cli
from curveshift.cli import main
from curveshift.simulate import PATTERNS, SimulationSpec, generate

T = 2.0 * np.pi


def write_curves(path, columns, names=None, times=None):
    columns = [np.asarray(c, dtype=float) for c in columns]
    names = names or [f"curve{i + 1}" for i in range(len(columns))]
    header = (["t"] if times is not None else []) + names
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        cells = ([repr(float(times[i]))] if times is not None else [])
        cells += [repr(float(c[i])) for c in columns]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestEstimate:
    def test_identical_curves_zero_shifts_aligned_unchanged(self, tmp_path):
        n = 51
        t = np.arange(n) * T / n
        y = np.exp(np.cos(t))
        src = tmp_path / "in.csv"
        write_curves(src, [y, y, y])
        rc = main(["estimate", "--input", str(src), "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        _, shifts = read_csv(tmp_path / "out" / "shifts.csv")
        assert np.array_equal(shifts[:, 1], np.zeros(3))  # theta_hat column
        _, aligned = read_csv(tmp_path / "out" / "aligned.csv")
        assert np.array_equal(aligned, np.column_stack([y, y, y]))

    def test_quarter_period_cosine(self, tmp_path):
        n = 101
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(t), np.cos(t - np.pi / 2)], times=t)
        out = tmp_path / "out"
        rc = main(["estimate", "--input", str(src), "--output-dir", str(out),
                   "--period", repr(T)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["theta_hat"][1] == pytest.approx(np.pi / 2, abs=1e-4)
        assert report["schema_version"] == 1

    def test_aligned_csv_round_trip_reproduces_itself(self, tmp_path):
        n = 51
        t = np.arange(n) * T / n
        y = np.exp(np.cos(t))
        src = tmp_path / "in.csv"
        write_curves(src, [y, y], times=t)
        rc = main(["estimate", "--input", str(src), "--output-dir", str(tmp_path / "o1")])
        assert rc == 0
        first = (tmp_path / "o1" / "aligned.csv").read_bytes()
        rc = main(["estimate", "--input", str(tmp_path / "o1" / "aligned.csv"),
                   "--output-dir", str(tmp_path / "o2")])
        assert rc == 0
        second = (tmp_path / "o2" / "aligned.csv").read_bytes()
        assert first == second

    def test_byte_identical_outputs_over_reruns(self, tmp_path):
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101, sigma=1.0,
                              replicates=1, seed=6)
        rep = generate(spec, 0)
        src = tmp_path / "in.csv"
        write_curves(src, list(rep.curves.samples))
        for d in ("a", "b"):
            assert main(["estimate", "--input", str(src),
                         "--output-dir", str(tmp_path / d)]) == 0
        for name in ("shifts.csv", "aligned.csv", "mean.csv", "covariance.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_aligned_curves_match_reference_for_continuous_shifts(self, tmp_path):
        # Band-limited curves with off-grid shifts: spectral realignment must
        # reproduce the reference curve, not its nearest-grid roll.
        n = 101
        t = np.arange(n) * T / n
        base = np.cos(t) + 0.4 * np.sin(2 * t)
        shifts = [0.0, 0.337, -1.911]
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(t - s) + 0.4 * np.sin(2 * (t - s)) for s in shifts])
        out = tmp_path / "out"
        rc = main(["estimate", "--input", str(src), "--output-dir", str(out),
                   "--period", repr(T), "--grad-tol", "1e-12"])
        assert rc == 0
        _, aligned = read_csv(out / "aligned.csv")
        for j in range(3):
            assert np.max(np.abs(aligned[:, j] - base)) < 1e-6

    def test_aligned_mean_sharper_than_raw_mean(self, tmp_path):
        spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=101, sigma=1.0,
                              replicates=1, seed=1)
        rep = generate(spec, 0)
        src = tmp_path / "in.csv"
        write_curves(src, list(rep.curves.samples))
        out = tmp_path / "out"
        rc = main(["estimate", "--input", str(src), "--output-dir", str(out)])
        assert rc == 0
        header, mean = read_csv(out / "mean.csv")
        raw = mean[:, header.index("raw_mean")]
        aligned = mean[:, header.index("aligned_mean")]
        assert aligned.max() > raw.max()

    def test_even_n_rejected_without_flag(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(np.arange(100)), np.sin(np.arange(100))])
        rc = main(["estimate", "--input", str(src), "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "input" in capsys.readouterr().err

    def test_truncate_even_warns_and_succeeds(self, tmp_path, capsys):
        n = 102
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(t), np.cos(t - 0.4)])
        out = tmp_path / "o"
        rc = main(["estimate", "--input", str(src), "--output-dir", str(out),
                   "--truncate-even", "--period", repr(T)])
        assert rc == 0
        assert "truncated" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["n_samples"] == 101
        assert report["n_samples_input"] == 102
        assert any("truncated" in w for w in report["warnings"])

    @pytest.mark.parametrize("command", ["estimate", "compare-landmark"])
    def test_malformed_csv_exit_2(self, tmp_path, capsys, command):
        src = tmp_path / "bad.csv"
        out = ["--output-dir", str(tmp_path / "o")]
        src.write_text("a,b\n1.0,2.0\n3.0\n")
        assert main([command, "--input", str(src)] + out) == 2
        src.write_text("a,b\n1.0,x\n")
        assert main([command, "--input", str(src)] + out) == 2
        src.write_text("a,b\n1.0,2.0\n")  # fewer than 3 samples per curve
        assert main([command, "--input", str(src)] + out) == 2
        write_curves(src, [np.cos(np.arange(11)), np.sin(np.arange(11))])
        assert main([command, "--input", str(src), "--period", "-1"] + out) == 2
        assert "input" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["bom", "crlf", "no-final-newline"])
    def test_bom_input_read_like_plain(self, tmp_path, variant):
        recode = {
            "bom": lambda b: b"\xef\xbb\xbf" + b,
            "crlf": lambda b: b.replace(b"\n", b"\r\n"),
            "no-final-newline": lambda b: b.rstrip(b"\n"),
        }[variant]
        n = 51
        t = np.arange(n) * T / n
        plain = tmp_path / "plain.csv"
        write_curves(plain, [np.exp(np.cos(t)), np.exp(np.cos(t - 0.5))], times=t)
        wplain = tmp_path / "w.csv"
        wplain.write_text("l,delta\n" + "".join(f"{l},1.0\n" for l in range(-4, 5) if l))
        other, wother = tmp_path / "other.csv", tmp_path / "wother.csv"
        other.write_bytes(recode(plain.read_bytes()))
        wother.write_bytes(recode(wplain.read_bytes()))
        for name, src, wfile in (("plain", plain, wplain), ("other", other, wother)):
            assert main(["estimate", "--input", str(src), "--weights", f"file:{wfile}",
                         "--output-dir", str(tmp_path / f"est_{name}")]) == 0
            assert main(["compare-landmark", "--input", str(src),
                         "--output-dir", str(tmp_path / f"cmp_{name}")]) == 0
        reports = [json.loads((tmp_path / f"est_{name}" / "report.json").read_text())
                   for name in ("plain", "other")]
        assert len(reports[0]["theta_hat"]) == 2
        assert reports[1]["theta_hat"] == reports[0]["theta_hat"]
        assert ((tmp_path / "cmp_other" / "comparison.csv").read_bytes()
                == (tmp_path / "cmp_plain" / "comparison.csv").read_bytes())

    @pytest.mark.parametrize("header", [" t,y1,y2", "t ,y1,y2", " t , y1 , y2 "],
                             ids=["leading", "trailing", "both"])
    def test_padded_header_read_like_plain(self, tmp_path, header):
        # A padded t still names the time column, not a third curve.
        n = 51
        t = np.arange(n) * T / n
        plain = tmp_path / "plain.csv"
        write_curves(plain, [np.cos(t), np.cos(t - 0.5)], names=["y1", "y2"], times=t)
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join([header] + plain.read_text().split("\n")[1:]))
        for name, src in (("plain", plain), ("padded", padded)):
            assert main(["estimate", "--input", str(src), "--output-dir", str(tmp_path / name)]) == 0
        _, shifts = read_csv(tmp_path / "plain" / "shifts.csv")
        assert np.allclose(shifts[:, 1], [0.0, 0.5], atol=1e-6)
        for out in ("shifts.csv", "aligned.csv"):
            assert (tmp_path / "padded" / out).read_bytes() == (tmp_path / "plain" / out).read_bytes()

    @pytest.mark.parametrize("command", ["estimate", "compare-landmark", "simulate"])
    def test_duplicate_column_names_exit_2(self, tmp_path, capsys, command):
        n = 51
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        out = ["--output-dir", str(tmp_path / "o")]
        if command == "simulate":
            # Pattern files share the reader; a curve may not reuse the name t.
            write_curves(src, [np.exp(np.cos(t))], names=["t"], times=t)
            argv = ["simulate", "--samples", str(n), "--replicates", "1",
                    "--pattern", f"file:{src}"]
            duplicate = "'t'"
        else:
            write_curves(src, [np.cos(t), np.cos(t - 0.5)], names=["y1", "y1"], times=t)
            argv = [command, "--input", str(src)]
            duplicate = "'y1'"
        assert main(argv + out) == 2
        assert f"duplicate column name {duplicate}" in capsys.readouterr().err

    def test_non_equispaced_time_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        times = np.array([0.0, 1.0, 2.5, 3.0, 4.0])
        write_curves(src, [np.ones(5), np.zeros(5)], times=times)
        rc = main(["estimate", "--input", str(src), "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "equispaced" in capsys.readouterr().err

    def test_zero_weights_exit_3(self, tmp_path, capsys):
        n = 11
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(t), np.sin(t)])
        wfile = tmp_path / "w.csv"
        wfile.write_text("l,delta\n1,0.0\n2,0.0\n")
        rc = main(["estimate", "--input", str(src), "--output-dir", str(tmp_path / "o"),
                   "--weights", f"file:{wfile}"])
        assert rc == 3
        assert "estimation" in capsys.readouterr().err

    def test_constant_offset_curves_exit_4(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_curves(src, [np.full(101, 5.0), np.full(101, 3.0)])
        rc = main(["estimate", "--input", str(src), "--output-dir", str(tmp_path / "o")])
        assert rc == 4
        assert "inference" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["1.5", "0", "nan"])
    def test_bad_confidence_exit_2_before_estimation(self, tmp_path, capsys, level):
        n = 101
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(t), np.cos(t - 0.4)])
        out = tmp_path / "o"
        rc = main(["estimate", "--input", str(src), "--output-dir", str(out),
                   "--confidence", level])
        assert rc == 2
        assert "input" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_weights_file_round_trip(self, tmp_path):
        n = 101
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(t), np.cos(t - 0.8)])
        wfile = tmp_path / "w.csv"
        rows = ["l,delta"] + [f"{l},1.0" for l in range(-3, 4) if l != 0]
        wfile.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        rc = main(["estimate", "--input", str(src), "--output-dir", str(out),
                   "--weights", f"file:{wfile}"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["theta_hat"][1] == pytest.approx(0.8, abs=1e-6)

    @pytest.mark.parametrize("rows, message", [
        (["1,1.0", "2,1.0", "3,1.0"], "symmetric"),
        (["1,1.0", "-1,0.2"], "symmetric"),
        (["1,1.0", "-1,1.0", "1,0.5"], "line 4: frequency l = 1 is listed twice"),
    ], ids=["one-sided", "unequal-pair", "repeated-l"])
    def test_weights_file_read_as_written_or_rejected(self, tmp_path, capsys, rows, message):
        # A weight file is never averaged with its mirror or silently overwritten.
        n = 101
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        write_curves(src, [np.cos(t), np.cos(t - 0.8)])
        wfile = tmp_path / "w.csv"
        wfile.write_text("\n".join(["l,delta"] + rows) + "\n")
        out = tmp_path / "o"
        rc = main(["estimate", "--input", str(src), "--output-dir", str(out),
                   "--weights", f"file:{wfile}"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestSimulate:
    def test_figure_grid_layout(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--output-dir", str(out), "--curves", "2",
                   "--samples", "101", "--sigma", "1,3,5,7",
                   "--weights", "unit,power:1.3,power:2", "--replicates", "2",
                   "--seed", "9", "--shifts", f"0,{np.pi / 3!r}"])
        assert rc == 0
        plot_files = sorted(p.name for p in (out / "plotdata").iterdir())
        assert len(plot_files) == 12
        svg_files = sorted(p.name for p in (out / "figures").iterdir())
        assert len(svg_files) == 12
        header, grid = read_csv(out / "plotdata" / plot_files[0])
        assert header == ["alpha", "criterion"]
        assert grid.shape[0] == 629
        # SVGs parse as XML and carry the generator version marker
        svg_text = (out / "figures" / svg_files[0]).read_text()
        ET.fromstring(svg_text.split("\n", 2)[2])
        assert "curveshift-svg" in svg_text

    def test_summary_structure_and_coverage_bounds(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--output-dir", str(out), "--curves", "4",
                   "--samples", "51", "--sigma", "0.5", "--replicates", "12",
                   "--seed", "3"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        cell = summary["cells"][0]
        for rate in cell["coverage"]:
            assert 0.0 <= rate <= 1.0
        assert len(cell["bias"]) == 3
        lines = (out / "replicates.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert len(lines) - 1 == 12 * 3  # one row per replicate and curve
        theta_col = header.index("theta_hat")
        assert all(np.isfinite(float(ln.split(",")[theta_col])) for ln in lines[1:])

    def test_zero_noise_single_replicate_bias_exactly_zero(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--output-dir", str(out), "--curves", "3",
                   "--samples", "51", "--sigma", "0", "--replicates", "1",
                   "--seed", "1", "--shifts", "0,0,0"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells"][0]["bias"] == [0.0, 0.0]

    def test_even_samples_rejected(self, tmp_path, capsys):
        rc = main(["simulate", "--output-dir", str(tmp_path / "s"), "--samples", "100"])
        assert rc == 2
        rc = main(["simulate", "--output-dir", str(tmp_path / "s"), "--period", "-1"])
        assert rc == 2
        for command in ("simulate", "compare-landmark"):
            rc = main([command, "--output-dir", str(tmp_path / "s"), "--sigma", ""])
            assert rc == 2
        capsys.readouterr()

    def test_seed_beyond_64_bits_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--output-dir", str(tmp_path / "s"), "--replicates", "1",
                   "--seed", str(2**64)])
        assert rc == 2
        assert "64-bit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare-landmark"])
    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_exit_2(self, tmp_path, capsys, command, sigma):
        out = tmp_path / "s"
        rc = main([command, "--output-dir", str(out), "--replicates", "2", "--samples", "51",
                   "--curves", "2", f"--sigma={sigma}"])
        assert rc == 2
        assert "input: sigma must be finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_every_cell_checked_before_the_first_study(self, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["simulate", "--output-dir", str(out), "--replicates", "2", "--samples", "51",
                   "--curves", "2", "--sigma", "1,nan"])
        assert rc == 2
        assert "input: sigma must be finite" in capsys.readouterr().err
        assert list((out / "plotdata").iterdir()) == []

    def test_pattern_file(self, tmp_path):
        n = 51
        t = np.arange(n) * T / n
        pfile = tmp_path / "pattern.csv"
        write_curves(pfile, [np.exp(np.cos(t))], names=["f"])
        out = tmp_path / "sim"
        rc = main(["simulate", "--output-dir", str(out), "--curves", "3",
                   "--samples", str(n), "--sigma", "0.1", "--replicates", "3",
                   "--seed", "2", "--pattern", f"file:{pfile}"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells"][0]["rmse_estimator"] < 0.05
        # Pattern files are validated like curve files: a non-finite sample, a
        # row with an extra field and a non-equispaced t column all exit 2.
        nan_file, extra_file, uneven_file = (tmp_path / f"{k}.csv"
                                             for k in ("nan", "extra", "uneven"))
        write_curves(nan_file, [np.where(np.arange(n) == 7, np.nan, np.exp(np.cos(t)))],
                     names=["f"])
        lines = pfile.read_text().split("\n")
        lines[3] += ",1.0"
        extra_file.write_text("\n".join(lines))
        write_curves(uneven_file, [np.exp(np.cos(t))], names=["f"], times=t * (1.0 + 0.01 * t))
        for bad in (nan_file, extra_file, uneven_file):
            rc = main(["simulate", "--output-dir", str(tmp_path / "bad"), "--curves", "3",
                       "--samples", str(n), "--replicates", "1", "--pattern", f"file:{bad}"])
            assert rc == 2


class TestCompareLandmark:
    def test_noiseless_grid_shifts_both_exact(self, tmp_path):
        n = 101
        t = np.arange(n) * T / n
        base = np.exp(np.cos(t))
        src = tmp_path / "in.csv"
        write_curves(src, [base, np.roll(base, 10), np.roll(base, -7)])
        out = tmp_path / "cmp"
        rc = main(["compare-landmark", "--input", str(src), "--output-dir", str(out),
                   "--period", repr(T)])
        assert rc == 0
        header, rows = read_csv(out / "comparison.csv")
        est = rows[:, header.index("theta_hat_estimator")]
        lm = rows[:, header.index("theta_hat_landmark")]
        expected = np.array([0.0, 10 * T / n, -7 * T / n])
        assert np.allclose(est, expected, atol=1e-6)
        assert np.allclose(lm, expected, atol=1e-6)

    def test_identical_curves_all_zero(self, tmp_path):
        n = 51
        t = np.arange(n) * T / n
        y = np.exp(np.cos(t))
        src = tmp_path / "in.csv"
        write_curves(src, [y, y])
        out = tmp_path / "cmp"
        rc = main(["compare-landmark", "--input", str(src), "--output-dir", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "comparison.csv")
        assert np.array_equal(rows[:, 1], np.zeros(2))
        assert np.array_equal(rows[:, 2], np.zeros(2))

    def test_flat_curve_flagged_others_proceed(self, tmp_path):
        n = 51
        t = np.arange(n) * T / n
        src = tmp_path / "in.csv"
        write_curves(src, [np.exp(np.cos(t)), np.exp(np.cos(t - 0.5)), np.full(n, 2.0)])
        out = tmp_path / "cmp"
        rc = main(["compare-landmark", "--input", str(src), "--output-dir", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "comparison.csv")
        ok = rows[:, header.index("landmark_ok")]
        assert list(ok) == [1.0, 1.0, 0.0]
        lm = rows[:, header.index("theta_hat_landmark")]
        assert np.isfinite(lm[1]) and np.isnan(lm[2])
        report = json.loads((out / "report.json").read_text())
        assert report["landmark_failures"] == 1

    def test_simulation_mode_reports_rmse(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare-landmark", "--output-dir", str(out), "--curves", "5",
                   "--samples", "101", "--sigma", "1", "--replicates", "10",
                   "--seed", "14"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "simulation"
        assert report["rmse_estimator"] > 0.0
        assert report["rmse_landmark"] > 0.0
        _, rows = read_csv(out / "comparison.csv")
        assert rows.shape[0] == 10 * 5

    def test_simulation_mode_matches_simulate(self, tmp_path):
        study = ["--curves", "4", "--samples", "51", "--sigma", "0.5",
                 "--weights", "power:1.5", "--replicates", "6", "--seed", "3"]
        assert main(["simulate", "--output-dir", str(tmp_path / "sim")] + study) == 0
        assert main(["compare-landmark", "--output-dir", str(tmp_path / "cmp")] + study) == 0

        def cells(path, keys):
            lines = path.read_text().strip().split("\n")
            header = lines[0].split(",")
            rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
            return {(r["replicate"], r["curve"]): tuple(r[k] for k in keys) for r in rows}

        sim = cells(tmp_path / "sim" / "replicates.csv", ["theta_hat", "theta_hat_landmark"])
        cmp = cells(tmp_path / "cmp" / "comparison.csv",
                    ["theta_hat_estimator", "theta_hat_landmark"])
        assert len(sim) == 6 * 3
        assert sim == {key: value for key, value in cmp.items() if key[1] != "1"}
        cell = json.loads((tmp_path / "sim" / "summary.json").read_text())["cells"][0]
        report = json.loads((tmp_path / "cmp" / "report.json").read_text())
        assert report["rmse_estimator"] == cell["rmse_estimator"]
        assert report["rmse_landmark"] == cell["rmse_landmark"]

    def test_undefined_landmarks_in_both_commands(self, tmp_path):
        # cos(2t) has two equal peaks; shifted by whole grid steps without
        # noise, every curve stays mirror-symmetric on the grid, so its
        # smoothed maximum is tied at two far-apart points.
        n = 51
        t = np.arange(n) * T / n
        pfile = tmp_path / "pattern.csv"
        write_curves(pfile, [np.cos(2 * t)], names=["f"])
        study = ["--curves", "3", "--samples", str(n), "--sigma", "0", "--replicates", "3",
                 "--seed", "5", "--pattern", f"file:{pfile}",
                 "--shifts", f"0,{5 * T / n!r},{-7 * T / n!r}"]
        assert main(["simulate", "--output-dir", str(tmp_path / "sim")] + study) == 0
        assert main(["compare-landmark", "--output-dir", str(tmp_path / "cmp")] + study) == 0
        cell = json.loads((tmp_path / "sim" / "summary.json").read_text())["cells"][0]
        assert cell["landmark_failures"] == 3  # replicates
        assert cell["rmse_landmark"] is None
        report = json.loads((tmp_path / "cmp" / "report.json").read_text())
        assert report["landmark_failures"] == 3 * 3  # curves
        assert report["rmse_landmark"] is None
        header, rows = read_csv(tmp_path / "cmp" / "comparison.csv")
        assert not rows[:, header.index("landmark_ok")].any()

    @pytest.mark.parametrize("option", [["--sigma", "1,2"], ["--sigma", "1,nan"],
                                        ["--weights", "unit,power:2"]])
    def test_simulation_mode_takes_one_cell(self, tmp_path, capsys, option):
        out = tmp_path / "cmp"
        rc = main(["compare-landmark", "--output-dir", str(out), "--curves", "2",
                   "--samples", "51", "--replicates", "2"] + option)
        assert rc == 2
        assert "input: compare-landmark runs one study" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()
        assert not (out / "report.json").exists()


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path):
        # The parser is built once per process; estimate, simulate and
        # estimate again through it write the bytes a fresh parser gives.
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=101, sigma=1.0,
                              replicates=1, seed=6)
        src = tmp_path / "in.csv"
        write_curves(src, list(generate(spec, 0).curves.samples))
        estimate = ["estimate", "--input", str(src), "--output-dir"]
        simulate = ["simulate", "--curves", "2", "--samples", "51", "--sigma", "1",
                    "--replicates", "3", "--seed", "5", "--output-dir"]

        def files(d):
            return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

        for argv, d in ((estimate, "e1"), (simulate, "s1"), (estimate, "e2")):
            assert main(argv + [str(tmp_path / d)]) == 0
        assert cli.build_parser() is cli.build_parser()
        for argv, d in ((estimate, "e3"), (simulate, "s3")):
            cli.build_parser.cache_clear()
            assert main(argv + [str(tmp_path / d)]) == 0
        assert files(tmp_path / "e1") == files(tmp_path / "e2") == files(tmp_path / "e3")
        assert files(tmp_path / "s1") == files(tmp_path / "s3")
        assert len(files(tmp_path / "s1")) >= 3


class TestPatternRegistry:
    def test_patterns_available(self):
        assert set(PATTERNS) == {"sinc15", "cosine"}


class TestImportCost:
    def test_cli_import_skips_scipy_integrate(self):
        # scipy.integrate costs about a quarter second of every launch.
        src = Path(curveshift.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, curveshift.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"
