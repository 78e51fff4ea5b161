"""Literal references for the scan start and the batched landmark baseline.

`full_grid_values` is the scan start as it reads in its definition: the
weighted correlation of each curve with curve 1 over l = -L..L of the full
table, at every phase 2 pi k/m, from one length-m inverse FFT per curve.
`landmark_loop` smooths and locates each curve's maximum on its own, from its
samples, and `spectrum_landmark_loop` from its row of the study's table.  The
library's coarse-to-fine scan and its one-FFT-pair landmark must give the
same results, and studies run through either path must write the same bytes.
"""

import numpy as np
import pytest

from curveshift import (
    CriterionContext,
    CurveSet,
    LandmarkConfig,
    SimulationSpec,
    SpectralTable,
    WeightScheme,
    generate,
    landmark_shifts,
    minimize,
    smooth,
    transform,
    wrap_phase,
)
from curveshift import landmark, optimize, simulate
from conftest import full_coeffs
from curveshift.cli import main
from curveshift.criterion import wrap_time
from curveshift.landmark import _refined_max
from curveshift.optimize import _correlation_argmax

T = 2.0 * np.pi
SIZES = [3, 4, 5, 100, 101, 401, 2001]


def full_grid_values(table, w2, m):
    """Each curve's w2-weighted correlation with curve 1 at 2 pi k/m, k = 0..m-1, times 2/m.

    `w2` is given on the table's columns l = 0..n//2; the sum runs over
    l = -L..L of the full table and weights built here, which leaves out an
    even n's Nyquist column.  A stacked table (R, J, n//2+1) gives one
    (J-1, m) block per table.
    """
    L = table.max_frequency
    coeffs = full_coeffs(table.coeffs[..., :L + 1])
    w2 = np.concatenate([w2[L:0:-1], w2[:L + 1]])
    cross = w2 * coeffs[..., 1:, :] * np.conj(coeffs[..., :1, :])
    half = cross[..., L:] + np.conj(cross[..., L::-1])
    return np.fft.irfft(half, m, axis=-1)


def grid_phase(k, m):
    k = np.asarray(k)
    return wrap_phase(2.0 * np.pi * np.where(k > m // 2, k - m, k) / m)


def full_grid_argmax(table, w2, m):
    """The scan start as a full-grid argmax, first index on ties."""
    return grid_phase(np.argmax(full_grid_values(table, w2, m), axis=-1), m)


def landmark_loop(curves, config=None):
    """`landmark_shifts` with one smoothing and one maximum search per curve.

    A stacked CurveSet (R, J, n) is handled one J-curve set at a time.
    """
    period = curves.period
    return row_loop(curves.samples, period, lambda row: smooth(row, period, config))


def spectrum_landmark_loop(table, config=None):
    """`landmark_shifts`, a study's landmark baseline, one curve of the table at a time."""
    n, period = table.n_samples, table.period
    return row_loop(table.coeffs, period, lambda row: landmark._smoothed(row, n, period, config))


def row_loop(rows, period, smooth_row):
    """Landmark shifts of rows (..., J, width), each smoothed by smooth_row on its own."""
    J = rows.shape[-2]
    sets = rows.reshape(-1, J, rows.shape[-1])
    all_shifts = np.full(sets.shape[:2], np.nan)
    all_ok = np.zeros(sets.shape[:2], dtype=bool)
    for curves, shifts, ok in zip(sets, all_shifts, all_ok):
        locs = np.full(J, np.nan)
        for j, row in enumerate(curves):
            locs[j], ok[j] = _refined_max(smooth_row(row), period)
        if ok[0]:
            shifts[ok] = wrap_time(locs[ok] - locs[0], period)
            shifts[0] = 0.0
    shape = rows.shape[:-1]
    return all_shifts.reshape(shape), all_ok.reshape(shape)


def weight_sets(n):
    """w2 on l = 0..n//2 under unit and power:1.3 weights, and the lag start's all-ones
    weights, each 0 on an even n's Nyquist column."""
    L = (n - 1) // 2
    halves = [WeightScheme.unit(L).values ** 2, WeightScheme.power(1.3, L).values ** 2,
              np.ones(L + 1)]
    return [np.pad(w2, (0, n // 2 - L)) for w2 in halves]


def single_frequency_table(n, l, phases):
    """Curve 1 carries only frequencies +-l; curve j+1 is curve 1 shifted by phases[j]."""
    ls = np.arange(n // 2 + 1)
    base = np.where(ls == l, 1.0, 0.0).astype(complex)
    rows = [base] + [base * np.exp(-1j * ls * a) for a in phases]
    return SpectralTable(coeffs=np.array(rows), period=T, n_samples=n)


class TestScanOracle:
    @pytest.mark.parametrize("q", [1, 8])
    @pytest.mark.parametrize("n", SIZES)
    def test_random_tables(self, n, q):
        rng = np.random.default_rng(1000 * n + q)
        real = transform(CurveSet(samples=rng.normal(size=(6, n)), period=T))
        L = n // 2
        coeffs = rng.normal(size=(6, L + 1)) + 1j * rng.normal(size=(6, L + 1))
        random_complex = SpectralTable(coeffs=coeffs, period=T, n_samples=n)
        noisy = [transform(generate(SimulationSpec(pattern, n_curves=6, n_samples=n, sigma=sigma,
                                                   replicates=1, seed=q), 0).curves)
                 for pattern in ("sinc15", "cosine") for sigma in (0.3, 3.0)]
        for table in [real, random_complex] + noisy:
            for w2 in weight_sets(n):
                assert np.array_equal(_correlation_argmax(table, w2, q * n),
                                      full_grid_argmax(table, w2, q * n))

    @pytest.mark.parametrize("q", [1, 8])
    @pytest.mark.parametrize("n", SIZES)
    def test_noiseless_grid_shifts(self, n, q):
        rng = np.random.default_rng(n)
        steps = rng.integers(-(n // 2), n // 2 + 1, size=4)
        for pattern in ("sinc15", "cosine"):
            spec = SimulationSpec(pattern, n_curves=5, n_samples=n, sigma=0.0, replicates=1,
                                  shifts=np.concatenate([[0.0], steps * (T / n)]))
            table = transform(generate(spec, 0).curves)
            for w2 in weight_sets(n):
                assert np.array_equal(_correlation_argmax(table, w2, q * n),
                                      full_grid_argmax(table, w2, q * n))

    @pytest.mark.parametrize("q", [1, 8])
    @pytest.mark.parametrize("n", SIZES)
    def test_zero_cross_spectrum_starts_at_zero(self, n, q):
        rng = np.random.default_rng(n + q)
        samples = rng.normal(size=(4, n))
        samples[2] = 0.0
        curve_two_zero = transform(CurveSet(samples=samples, period=T))
        samples = samples.copy()
        samples[0] = 0.0
        curve_one_zero = transform(CurveSet(samples=samples, period=T))
        for w2 in weight_sets(n):
            start = _correlation_argmax(curve_two_zero, w2, q * n)
            assert start[1] == 0.0
            assert np.array_equal(start, full_grid_argmax(curve_two_zero, w2, q * n))
            start = _correlation_argmax(curve_one_zero, w2, q * n)
            assert np.array_equal(start, np.zeros(3))
            assert np.array_equal(start, full_grid_argmax(curve_one_zero, w2, q * n))

    @pytest.mark.parametrize("q", [1, 8])
    @pytest.mark.parametrize("n", SIZES)
    def test_exact_ties_go_to_the_first_index(self, n, q):
        # Each curve after the first carries one frequency l, so its
        # correlation is 2 cos(l (a - a0)).  A peak half a step past k0 ties
        # k0 with k0 + 1.  With l = 2 and m even, the second peak a0 + pi
        # ties as well, also for a0 on the grid (k0 with k0 + m/2).  In exact
        # arithmetic the first index k0 wins.  A full-grid FFT can break such
        # a tie by rounding (at n = 2001, m = 8n it prefers k = 8004 to
        # k = 0), so the reference is compared only where its own values tie
        # bit for bit.
        m = q * n
        l = 2 if m % 2 == 0 and n >= 5 else 1
        k0 = np.array([0, 1, m // 5, m // 3])
        phases = [2.0 * np.pi * (k0 + 0.5) / m]
        if l == 2:
            phases.append(2.0 * np.pi * k0 / m)
        table = single_frequency_table(n, l, np.concatenate(phases))
        expected = grid_phase(np.tile(k0, len(phases)), m)
        for w2 in weight_sets(n):
            start = _correlation_argmax(table, w2, m)
            assert np.array_equal(start, expected)
            values = full_grid_values(table, w2, m)
            reference = full_grid_argmax(table, w2, m)
            for row, k in enumerate(np.tile(k0, len(phases))):
                top = values[row].max()
                tied = np.flatnonzero(values[row] >= top - 1e-9 * abs(top))
                assert tied[0] == k and len(tied) >= 2
                if np.all(values[row, tied] == top):
                    assert reference[row] == start[row]

    def test_never_transforms_above_n(self, monkeypatch):
        # The scan's cost came from irfft at length 8n, which pays n's prime
        # factors on the long grid; every transform in `minimize` stays at n.
        spec = SimulationSpec("sinc15", n_curves=30, n_samples=401, sigma=1.0, replicates=20,
                              seed=3)
        contexts = [CriterionContext(transform(generate(spec, r).curves), spec.weights)
                    for r in range(spec.replicates)]
        lengths = []
        irfft = np.fft.irfft

        def recording(a, n=None, axis=-1, *args, **kwargs):
            lengths.append(n if n is not None else 2 * (np.shape(a)[axis] - 1))
            return irfft(a, n, axis, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", recording)
        for name in dir(optimize):
            if getattr(optimize, name) is irfft:
                monkeypatch.setattr(optimize, name, recording)
        assert optimize.np.fft.irfft is recording
        for ctx in contexts:
            minimize(ctx)
        assert len(lengths) >= spec.replicates
        assert max(lengths) <= spec.n_samples


class TestLandmarkBatch:
    @pytest.mark.parametrize("pattern,n", [("cosine", 401), ("sinc15", 101), ("sinc15", 401)])
    def test_shifts_equal_per_curve_loop(self, pattern, n):
        spec = SimulationSpec(pattern, n_curves=6, n_samples=n, sigma=1.0, replicates=5, seed=11)
        for r in range(spec.replicates):
            curves = generate(spec, r).curves
            for config in (None, LandmarkConfig(bandwidth=0.3)):
                shifts, ok = landmark_shifts(transform(curves), config)
                ref_shifts, ref_ok = landmark_loop(curves, config)
                assert np.array_equal(shifts, ref_shifts, equal_nan=True)
                assert np.array_equal(ok, ref_ok)

    @pytest.mark.parametrize("flat", [0, 2])
    def test_flat_curves_equal_per_curve_loop(self, flat):
        spec = SimulationSpec("sinc15", n_curves=5, n_samples=101, sigma=0.5, replicates=1, seed=4)
        samples = generate(spec, 0).curves.samples.copy()
        samples[flat] = 1.5
        curves = CurveSet(samples=samples, period=T)
        shifts, ok = landmark_shifts(transform(curves))
        ref_shifts, ref_ok = landmark_loop(curves)
        assert np.array_equal(shifts, ref_shifts, equal_nan=True)
        assert np.array_equal(ok, ref_ok)
        assert not ok[flat] and ok.sum() == 4
        # An undefined first landmark leaves every shift undefined.
        assert np.isnan(shifts).sum() == (5 if flat == 0 else 1)

    @pytest.mark.parametrize("shape", [(5, 401), (30, 401), (4, 20001), (7, 101)])
    def test_smooth_matrix_equals_rows(self, shape):
        y = np.random.default_rng(shape[0]).normal(size=shape)
        for config in (None, LandmarkConfig(bandwidth=0.3)):
            rows = np.vstack([smooth(row, T, config) for row in y])
            assert np.array_equal(smooth(y, T, config), rows)


def test_study_outputs_equal_reference_paths(tmp_path, monkeypatch):
    """simulate and compare-landmark write the same bytes through the literal references."""
    commands = {
        "simulate": ["simulate", "--curves", "4", "--samples", "101", "--sigma", "1,5",
                     "--weights", "unit,power:1.3", "--replicates", "3", "--seed", "4"],
        "compare": ["compare-landmark", "--curves", "5", "--samples", "101", "--sigma", "1",
                    "--replicates", "10", "--seed", "14"],
    }

    def run_all(root):
        for name, argv in commands.items():
            assert main(argv + ["--output-dir", str(root / name)]) == 0
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    shipped = run_all(tmp_path / "shipped")
    monkeypatch.setattr(optimize, "_correlation_argmax", full_grid_argmax)
    monkeypatch.setattr(simulate, "landmark_shifts", spectrum_landmark_loop)
    reference = run_all(tmp_path / "reference")
    assert len(shipped) == 4
    assert shipped == reference
