import csv
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import read_columns_by_row
from rcpi import csvio
from rcpi.discriminator import (
    InsufficientOscillationsError,
    PowerLawFit,
    SweepRecord,
    Verdict,
    classify,
    envelope_points,
    extract_envelope,
    fit_power_law,
    read_sweep_csv,
    write_sweep_csv,
)
from rcpi.dicke import DickeState
from rcpi.shifts import rcpi_closed_desitter, rcpi_closed_minkowski


def desitter_sweep(L_grid, omega0_kappa, mu=0.1):
    return [
        SweepRecord(
            float(L),
            rcpi_closed_desitter(float(L), 1.0, omega0_kappa, mu, DickeState.S),
            rcpi_closed_desitter(float(L), 1.0, omega0_kappa, mu, DickeState.A),
        )
        for L in L_grid
    ]


def minkowski_sweep(L_grid, omega0, mu=0.1):
    return [
        SweepRecord(
            float(L),
            rcpi_closed_minkowski(float(L), omega0, mu, DickeState.S),
            rcpi_closed_minkowski(float(L), omega0, mu, DickeState.A),
        )
        for L in L_grid
    ]


def polyfit_envelope(L, dE_S):
    """Reference refinement: one least-squares parabola per maximum, fitted by np.polyfit in log-log."""
    mag = np.abs(dE_S)
    env_L, env_v = [], []
    for i in range(1, mag.size - 1):
        if not (mag[i] > mag[i - 1] and mag[i] >= mag[i + 1]):
            continue
        x, y = np.log(L[i - 1 : i + 2]), np.log(mag[i - 1 : i + 2])
        c2, c1, c0 = np.polyfit(x, y, 2)
        x0 = float(np.clip(-c1 / (2.0 * c2), x[0], x[2])) if c2 < 0 else math.log(L[i])
        env_L.append(math.exp(x0))
        env_v.append(math.exp((c2 * x0 + c1) * x0 + c0) if c2 < 0 else mag[i])
    return np.array(env_L), np.array(env_v)


# Far, crossover and near de Sitter sweeps (kappa = 1) and a thermal one, as (L_min, L_max, shift function).
SWEEP_CASES = {
    "desitter-far": (30.0, 1000.0, lambda L: rcpi_closed_desitter(L, 1.0, 10.0, 0.1)),
    "desitter-crossover": (0.3, 10.0, lambda L: rcpi_closed_desitter(L, 1.0, 10.0, 0.1)),
    "desitter-near": (0.001, 0.1, lambda L: rcpi_closed_desitter(L, 1.0, 200.0, 0.1)),
    "thermal": (10.0, 100.0, lambda L: rcpi_closed_minkowski(L, 1.0, 0.1)),
}


class TestSweepRecord:
    def test_rejects_asymmetry_violation(self):
        with pytest.raises(ValueError):
            SweepRecord(1.0, 1e-4, 1e-4)

    @pytest.mark.parametrize(
        "record",
        [(0.0, 1e-4, -1e-4), (math.nan, math.nan, math.nan), (math.inf, 1.0, -1.0)],
        ids=["zero", "nan", "inf"],
    )
    def test_rejects_nonpositive_separation(self, record):
        with pytest.raises(ValueError):
            SweepRecord(*record)


class TestExtractEnvelope:
    def test_synthetic_cosine_envelope(self):
        # |cos x| / x sampled densely in a window where the oscillation is
        # much faster than the envelope decay: maxima sit on 1/x to 0.1%.
        x = np.linspace(50.0, 500.0, 20000)
        recs = [SweepRecord(float(xi), float(np.cos(xi) / xi), float(-np.cos(xi) / xi)) for xi in x]
        env_L, env_v = extract_envelope(recs)
        assert len(env_L) > 100
        assert np.max(np.abs(env_v * env_L - 1.0)) < 1e-3

    def test_monotone_input_rejected(self):
        recs = [SweepRecord(float(x), 1.0 / x, -1.0 / x) for x in np.linspace(1.0, 10.0, 60)]
        with pytest.raises(InsufficientOscillationsError, match="insufficient oscillations"):
            extract_envelope(recs)

    def test_unsorted_input_rejected(self):
        recs = [SweepRecord(2.0, 1.0, -1.0), SweepRecord(1.0, -1.0, 1.0), SweepRecord(3.0, 1.0, -1.0)] * 3
        with pytest.raises(ValueError):
            extract_envelope(recs[:5])

    @pytest.mark.parametrize("bad", [(math.nan, math.nan, math.nan), (50.5, math.inf, -math.inf)], ids=["nan", "inf"])
    def test_non_finite_sample_rejected(self, bad):
        # Such a sample cannot be a SweepRecord; as bare arrays it is rejected by the envelope.
        with pytest.raises(ValueError, match="finite"):
            SweepRecord(*bad)
        recs = minkowski_sweep(np.geomspace(10.0, 100.0, 800), 1.0)
        L = [s.L for s in recs]
        dE = [s.delta_E_S for s in recs]
        with pytest.raises(ValueError, match="finite"):
            envelope_points(L[:400] + [bad[0]] + L[400:], dE[:400] + [bad[1]] + dE[400:])

    def test_non_positive_separation_rejected(self):
        # Strictly increasing, but starting below zero: rejected before any logarithm is taken.
        L = np.linspace(-50.0, 100.0, 2000)
        L = L[L != 0.0]
        with pytest.raises(ValueError, match="finite"):
            envelope_points(L, np.cos(L) / np.abs(L))

    def test_mismatched_lengths_rejected(self):
        L = np.geomspace(10.0, 100.0, 10)
        x = np.geomspace(10.0, 100.0, 11)
        with pytest.raises(ValueError, match="same shape"):
            envelope_points(L, np.cos(x) / x)

    def test_zero_neighbour_keeps_the_raw_sample(self):
        # log 0 has no parabola: a maximum next to an exact zero is its own envelope point.
        L = np.geomspace(1.0, 10.0, 11)
        v = np.array([0.5, 1.0, 0.0, -0.9, 0.0, 0.8, 0.0, -0.7, 0.0, 0.6, 0.3])
        env_L, env_v = envelope_points(L, v)
        assert np.array_equal(env_L, L[[1, 3, 5, 7, 9]])
        assert np.array_equal(env_v, np.abs(v[[1, 3, 5, 7, 9]]))

    @pytest.mark.parametrize("n", [800, 3000, 5000])
    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_closed_form_vertices_match_polyfit(self, case, n):
        L_min, L_max, shift = SWEEP_CASES[case]
        L = np.geomspace(L_min, L_max, n)
        dE_S = shift(L)
        env_L, env_v = envelope_points(L, dE_S)
        ref_L, ref_v = polyfit_envelope(L, dE_S)
        assert env_L.size == ref_L.size >= 5
        np.testing.assert_allclose(env_L, ref_L, rtol=1e-9, atol=0)
        np.testing.assert_allclose(env_v, ref_v, rtol=1e-9, atol=0)

    def test_plateaus_register_once(self):
        # A 2-sample and a 3-sample plateau at a maximum count once, at their first sample, in
        # the envelope and in the CSV flags alike; a plateau on a falling slope is no maximum.
        L = np.geomspace(1.0, 10.0, 14)
        v = np.array([0.1, 0.5, 0.5, 0.2, -0.3, -0.6, -0.6, -0.6, -0.1, 0.4, 0.3, 0.3, 0.1, -0.2])
        maxima = [1, 5, 9]
        env_L, _ = envelope_points(L, v)
        assert env_L.size == len(maxima)
        assert np.all((L[np.subtract(maxima, 1)] <= env_L) & (env_L <= L[np.add(maxima, 1)]))
        buf = io.StringIO()
        write_sweep_csv(buf, L, v)
        flags = [row[3] for row in csv.reader(io.StringIO(buf.getvalue()))][1:]
        assert [i for i, f in enumerate(flags) if f == "1"] == maxima

    def test_desitter_far_envelope_matches_curved_law(self):
        # Fast oscillation (omega0 kappa = 10) so the product maxima sit on
        # the envelope: (mu^2 / 2 pi) kappa / L^2 within 1%.
        recs = desitter_sweep(np.geomspace(10.0, 1000.0, 4000), 10.0)
        env_L, env_v = extract_envelope(recs)
        mask = env_L >= 30.0
        far = (0.1**2 / (2.0 * math.pi)) / env_L[mask] ** 2
        assert np.max(np.abs(env_v[mask] - far) / far) < 0.01


class TestFitPowerLaw:
    def test_exact_inverse_square(self):
        L = np.geomspace(1.0, 100.0, 40)
        fit = fit_power_law(L, 3.7 / L**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.amplitude == pytest.approx(3.7, rel=1e-10)
        assert fit.residual_rms < 1e-12

    def test_exact_inverse_linear(self):
        L = np.geomspace(1.0, 100.0, 40)
        fit = fit_power_law(L, 0.2 / L)
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("window", [(30.0, 1000.0), (100.0, None), (None, 300.0)], ids=["both", "lo-only", "hi-only"])
    def test_desitter_far_exponent(self, window):
        recs = desitter_sweep(np.geomspace(30.0, 1000.0, 3000), 10.0)
        env_L, env_v = extract_envelope(recs)
        fit = fit_power_law(env_L, env_v, window)
        assert 1.95 <= fit.exponent <= 2.05
        # A None end is that end of the envelope.
        lo, hi = window
        explicit = (env_L.min() if lo is None else lo, env_L.max() if hi is None else hi)
        assert fit == fit_power_law(env_L, env_v, explicit)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.3]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0], ids=["nan", "inf", "-inf", "zero"])
    @pytest.mark.parametrize("arg", ["env_L", "env_value"])
    def test_rejects_non_finite_or_zero_entries(self, arg, bad):
        # Each would reach the log-log fit as a NaN exponent or a log of zero.
        L = np.geomspace(1.0, 100.0, 8)
        values = {"env_L": L, "env_value": 1.0 / L**2}
        values[arg][3] = bad
        with pytest.raises(ValueError, match=f"{arg} must be positive and finite"):
            fit_power_law(**values)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.5, 0.0, 0.3]))

    def test_rejects_arrays_of_different_lengths(self):
        with pytest.raises(ValueError, match=r"same shape, got \(5,\) and \(4,\)"):
            fit_power_law(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([1.0, 0.5, 0.3, 0.2]))


class TestClassify:
    def test_threshold_rule(self):
        fit = PowerLawFit(2.01, 1.0, 1e-4, (10.0, 100.0), 8)
        assert classify(fit).verdict is Verdict.DESITTER_FAR
        fit = PowerLawFit(1.00, 1.0, 1e-4, (10.0, 100.0), 8)
        assert classify(fit).verdict is Verdict.FLAT_OR_THERMAL
        fit = PowerLawFit(1.5, 1.0, 1e-4, (10.0, 100.0), 8)
        assert classify(fit).verdict is Verdict.INDETERMINATE

    def test_minkowski_sweep_any_frequency(self):
        for omega0 in (0.5, 1.0, 2.0):
            recs = minkowski_sweep(np.geomspace(10.0 / omega0, 100.0 / omega0, 2500), omega0)
            env_L, env_v = extract_envelope(recs)
            fit = fit_power_law(env_L, env_v)
            assert 0.98 <= fit.exponent <= 1.02
            assert classify(fit).verdict is Verdict.FLAT_OR_THERMAL

    def test_crossover_is_indeterminate(self):
        recs = desitter_sweep(np.geomspace(0.3, 10.0, 4000), 10.0)
        env_L, env_v = extract_envelope(recs)
        fit = fit_power_law(env_L, env_v)
        assert classify(fit).verdict is Verdict.INDETERMINATE

    def test_near_only_desitter_sweep_reads_flat(self):
        # Below the curvature scale the curved sweep is indistinguishable
        # from the flat law, and the verdict must say so.
        recs = desitter_sweep(np.geomspace(0.001, 0.1, 4000), 200.0)
        env_L, env_v = extract_envelope(recs)
        fit = fit_power_law(env_L, env_v)
        assert classify(fit).verdict is Verdict.FLAT_OR_THERMAL

    def test_reference_length_rescaling_invariance(self):
        # Rescaling the reference length multiplies L and kappa and divides
        # omega0 by the same factor; the fitted exponent and verdict must not
        # move (only L/kappa and omega0*kappa matter).
        def run(kap, omega0, L_lo, L_hi):
            L = np.geomspace(L_lo, L_hi, 3000)
            recs = [
                SweepRecord(
                    float(Li),
                    rcpi_closed_desitter(float(Li), kap, omega0, 0.1, DickeState.S),
                    rcpi_closed_desitter(float(Li), kap, omega0, 0.1, DickeState.A),
                )
                for Li in L
            ]
            env_L, env_v = extract_envelope(recs)
            return classify(fit_power_law(env_L, env_v))

        base = run(1.0, 10.0, 30.0, 1000.0)
        rescaled = run(2.0, 5.0, 60.0, 2000.0)
        assert rescaled.verdict is base.verdict is Verdict.DESITTER_FAR
        assert rescaled.fit.exponent == pytest.approx(base.fit.exponent, abs=1e-6)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        recs = minkowski_sweep(np.geomspace(10.0, 100.0, 1500), 1.0)
        scaled = [SweepRecord(r.L, scale * r.delta_E_S, scale * r.delta_E_A) for r in recs]
        env_L, env_v = extract_envelope(recs)
        env_Ls, env_vs = extract_envelope(scaled)
        fit = fit_power_law(env_L, env_v)
        fit_s = fit_power_law(env_Ls, env_vs)
        assert fit_s.exponent == pytest.approx(fit.exponent, abs=1e-9)
        assert classify(fit_s).verdict is classify(fit).verdict


SWEEP_HEAD = "L,dE_S,dE_A,envelope\r\n1,-0.5,0.5,0\r\n2,0.25,-0.25,1\r\n"


class TestCsvInterface:
    def test_round_trip(self):
        L = np.geomspace(5.0, 50.0, 40)
        dE_S = rcpi_closed_minkowski(L, 1.0, 0.1)
        buf = io.StringIO()
        write_sweep_csv(buf, L, dE_S)
        buf.seek(0)
        L_back, dE_S_back = read_sweep_csv(buf)
        assert np.array_equal(L_back, L)
        assert np.array_equal(dE_S_back, dE_S)

    @pytest.mark.parametrize(
        "tail, fragment",
        [
            ("nan,nan,nan,0\r\n", "row 4"),
            ("3,nan,nan,0\r\n", "row 4"),
            ("3,0.1,nan,0\r\n", "row 4"),
            ("3,0.1,inf,0\r\n", "row 4"),
            ("inf,0.1,-0.1,0\r\n", "row 4"),
            ("0,0.1,-0.1,0\r\n", "row 4"),
            ("3,inf,-inf,0\r\n", "row 4"),
            ("3,0.1,-0.2,0\r\n", "row 4"),
            ("3,0.1,-0.1\r\n", "row 4"),
            ("\r\n3,0.1,-0.1,0\r\n4,x,-0.1,0\r\n", "row 6"),
        ],
        ids=["nan-row", "nan-shifts", "nan-dE_A", "inf-dE_A", "inf-L", "zero-L", "inf-shifts", "asymmetric", "short", "after-blank"],
    )
    def test_bad_rows_rejected(self, tail, fragment):
        with pytest.raises(ValueError, match=fragment):
            read_sweep_csv(io.StringIO(SWEEP_HEAD + tail))

    def test_blank_lines_skipped(self):
        L, dE_S = read_sweep_csv(io.StringIO(SWEEP_HEAD + "\r\n3,0.1,-0.1,0\r\n\r\n"))
        assert L.tolist() == [1.0, 2.0, 3.0]
        assert dE_S.tolist() == [-0.5, 0.25, 0.1]

    def test_bad_header_rejected(self):
        buf = io.StringIO("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            read_sweep_csv(buf)

    def test_bad_row_reports_line_number(self):
        buf = io.StringIO("L,dE_S,dE_A\n1.0,-0.1,0.1\n2.0,nope,0.05\n")
        with pytest.raises(ValueError, match="row 3"):
            read_sweep_csv(buf)

    def test_verdict_json_schema(self):
        recs = minkowski_sweep(np.geomspace(10.0, 100.0, 1500), 1.0)
        env_L, env_v = extract_envelope(recs)
        result = classify(fit_power_law(env_L, env_v))
        doc = json.loads(result.to_json())
        assert set(doc) == {"exponent", "amplitude", "residual_rms", "window", "verdict", "notes"}
        assert doc["verdict"] == "FlatOrThermal"


@pytest.mark.parametrize("as_path", [False, True], ids=["buffer", "path"])
def test_bad_sweep_row_after_blank_lines(tmp_path, as_path):
    # Rows 4 and 5 are blank, so the NaN row is file row 6, the fourth sample.
    text = SWEEP_HEAD + "\r\n\r\nnan,nan,nan,0\r\n"
    source = io.StringIO(text)
    if as_path:
        source = tmp_path / "sweep.csv"
        source.write_bytes(text.encode())
    with pytest.raises(ValueError, match="^bad sweep row 6: L=nan"):
        read_sweep_csv(source)


@pytest.mark.parametrize("tail, fragment", [("3,0.1,-0.1,0\r\n", None), ("\r\n3,x,-0.1,0\r\n", "^bad row 5")])
def test_sweep_read_from_a_pipe(tail, fragment):
    # A buffer that cannot seek is read once; a bad row is still named.
    r, w = os.pipe()
    os.write(w, (SWEEP_HEAD + tail).encode())
    os.close(w)
    with open(r, newline="") as fh:
        if fragment is None:
            assert read_sweep_csv(fh)[0].tolist() == [1.0, 2.0, 3.0]
        else:
            with pytest.raises(ValueError, match=fragment):
                read_sweep_csv(fh)


# Fields that float takes, some of which loadtxt rejects (1_5, a quoted or
# padded number), and fields that float rejects too, so that both the
# loadtxt route and the row-by-row reading after a loadtxt failure are reached.
NUMBER_FIELDS = st.one_of(
    st.floats().map(repr),
    st.sampled_from([
        "1", "-0", "5e-324", "-1e308", "1e400", "nan", "-nan", "NaN", "-inf", "Infinity", "-Infinity",
        "1_5", " 3 ", "\t4", '"5"', '" 6 "', '"1"5', '"9\n"',
    ]),
)
CSV_FIELDS = st.one_of(NUMBER_FIELDS, NUMBER_FIELDS, NUMBER_FIELDS, st.sampled_from(["", " ", "x", '""', '"7,8"']))
CSV_ROWS = st.one_of(st.just([]), st.lists(CSV_FIELDS, min_size=1, max_size=6), st.lists(NUMBER_FIELDS, min_size=3, max_size=6))
CSV_HEADERS = st.sampled_from(["L,dE_S,dE_A,envelope", "L,dE_S,dE_A", "dE_A,x,L,dE_S,y", "L,dE_S"])


def _read(reader, text):
    try:
        return reader(io.StringIO(text), ("L", "dE_S", "dE_A"))
    except ValueError as exc:
        return str(exc)


@given(CSV_HEADERS, st.lists(st.tuples(CSV_ROWS, st.sampled_from(["\n", "\r\n"])), max_size=6), st.booleans())
@settings(max_examples=400, deadline=None)
def test_read_columns_matches_row_by_row_reader(header, rows, last_line_end):
    text = header + "\r\n" + "".join(",".join(row) + end for row, end in rows)
    if rows and not last_line_end:
        text = text[: -len(rows[-1][1])]
    expected, got = _read(read_columns_by_row, text), _read(csvio.read_columns, text)
    if isinstance(expected, str):
        assert got == expected
        return
    (lines, values), (file_row, got_values) = expected, got
    assert got_values.shape == values.shape
    assert got_values.tobytes() == values.tobytes()
    assert [file_row(i) for i in range(lines.size)] == lines.tolist()
