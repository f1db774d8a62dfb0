"""The CSV text: numpy's records against Python's per-value ``'%.9g' % v``."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biphoton_sim import SpectralGrid, grids, textfmt
from biphoton_sim.cli import main
from biphoton_sim.config import PRESET_NAMES
from biphoton_sim.grids import csv_text, waveform_csv_rows


def reference_rows(table: np.ndarray) -> str:
    """The per-value ``%`` loop that wrote every CSV before the numpy formatter."""
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(values) for values in table.tolist())


def text_of(blocks) -> str:
    """The whole text of a CSV's ASCII blocks."""
    return b"".join(blocks).decode("ascii")


def assert_matches_reference(*columns):
    table = np.column_stack(columns).astype(float)
    assert text_of(textfmt.format_rows(list(table.T))) == reference_rows(table)


def ulp_neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([np.nextafter(values, -np.inf), values,
                               np.nextafter(values, np.inf)])


# any bit pattern, nan payloads included
doubles = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@settings(max_examples=300)
@given(st.lists(st.floats() | doubles, min_size=1, max_size=64), st.integers(1, 4))
def test_any_double_matches_percent_format(values, m):
    # every finite double, subnormals and both zeros included, and nan, +-inf
    n = len(values) // m or 1
    table = np.resize(np.array(values, dtype=float), (n, m))
    assert text_of(textfmt.format_rows(list(table.T))) == reference_rows(table)


def test_exact_decimal_ties_on_the_tau_axis():
    # k * d_tau is an exact binary fraction: many values of tau_ns end in a 5
    # just past the ninth digit and round to even, in the fixed and the
    # exponential form
    for n, span in ((16384, 80e-6), (4096, 5e-6), (1024, 0.25e-9), (65536, 3e-3)):
        tau_ns = SpectralGrid(n, span).tau * 1e9
        assert_matches_reference(tau_ns, tau_ns * 1e-6, tau_ns * 1e12)
    ties = np.array([0.5, 1.5, 2.5, 1234567895.0, 123456789.5, 100000000.5, 12345.67895])
    assert_matches_reference(ulp_neighbours(ties))


def test_powers_of_ten_and_their_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert_matches_reference(ulp_neighbours(powers), -ulp_neighbours(powers))


def test_rounding_up_into_the_next_decade():
    # 9.9999999950e+-k rounds to 1e+-(k+1): the significand carries
    values = [float(f"9.9999999950e{k}") for k in range(-320, 308)]
    values += [float(f"9.999999995e{k}") for k in (-101, -100, -99, -6, -5, -4, 8, 9, 98, 99)]
    # and far from a tie: the carry itself moves e, into three digits at 1e100
    values += [float(f"9.9999999999e{k}") for k in (-101, -100, -99, -6, -5, -4, 8, 9, 98, 99)]
    assert_matches_reference(ulp_neighbours(values))


def test_switch_between_fixed_and_exponential_form():
    edges = [1e-5, 1e-4, 1e9, 9.99999999e-5, 9.999999995e-5, 999999999.0, 999999999.5,
             123456789.0, 0.000123456789, 0.0001, 1e8, 12.0, 120000.0, 0.1, 0.5]
    assert_matches_reference(ulp_neighbours(edges), -ulp_neighbours(edges))


def test_three_digit_exponents():
    values = [1e100, 1.5e-100, -1.234e-250, 9.87654321e299, 1e-310, 5e-324,
              np.finfo(float).max, np.finfo(float).tiny]
    assert_matches_reference(ulp_neighbours(values), -ulp_neighbours(values))


def test_zeros_and_non_finite_values():
    assert text_of(csv_text("a,b", [0.0, -0.0, math.inf], [-math.inf, math.nan, 1.0])) == (
        "a,b\n0,-inf\n-0,nan\ninf,1\n")


def test_list_columns_with_nan_as_the_scan_writes_them():
    text = text_of(csv_text("x,t,full", [0.5, 0.25, 1.0 / 3.0], [1250.0, 2500.5, 6850.25],
                            [math.nan] * 3))
    assert text == "x,t,full\n0.5,1250,nan\n0.25,2500.5,nan\n0.333333333,6850.25,nan\n"


def test_columns_of_unequal_length_are_refused_before_any_block():
    with pytest.raises(ValueError, match="columns differ in length: \\[2, 3\\]"):
        csv_text("a,b", [1.0, 2.0], [1.0, 2.0, 3.0])


def test_blocks_and_python_written_values_keep_their_order():
    # values Python writes, in several blocks and at a block's edges
    rng = np.random.default_rng(7)
    table = rng.standard_normal((3 * textfmt.BLOCK_VALUES // 5 + 7, 5)) * 1e3
    table[::97, 1] = math.nan
    table[1::131, 4] = 1e-200
    table[textfmt.BLOCK_VALUES // 5 - 1, :] = -math.inf
    assert_matches_reference(*table.T)
    wide = rng.standard_normal((2, textfmt.BLOCK_VALUES + 3))
    wide[0, -1] = math.nan
    assert_matches_reference(*wide.T)


def test_blocks_leave_the_numpy_error_state_alone():
    # the formatter ignores divide and invalid per block, not across a yield,
    # which would hand that setting to the code writing the blocks
    state = np.geterr()
    blocks = textfmt.format_rows([np.array([0.0, math.nan, 1.0])])
    next(blocks)
    assert np.geterr() == state


def test_full_engine_waveforms_match_the_reference(preset_waveforms):
    for run in preset_waveforms.values():
        wave = run["wave"]
        text = text_of(waveform_csv_rows(wave, run["counts"]))
        table = np.column_stack([wave.tau * 1e9, wave.amplitude.real, wave.amplitude.imag,
                                 wave.intensity, run["counts"]])
        assert text == "tau_ns,re_psi,im_psi,abs2_psi,cc_counts\n" + reference_rows(table)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_dataset_commands_match_the_reference(preset, tmp_path, monkeypatch):
    # every CSV a command writes from the preset, checked against the loop
    tables = []
    format_rows = textfmt.format_rows

    def checked(columns):
        text = b"".join(format_rows(columns))
        assert text.decode("ascii") == reference_rows(np.column_stack(columns))
        tables.append(len(columns))
        return [text]

    monkeypatch.setattr(grids, "format_rows", checked)
    commands = [["eit-spectrum"], ["waveform", "--engine", "uniform"],
                ["waveform", "--engine", "analytic"]]
    if preset == "fig5":
        commands.append(["scan"])
    for argv in commands:
        assert main([*argv, "--config", preset, "--out", str(tmp_path / "x.csv")]) == 0
    assert len(tables) == len(commands)
