import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tpi_sim
from tpi_sim import cli
from tpi_sim.bell import fidelity_map
from tpi_sim.cli import (
    _BLOCK_ROWS, RunConfig, _float_matrix, _row_blocks, _write_table, dumps, format_float, main,
)
from tpi_sim.interference import visibility_map

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def qd_pair_config(**extra):
    cfg = {
        "emitters": [
            {"lifetime_ps": 700, "dephasing_rate_mhz": 600, "inhomogeneous_fwhm_mhz": 1400},
            {"lifetime_ps": 650, "dephasing_rate_mhz": 300, "inhomogeneous_fwhm_mhz": 800},
        ]
    }
    cfg.update(extra)
    return cfg


def read_csv(path):
    header = None
    config_line = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# config = "):
            config_line = json.loads(line[len("# config = "):])
            continue
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows, config_line


class TestSerialization:
    def test_floats_use_17_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert float(format_float(math.pi)) == math.pi

    def test_dumps_deterministic_and_sorted(self):
        payload = {"b": [1.5, 2], "a": {"y": True, "x": None}}
        assert dumps(payload) == '{"a":{"x":null,"y":true},"b":[1.5,2]}'


def row_writer_text(config, columns, rows):
    """The output of the row writer the columnar one replaced: ``format_float``
    per float cell in CSV, ``dumps`` of the whole payload in JSON."""
    if config.fmt == "json":
        payload = {
            "command": config.command,
            "config": config.params,
            "seed": config.seed,
            "columns": columns,
            "rows": rows,
        }
        return dumps(payload) + "\n"
    lines = [
        f"# command = {config.command}",
        f"# config = {dumps(config.params)}",
        f"# seed = {config.seed}",
        ",".join(columns),
    ]
    lines += [",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def assert_same_rows(got, want):
    """``got == want`` for two long table texts, reported on failure as the
    first differing row (a CSV line, or a JSON row array with its comma)
    rather than as pytest's diff of the whole texts, which runs so long on a
    10,000-row table that the run looks hung."""
    got, want = (re.split(r"(?<=\n)|(?<=\],)", text) for text in (got, want))
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, f"row {first} differs: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want), f"{len(got)} rows written, {len(want)} expected"


SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1, 1e16, 1e17,
]


def text_blocks(monkeypatch):
    """The list into which the writer's text path records the row count of
    each block it writes."""
    rows, text_rows = [], cli._text_rows

    def recording(block, *args):
        rows.append(len(block[0]))
        return text_rows(block, *args)

    monkeypatch.setattr(cli, "_text_rows", recording)
    return rows


def block_rows(n_rows):
    """The row count of each :func:`_row_blocks` block of an ``n_rows`` table."""
    return [min(_BLOCK_ROWS, n_rows - start) for start in range(0, n_rows, _BLOCK_ROWS)]


class TestColumnWriter:
    """The columnar writer gives the bytes of the row writer it replaced, on
    its text path and its byte-matrix path alike."""

    @staticmethod
    def random_floats(rng, n):
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
        return bits.view(np.float64)

    @staticmethod
    def written(tmp_path, config, names, blocks):
        out = tmp_path / f"table.{config.fmt}"
        _write_table(RunConfig(config.command, config.params, str(out), config.fmt, config.seed),
                     names, blocks)
        return out.read_text()

    # the text columns of the table: a label column, a bool column or both
    @pytest.mark.parametrize("kept", [("name",), ("passed",), ("name", "passed")],
                             ids=["labels", "bools", "labels_and_bools"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 39, 40, 41, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_floats_labels_and_bools(self, tmp_path, monkeypatch, fmt, n, kept):
        texted = text_blocks(monkeypatch)
        rng = np.random.default_rng(n)
        bits = self.random_floats(rng, n)
        special = np.resize(np.array(SPECIAL_FLOATS), n)
        rng.shuffle(special)
        scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, size=n)
        words = ["qd", "nv center", 'say "hi"', "back\\slash", "ümlaut", "tab\there", ""]
        labels = [words[k] for k in rng.integers(0, len(words), size=n)]
        flags = [bool(b) for b in rng.integers(0, 2, size=n)]
        config = RunConfig("assess", {"n_points": 3, "sources": [{"name": "x"}]}, None, fmt, 11)
        table = {"name": (labels, labels), "bits": (bits.tolist(), bits),
                 "special": (special.tolist(), special), "scaled": (scaled.tolist(), scaled),
                 "passed": (flags, flags)}
        names = [name for name in table if name in kept or name not in ("name", "passed")]
        rows = [list(row) for row in zip(*(table[name][0] for name in names))]
        blocks = _row_blocks(*(table[name][1] for name in names))
        expected = row_writer_text(config, names, rows)
        assert self.written(tmp_path, config, names, blocks) == expected
        # a block with a label or a bool column takes the text path whatever its size
        assert texted == block_rows(n)

    def test_every_float_renders_as_format_float(self, tmp_path):
        values = np.concatenate([self.random_floats(np.random.default_rng(1), 200_000),
                                 np.array(SPECIAL_FLOATS)])
        config = RunConfig("g2", {}, None, "csv", 0)
        text = self.written(tmp_path, config, ["x"], _row_blocks(values))
        assert text.splitlines()[4:] == [format_float(v) for v in values.tolist()]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command,evaluate,value_name", [
        ("vmap", visibility_map, "visibility"),
        ("fmap", fidelity_map, "fidelity"),
    ])
    @pytest.mark.parametrize("n_pd,n_sd", [
        # whole map rows, _BLOCK_ROWS // 50 of them per block: two full
        # blocks and one a third full
        (2 * (_BLOCK_ROWS // 50) + _BLOCK_ROWS // 150, 50),
        # map rows longer than a block: each is cut into a full block and a
        # ragged one
        (2, _BLOCK_ROWS + _BLOCK_ROWS // 3),
        # one block of 4 rows, built as a byte matrix like the larger ones
        (2, 2),
    ])
    def test_map_rows_not_a_multiple_of_the_block(self, tmp_path, monkeypatch, fmt, command,
                                                  evaluate, value_name, n_pd, n_sd):
        # the theta_sd range crosses the Lorentzian switch
        params = {
            "theta_pd": {"min": 1.0, "max": 80.0, "n": n_pd, "spacing": "log"},
            "theta_sd": {"min": 1e-14, "max": 20.0, "n": n_sd, "spacing": "log"},
        }
        _, _, blocks, _ = cli._COMMANDS[command][0](params, 3)
        sizes = [len(block[2]) for block in blocks]
        assert max(sizes) <= _BLOCK_ROWS and sum(sizes) == n_pd * n_sd
        assert len(sizes) >= 3 and sizes[-1] < sizes[0] or sizes == [4]
        cfg = write_config(tmp_path, {**params, "seed": 3})
        out = tmp_path / f"map.{fmt}"
        texted = text_blocks(monkeypatch)
        assert main([command, "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        assert texted == []
        pd = np.geomspace(1.0, 80.0, n_pd)
        sd = np.geomspace(1e-14, 20.0, n_sd)
        matrix = evaluate(pd, sd)
        rows = [[float(a), float(b), float(matrix[i, j])]
                for i, a in enumerate(pd) for j, b in enumerate(sd)]
        params = {key: {**grid, "min": float(grid["min"]), "max": float(grid["max"])}
                  for key, grid in params.items()}
        config = RunConfig(command, params, None, fmt, 3)
        expected = row_writer_text(config, ["theta_pd", "theta_sd", value_name], rows)
        assert_same_rows(out.read_text(), expected)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_theta_sd_axis_memory(self, tmp_path, fmt):
        # A block holds at most _BLOCK_ROWS rows however long a map row is:
        # the rest is the grids and their rendered cells, 12 MB in all here.
        # Blocks of whole map rows held 58 MB at this size.
        cfg = write_config(tmp_path, {
            "theta_pd": {"min": 1.0, "max": 30.0, "n": 2, "spacing": "linear"},
            "theta_sd": {"min": 0.0, "max": 20.0, "n": 200_000, "spacing": "linear"},
        })
        out = tmp_path / f"map.{fmt}"
        tracemalloc.start()
        try:
            assert main(["vmap", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def rendered_cells(values):
    """The text of every cell of :func:`_float_matrix`, NULs deleted."""
    return [bytes(cell).translate(None, b"\0").decode() for cell in _float_matrix(values).T]


def format_floats(values):
    return [format_float(v) for v in np.asarray(values, dtype=float).tolist()]


class TestFloatMatrix:
    """The numpy '%.17g' kernel against :func:`format_float`, where the exact
    digits are hardest: decade edges, ties and round-ups to 10**17."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_both_sides_of_every_power_of_ten(self, sign):
        values = []
        for k in range(-6, 19):
            for direction in (0.0, math.inf):
                v = sign * 10.0**k
                for _ in range(6):
                    values.append(v)
                    v = math.nextafter(v, sign * direction)
        assert rendered_cells(values) == format_floats(values)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exact_ties_round_half_to_even(self, sign):
        # x * 10**(16 - k) of a quarter in [1e15, 1e16) (k = 15) or of an
        # eighth in [1e14, 1e15) (k = 14) is an exact tie where x is exact and odd
        rng = np.random.default_rng(3)
        values = sign * np.concatenate([
            rng.integers(4 * 10**15, 4 * 10**16, size=20_000) / 4,
            rng.integers(8 * 10**14, 8 * 10**15, size=20_000) / 8,
        ])
        assert rendered_cells(values) == format_floats(values)
        scaled = [Fraction(v) * 10 ** (16 - math.floor(math.log10(abs(v))))
                  for v in values.tolist()]
        assert sum(x.denominator == 2 for x in scaled) > 2000

    def test_round_up_to_the_next_decade(self):
        # the doubles nearest 10**j and a few ulps either side, over the whole
        # exponent range; some round up to 17 digits "10000000000000000"
        values = []
        for j in range(-307, 309):
            v = float(f"1e{j}")
            for _ in range(3):
                v = math.nextafter(v, 0.0)
            for _ in range(7):
                values += [v, -v]
                v = math.nextafter(v, math.inf)
        expected = format_floats(values)
        assert rendered_cells(values) == expected
        rounded_up = [
            v for v, text in zip(values, expected)
            if text.lstrip("-").split("e")[0].replace(".", "").strip("0") == "1"
            and abs(Fraction(v)) < Fraction(10) ** round(math.log10(abs(v)))
        ]
        assert len(rounded_up) >= 20

    def test_wide_positional_range_and_specials(self):
        rng = np.random.default_rng(8)
        values = np.concatenate([
            rng.standard_normal(50_000) * 10.0 ** rng.integers(-6, 19, size=50_000),
            rng.random(20_000),
            np.round(rng.random(5_000) * 1e5) / 10.0 ** rng.integers(0, 6, size=5_000),
            np.array(SPECIAL_FLOATS),
        ])
        assert rendered_cells(values) == format_floats(values)

    def test_block_peak_memory(self):
        # one block of mixed values: the (_CELL_WIDTH, n) result is 0.39 MB
        # at _BLOCK_ROWS = 16384, and the kernel's live temporaries about
        # 1.2 MB more (2.8 MB when every intermediate lived to the end)
        rng = np.random.default_rng(9)
        values = rng.standard_normal(_BLOCK_ROWS) * 10.0 ** rng.integers(-8, 20, _BLOCK_ROWS)
        values[::97] = np.resize(np.array(SPECIAL_FLOATS), len(values[::97]))
        _float_matrix(values)  # one-time lazy allocations are not counted
        tracemalloc.start()
        try:
            cells = _float_matrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.shape == (cli._CELL_WIDTH, _BLOCK_ROWS)
        assert peak < 2.0e6, peak

    def test_exponential_block_peak_memory(self):
        # every cell on the '%' path: rendered at once, its tuple, text and
        # split list took the peak to 3.2 MB
        values = 10.0 ** np.random.default_rng(10).uniform(-300, -20, _BLOCK_ROWS)
        _float_matrix(values)
        tracemalloc.start()
        try:
            cells = _float_matrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rendered_cells(values) == format_floats(values)
        assert cells.shape == (cli._CELL_WIDTH, _BLOCK_ROWS)
        assert peak < 2.0e6, peak

    # the columns given as rendered cells, as the map axes are: none, the
    # first (the block's row count is then a matrix width) or all of them
    @pytest.mark.parametrize("rendered", [(), (0,), (0, 1, 2)],
                             ids=["floats", "first_rendered", "all_rendered"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 66, 67, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_multi_column_blocks(self, tmp_path, monkeypatch, fmt, n, rendered):
        texted = text_blocks(monkeypatch)
        rng = np.random.default_rng(n)
        columns = [
            rng.standard_normal(n) * 10.0 ** rng.integers(-6, 19, size=n),
            np.linspace(-7000.0, 7000.0, n),
            rng.random(n),
        ]
        config = RunConfig("g2", {"n_tau": n}, None, fmt, 2)
        rows = [list(row) for row in zip(*(column.tolist() for column in columns))]
        expected = row_writer_text(config, ["a", "b", "c"], rows)
        out = tmp_path / f"table.{fmt}"
        given = [_float_matrix(column) if i in rendered else column
                 for i, column in enumerate(columns)]
        given = [c[c.any(axis=1)] if c.ndim == 2 else c for c in given]
        blocks = [tuple(c[..., start : start + _BLOCK_ROWS] for c in given)
                  for start in range(0, n, _BLOCK_ROWS)]
        _write_table(RunConfig("g2", {"n_tau": n}, str(out), fmt, 2), ["a", "b", "c"], blocks)
        assert out.read_text() == expected
        # a block of numbers is built as a byte matrix, however few its rows
        assert texted == []


class TestG2Command:
    def test_writes_expected_columns(self, tmp_path):
        cfg = write_config(tmp_path, qd_pair_config(tau_max_ps=2000.0, n_tau=101))
        out = tmp_path / "trace.csv"
        assert main(["g2", "--config", cfg, "--out", str(out)]) == 0
        header, rows, embedded = read_csv(out)
        assert header == ["tau_ps", "g2", "g2_classical"]
        assert len(rows) == 101
        mid = rows[50]
        assert float(mid[0]) == 0.0
        assert abs(float(mid[1])) < 1e-3  # dip at zero lag (units 1/s)

    def test_detuned_trace_beats(self, tmp_path):
        payload = qd_pair_config(tau_max_ps=2000.0, n_tau=4001)
        payload["emitters"][0]["detuning_mhz"] = 3000
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "trace.csv"
        assert main(["g2", "--config", cfg, "--out", str(out)]) == 0
        _, rows, _ = read_csv(out)
        tau = np.array([float(r[0]) for r in rows])
        osc = np.array([float(r[1]) - float(r[2]) for r in rows])
        crossings = np.where(np.diff(np.sign(osc)) != 0)[0]
        spacing = np.median(np.diff(tau[crossings]))
        assert spacing == pytest.approx(1e12 / (2 * 3e9), rel=0.05)  # ps

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, qd_pair_config(n_tau=51))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["g2", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["g2", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_round_trip_in_metadata(self, tmp_path):
        cfg = write_config(tmp_path, qd_pair_config(tau_max_ps=1500.0, n_tau=11))
        out = tmp_path / "trace.csv"
        main(["g2", "--config", cfg, "--out", str(out)])
        _, _, embedded = read_csv(out)
        assert embedded["n_tau"] == 11
        assert embedded["tau_max_ps"] == 1500.0
        assert embedded["emitters"][0]["lifetime_ps"] == 700.0
        # feeding the embedded config back reproduces the output byte-for-byte
        cfg2 = write_config(tmp_path, embedded, name="roundtrip.json")
        out2 = tmp_path / "trace2.csv"
        main(["g2", "--config", cfg2, "--out", str(out2)])
        assert out.read_bytes() == out2.read_bytes()

    def test_rejects_single_emitter(self, tmp_path):
        cfg = write_config(tmp_path, {"emitters": [{"lifetime_ps": 700}]})
        assert main(["g2", "--config", cfg]) == 1


class TestTuningCommand:
    def test_curve_values(self, tmp_path):
        cfg = write_config(
            tmp_path, qd_pair_config(detuning_ghz={"min": 0.0, "max": 3.0, "n": 2})
        )
        out = tmp_path / "curve.csv"
        assert main(["tuning", "--config", cfg, "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["delta_nu_ghz", "visibility", "p_coinc", "p_coinc_classical"]
        assert float(rows[0][1]) == pytest.approx(0.29161239690735356, rel=1e-12)
        assert float(rows[1][1]) == pytest.approx(0.011838359572131006, rel=1e-12)

    def test_empty_grid_is_an_error(self, tmp_path):
        cfg = write_config(
            tmp_path, qd_pair_config(detuning_ghz={"min": 0.0, "max": 3.0, "n": 0})
        )
        assert main(["tuning", "--config", cfg]) == 1


class TestMapCommands:
    def test_vmap_and_fmap(self, tmp_path):
        payload = {
            "theta_pd": {"min": 1.0, "max": 4.0, "n": 3},
            "theta_sd": {"min": 0.0, "max": 2.0, "n": 3},
        }
        cfg = write_config(tmp_path, payload)
        vout, fout = tmp_path / "v.csv", tmp_path / "f.csv"
        assert main(["vmap", "--config", cfg, "--out", str(vout)]) == 0
        assert main(["fmap", "--config", cfg, "--out", str(fout)]) == 0
        vh, vrows, _ = read_csv(vout)
        fh, frows, _ = read_csv(fout)
        assert vh == ["theta_pd", "theta_sd", "visibility"]
        assert fh == ["theta_pd", "theta_sd", "fidelity"]
        assert len(vrows) == 9
        assert float(vrows[0][2]) == 1.0  # Fourier corner
        assert float(frows[0][2]) == pytest.approx(1.0, abs=1e-9)

    def test_map_grid_below_fourier_rejected(self, tmp_path):
        payload = {
            "theta_pd": {"min": 0.5, "max": 4.0, "n": 3},
            "theta_sd": {"min": 0.0, "max": 2.0, "n": 3},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["vmap", "--config", cfg]) == 1


class TestDecomposeCommand:
    def test_coherence_mode(self, tmp_path):
        payload = {"constraint": {"lifetime_ps": 670, "coherence_time_ps": 330}, "n_points": 20}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "curve.csv"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == [
            "dephasing_rate_mhz", "inhomogeneous_fwhm_mhz", "theta_pd", "theta_sd", "x_c",
        ]
        assert len(rows) == 20
        assert float(rows[0][0]) == pytest.approx(2280.0, rel=5e-3)
        assert float(rows[-1][1]) == pytest.approx(1394.0, rel=5e-3)

    def test_infeasible_exits_nonzero(self, tmp_path):
        payload = {"constraint": {"lifetime_ps": 500, "coherence_time_ps": 1500}}
        cfg = write_config(tmp_path, payload)
        assert main(["decompose", "--config", cfg]) == 1


class TestAssessCommand:
    def test_benchmark_rows(self, tmp_path):
        payload = {
            "n_points": 60,
            "sources": [
                {
                    "name": "qd_pair",
                    "lifetime_ps": 670,
                    "coherence_time_ps": 330,
                    "second": {"lifetime_ps": 660, "coherence_time_ps": 420},
                },
                {"name": "siv", "lifetime_ps": 1720, "total_fwhm_mhz": 119},
            ],
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "assess.csv"
        assert main(["assess", "--config", cfg, "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["name", "v_min", "v_max", "f_min", "f_max"]
        byname = {r[0]: [float(v) for v in r[1:]] for r in rows}
        assert byname["qd_pair"][0] == pytest.approx(0.277, abs=3e-3)
        assert byname["qd_pair"][1] == pytest.approx(0.319, abs=3e-3)
        assert byname["siv"][0] == pytest.approx(0.778, abs=3e-3)
        assert byname["siv"][1] == pytest.approx(0.905, abs=3e-3)

    def test_json_format(self, tmp_path):
        payload = {
            "sources": [{"name": "siv", "lifetime_ps": 1720, "total_fwhm_mhz": 119}],
            "n_points": 20,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "assess.json"
        assert main(["assess", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert data["command"] == "assess"
        assert data["columns"][0] == "name"
        assert data["config"]["sources"][0]["name"] == "siv"


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        payload = {
            "closed_form_instances": 5,
            "mc_instances": 1,
            "mc_realizations": 600,
            "phase_trials": 20000,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "verify.csv"
        code = main(["verify", "--config", cfg, "--out", str(out), "--seed", "2024"])
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["check", "observed", "bound", "passed"]
        assert all(r[-1] == "True" for r in rows)

    def test_json_format(self, tmp_path):
        payload = {
            "closed_form_instances": 1,
            "mc_instances": 1,
            "mc_realizations": 2,
            "phase_trials": 10000,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "verify.json"
        code = main(["verify", "--config", cfg, "--out", str(out), "--format", "json"])
        # sizes this small may miss a 3-sigma gate; the output must parse either way
        assert code in (0, 1)
        data = json.loads(out.read_text())
        passed = [row[data["columns"].index("passed")] for row in data["rows"]]
        assert len(passed) == 4
        assert all(isinstance(p, bool) for p in passed)

    def test_seed_determinism(self, tmp_path):
        payload = {
            "closed_form_instances": 3,
            "mc_instances": 1,
            "mc_realizations": 300,
            "phase_trials": 15000,
        }
        cfg = write_config(tmp_path, payload)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["verify", "--config", cfg, "--out", str(a), "--seed", "7"])
        main(["verify", "--config", cfg, "--out", str(b), "--seed", "7"])
        assert a.read_bytes() == b.read_bytes()


class TestConfigBoundary:
    """Bad values are refused with one ``error:`` line naming the field."""

    def run_error(self, tmp_path, capsys, command, payload):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))  # json.dumps writes NaN / Infinity literals
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("command", ["decompose", "assess"])
    def test_overflowing_linewidth(self, tmp_path, capsys, command):
        constraint = {"lifetime_ps": 1720, "total_fwhm_mhz": 1e150}
        if command == "decompose":
            payload, field = {"constraint": constraint}, "constraint.total_fwhm_mhz"
        else:
            payload = {"sources": [{"name": "wide", **constraint}]}
            field = "sources[0].total_fwhm_mhz"
        err = self.run_error(tmp_path, capsys, command, payload)
        assert field in err and "out of range" in err

    @pytest.mark.parametrize(
        "command,payload,field",
        [
            ("decompose", {"constraint": {"lifetime_ps": 670, "coherence_time_ps": 330},
                           "n_points": True}, "n_points"),
            ("assess", {"sources": [{"name": "a", "lifetime_ps": 670, "coherence_time_ps": 330}],
                        "n_points": True}, "n_points"),
            ("vmap", {"theta_pd": {"min": 1, "max": 2, "n": True},
                      "theta_sd": {"min": 0, "max": 1, "n": 2}}, "theta_pd.n"),
            ("tuning", qd_pair_config(detuning_ghz={"min": 0.0, "max": True, "n": 3}),
             "detuning_ghz.max"),
            ("g2", qd_pair_config(n_tau=True), "n_tau"),
            ("verify", {"mc_instances": True}, "mc_instances"),
            ("g2", {"emitters": [{"lifetime_ps": True}, {"lifetime_ps": 650}]},
             "emitters[0].lifetime_ps"),
            ("decompose", {"seed": True, "constraint": {"lifetime_ps": 670,
                                                        "coherence_time_ps": 330}}, "seed"),
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, capsys, command, payload, field):
        assert repr(field) in self.run_error(tmp_path, capsys, command, payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "command,payload,field",
        [
            ("decompose", {"constraint": {"lifetime_ps": 670, "coherence_time_ps": "BAD"}},
             "constraint.coherence_time_ps"),
            ("assess", {"sources": [{"name": "a", "lifetime_ps": 670, "coherence_time_ps": 330,
                                     "second": {"lifetime_ps": "BAD", "total_fwhm_mhz": 500}}]},
             "sources[0].second.lifetime_ps"),
            ("g2", {"emitters": [{"lifetime_ps": 700, "detuning_mhz": "BAD"},
                                 {"lifetime_ps": 650}]}, "emitters[0].detuning_mhz"),
            ("g2", qd_pair_config(tau_max_ps="BAD"), "tau_max_ps"),
            ("vmap", {"theta_pd": {"min": 1, "max": 2, "n": 2},
                      "theta_sd": {"min": "BAD", "max": 1, "n": 2}}, "theta_sd.min"),
        ],
    )
    def test_non_finite_values(self, tmp_path, capsys, command, payload, field, bad):
        payload = json.loads(json.dumps(payload).replace('"BAD"', json.dumps(bad)))
        assert repr(field) in self.run_error(tmp_path, capsys, command, payload)

    @pytest.mark.parametrize(
        "fields,bad",
        [
            ({"coherence_time_ps": "BAD"}, -330),
            ({"coherence_time_ps": "BAD"}, 0),
            ({"total_fwhm_mhz": "BAD"}, -5),
            ({"total_fwhm_mhz": "BAD"}, 0.0),
            ({"lorentzian_fwhm_mhz": "BAD", "gaussian_fwhm_mhz": 100}, -200),
            ({"lorentzian_fwhm_mhz": "BAD", "gaussian_fwhm_mhz": 100}, 0),
            ({"lorentzian_fwhm_max_mhz": "BAD", "gaussian_fwhm_mhz": 100}, -1.5),
            ({"lorentzian_fwhm_max_mhz": "BAD", "gaussian_fwhm_mhz": 100}, 0),
            ({"lorentzian_fwhm_mhz": 200, "gaussian_fwhm_mhz": "BAD"}, -100),
        ],
    )
    @pytest.mark.parametrize("command", ["decompose", "assess"])
    def test_constraint_sign_named_in_config_units(self, tmp_path, capsys, command, fields, bad):
        (key,) = [k for k, v in fields.items() if v == "BAD"]
        constraint = {"lifetime_ps": 1000, **fields, key: bad}
        if command == "decompose":
            payload, field = {"constraint": constraint}, f"constraint.{key}"
        else:
            second = {"lifetime_ps": 700, "coherence_time_ps": 300}
            payload = {"sources": [{"name": "a", **second, "second": constraint}]}
            field = f"sources[0].second.{key}"
        err = self.run_error(tmp_path, capsys, command, payload)
        assert repr(field) in err and err.rstrip().endswith(f"not {bad!r}"), err

    @staticmethod
    def pair_payload(command):
        if command == "g2":
            return qd_pair_config(n_tau=11)
        return qd_pair_config(detuning_ghz={"min": -1.0, "max": 1.0, "n": 3})

    @pytest.mark.parametrize(
        "key,bad",
        [
            ("lifetime_ps", -700),
            ("lifetime_ps", 0),
            ("dephasing_rate_mhz", -5),
            ("inhomogeneous_fwhm_mhz", -1.5),
        ],
    )
    @pytest.mark.parametrize("command", ["g2", "tuning"])
    def test_emitter_sign_named_in_config_units(self, tmp_path, capsys, command, key, bad):
        payload = self.pair_payload(command)
        payload["emitters"][1][key] = bad
        err = self.run_error(tmp_path, capsys, command, payload)
        field = f"emitters[1].{key}"
        assert repr(field) in err and err.rstrip().endswith(f"not {bad!r}"), err

    @pytest.mark.parametrize("command", ["decompose", "assess"])
    def test_fields_checked_one_at_a_time_in_table_order(self, tmp_path, capsys, command):
        # lifetime_ps comes first in the table: its sign is refused before
        # the range of total_fwhm_mhz is looked at
        constraint = {"lifetime_ps": -1720, "total_fwhm_mhz": 1e150}
        if command == "decompose":
            payload, field = {"constraint": constraint}, "constraint.lifetime_ps"
        else:
            payload, field = {"sources": [{"name": "a", **constraint}]}, "sources[0].lifetime_ps"
        err = self.run_error(tmp_path, capsys, command, payload)
        assert repr(field) in err and err.rstrip().endswith("not -1720"), err

    @pytest.mark.parametrize(
        "command,payload,where",
        [
            ("vmap", {"theta_pd": {"min": 1, "max": 2, "n": 3, "spacng": "log"},
                      "theta_sd": {"min": 0, "max": 1, "n": 3}}, "theta_pd"),
            ("tuning", qd_pair_config(detuning_ghz={"min": -1, "max": 1, "n": 3, "step": 1}),
             "detuning_ghz"),
            ("g2", {"emitters": [{"lifetime_ps": 700},
                                 {"lifetime_ps": 650, "dephasing_mhz": 300}]}, "emitters[1]"),
            ("assess", {"sources": [{"name": "a", "lifetime_ps": 670, "coherence_time_ps": 330,
                                     "second": {"lifetime_ps": 650, "coherence_ps": 300}}]},
             "sources[0].second"),
            ("decompose", {"constraint": {"lifetime_ps": 670, "coherence_time": 330}},
             "constraint"),
        ],
    )
    def test_unknown_fields_named_with_their_object(self, tmp_path, capsys, command, payload,
                                                    where):
        err = self.run_error(tmp_path, capsys, command, payload)
        assert repr(where) in err and "unknown fields" in err, err

    @pytest.mark.parametrize(
        "command,typo",
        [
            ("g2", "n_tua"),
            ("tuning", "detuning_gz"),
            ("vmap", "thta_sd"),
            ("fmap", "theta_pdd"),
            ("decompose", "n_point"),
            ("assess", "n_point"),
            ("verify", "mc_realisations"),
        ],
    )
    def test_unknown_top_level_fields_named(self, tmp_path, capsys, command, typo):
        # a valid config plus one misspelt key: the key is refused, not ignored
        payload = {**TINY_CONFIGS[command], typo: 3}
        err = self.run_error(tmp_path, capsys, command, payload)
        assert "top level" in err and repr(typo) in err, err

    @pytest.mark.parametrize("entry", [{"lifetime_ps": 670, "coherence_time_ps": 330}, "qd"])
    def test_source_without_a_name_named_by_its_index(self, tmp_path, capsys, entry):
        source = {"name": "ok", "lifetime_ps": 670, "coherence_time_ps": 330}
        payload = {"sources": [source, source, entry], "n_points": 3}
        err = self.run_error(tmp_path, capsys, "assess", payload)
        assert "'sources[2]'" in err and "'name'" in err, err

    @pytest.mark.parametrize("command", ["g2", "tuning"])
    def test_zero_widths_and_negative_detuning_accepted(self, tmp_path, command):
        payload = self.pair_payload(command)
        payload["emitters"][0].update(
            dephasing_rate_mhz=0, inhomogeneous_fwhm_mhz=0.0, detuning_mhz=-500
        )
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("command", ["decompose", "assess"])
    def test_vanishing_gaussian_width_accepted(self, tmp_path, command):
        # 1e-86 MHz is inside the accepted range, but a * a of the coherence
        # time's unit-scale root form overflows for it
        constraint = {"lifetime_ps": 1000, "lorentzian_fwhm_mhz": 200, "gaussian_fwhm_mhz": 1e-86}
        if command == "decompose":
            payload = {"constraint": constraint}
        else:
            payload = {"sources": [{"name": "narrow", **constraint}]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        # the pure Lorentzian: theta_pd = 2 pi * 200 MHz * 1 ns, V = x_c = 1 / theta_pd
        expected = 1.0 / (2.0 * math.pi * 200e6 * 1e-9)
        if command == "decompose":
            assert float(rows[0][header.index("x_c")]) == pytest.approx(expected, rel=1e-12)
        else:
            assert float(rows[0][header.index("v_min")]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ["qd, 850\nps", "a,b", "cr\rlf", "line\n", "nul\0name", 12,
                                      True, None, ["qd"], "#qd", '"qd'])
    def test_source_name_must_be_one_csv_cell(self, tmp_path, capsys, name):
        payload = {"sources": [{"name": "ok", "lifetime_ps": 670, "coherence_time_ps": 330},
                               {"name": name, "lifetime_ps": 670, "coherence_time_ps": 330}],
                   "n_points": 3}
        err = self.run_error(tmp_path, capsys, "assess", payload)
        assert "'sources[1].name'" in err and err.rstrip().endswith(f"not {name!r}"), err

    def test_other_source_names_accepted(self, tmp_path):
        names = ["nv center", 'say "hi"', "ümlaut;tab\t", "", "qd #2"]
        payload = {"sources": [{"name": name, "lifetime_ps": 670, "coherence_time_ps": 330}
                               for name in names], "n_points": 3}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "assess.json"
        assert main(["assess", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert [row[0] for row in json.loads(out.read_text())["rows"]] == names

    def test_zero_gaussian_width_accepted(self, tmp_path):
        constraint = {"lifetime_ps": 1000, "lorentzian_fwhm_max_mhz": 200, "gaussian_fwhm_mhz": 0}
        cfg = write_config(tmp_path, {"constraint": constraint, "n_points": 5})
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    def test_valid_integral_floats_still_accepted(self, tmp_path):
        payload = {"constraint": {"lifetime_ps": 670, "coherence_time_ps": 330.0}, "n_points": 5}
        cfg = write_config(tmp_path, payload)
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize(
        "command,payload,field",
        [
            # squaring theta_pd = 1e308 used to print nan, which is not JSON
            ("vmap", {"theta_pd": {"min": 1, "max": 1e308, "n": 3},
                      "theta_sd": {"min": 0, "max": 1e308, "n": 3}}, "theta_pd.max"),
            ("fmap", {"theta_pd": {"min": 1, "max": 1e308, "n": 3},
                      "theta_sd": {"min": 0, "max": 1e308, "n": 3}}, "theta_pd.max"),
            ("vmap", {"theta_pd": {"min": 1, "max": 2, "n": 3},
                      "theta_sd": {"min": 1e-151, "max": 1, "n": 3}}, "theta_sd.min"),
            ("fmap", {"theta_pd": {"min": 1, "max": 2, "n": 3},
                      "theta_sd": {"min": 0, "max": 1e151, "n": 3}}, "theta_sd.max"),
            # 1e-300 ps is 1e-312 s and 1e163 ps is 1e151 s, outside the SI range
            ("g2", qd_pair_config(tau_max_ps=1e-300, n_tau=3), "tau_max_ps"),
            ("g2", qd_pair_config(tau_max_ps=1e163, n_tau=3), "tau_max_ps"),
            # the range applies in Hz: 1e142 GHz is 1e151 Hz
            ("tuning", qd_pair_config(detuning_ghz={"min": -1e142, "max": 1.0, "n": 3}),
             "detuning_ghz.min"),
        ],
    )
    def test_grid_ends_out_of_range(self, tmp_path, capsys, command, payload, field):
        err = self.run_error(tmp_path, capsys, command, payload)
        assert repr(field) in err and "out of range" in err

    @pytest.mark.parametrize("bad", [-300.0, 0.0])
    def test_g2_span_sign_named(self, tmp_path, capsys, bad):
        err = self.run_error(tmp_path, capsys, "g2", qd_pair_config(tau_max_ps=bad, n_tau=3))
        assert "'tau_max_ps' must be positive" in err, err

    @pytest.mark.parametrize("flag", [False, True])
    def test_negative_seed_named(self, tmp_path, capsys, flag):
        payload = dict(TINY_CONFIGS["decompose"])
        if flag:
            cfg = write_config(tmp_path, payload)
            code = main(["decompose", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-5"])
            err = capsys.readouterr().err
            assert code == 1 and err.count("\n") == 1, err
        else:
            err = self.run_error(tmp_path, capsys, "decompose", {**payload, "seed": -1})
        assert err.startswith("error: config field 'seed' must be an integer >= 0"), err

    @pytest.mark.parametrize(
        "command,payload,expected",
        [
            ("g2", {"emitters": {"lifetime_ps": 700}}, "field 'emitters' has the wrong type"),
            ("assess", {"sources": {"name": "a"}}, "field 'sources' has the wrong type"),
            ("g2", {"emitters": [{"dephasing_rate_mhz": 5}, {"lifetime_ps": 650}]},
             "missing required field 'emitters[0].lifetime_ps'"),
            ("decompose", {"constraint": {"coherence_time_ps": 330}},
             "missing required field 'constraint.lifetime_ps'"),
            # json.dumps writes the integer in full; it has no float value
            ("g2", {"emitters": [{"lifetime_ps": 10**400}, {"lifetime_ps": 650}]},
             "field 'emitters[0].lifetime_ps' must be finite, not inf"),
            ("vmap", {"theta_pd": {"min": 1, "max": 2}, "theta_sd": {"min": 0, "max": 1, "n": 2}},
             "missing required field 'theta_pd.n'"),
            ("vmap", {"theta_pd": [1, 2], "theta_sd": {"min": 0, "max": 1, "n": 2}},
             "field 'theta_pd' must be an object"),
            ("g2", {"emitters": [700, {"lifetime_ps": 650}]},
             "field 'emitters[0]' must be an object"),
            ("vmap", {"theta_pd": {"min": 2, "max": 1, "n": 2},
                      "theta_sd": {"min": 0, "max": 1, "n": 2}},
             "grid 'theta_pd' has an invalid range [2.0, 1.0]"),
            ("fmap", {"theta_pd": {"min": 1, "max": 2, "n": 2},
                      "theta_sd": {"min": 0, "max": 1, "n": 2, "spacing": "log"}},
             "log-spaced grid 'theta_sd' needs min > 0"),
            ("tuning",
             qd_pair_config(detuning_ghz={"min": -1, "max": 1, "n": 3, "spacing": "cubic"}),
             "grid 'detuning_ghz' has unknown spacing 'cubic'"),
            ("decompose", {"constraint": {"lifetime_ps": 670, "coherence_time_ps": 330,
                                          "total_fwhm_mhz": 500}},
             "invalid constraint 'constraint': provide exactly one of"),
            ("assess", {"sources": []}, "field 'sources' must list at least one entry"),
            # the oracle's own limits, refused before any check runs
            ("verify", {"closed_form_instances": 3, "mc_instances": 1, "mc_realizations": 1,
                        "phase_trials": 5000},
             "config field 'mc_realizations' must be an integer >= 2, not 1"),
            ("verify", {"closed_form_instances": 3, "mc_instances": 1, "mc_realizations": 2,
                        "phase_trials": 5000},
             "config field 'phase_trials' must be an integer >= 10000, not 5000"),
        ],
    )
    def test_structure_checks_named(self, tmp_path, capsys, command, payload, expected):
        err = self.run_error(tmp_path, capsys, command, payload)
        assert expected in err, err

    @pytest.mark.parametrize(
        "text,expected",
        [
            ('{"emitters": [', "error: config is not valid JSON: "),
            ("", "error: config is not valid JSON: "),
            ("[1, 2]", "error: config must be a JSON object"),
            ('"g2"', "error: config must be a JSON object"),
        ],
    )
    def test_config_text_must_be_a_json_object(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["g2", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_missing_constraint_named(self, tmp_path, capsys):
        err = self.run_error(tmp_path, capsys, "decompose", {"n_points": 3})
        assert err.rstrip().endswith("missing required field 'constraint'"), err

    def test_decompose_needs_two_points(self, tmp_path, capsys):
        # a coherence-time sweep needs both endpoints; the error names the field
        payload = {"constraint": {"lifetime_ps": 670, "coherence_time_ps": 330}, "n_points": 1}
        err = self.run_error(tmp_path, capsys, "decompose", payload)
        assert err.startswith("error: config field 'n_points' must be an integer >= 2, not 1"), err

    def test_assess_needs_two_points(self, tmp_path, capsys):
        # one point of a bounded Lorentzian is its Fourier-limited split alone,
        # which would report v_min == v_max
        source = {"name": "bounded", "lifetime_ps": 12000, "lorentzian_fwhm_max_mhz": 20,
                  "gaussian_fwhm_mhz": 100}
        err = self.run_error(tmp_path, capsys, "assess", {"sources": [source], "n_points": 1})
        assert err.startswith("error: config field 'n_points' must be an integer >= 2, not 1"), err
        cfg = write_config(tmp_path, {"sources": [source], "n_points": 2})
        out = tmp_path / "two.csv"
        assert main(["assess", "--config", cfg, "--out", str(out)]) == 0
        (row,) = read_csv(out)[1]
        assert float(row[1]) < float(row[2])  # v_min < v_max

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["vmap", "fmap"])
    def test_map_window_corners_are_finite(self, tmp_path, command, fmt):
        payload = {"theta_pd": {"min": 1, "max": 1e150, "n": 2},
                   "theta_sd": {"min": 0, "max": 1e150, "n": 2}}
        values = []
        for sd_min in (0, 1e-150):
            payload["theta_sd"]["min"] = sd_min
            cfg = write_config(tmp_path, payload)
            out = tmp_path / f"map.{fmt}"
            assert main([command, "--config", cfg, "--out", str(out), "--format", fmt]) == 0
            if fmt == "json":
                values += [row[2] for row in json.loads(out.read_text())["rows"]]
            else:
                values += [float(row[2]) for row in read_csv(out)[1]]
        assert len(values) == 8 and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)

    def test_tuning_window_ends_are_finite(self, tmp_path):
        payload = qd_pair_config(detuning_ghz={"min": -1e141, "max": 1e141, "n": 5})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "tuning.json"
        assert main(["tuning", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 5 and all(math.isfinite(v) for row in rows for v in row)


class TestShippedConfigs:
    def test_all_examples_parse_and_run(self, tmp_path):
        quick = {
            "g2_trace_resonant.json": "g2",
            "g2_trace_detuned.json": "g2",
            "tuning_curve.json": "tuning",
            "decompose_coherence.json": "decompose",
            "decompose_linewidth.json": "decompose",
        }
        for name, command in quick.items():
            out = tmp_path / f"{name}.out"
            code = main([command, "--config", str(CONFIG_DIR / name), "--out", str(out)])
            assert code == 0, name
            assert out.stat().st_size > 0

    def test_error_on_missing_config(self):
        assert main(["g2", "--config", "/nonexistent/cfg.json"]) == 1

    def test_error_on_output_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, TINY_CONFIGS["g2"])
        assert main(["g2", "--config", cfg, "--out", "missing_dir/out.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "missing_dir/out.csv" in err

    def test_usage_error_without_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_usage_error_on_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, {})
        with pytest.raises(SystemExit) as err:
            main(["vmapp", "--config", cfg])
        assert err.value.code == 2


# one tiny config per subcommand
TINY_CONFIGS = {
    "g2": {"emitters": [{"lifetime_ps": 700.0}, {"lifetime_ps": 650.0}], "tau_max_ps": 1000.0,
           "n_tau": 3},
    "tuning": {"emitters": [{"lifetime_ps": 700.0, "inhomogeneous_fwhm_mhz": 800.0},
                            {"lifetime_ps": 650.0}],
               "detuning_ghz": {"min": -1.0, "max": 1.0, "n": 3}},
    "vmap": {"theta_pd": {"min": 1.0, "max": 10.0, "n": 2}, "theta_sd": {"min": 0.0, "max": 1.0, "n": 2}},
    "fmap": {"theta_pd": {"min": 1.0, "max": 10.0, "n": 2}, "theta_sd": {"min": 0.0, "max": 1.0, "n": 2}},
    "decompose": {"constraint": {"lifetime_ps": 1720.0, "total_fwhm_mhz": 119.0}, "n_points": 3},
    "assess": {"n_points": 3, "sources": [
        {"name": "pair", "lifetime_ps": 600.0, "coherence_time_ps": 500.0,
         "second": {"lifetime_ps": 500.0, "coherence_time_ps": 400.0}},
        {"name": "voigt", "lifetime_ps": 1720.0, "total_fwhm_mhz": 119.0},
    ]},
    "verify": {"seed": 1, "closed_form_instances": 1, "mc_instances": 1, "mc_realizations": 2,
               "phase_trials": 10000},
}


def expected_status(command, passed):
    """The exit status a run must end with: 0, except for a verify run with a
    false cell in the ``passed`` column of its table, which ends with 1.  The
    tiny verify config runs the 3-sigma gates on 2 realizations, so whether
    they pass is chance."""
    return int(command == "verify" and not all(passed))


@pytest.mark.parametrize("command", sorted(TINY_CONFIGS))
def test_subcommand_returns_the_table_main_writes(tmp_path, capsys, command):
    """A subcommand maps (config object, seed) to (canonical config, column
    names, row blocks, exit status) and writes nothing; main writes the table
    and returns the status."""
    params = dict(TINY_CONFIGS[command])
    seed = params.pop("seed", 0)
    canonical, names, blocks, status = cli._COMMANDS[command][0](params, seed)
    blocks = list(blocks)
    captured = capsys.readouterr()
    assert captured.out == ""
    passed = [p for block in blocks for p in block[-1]] if command == "verify" else []
    assert status == expected_status(command, passed)
    assert ("[FAIL]" in captured.err) == (status == 1)
    cfg = write_config(tmp_path, TINY_CONFIGS[command])
    out = tmp_path / "out.json"
    assert main([command, "--config", cfg, "--out", str(out), "--format", "json"]) == status
    text = out.read_text()
    assert f'"config":{dumps(canonical)},' in text
    data = json.loads(text)
    assert data["config"] == canonical and data["columns"] == names
    assert len(data["rows"]) == sum(len(block[-1]) for block in blocks)
    if command == "verify":
        assert [row[names.index("passed")] for row in data["rows"]] == passed


def modules_after_tiny_runs(tmp_path, commands=tuple(sorted(TINY_CONFIGS))):
    """The modules a fresh interpreter holds after one tiny config of each
    of ``commands`` (every subcommand by default); each run must end with
    the status :func:`expected_status` reads from its table."""
    for command, payload in TINY_CONFIGS.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(payload))
    code = (
        "import json, sys\n"
        "from tpi_sim import cli\n"
        "statuses = {}\n"
        f"for command in {list(commands)!r}:\n"
        "    argv = [command, '--config', command + '.json', '--out', command + '.csv']\n"
        "    statuses[command] = cli.main(argv)\n"
        "print(json.dumps([sorted(sys.modules), statuses]))\n"
    )
    src = str(Path(tpi_sim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    modules, statuses = json.loads(done.stdout.strip().splitlines()[-1])
    for command in commands:
        header, rows, _ = read_csv(tmp_path / f"{command}.csv")
        passed = [row[-1] == "True" for row in rows] if header[-1] == "passed" else []
        assert statuses[command] == expected_status(command, passed), command
    return modules


@pytest.mark.parametrize("command,payload", [
    ("g2", qd_pair_config(n_tau=200_000)),
    ("vmap", {"theta_pd": {"min": 1.0, "max": 30.0, "n": 300},
              "theta_sd": {"min": 0.0, "max": 20.0, "n": 300}}),
], ids=["g2", "vmap"])
def test_reader_closing_the_pipe_early(tmp_path, command, payload):
    """A reader that stops after the first line (``tpi-sim g2 ... | head -n 1``)
    ends the run quietly: exit 0 and nothing on stderr."""
    cfg = write_config(tmp_path, payload)
    src = str(Path(tpi_sim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tpi_sim.cli", command, "--config", cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    head = proc.stdout.readline()
    proc.stdout.close()  # each table is 5-10 MB, far more than a pipe holds
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert head == f"# command = {command}\n".encode()


def test_runtime_imports_no_scipy(tmp_path):
    """The package needs numpy only: every subcommand runs without a scipy module."""
    assert [m for m in modules_after_tiny_runs(tmp_path) if m.startswith("scipy")] == []


def test_runtime_imports_no_numpy_ma(tmp_path):
    """No subcommand loads numpy.ma, which np.unique imports on first use."""
    modules = modules_after_tiny_runs(tmp_path)
    assert "numpy" in modules and "numpy.ma" not in modules


def test_only_verify_imports_the_oracle(tmp_path):
    """The oracle, its thread pool and its quadrature's heap are imported by
    verify alone."""
    others = [command for command in sorted(TINY_CONFIGS) if command != "verify"]
    modules = modules_after_tiny_runs(tmp_path, others)
    assert "tpi_sim.oracle" not in modules and "concurrent.futures" not in modules
    assert "heapq" not in modules
    modules = modules_after_tiny_runs(tmp_path, [*others, "verify"])
    assert "tpi_sim.oracle" in modules and "concurrent.futures" in modules


def test_repeated_runs_in_one_process_match_fresh_processes(tmp_path, capsysbinary, monkeypatch):
    """main parses with one parser per process; calls that change --format,
    --seed and --out between them give the bytes of fresh interpreters."""
    for command in ("assess", "verify"):
        (tmp_path / f"{command}.json").write_text(json.dumps(TINY_CONFIGS[command]))
    runs = [
        ("assess", ["--out", "a.csv"]),
        ("assess", ["--format", "json", "--seed", "7", "--out", "b.json"]),
        ("verify", ["--seed", "3"]),  # to stdout
        ("assess", ["--format", "json"]),  # the defaults again: no seed, stdout
        ("verify", ["--format", "json", "--out", "c.json"]),
    ]
    src = str(Path(tpi_sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    monkeypatch.chdir(tmp_path)

    def table(out) -> bytes:
        """The bytes of the --out file (none without one), which is then removed."""
        if out is None:
            return b""
        data = out.read_bytes()
        out.unlink()
        return data

    for command, options in runs:
        argv = [command, "--config", f"{command}.json", *options]
        out = tmp_path / options[-1] if "--out" in options else None
        # verify's status and its check lines on stderr are compared too
        status = main(argv)
        captured = capsysbinary.readouterr()
        in_process = (status, captured.out, captured.err, table(out))
        done = subprocess.run([sys.executable, "-m", "tpi_sim.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True)
        fresh = (done.returncode, done.stdout, done.stderr, table(out))
        assert in_process == fresh, argv
        assert (fresh[3] if out else fresh[1]).startswith(
            b'{"columns"' if "json" in options else b"# command = ")


class TestOutFileRewrite:
    """An existing --out file is replaced: whatever it held before, it ends
    with exactly the new table, or the rows written before a failure."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["g2", "assess"])
    def test_longer_and_shorter_files_end_as_a_fresh_run(self, tmp_path, command, fmt):
        cfg = write_config(tmp_path, TINY_CONFIGS[command])
        fresh = tmp_path / "fresh.out"
        assert main([command, "--config", cfg, "--out", str(fresh), "--format", fmt]) == 0
        expected = fresh.read_bytes()
        for old in (b"x" * (len(expected) + 5000), b"y" * (len(expected) // 2), b""):
            out = tmp_path / "old.out"
            out.write_bytes(old)
            assert main([command, "--config", cfg, "--out", str(out), "--format", fmt]) == 0
            assert out.read_bytes() == expected, len(old)

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_null_device_is_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIGS["assess"])
        assert main(["assess", "--config", cfg, "--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_table_leaves_no_stale_tail(self, tmp_path, fmt):
        values = np.linspace(0.0, 1.0, 7)

        def write(path, blocks):
            _write_table(RunConfig("g2", {"n_tau": 7}, str(path), fmt, 0), ["g2"], blocks)

        def failing_blocks():
            yield (values[:4],)
            raise ValueError("mid-table")

        head, partial = tmp_path / "head", tmp_path / "partial"
        write(head, [(values[:4],)])  # the same first block, and the table ends
        partial.write_bytes(b"stale row\n" * 1000)
        with pytest.raises(ValueError, match="mid-table"):
            write(partial, failing_blocks())
        # the bytes up to the failure, and nothing of the old file after them
        written, expected = partial.read_bytes(), head.read_bytes()
        assert expected.startswith(written)
        assert expected[len(written):] == (b'],"seed":0}\n' if fmt == "json" else b"")

    @pytest.mark.parametrize("where", ["directory", "under a file"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, where):
        cfg = write_config(tmp_path, TINY_CONFIGS["g2"])
        (tmp_path / "plain").write_text("kept\n")
        out = tmp_path if where == "directory" else tmp_path / "plain" / "out.csv"
        assert main(["g2", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1, err
        assert (tmp_path / "plain").read_text() == "kept\n"
