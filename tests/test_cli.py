import json
import math
from pathlib import Path

import numpy as np
import pytest

from tpi_sim.cli import dumps, format_float, main

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

    def test_valid_integral_floats_still_accepted(self, tmp_path):
        payload = {"constraint": {"lifetime_ps": 670, "coherence_time_ps": 330.0}, "n_points": 5}
        cfg = write_config(tmp_path, payload)
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0


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

    def test_usage_error_without_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
