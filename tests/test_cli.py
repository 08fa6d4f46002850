"""Command-line harness: reports, determinism, exit codes, file formats."""

import json
import math

import numpy as np
import pytest

from entlab.channels import channel_to_json, state_from_json, state_to_json
from entlab.cli import main
from entlab.families import bell_state, bit_flip_correlated, werner_state


@pytest.fixture()
def bitflip_file(tmp_path):
    path = tmp_path / "bitflip.json"
    path.write_text(json.dumps(channel_to_json(bit_flip_correlated(0.3))))
    return str(path)


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json(bell_state())))
    return str(path)


def run(args):
    return main(args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestStateJson:
    def test_pure_round_trip(self):
        back = state_from_json(state_to_json(bell_state()))
        assert np.allclose(back.amps, bell_state().amps)

    def test_mixed_round_trip(self):
        rho = werner_state(0.7)
        back = state_from_json(state_to_json(rho))
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-15

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            state_from_json({"dims": [2, 2], "type": "spooky", "data": []})


class TestVerifyCommand:
    def test_bitflip_bell_from_files(self, bitflip_file, bell_file, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--channel", bitflip_file, "--state", bell_file,
                    "--measure", "concurrence", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["summary"]["pass"] is True
        assert abs(report["records"][0]["ratio"] - 1.0) < 1e-12
        assert report["records"][0]["max_outcome_residual"] < 1e-12
        assert report["library_version"]
        assert report["config"]["seed"] == 0

    def test_random_channel_trials(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--random-channel", "--dims", "2,2", "--kraus", "4",
                    "--trials", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert len(report["records"]) == 20
        assert report["summary"]["max_outcome_residual"] < 1e-9
        assert all("stream" in r for r in report["records"])

    def test_three_qubit_tangle(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--random-channel", "--dims", "2,2,2",
                    "--measure", "sqrt_three_tangle", "--trials", "10",
                    "--seed", "5", "--out", str(out)])
        assert code == 0
        assert read_report(out)["summary"]["max_outcome_residual"] < 1e-8

    def test_invariant_violation_exits_one_but_writes_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--random-channel", "--trials", "2", "--tol", "1e-30",
                    "--out", str(out)])
        assert code == 1
        assert read_report(out)["summary"]["pass"] is False


class TestExitCodes:
    def test_unknown_measure_is_usage_error(self):
        assert run(["verify", "--measure", "nope", "--trials", "1"]) == 2

    def test_missing_file_is_io_error(self):
        assert run(["verify", "--channel", "/no/such/file.json"]) == 3

    def test_invalid_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["verify", "--channel", str(bad)]) == 3

    def test_non_closing_channel_is_domain_error(self, tmp_path):
        data = channel_to_json(bit_flip_correlated(0.3))
        data["ops"] = data["ops"][:1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert run(["verify", "--channel", str(path)]) == 2


    def test_mixed_inputs_need_an_exact_oracle(self, capsys):
        code = run(["verify", "--random-channel", "--dims", "2,2,2",
                    "--measure", "sqrt_three_tangle", "--mixed", "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--mixed" in err and "sqrt_three_tangle" in err

    def test_zero_trials_is_usage_error_naming_the_option(self, capsys):
        assert run(["verify", "--random-channel", "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_search_that_gives_up_exits_four(self, monkeypatch, capsys):
        # every drawn input looks separable, so the input search gives up
        monkeypatch.setattr("entlab.cli.measure_pure", lambda measure, psi: 0.0)
        assert run(["verify", "--random-channel", "--dims", "2,2"]) == 4
        assert "entlab: no entangled input found" in capsys.readouterr().err

    @pytest.mark.parametrize("args, name", [
        (["erf", "--family", "amplitude-damping", "--max-iterations", "-1"],
         "max_iterations"),
        (["roof", "--state-family", "werner", "--p", "0.9", "--restarts", "0"],
         "restarts"),
        (["erf", "--family", "amplitude-damping", "--restarts", "-2"], "restarts"),
        (["breaking", "--family", "depolarizing", "--probes", "-1"], "probes"),
    ], ids=["erf-iterations", "roof-restarts", "erf-restarts", "breaking-probes"])
    def test_out_of_range_search_count_is_usage_error(self, args, name, capsys):
        assert run(args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("entlab: ")]
        assert len(errors) == 1 and name in errors[0]

    @pytest.mark.parametrize("args, name", [
        (["--bisect-tol", "0"], "tol"),
        (["--range", "0.5"], "--range"),
        (["--range", "0:0.5:1"], "--range"),
        (["--range", "1:0"], "lo < hi"),
    ], ids=["zero-tol", "one-field-range", "three-field-range", "reversed-range"])
    def test_bad_bisection_input_is_usage_error(self, args, name, capsys):
        assert run(["breaking", "--family", "depolarizing", "--bisect"] + args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("entlab: ")]
        assert len(errors) == 1 and name in errors[0]

    def test_malformed_pure_state_entry_is_usage_error(self, bitflip_file, tmp_path):
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps({"dims": [2, 2], "type": "pure",
                                    "data": [[1], [0], [0], [0]]}))
        assert run(["verify", "--channel", bitflip_file, "--state", str(path)]) == 2


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--random-channel", "--trials", "25", "--seed", "11"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--random-channel", "--trials", "5", "--seed", "1",
             "--out", str(a)])
        run(["verify", "--random-channel", "--trials", "5", "--seed", "2",
             "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_verify_requires_a_channel_source(self):
        assert run(["verify", "--trials", "1"]) == 2


class TestOtherCommands:
    def test_decay_of_bitflip(self, bitflip_file, tmp_path):
        out = tmp_path / "d.json"
        assert run(["decay", "--channel", bitflip_file, "--out", str(out)]) == 0
        report = read_report(out)
        assert abs(report["summary"]["decay"] - 1.0) < 1e-12
        assert report["summary"]["random_unitary"] is True

    def test_erf_of_bitflip(self, bitflip_file, tmp_path):
        out = tmp_path / "e.json"
        code = run(["erf", "--channel", bitflip_file, "--state-family", "bell",
                    "--restarts", "2", "--out", str(out)])
        assert code == 0
        s = read_report(out)["summary"]
        assert abs(s["value"] - 1.0) < 1e-9
        assert abs(s["lower_bound"] - 1.0) < 1e-9
        assert s["bounds_ordered"] is True

    @pytest.mark.parametrize("family, exact", [("bit-flip-correlated", True),
                                               ("amplitude-damping", False)])
    def test_erf_reports_whether_the_value_is_exact(self, family, exact, tmp_path):
        out = tmp_path / "e.json"
        assert run(["erf", "--family", family, "--restarts", "2",
                    "--out", str(out)]) == 0
        assert read_report(out)["summary"]["exact"] is exact

    def test_roof_of_werner(self, tmp_path):
        out = tmp_path / "w.json"
        code = run(["roof", "--state-family", "werner", "--p", "0.9",
                    "--measure", "concurrence", "--restarts", "6",
                    "--out", str(out)])
        assert code == 0
        s = read_report(out)["summary"]
        assert abs(s["value"] - 0.85) < 1e-4
        assert s["oracle_deviation"] < 1e-4

    def test_roof_echoes_the_dims_of_the_state(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["roof", "--state-family", "ghz", "--measure", "sqrt_three_tangle",
                    "--restarts", "1", "--max-iterations", "20", "--out", str(out)])
        assert code == 0
        assert read_report(out)["config"]["dims"] == "2,2,2"

    def test_breaking_bisection(self, tmp_path):
        out = tmp_path / "b.json"
        code = run(["breaking", "--family", "depolarizing", "--r", "1",
                    "--bisect", "--out", str(out)])
        assert code == 0
        s = read_report(out)["summary"]
        assert abs(s["threshold"] - 2.0 / 3.0) < 1e-3

    def test_sweep_amplitude_damping_decay_column(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["sweep", "--family", "amplitude-damping",
                    "--gamma", "0:1:0.05", "--emit", "decay", "--out", str(out)])
        assert code == 0
        for rec in read_report(out)["records"]:
            expected = math.sqrt(1.0 - rec["param"])
            assert abs(rec["value"] - expected) < 1e-12


class TestCsvProjection:
    def test_round_trips_through_json_values(self, tmp_path):
        jout, cout = tmp_path / "r.json", tmp_path / "r.csv"
        args = ["verify", "--random-channel", "--trials", "8", "--seed", "4"]
        assert run(args + ["--out", str(jout)]) == 0
        assert run(args + ["--format", "csv", "--out", str(cout)]) == 0
        report = read_report(jout)
        lines = cout.read_text().strip().split("\n")
        header = lines[0].split(",")
        for row, record in zip(lines[1:], report["records"]):
            cells = dict(zip(header, row.split(",")))
            for key in ("decay", "ratio", "aggregate_residual"):
                assert float(cells[key]) == record[key]
