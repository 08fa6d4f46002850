"""Command-line harness: reports, determinism, exit codes, file formats."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from entlab.channels import (channel_to_json, embed_one_sided, state_from_json,
                             state_to_json)
from entlab import cli
from entlab.cli import main
from entlab.families import (amplitude_damping_kraus, bell_state, bit_flip_correlated,
                             ghz_state, werner_state)


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

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tolerance_no_trial_can_meet_is_usage_error(self, tol, capsys):
        assert run(["verify", "--random-channel", "--tol", tol]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("entlab: ")]
        assert len(errors) == 1 and "--tol" in errors[0]

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
        (["erf", "--family", "amplitude-damping", "--dims", "2", "--max-iterations", "-1"],
         "max_iterations"),
        (["roof", "--state-family", "werner", "--p", "0.9", "--restarts", "2",
          "--max-iterations", "-5"], "max_iterations"),
    ], ids=["erf-iterations", "roof-restarts", "erf-restarts", "breaking-probes",
            "one-party-erf-iterations", "roof-iterations"])
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
        (["--range", "0:inf"], "finite"),
    ], ids=["zero-tol", "one-field-range", "three-field-range", "reversed-range",
            "infinite-range"])
    def test_bad_bisection_input_is_usage_error(self, args, name, capsys):
        assert run(["breaking", "--family", "depolarizing", "--bisect"] + args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("entlab: ")]
        assert len(errors) == 1 and name in errors[0]

    @pytest.mark.parametrize("text", ["0:inf:0.1", "-inf:1:0.1", "0:1:nan", "nan:1:0.1",
                                      "0:1:inf", "0:1e300:1e-300"])
    def test_non_finite_sweep_range_is_usage_error(self, text, capsys):
        assert run(["sweep", "--family", "amplitude-damping", f"--param-range={text}"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("entlab: ")]
        assert len(errors) == 1 and repr(text) in errors[0]

    def test_vast_sweep_range_is_refused_before_its_points_are_built(self, monkeypatch,
                                                                        capsys):
        def no_range(*args):
            raise AssertionError("the point list was built")

        # 10^18 points: module globals shadow builtins, so building them fails
        monkeypatch.setattr(cli, "range", no_range, raising=False)
        text = "0:1e9:1e-9"
        assert run(["sweep", "--family", "amplitude-damping", f"--param-range={text}"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("entlab: ")]
        assert len(errors) == 1 and repr(text) in errors[0]
        assert str(cli.MAX_RANGE_POINTS) in errors[0]

    @pytest.mark.parametrize("args", [
        ["verify", "--random-channel", "--dims", ",".join(["2"] * 11), "--kraus", "8"],
        ["verify", "--family", "depolarizing", "--dims", ",".join(["2"] * 11)],
        ["erf", "--family", "amplitude-damping", "--dims", "2,2,2", "--state-family", "bell"],
    ], ids=["verify-eleven-qubits", "verify-family-eleven-qubits",
            "erf-bounds-on-three-qubits"])
    def test_a_measure_that_misfits_the_dims_fails_before_any_draw_or_search(
            self, args, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a channel was built, drawn or searched")

        monkeypatch.setattr(cli, "random_separable_channel", refuse)
        monkeypatch.setattr(cli, "erf_minimize", refuse)
        monkeypatch.setattr(cli, "CHANNEL_FAMILIES",
                            {name: refuse for name in cli.CHANNEL_FAMILIES})
        assert run(args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("entlab: ")]
        assert len(errors) == 1 and "requires local dimensions (2, 2)" in errors[0]

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

    def test_a_shared_parser_writes_what_fresh_interpreters_write(self, tmp_path):
        # roof rewrites its namespace's dims; the verify run after it must
        # still read the parser's own defaults
        commands = [["roof", "--state-family", "ghz", "--measure", "sqrt_three_tangle",
                     "--restarts", "2", "--max-iterations", "40", "--seed", "5"],
                    ["verify", "--random-channel", "--trials", "3", "--seed", "9"]]
        assert cli.build_parser() is cli.build_parser()
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for j, argv in enumerate(commands):
            shared, fresh = tmp_path / f"shared-{j}.json", tmp_path / f"fresh-{j}.json"
            assert run(argv + ["--out", str(shared)]) == 0
            done = subprocess.run([sys.executable, "-m", "entlab.cli", *argv,
                                   "--out", str(fresh)], env=env, capture_output=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            assert shared.read_bytes() == fresh.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--random-channel", "--trials", "5", "--seed", "1",
             "--out", str(a)])
        run(["verify", "--random-channel", "--trials", "5", "--seed", "2",
             "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_verify_requires_a_channel_source(self):
        assert run(["verify", "--trials", "1"]) == 2


class TestChannelFileDims:
    """A channel file fixes the dims a run uses: the measure is checked
    against them, and drawn inputs have them, whatever --dims says."""

    @pytest.fixture()
    def three_qubit_files(self, tmp_path):
        channel = tmp_path / "damping.json"
        channel.write_text(json.dumps(channel_to_json(
            embed_one_sided(amplitude_damping_kraus(0.3), 0, (2, 2, 2)))))
        state = tmp_path / "ghz.json"
        state.write_text(json.dumps(state_to_json(ghz_state())))
        return str(channel), str(state)

    @pytest.mark.parametrize("command, with_state", [
        (["verify"], True),
        (["erf", "--restarts", "1", "--max-iterations", "5"], True),
        (["verify", "--trials", "2"], False),
    ], ids=["verify", "erf", "verify-drawn-inputs"])
    def test_three_qubit_file_runs_without_dims(self, three_qubit_files, command,
                                                with_state, tmp_path):
        channel, state = three_qubit_files
        out = tmp_path / "report.json"
        argv = command + ["--channel", channel, "--measure", "sqrt_three_tangle",
                          "--out", str(out)]
        if with_state:
            argv += ["--state", state]
        assert run(argv) == 0
        assert read_report(out)["summary"]["pass"] is True


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

    def test_roof_of_werner_checks_the_g_concurrence_against_wootters(self, tmp_path):
        out = tmp_path / "w.json"
        code = run(["roof", "--state-family", "werner", "--p", "0.9",
                    "--measure", "g_concurrence", "--restarts", "6",
                    "--out", str(out)])
        assert code == 0
        s = read_report(out)["summary"]
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

    def test_bisection_bracket_is_reported_with_the_verdict_tolerance(self, tmp_path):
        # bisected to the float spacing, the bracket sits beside the
        # partial-transpose eigenvalue tolerance of its verdicts
        out = tmp_path / "b.json"
        assert run(["breaking", "--family", "depolarizing", "--bisect",
                    "--bisect-tol", "1e-20", "--out", str(out)]) == 0
        s = read_report(out)["summary"]
        a, b = s["bracket"]
        assert a < b and a <= s["threshold"] <= b
        assert s["verdict_tolerance"] == 1e-10
        assert abs(s["threshold"] - 2.0 / 3.0) < 1e-9

    def test_bisection_without_a_crossing_has_no_bracket(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["breaking", "--family", "identity", "--bisect",
                    "--out", str(out)]) == 0
        s = read_report(out)["summary"]
        assert s["never_breaking"] and s["bracket"] is None

    def test_sweep_amplitude_damping_decay_column(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["sweep", "--family", "amplitude-damping",
                    "--gamma", "0:1:0.05", "--emit", "decay", "--out", str(out)])
        assert code == 0
        for rec in read_report(out)["records"]:
            expected = math.sqrt(1.0 - rec["param"])
            assert abs(rec["value"] - expected) < 1e-12


class TestNamedFamilies:
    @pytest.mark.parametrize("argv, kind, known", [
        (["sweep", "--family", "nope"], "channel", "phase-damping"),
        (["decay", "--family", "nope"], "channel", "bit-flip-correlated"),
        (["verify", "--family", "nope"], "channel", "amplitude-damping"),
        (["verify", "--family", "identity", "--state-family", "nope"], "state", "werner"),
        (["roof", "--state-family", "nope"], "state", "ghz"),
        (["breaking", "--family", "nope"], "local", "depolarizing"),
    ], ids=["sweep", "decay", "verify", "verify-state", "roof", "breaking"])
    def test_unknown_family_is_a_usage_error_naming_the_known_ones(
            self, argv, kind, known, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"unknown {kind} family 'nope'; known: [" in err
        assert repr(known) in err

    def test_phase_damping_decay(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["decay", "--family", "phase-damping", "--param", "0.36",
                    "--out", str(out)]) == 0
        s = read_report(out)["summary"]
        assert abs(s["decay"] - 0.8) < 1e-12
        assert s["random_unitary"] is False


class TestUntracedModes:
    def test_breaking_probe_mode(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["breaking", "--family", "depolarizing", "--param", "0.9",
                    "--probes", "2", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["summary"]["breaking"] is True
        assert report["summary"]["agreement"] is True
        # the maximally entangled probe, index -1, then the two random ones
        assert [r["probe"] for r in report["records"]] == [-1, 0, 1]

    def test_sweep_emits_erf(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["sweep", "--family", "amplitude-damping", "--gamma", "0:1:0.5",
                    "--emit", "erf", "--restarts", "1", "--out", str(out)]) == 0
        values = [r["value"] for r in read_report(out)["records"]]
        assert len(values) == 3
        for value, expected in zip(values, (1.0, math.sqrt(0.5), 0.0)):
            assert abs(value - expected) < 1e-12

    def test_verify_with_the_g_concurrence(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--random-channel", "--dims", "3,3", "--measure",
                    "g_concurrence", "--trials", "2", "--out", str(out)]) == 0
        assert read_report(out)["summary"]["pass"] is True

    def test_verify_mixed_with_the_two_qubit_g_concurrence(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--random-channel", "--mixed", "--dims", "2,2",
                    "--measure", "g_concurrence", "--trials", "5",
                    "--out", str(out)]) == 0
        assert read_report(out)["summary"]["pass"] is True

    def test_state_dims_given_as_a_string_exit_two(self, tmp_path, capsys):
        data = state_to_json(bell_state())
        data["dims"] = "22"
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        assert run(["verify", "--family", "identity", "--state", str(path)]) == 2
        assert "list of integers" in capsys.readouterr().err


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
