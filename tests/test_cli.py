import decimal
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from psrates import (
    Pmf,
    binary_entropy,
    bsc,
    hard_decision_metric,
    likelihood_metric,
    map_quantizer,
    mary_symmetric,
    posterior_metric,
    uniform_pmf,
)
from psrates import empirical, rates, typicality
from psrates.cli import _sweep_point, build_parser, main
from psrates.rates import achievable_transmission_rate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands():
    """argv of every `psrates ...` line in the README's CLI block, with
    backslash continuations joined."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("psrates ")]
    if not commands:
        raise ValueError("README.md: no psrates command in the CLI block")
    return commands


_README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", _README_COMMANDS,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(_README_COMMANDS)])
def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the simulate example writes trials.csv
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_readme_library_example(capsys):
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = [float(t) for t in capsys.readouterr().out.split()]
    ch = bsc(0.11)
    p = Pmf(ch.input, np.array([0.7, 0.3]))
    rep = achievable_transmission_rate(p, ch, posterior_metric(p, ch))
    assert printed == [rep.r_ps, rep.t_c, rep.divergence_to_uniform]


def _table_file(path, rows):
    """path, holding a channel or metric JSON file of rows on integer symbols."""
    path.write_text(json.dumps({"input": {"symbols": list(range(len(rows)))},
                                "output": {"symbols": list(range(len(rows[0])))},
                                "rows": rows}))
    return str(path)


class TestRatesCommand:
    def test_bsc_posterior_json(self, capsys):
        code, out, err = run_cli(
            capsys, "rates", "--channel", "bsc:0.11",
            "--input", "uniform", "--metric", "posterior",
        )
        assert code == 0
        d = json.loads(out)
        assert d["r_ps"] == pytest.approx(1 - binary_entropy(0.11), abs=1e-10)
        assert d["entropy_input"] == pytest.approx(1.0)
        assert d["mutual_information"] == pytest.approx(d["r_ps"], abs=1e-10)

    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--channel", "bsc:0.2",
            "--input", "0.7,0.3", "--metric", "likelihood",
        )
        d = json.loads(out)
        ch = bsc(0.2)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        rep = achievable_transmission_rate(p, ch, likelihood_metric(ch))
        assert d["r_ps"] == pytest.approx(rep.r_ps, abs=1e-12)
        assert d["uncertainty"] == pytest.approx(rep.uncertainty, abs=1e-12)

    def test_optimize_s_hamming(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--channel", "mary:4,0.1",
            "--input", "uniform", "--metric", "hamming", "--optimize-s",
        )
        assert code == 0
        d = json.loads(out)
        expected = 2 - binary_entropy(0.1) - 0.1 * math.log2(3)
        assert d["r_ps"] == pytest.approx(expected, abs=1e-7)
        assert "s_star" in d

    def test_optimize_s_family_follows_from_q(self, capsys, tmp_path):
        # the Hamming metric read from a file is searched as the selector's is
        ch = mary_symmetric(4, 0.1)
        q = hard_decision_metric(map_quantizer(uniform_pmf(ch.input), ch), ch.input)
        path = tmp_path / "hamming.json"
        path.write_text(json.dumps({"input": {"symbols": list(ch.input.symbols)},
                                    "output": {"symbols": list(ch.output.symbols)},
                                    "rows": q.q.tolist()}))
        argv = ("rates", "--optimize-s", "--channel", "mary:4,0.1", "--input", "uniform",
                "--metric")
        code, from_file, err = run_cli(capsys, *argv, str(path))
        assert code == 0 and err == ""
        assert from_file == run_cli(capsys, *argv, "hamming")[1]

    def test_optimize_s_power_overflow_is_silent(self, capsys):
        # exp(7 q) reaches e^7, so the search's large powers overflow; such a
        # member is refused as not finite, without a RuntimeWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "rates", "--optimize-s", "--channel", "mary:4,0.1",
                "--input", "0.4,0.3,0.2,0.1", "--metric", "posterior", "--exp-s", "7",
            )
        assert code == 0 and err == "" and caught == []
        assert json.loads(out) == {
            "clamped": False,
            "divergence_to_uniform": 0.15356065532898433,
            "entropy_input": 1.8464393446710157,
            "mutual_information": 1.2591371289985767,
            "r_ps": 1.243588701713191,
            "r_ps_divergence_perspective": 1.2435887017131915,
            "r_ps_output_perspective": 1.243588701713191,
            "r_ps_uncertainty_perspective": 1.243588701713191,
            "s_star": 0.5573667542844957,
            "t_c": 1.3971493570421754,
            "uncertainty": 0.6028506429578246,
        }

    def test_optimize_s_noiseless_likelihood(self, capsys):
        # every column has one positive entry, so the exp family is searched
        code, out, _ = run_cli(
            capsys, "rates", "--optimize-s", "--channel", "mary:4,0",
            "--input", "0.4,0.3,0.2,0.1", "--metric", "likelihood",
        )
        assert code == 0
        assert json.loads(out)["r_ps"] == 1.8464393446710157

    def test_optimize_s_reaches_unequal_column_constants(self, capsys, tmp_path):
        # each output names its input, with column maxima 0.01 to 0.99: the
        # likelihood metric is a 0/1 decoder, and the search reaches its rate
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"input": {"symbols": [0, 1]},
                                    "output": {"symbols": [0, 1, 2, 3]},
                                    "rows": [[0.5, 0.5, 0, 0], [0, 0, 0.01, 0.99]]}))
        argv = ("rates", "--channel", str(path), "--input", "uniform", "--metric", "likelihood")
        code, out, _ = run_cli(capsys, *argv, "--optimize-s")
        assert code == 0
        assert json.loads(out)["r_ps"] == json.loads(run_cli(capsys, *argv)[1])["r_ps"] == 1.0

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    @pytest.mark.parametrize("flag", ["--power-s", "--exp-s"])
    def test_bad_exponent_exits_2(self, capsys, flag, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "rates", "--channel", "mary:4,0.1", "--input", "uniform",
                "--metric", "hamming", flag, value,
            )
        assert code == 2 and out == "" and caught == []
        assert err == f"error: exponent must be finite and positive, got {float(value)}\n"

    def test_likelihood_with_all_zero_channel_columns(self, capsys):
        # erf rounds the far tail cells of this channel to 0, so whole
        # likelihood columns are 0; those outputs never occur
        code, out, err = run_cli(
            capsys, "rates", "--channel", "awgn-ask:8,0.6,4096", "--input", "mb:0.05",
            "--metric", "likelihood",
        )
        assert code == 0 and err == ""
        d = json.loads(out)
        forms = [d[f"r_ps_{k}_perspective"] for k in ("uncertainty", "divergence", "output")]
        assert forms == pytest.approx([d["r_ps"]] * 3, abs=1e-10)
        assert math.isfinite(d["r_ps"]) and d["r_ps"] <= d["mutual_information"]

    def test_all_zero_metric_column(self, capsys, tmp_path):
        # the metric deems output 2 impossible; it occurs on one channel only
        used = _table_file(tmp_path / "used.json", [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]])
        unused = _table_file(tmp_path / "unused.json", [[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
        zero = _table_file(tmp_path / "zero.json", [[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
        const = _table_file(tmp_path / "const.json", [[0.9, 0.1, 0.5], [0.2, 0.8, 0.5]])

        def report(channel, metric):
            code, out, err = run_cli(capsys, "rates", "--channel", channel,
                                     "--input", "0.6,0.4", "--metric", metric)
            assert code == 0 and err == ""
            return out

        assert json.loads(report(used, zero))["uncertainty"] == math.inf
        assert report(unused, zero) == report(unused, const)

    @pytest.mark.parametrize("channel, input_, metric", [
        ("mary:4,0", "uniform", "posterior"),
        ("bsc:0", "0.7,0.3", "likelihood"),
        ("bsc:0", "1,0", "likelihood"),  # H(X) = 0 too
    ])
    def test_zero_is_unsigned(self, capsys, channel, input_, metric):
        code, out, _ = run_cli(capsys, "rates", "--channel", channel, "--input", input_,
                               "--metric", metric)
        assert code == 0 and json.loads(out)["uncertainty"] == 0.0
        assert "-0.0" not in out

    def test_deterministic_output(self, capsys):
        argv = ["rates", "--channel", "bsc:0.11", "--input", "uniform",
                "--metric", "likelihood"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestSweepCommand:
    def test_zero_steps_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--channel", "bsc:0.1", "--input", "uniform",
            "--metric", "likelihood", "--param", "eps",
            "--start", "0.1", "--stop", "0.2", "--steps", "0",
        )
        assert code == 2 and out == ""
        assert err == "error: --steps: must be at least 1\n"

    def test_schema_and_shape(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--channel", "bsc:0.1", "--input", "uniform",
            "--metric", "likelihood", "--param", "eps",
            "--start", "0.0", "--stop", "0.4", "--steps", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# schema: psrates.sweep.eps.v1"
        assert lines[1].startswith("value,uncertainty,t_c")
        assert len(lines) == 7
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[4]) == pytest.approx(1.0)  # noiseless r_ps

    def test_failed_point_flagged(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--channel", "bsc:0.1", "--input", "uniform",
            "--metric", "likelihood", "--param", "eps",
            "--start", "0.4", "--stop", "1.2", "--steps", "3",
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[2:]]
        assert rows[0][-1] == "0"
        assert rows[-1][-1] == "1"  # eps=1.2 is out of range
        assert "1.2" in err

    @pytest.mark.parametrize("start, stop", [
        ("1", "inf"), ("nan", "1"), ("1", "-inf"),
        ("-1.7e308", "1.7e308"),  # finite ends whose distance overflows
    ])
    def test_non_finite_ends_rejected(self, capsys, start, stop):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "sweep", "--channel", "mary:4,0.1", "--input", "uniform",
                "--metric", "hamming", "--param", "s",
                f"--start={start}", f"--stop={stop}", "--steps", "2",
            )
        assert code == 2 and out == "" and caught == []
        assert err == (f"error: --start, --stop: need finite ends, "
                       f"got {float(start)} and {float(stop)}\n")

    @pytest.mark.parametrize("s", [math.nan, math.inf, 0.0])
    def test_bad_exponent_point_flagged(self, capsys, s):
        args = build_parser().parse_args([
            "sweep", "--channel", "mary:4,0.1", "--input", "uniform", "--metric", "hamming",
            "--param", "s", "--start", "1", "--stop", "2", "--steps", "2",
        ])
        assert _sweep_point(args, s)[-1] == "1"
        assert "exponent must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("given, swept, param", [
        ("mary:4,0.9", "mary:4", "eps"),
        ("bsc:0.9", "bsc:x", "eps"),
        ("awgn-ask:4,9", "awgn-ask:4", "sigma"),
        ("awgn-ask:4,9,64,6", "awgn-ask:4,x,64,6", "sigma"),
    ])
    def test_swept_field_omitted_or_ignored(self, capsys, given, swept, param):
        outs = [run_cli(
            capsys, "sweep", "--channel", channel, "--input", "uniform",
            "--metric", "likelihood", "--param", param,
            "--start", "0.25", "--stop", "0.45", "--steps", "3",
        ) for channel in (given, swept)]
        assert outs[0] == outs[1]
        assert [l.split(",")[-1] for l in outs[0][1].strip().split("\n")[2:]] == ["0"] * 3

    def test_param_not_a_channel_field(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--channel", "bsc:0.1", "--input", "uniform",
            "--metric", "likelihood", "--param", "sigma",
            "--start", "0.1", "--stop", "0.3", "--steps", "2",
        )
        assert code == 0
        assert [l.split(",")[-1] for l in out.strip().split("\n")[2:]] == ["1"] * 2
        assert err.count("--param sigma: channel 'bsc:0.1' has no such field") == 2

    def test_s_sweep_failed_build_flags_every_point(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--channel", "bsc:0.11", "--input", "uniform:3",
            "--metric", "likelihood", "--param", "s",
            "--start", "0.5", "--stop", "1.5", "--steps", "3",
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[2:]]
        assert rows == [[v, "", "", "", "", "", "", "1"] for v in ("0.5", "1", "1.5")]
        assert err.count("does not match channel input size") == 3

    def test_likelihood_sigma_sweep_with_all_zero_channel_columns(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--channel", "awgn-ask:8,0.3,4096", "--input", "mb:0.05",
            "--metric", "likelihood", "--param", "sigma",
            "--start", "0.3", "--stop", "2.0", "--steps", "4",
        )
        assert code == 0 and err == ""
        assert [l.split(",")[-1] for l in out.strip().split("\n")[2:]] == ["0"] * 4

    def test_s_sweep_peaks_at_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--channel", "bsc:0.11", "--input", "uniform",
            "--metric", "likelihood", "--param", "s",
            "--start", "0.5", "--stop", "1.5", "--steps", "3",
        )
        rows = [l.split(",") for l in out.strip().split("\n")[2:]]
        r = [float(row[4]) for row in rows]
        assert r[1] >= r[0] and r[1] >= r[2]


class TestGmiCommand:
    def test_bsc_likelihood(self, capsys):
        code, out, _ = run_cli(
            capsys, "gmi", "--channel", "bsc:0.11", "--input", "uniform",
            "--metric", "likelihood",
        )
        d = json.loads(out)
        assert d["gmi"] == pytest.approx(1 - binary_entropy(0.11), abs=1e-8)
        assert d["s_star"] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("s_max", ["inf", "1e400"])
    def test_infinite_bracket_rejected(self, capsys, s_max):
        code, out, err = run_cli(
            capsys, "gmi", "--channel", "bsc:0.11", "--input", "uniform",
            "--metric", "likelihood", "--s-max", s_max,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: need 0 < s_min < s_max < inf")


class TestLmCommand:
    def test_inv_input_weights_match_rates(self, capsys):
        _, out_lm, _ = run_cli(
            capsys, "lm", "--channel", "bsc:0.2", "--input", "uniform",
            "--metric", "likelihood", "--s", "1.0",
        )
        _, out_rates, _ = run_cli(
            capsys, "rates", "--channel", "bsc:0.2", "--input", "uniform",
            "--metric", "likelihood",
        )
        assert json.loads(out_lm)["lm_rate"] == pytest.approx(
            json.loads(out_rates)["r_ps"], abs=1e-10
        )

    def test_inv_input_weights_with_zero_probability_symbol(self, capsys):
        # lm_rate reads the weights only on the support of P_X
        code, out, err = run_cli(
            capsys, "lm", "--channel", "mary:4,0.1", "--input", "0.5,0.3,0.2,0",
            "--metric", "likelihood", "--s", "1",
        )
        assert code == 0 and err == ""
        ch = mary_symmetric(4, 0.1)
        p = Pmf(ch.input, np.array([0.5, 0.3, 0.2, 0.0]))
        r = np.array([1 / 0.5, 1 / 0.3, 1 / 0.2, 1.0])
        assert json.loads(out)["lm_rate"] == rates.lm_rate(p, ch, likelihood_metric(ch), 1.0, r)

    def test_bad_weights_length(self, capsys):
        code, _, err = run_cli(
            capsys, "lm", "--channel", "bsc:0.2", "--input", "uniform",
            "--metric", "likelihood", "--s", "1.0", "--weights", "1,1,1",
        )
        assert code == 2
        assert "weights" in err

    @pytest.mark.parametrize("flag, value, what", [
        ("--s", "nan", "exponent"),
        ("--s", "inf", "exponent"),
        ("--s", "0", "exponent"),
        ("--weights", "nan,1,1,1", "weights"),
        ("--weights", "inf,1,1,1", "weights"),
        ("--weights", "0,1,1,1", "weights"),
    ])
    def test_non_finite_or_non_positive_rejected(self, capsys, flag, value, what):
        argv = {"--s": "1.0", "--weights": "1,1,1,1", flag: value}
        code, out, err = run_cli(
            capsys, "lm", "--channel", "mary:4,0.1", "--input", "uniform",
            "--metric", "likelihood", *(t for kv in argv.items() for t in kv),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {what} must be finite and positive")


@pytest.mark.parametrize("argv, expected", [
    (("lm", "--s", "1e308"), {"lm_rate": 0.0}),
    (("gmi", "--s-max", "1e308"), {"gmi": 1.2591371289985767, "s_star": 1.0000000040473913}),
])
def test_objective_at_huge_s_is_silent(capsys, argv, expected):
    # s log q overflows to -inf there, and the objective is -inf, as it should be
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, argv[0], "--channel", "mary:4,0.1", "--input", "0.4,0.3,0.2,0.1",
            "--metric", "likelihood", *argv[1:],
        )
    assert code == 0 and err == "" and caught == []
    assert json.loads(out) == expected


class TestSimulateCommand:
    ARGS = [
        "simulate", "--channel", "bsc:0.05", "--input", "uniform",
        "--metric", "likelihood", "--mode", "layered-ps", "--n", "16",
        "--rc", "0.75", "--rtx", "0.5", "--eps-typ", "0.25",
        "--trials", "20", "--seed", "5",
    ]

    def test_json_result(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        d = json.loads(out)
        assert d["trials"] == 20
        assert d["codebook_size"] == 4096
        assert 0 <= d["decode_error_rate"] <= 1

    def test_per_trial_csv(self, capsys, tmp_path):
        path = tmp_path / "trials.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--per-trial-csv", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# schema: psrates.simulate.per-trial.v1"
        assert lines[1] == "trial,encoding_failed,w_error,u_error,t_hat,union_bound"
        assert len(lines) == 22

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_per_trial_csv_exits_2(self, tmp_path, where):
        # checked before the run: no result on stdout, and no traceback
        path = tmp_path / "nosuch" / "x.csv" if where == "missing-dir" else tmp_path
        src = pathlib.Path(__file__).parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "psrates.cli", *self.ARGS, "--per-trial-csv", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"error: --per-trial-csv: cannot write {str(path)!r} (")

    def test_failed_run_keeps_existing_per_trial_csv(self, tmp_path, monkeypatch):
        # the path is checked without emptying it; it is written after the run
        path = tmp_path / "old.csv"
        path.write_text("kept\n")

        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr("psrates.simulator.run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main([*self.ARGS, "--per-trial-csv", str(path)])
        assert path.read_text() == "kept\n"

    def test_nan_tolerance_rejected(self, capsys):
        args = [a if a != "0.25" else "nan" for a in self.ARGS]
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith("error: typicality tolerance")

    @pytest.mark.parametrize("flag, field", [("--rc", "r_c"), ("--rtx", "r_tx")])
    def test_nan_rate_named(self, capsys, flag, field):
        args = list(self.ARGS)
        args[args.index(flag) + 1] = "nan"
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err == f"error: {field} must be finite, got nan\n"

    def test_awgn_ask_channel(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--channel", "awgn-ask:4,0.5,64", "--input", "uniform",
            "--metric", "bitwise-posterior", "--mode", "layered-ps", "--n", "8",
            "--rc", "1.5", "--rtx", "1", "--eps-typ", "0.5", "--trials", "4", "--seed", "1",
        )
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["trials"] == 4 and math.isfinite(d["t_hat_mean"])

    def test_union_bound_far_below_the_rate_is_one(self, capsys, tmp_path):
        # every trial's T-hat lies far below r_c, where 2^(-n (T-hat - r_c))
        # overflows a float: the bound is clipped to 1, with no traceback
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"input": {"symbols": [0, 1]}, "output": {"symbols": [0, 1]},
                                    "rows": [[1.0, 1e-300], [1e-300, 1.0]]}))
        code, out, err = run_cli(
            capsys, "simulate", "--channel", "bsc:0.3", "--input", "uniform",
            "--metric", str(path), "--mode", "classical", "--n", "20", "--rc", "0.5",
            "--rtx", "0.5", "--trials", "3", "--seed", "1",
        )
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["t_hat_max"] < -100 and d["bound_2exp"] == 1.0

    def test_empty_block_rejected(self, capsys):
        args = [a if a != "16" else "0" for a in self.ARGS]
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith("error: block length n must be at least 1, got 0")

    def test_infeasible_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--channel", "bsc:0.05", "--input", "uniform",
            "--metric", "likelihood", "--mode", "layered-ps", "--n", "64",
            "--rc", "0.75", "--rtx", "0.5", "--trials", "5", "--seed", "1",
        )
        assert code == 2
        assert "error" in err


class TestEstimateTcCommand:
    def test_z_score_reasonable(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate-tc", "--channel", "bsc:0.05", "--input", "uniform",
            "--metric", "likelihood", "--n", "100", "--trials", "200",
            "--seed", "9",
        )
        assert code == 0
        d = json.loads(out)
        assert abs(d["z_score"]) < 4
        assert d["t_c_closed_form"] == pytest.approx(
            1 - binary_entropy(0.05), abs=1e-12
        )

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_empty_block_rejected(self, capsys, n):
        code, out, err = run_cli(
            capsys, "estimate-tc", "--channel", "bsc:0.05", "--input", "uniform",
            "--metric", "likelihood", "--n", n, "--trials", "3", "--seed", "9",
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: block length n must be at least 1, got {n}")

    def test_exact_estimate_has_zero_z_score(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate-tc", "--channel", "bsc:0.0", "--input", "uniform",
            "--metric", "likelihood", "--n", "10", "--trials", "5", "--seed", "0",
        )
        assert code == 0
        d = json.loads(out)
        assert (d["mean"], d["std_error"], d["t_c_closed_form"]) == (1.0, 0.0, 1.0)
        assert d["z_score"] == 0.0

    def test_minus_infinite_estimate_at_minus_infinite_t_c(self, capsys):
        # hamming on a BSC vanishes off the sent symbol, so t_c and every
        # trial with a channel error read -inf: no NaN and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "estimate-tc", "--channel", "bsc:0.1", "--input", "0.5,0.5",
                "--metric", "hamming", "--n", "10", "--trials", "3", "--seed", "1",
            )
        assert code == 0 and err == "" and "NaN" not in out
        d = json.loads(out)
        assert d["mean"] == d["t_c_closed_form"] == -math.inf
        assert d["std_error"] in (0.0, math.inf) and d["z_score"] == 0.0

    @pytest.mark.parametrize("mean, z", [(0.9, -math.inf), (1.1, math.inf)])
    def test_zero_std_error_off_t_c_has_signed_infinite_z_score(
            self, capsys, monkeypatch, mean, z):
        monkeypatch.setattr(empirical, "monte_carlo_t_c",
                            lambda *args, **kwargs: empirical.MonteCarloResult(mean, 0.0))
        code, out, _ = run_cli(
            capsys, "estimate-tc", "--channel", "bsc:0.0", "--input", "uniform",
            "--metric", "likelihood", "--n", "10", "--trials", "5", "--seed", "0",
        )
        assert code == 0
        assert json.loads(out)["z_score"] == z

    @pytest.mark.parametrize("trials", ["1", "0"])
    def test_fewer_than_two_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(
            capsys, "estimate-tc", "--channel", "bsc:0.05", "--input", "uniform",
            "--metric", "likelihood", "--n", "100", "--trials", trials, "--seed", "9",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --trials: ")
        assert "at least 2 trials" in err


class TestTypicalCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "typical", "--pmf", "0.5,0.5", "--n", "8,16", "--eps", "0.2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# schema: psrates.typical.v1"
        assert lines[1] == "n,eps,size,rate,lemma_lower_bound"
        row8 = lines[2].split(",")
        assert row8[0] == "8"
        # exact count for n=8, eps=0.2: compositions with 4 ones
        assert int(row8[2]) == math.comb(8, 4)

    def test_one_count_per_block_length(self, capsys, monkeypatch):
        # the rate comes from the size already counted, not a second DP
        calls = []
        count = typicality.typical_set_size
        monkeypatch.setattr(typicality, "typical_set_size",
                            lambda spec: calls.append(spec.n) or count(spec))
        code, _, _ = run_cli(capsys, "typical", "--pmf", "0.4,0.6", "--n", "8,20,40",
                             "--eps", "0.3")
        assert code == 0 and calls == [8, 20, 40]

    def test_nan_tolerance_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "typical", "--pmf", "0.5,0.5", "--n", "8", "--eps", "nan",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: typicality tolerance")

    def test_ccdm_block_length(self, capsys):
        # 2^(n (1-eps) H) exceeds the float range: printed as inf, no traceback
        code, out, err = run_cli(
            capsys, "typical", "--pmf", "0.4,0.3,0.2,0.1", "--n", "3000",
            "--eps", "0.3",
        )
        assert code == 0 and err == ""
        n, eps, size, rate, lemma = out.strip().split("\n")[2].split(",")
        assert (n, eps, lemma) == ("3000", "0.3", "inf")
        assert float(rate) == pytest.approx(math.log2(int(size)) / 3000, abs=1e-11)
        assert 1.5 < float(rate) < 2

    def test_sizes_beyond_int_str_limit(self, capsys):
        # the exact size at n = 15,000 has 4,516 digits, more than str()
        # of an int prints by default
        code, out, err = run_cli(
            capsys, "typical", "--pmf", "0.5,0.5", "--n", "14000,15000", "--eps", "0.1",
        )
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert [row[0] for row in rows] == ["14000", "15000"]
        p_x = uniform_pmf(bsc(0.1).input)
        for n, _, size, _, _ in rows:
            exact = typicality.typical_set_size(typicality.TypicalSpec(p_x, int(n), 0.1))
            assert size.isdigit() and int(decimal.Decimal(size)) == exact
        assert len(rows[1][2]) == 4516


class TestErrorHandling:
    def test_closed_reader_exits_1_without_traceback(self):
        # 2000 rows are well over a 64 KB pipe buffer, so a write must fail
        src = pathlib.Path(__file__).parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "psrates.cli", "sweep", "--channel", "bsc:0.1",
             "--input", "uniform", "--metric", "likelihood", "--param", "eps",
             "--start", "0.01", "--stop", "0.4", "--steps", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"# schema: psrates.sweep.eps.v1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err

    def test_failed_numerical_check_exits_3(self, capsys, monkeypatch):
        # no spread is below a negative tolerance, so every R_ps check fails
        monkeypatch.setattr(rates, "PERSPECTIVE_TOL", -1.0)
        code, out, err = run_cli(
            capsys, "rates", "--optimize-s", "--channel", "bsc:0.1", "--input", "uniform",
            "--metric", "likelihood",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: rate perspectives disagree by ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--channel", "bsc:0.05", "--input", "uniform", "--metric", "likelihood",
         "--mode", "classical", "--n", "6", "--rc", "0.5", "--rtx", "0.5", "--trials", "2",
         "--seed", "-1"),
        ("estimate-tc", "--channel", "bsc:0.05", "--input", "uniform", "--metric", "likelihood",
         "--n", "10", "--trials", "3", "--seed", "-1"),
    ])
    def test_negative_seed_named(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: --seed: must be non-negative, got -1\n"

    @pytest.mark.parametrize("n", ["abc", "8,1.5", "8,,16"])
    def test_bad_typical_block_length_named(self, capsys, n):
        code, out, err = run_cli(
            capsys, "typical", "--pmf", "0.5,0.5", "--n", n, "--eps", "0.2",
        )
        assert code == 2 and out == ""
        assert err == f"error: --n: expected comma-separated integers, got {n!r}\n"

    def test_unknown_channel(self, capsys):
        code, _, err = run_cli(
            capsys, "rates", "--channel", "nosuch:1", "--input", "uniform",
            "--metric", "likelihood",
        )
        assert code == 2
        assert "error" in err

    def test_bad_input_length(self, capsys):
        code, _, err = run_cli(
            capsys, "rates", "--channel", "bsc:0.1", "--input", "0.2,0.3,0.5",
            "--metric", "likelihood",
        )
        assert code == 2

    def test_bad_channel_parameter(self, capsys):
        code, _, err = run_cli(
            capsys, "rates", "--channel", "bsc:1.7", "--input", "uniform",
            "--metric", "likelihood",
        )
        assert code == 2

    @pytest.mark.parametrize("channel, name", [
        ("awgn-ask:8,inf", "noise sigma"),
        ("awgn-ask:8,nan", "noise sigma"),
        ("awgn-ask:8,0.5,512,nan", "grid span"),
        ("awgn-ask:8,0.5,512,inf", "grid span"),
    ])
    def test_non_finite_grid_parameter(self, capsys, channel, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "rates", "--channel", channel, "--input", "uniform",
                "--metric", "likelihood",
            )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name}") and "RuntimeWarning" not in err
        assert caught == []

    @pytest.mark.parametrize("lam", ["inf", "nan", "-1e9", "1e9"])
    def test_bad_maxwell_boltzmann_lambda(self, capsys, lam):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "rates", "--channel", "awgn-ask:8,0.5,64", "--input", f"mb:{lam}",
                "--metric", "likelihood",
            )
        assert code == 2 and out == ""
        assert err.startswith("error: lambda") and "RuntimeWarning" not in err
        assert caught == []

    SELECTOR_CASES = [
        ("--channel", "awgn-ask:8"), ("--channel", "mary:4"), ("--channel", "bsc:0.1,0.2"),
        ("--channel", "awgn-ask:8,0.5,512,8,1"),
        # a field that does not convert names the flag, not Python's message
        ("--channel", "bsc:x"), ("--channel", "awgn-ask:4,abc"), ("--channel", "mary:4.5,0.1"),
        ("--channel", "awgn-ask:4,0.5,x"), ("--input", "uniform:x"), ("--input", "mb:x"),
    ]

    @pytest.mark.parametrize("flag, value", SELECTOR_CASES, ids=[v for _, v in SELECTOR_CASES])
    def test_wrong_selector_field_count(self, capsys, flag, value):
        argv = {"--channel": "bsc:0.1", "--input": "uniform", "--metric": "likelihood"}
        argv[flag] = value
        code, out, err = run_cli(capsys, "rates", *(t for kv in argv.items() for t in kv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}:")

    @pytest.mark.parametrize("flag, content", [
        ("--channel", {"input": {"symbols": [0, 1]}, "rows": [[0.9, 0.1], [0.1, 0.9]]}),
        ("--channel", [0.9, 0.1]),
        ("--input", {"prob": [0.5, 0.5]}),
        ("--metric", {"input": {"symbols": [0, 1]}, "output": {}, "rows": [[1, 0], [0, 1]]}),
    ])
    def test_malformed_json_file(self, capsys, tmp_path, flag, content):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        argv = {"--channel": "bsc:0.1", "--input": "uniform", "--metric": "likelihood"}
        argv[flag] = str(path)
        code, out, err = run_cli(capsys, "rates", *(t for kv in argv.items() for t in kv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: malformed JSON file")
