"""Byte-for-byte golden stdout of every CLI subcommand.

Each case runs `psrates.cli.main` in process and compares its stdout (and,
for `simulate --per-trial-csv`, the CSV it writes) with a file under
tests/golden/. A refactor that must keep output identical leaves these
files alone; a deliberate output change re-records them with

    PYTHONPATH=src python tests/test_cli_golden.py

and says which files changed and why.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from psrates.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# "{csv}" in an argv stands for a temporary per-trial CSV path; its content
# is pinned in <name>.per-trial.txt.
CASES = {
    "rates-bsc-posterior": (
        "rates", "--channel", "bsc:0.11", "--input", "uniform", "--metric", "posterior"),
    "rates-mary-power-s": (
        "rates", "--channel", "mary:4,0.1", "--input", "0.4,0.3,0.2,0.1",
        "--metric", "likelihood", "--power-s", "0.7"),
    "rates-mary-exp-s": (
        "rates", "--channel", "mary:4,0.1", "--input", "uniform",
        "--metric", "hamming", "--exp-s", "2.5"),
    "rates-awgn-bitwise": (
        "rates", "--channel", "awgn-ask:4,0.6,64", "--input", "mb:0.1",
        "--metric", "bitwise-posterior"),
    "rates-optimize-power": (
        "rates", "--optimize-s", "--channel", "awgn-ask:4,0.6,64", "--input", "mb:0.1",
        "--metric", "likelihood"),
    "rates-optimize-exp-hamming": (
        "rates", "--optimize-s", "--channel", "awgn-ask:4,0.6,64", "--input", "mb:0.1",
        "--metric", "hamming"),
    "rates-optimize-exp-hamming-binary": (
        "rates", "--optimize-s", "--channel", "awgn-ask:8,0.4,64", "--input", "mb:0.05",
        "--metric", "hamming-binary"),
    "rates-optimize-power-bitwise": (
        "rates", "--optimize-s", "--channel", "awgn-ask:8,0.4,64", "--input", "mb:0.05",
        "--metric", "bitwise-posterior"),
    "sweep-eps": (
        "sweep", "--channel", "mary:4,0.1", "--input", "uniform", "--metric", "posterior",
        "--param", "eps", "--start", "0", "--stop", "1.2", "--steps", "5"),
    "sweep-s": (
        "sweep", "--channel", "bsc:0.11", "--input", "0.7,0.3", "--metric", "likelihood",
        "--param", "s", "--start", "0.25", "--stop", "2", "--steps", "6"),
    "sweep-sigma": (
        "sweep", "--channel", "awgn-ask:4,0.5,64", "--input", "mb:0.1",
        "--metric", "bitwise-posterior", "--param", "sigma",
        "--start", "0.4", "--stop", "1.0", "--steps", "4"),
    # The channel sizes the benchmark's rate-curve workload builds.
    "sweep-sigma-8ask-4096": (
        "sweep", "--channel", "awgn-ask:8,0.3,4096", "--input", "mb:0.05",
        "--metric", "bitwise-posterior", "--param", "sigma",
        "--start", "0.3", "--stop", "1.2", "--steps", "4"),
    "gmi-mary-likelihood": (
        "gmi", "--channel", "mary:4,0.1", "--input", "0.4,0.3,0.2,0.1",
        "--metric", "likelihood"),
    "gmi-awgn-bitwise-bracket": (
        "gmi", "--channel", "awgn-ask:4,0.6,64", "--input", "mb:0.1",
        "--metric", "bitwise-posterior", "--s-min", "0.01", "--s-max", "100"),
    "gmi-16ask-2048-likelihood": (
        "gmi", "--channel", "awgn-ask:16,0.3,2048", "--input", "mb:0.01",
        "--metric", "likelihood"),
    # A metric that vanishes on a positive-probability pair: -inf at every s.
    "gmi-mary-hamming-vanishes": (
        "gmi", "--channel", "mary:4,0.05", "--input", "uniform", "--metric", "hamming"),
    "rates-optimize-power-json-zero": (
        "rates", "--optimize-s", "--channel", "mary:3,0.1", "--input", "0.5,0.3,0.2",
        "--metric", str(GOLDEN / "metric-power-one-zero.json")),
    # A zero-probability input symbol.
    "gmi-mary-zero-input": (
        "gmi", "--channel", "mary:4,0.1", "--input", "0.5,0.3,0.2,0",
        "--metric", "likelihood"),
    "rates-optimize-power-zero-input": (
        "rates", "--optimize-s", "--channel", "mary:4,0.1", "--input", "0.5,0.3,0.2,0",
        "--metric", "posterior"),
    "lm-inv-input": (
        "lm", "--channel", "mary:4,0.1", "--input", "0.4,0.3,0.2,0.1",
        "--metric", "likelihood", "--s", "0.8"),
    "lm-weights": (
        "lm", "--channel", "mary:4,0.1", "--input", "0.4,0.3,0.2,0.1",
        "--metric", "likelihood", "--s", "1.2", "--weights", "1,2,3,4"),
    "simulate-layered": (
        "simulate", "--channel", "bsc:0.05", "--input", "uniform", "--metric", "likelihood",
        "--mode", "layered-ps", "--n", "12", "--rc", "0.75", "--rtx", "0.5",
        "--eps-typ", "0.25", "--trials", "6", "--seed", "3", "--per-trial-csv", "{csv}"),
    "simulate-classical": (
        "simulate", "--channel", "mary:4,0.05", "--input", "0.4,0.3,0.2,0.1",
        "--metric", "likelihood", "--mode", "classical", "--n", "6", "--rc", "1.5",
        "--rtx", "1.5", "--trials", "6", "--seed", "4", "--per-trial-csv", "{csv}"),
    "estimate-tc-iid": (
        "estimate-tc", "--channel", "awgn-ask:4,0.6,64", "--input", "mb:0.1",
        "--metric", "bitwise-posterior", "--n", "200", "--trials", "20", "--seed", "5"),
    "estimate-tc-exact": (
        "estimate-tc", "--channel", "awgn-ask:4,0.6,64", "--input", "mb:0.1",
        "--metric", "bitwise-posterior", "--n", "200", "--trials", "20", "--seed", "5",
        "--composition", "exact"),
    "typical": (
        "typical", "--pmf", "0.4,0.3,0.2,0.1", "--n", "8,20,40", "--eps", "0.3"),
}


def run_case(name, workdir):
    """stdout of one case, plus the per-trial CSV it wrote (or None)."""
    csv = pathlib.Path(workdir) / f"{name}.csv"
    argv = [str(csv) if a == "{csv}" else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{name} exited with {code}"
    return out.getvalue(), csv.read_text() if csv.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path):
    out, per_trial = run_case(name, tmp_path)
    assert out == (GOLDEN / f"{name}.txt").read_text()
    if per_trial is not None:
        assert per_trial == (GOLDEN / f"{name}.per-trial.txt").read_text()


def record():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            out, per_trial = run_case(name, workdir)
            (GOLDEN / f"{name}.txt").write_text(out)
            if per_trial is not None:
                (GOLDEN / f"{name}.per-trial.txt").write_text(per_trial)
            print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    record()
