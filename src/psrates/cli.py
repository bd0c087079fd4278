"""Command-line front end: rate computation, sweeps, Monte-Carlo estimation,
simulation and typical-set counting.

All results go to standard output (JSON with stable key order, or CSV with a
schema comment line and 12 significant digits); diagnostics go to standard
error. Identical flags and seed give byte-identical output.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import channel as chmod
from . import empirical, rates, simulator, typicality
from . import metric as metmod
from .core import Alphabet, NumericalCheckError, Pmf, entropy, uniform_pmf


class CliError(Exception):
    pass


def _fmt(x):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x + 0.0:.12g}" if x == 0 else f"{x:.12g}"


def _emit_json(d):
    print(json.dumps(d, sort_keys=True, indent=2))


def _parse_list(text, flag, kind=float):
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise CliError(f"{flag}: expected comma-separated {what}, got {text!r}")


def _number(text, flag, name, kind=float):
    """kind(text), the selector field `name` of flag, or a CliError naming both."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise CliError(f"{flag}: {name} must be {what}, got {text!r}")


def _seed(args):
    if args.seed < 0:
        raise CliError(f"--seed: must be non-negative, got {args.seed}")
    return args.seed


def _load_json(spec, flag, kind, build):
    """build(parsed JSON file); a missing key or wrong shape is a CliError."""
    try:
        with open(spec) as fh:
            d = json.load(fh)
    except OSError:
        raise CliError(f"{flag}: unknown {kind} or unreadable file {spec!r}")
    try:
        return build(d)
    except (KeyError, IndexError, TypeError) as e:
        raise CliError(f"{flag}: malformed JSON file {spec!r} ({type(e).__name__}: {e})")


_CHANNEL_FIELDS = {"bsc": ("eps",), "mary": ("m", "eps"), "awgn-ask": ("m", "sigma", "cells", "span")}


def parse_channel(spec, **override):
    """bsc:EPS | mary:M,EPS | awgn-ask:M,SIGMA[,CELLS[,SPAN]] | JSON path.

    override replaces selector fields by name, e.g. sigma=0.5.
    """
    family, colon, text = spec.partition(":")
    names = _CHANNEL_FIELDS.get(family) if colon else None
    if names is None:
        return _load_json(spec, "--channel", "spec", chmod.Dmc.from_json_dict)
    fields = text.split(",")
    p = dict(zip(names, fields), **override)  # an overridden field counts as given
    if len(fields) > len(names) or len(p) < min(len(names), 2):  # CELLS, SPAN optional
        raise CliError(f"--channel: wrong number of fields in {spec!r}")
    p = {k: _number(v, "--channel", k, int if k in ("m", "cells") else float) for k, v in p.items()}
    if family == "bsc":
        return chmod.bsc(p["eps"])
    if family == "mary":
        return chmod.mary_symmetric(p["m"], p["eps"])
    constellation = chmod.ask_constellation(p["m"])
    grid = chmod.GridSpec(p.get("cells", 512), p.get("span", 8.0))
    return chmod.awgn_quantized(constellation, p["sigma"], grid)


def parse_input(spec, ch):
    """uniform[:N] | mb:LAMBDA | comma list | JSON path, on the channel input."""
    family, colon, text = spec.partition(":")
    if family == "uniform":
        if colon and _number(text, "--input", "uniform size", int) != len(ch.input):
            raise CliError(f"--input: uniform size {text} does not match "
                           f"channel input size {len(ch.input)}")
        return uniform_pmf(ch.input)
    if family == "mb" and colon:
        return chmod.maxwell_boltzmann_pmf(ch.input, _number(text, "--input", "lambda"))
    if "," in spec or _is_number(spec):
        probs = _parse_list(spec, "--input")
        if len(probs) != len(ch.input):
            raise CliError(
                f"--input: {len(probs)} probabilities for a "
                f"{len(ch.input)}-symbol channel input"
            )
        return Pmf(ch.input, np.asarray(probs))
    return _load_json(spec, "--input", "spec",
                      lambda d: Pmf(ch.input, np.asarray(d["probs"], dtype=float)))


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def parse_metric(spec, p_x, ch, power_s=None, exp_s=None):
    """posterior | likelihood | bitwise-posterior | hamming | hamming-binary
    | JSON path, with optional power/exp transforms."""
    if spec == "posterior":
        q = metmod.posterior_metric(p_x, ch)
    elif spec == "likelihood":
        q = metmod.likelihood_metric(ch)
    elif spec == "hamming":
        quant = metmod.map_quantizer(p_x, ch)
        q = metmod.hard_decision_metric(quant, ch.input)
    elif spec in ("bitwise-posterior", "hamming-binary"):
        levels = []
        for j in range(1, ch.input.label_length + 1):
            pb, chb = chmod.bit_marginal(p_x, ch, j)
            if spec == "bitwise-posterior":
                levels.append(metmod.posterior_metric(pb, chb))
            else:
                quant = metmod.map_quantizer(pb, chb)
                levels.append(metmod.hard_decision_metric(quant, pb.alphabet))
        q = metmod.bit_metric_product(levels, ch.input, ch.output)
    else:
        q = _load_json(spec, "--metric", "selector", metmod.Metric.from_json_dict)
    if power_s is not None:
        q = metmod.power_transform(q, power_s)
    if exp_s is not None:
        q = metmod.exp_transform(q, exp_s)
    return q


def _scenario_flags(p):
    p.add_argument("--channel", required=True, help="bsc:EPS | mary:M,EPS | awgn-ask:M,SIGMA[,CELLS[,SPAN]] | JSON file")
    p.add_argument("--input", required=True, help="uniform[:N] | mb:LAMBDA | p1,p2,... | JSON file")
    p.add_argument("--metric", required=True, help="posterior | likelihood | bitwise-posterior | hamming | hamming-binary | JSON file")
    p.add_argument("--power-s", type=float, default=None, help="apply q^s before use")
    p.add_argument("--exp-s", type=float, default=None, help="apply exp(s*q) before use")


def _build_scenario(args, **override):
    """(p_x, ch, q) from the scenario flags; override replaces a channel
    field by name, or power_s, the --power-s value."""
    power_s = override.pop("power_s", args.power_s)
    ch = parse_channel(args.channel, **override)
    p_x = parse_input(args.input, ch)
    q = parse_metric(args.metric, p_x, ch, power_s, args.exp_s)
    return p_x, ch, q


def cmd_rates(args):
    p_x, ch, q = _build_scenario(args)
    if args.optimize_s:
        report, s_star = rates.optimize_metric_exponent(p_x, ch, q)
        d = report.to_json_dict()
        d["s_star"] = s_star
    else:
        d = rates.achievable_transmission_rate(p_x, ch, q).to_json_dict()
    d["entropy_input"] = entropy(p_x)
    d["mutual_information"] = rates.mutual_information(p_x, ch)
    _emit_json(d)


RATE_COLUMNS = (
    "value", "uncertainty", "t_c", "divergence_to_uniform",
    "r_ps", "r_ps_unclamped", "clamped", "error",
)


def cmd_sweep(args):
    if args.steps < 1:
        raise CliError("--steps: must be at least 1")
    if not math.isfinite(args.stop - args.start):  # also when the span overflows
        raise CliError(f"--start, --stop: need finite ends, got {args.start} and {args.stop}")
    values = (
        [args.start] if args.steps == 1
        else list(np.linspace(args.start, args.stop, args.steps))
    )
    print(f"# schema: psrates.sweep.{args.param}.v1")
    print(",".join(RATE_COLUMNS))
    for v in values:
        row = _sweep_point(args, float(v))
        print(",".join(row))


def _sweep_point(args, v):
    try:
        if args.param == "s":
            p_x, ch, q = _build_scenario(args, power_s=v)
        elif args.param in _CHANNEL_FIELDS.get(args.channel.partition(":")[0], ()):
            p_x, ch, q = _build_scenario(args, **{args.param: v})
        else:
            raise CliError(f"--param {args.param}: channel {args.channel!r} has no such field")
        rep = rates.achievable_transmission_rate(p_x, ch, q)
        return (
            _fmt(v), _fmt(rep.uncertainty), _fmt(rep.t_c),
            _fmt(rep.divergence_to_uniform), _fmt(rep.r_ps),
            _fmt(rep.r_ps_by_perspective[0]), str(int(rep.clamped)), "0",
        )
    except (ValueError, CliError) as e:
        print(f"sweep point {v}: {e}", file=sys.stderr)
        return (_fmt(v), "", "", "", "", "", "", "1")


def cmd_gmi(args):
    p_x, ch, q = _build_scenario(args)
    rate, s_star = rates.gmi(p_x, ch, q, s_min=args.s_min, s_max=args.s_max)
    _emit_json({"gmi": rate, "s_star": s_star})


def cmd_lm(args):
    p_x, ch, q = _build_scenario(args)
    if args.weights == "inv-input":
        # lm_rate reads the weights only on the support of P_X
        r = 1.0 / np.where(p_x.probs > 0, p_x.probs, 1.0)
    else:
        r = np.asarray(_parse_list(args.weights, "--weights"))
        if len(r) != len(ch.input):
            raise CliError(f"--weights: need {len(ch.input)} values")
    _emit_json({"lm_rate": rates.lm_rate(p_x, ch, q, args.s, r)})


def cmd_simulate(args):
    p_x, ch, q = _build_scenario(args)
    cfg = simulator.SimConfig(
        p_x=p_x, ch=ch, q=q, n=args.n, r_c=args.rc, r_tx=args.rtx,
        eps_typ=args.eps_typ, trials=args.trials, rng_seed=_seed(args),
        mode=args.mode,
    )
    if args.per_trial_csv:
        # checked first, so that a path that cannot be written costs no run;
        # "a" leaves a file that is there intact until the run has succeeded
        _open_csv(args.per_trial_csv, "a").close()
    result = simulator.run(cfg)
    _emit_json(result.to_json_dict())
    if args.per_trial_csv:
        with _open_csv(args.per_trial_csv, "w") as fh:
            fh.write("# schema: psrates.simulate.per-trial.v1\n")
            fh.write("trial,encoding_failed,w_error,u_error,t_hat,union_bound\n")
            for i, rec in enumerate(result.per_trial):
                fh.write(
                    f"{i},{int(rec.encoding_failed)},{int(rec.w_error)},"
                    f"{int(rec.u_error)},{_fmt(rec.t_hat)},{_fmt(rec.union_bound)}\n"
                )


def _open_csv(path, mode):
    try:
        return open(path, mode)
    except OSError as e:
        raise CliError(f"--per-trial-csv: cannot write {path!r} ({e.strerror})")


def cmd_estimate_tc(args):
    if args.trials < 2:
        raise CliError(f"--trials: a standard error needs at least 2 trials, got {args.trials}")
    p_x, ch, q = _build_scenario(args)
    res = empirical.monte_carlo_t_c(
        p_x, ch, q, args.n, args.trials, _seed(args), composition=args.composition
    )
    t_c = math.log2(len(ch.input)) - rates.uncertainty(p_x, ch, q)
    diff = res.mean - t_c
    if res.mean == t_c:
        z = 0.0
    elif res.std_error > 0 and math.isfinite(diff):
        z = diff / res.std_error
    else:  # every trial gave the same value, or the estimate or t_c is -inf
        z = math.copysign(math.inf, diff)
    _emit_json({
        "mean": res.mean,
        "std_error": res.std_error,
        "t_c_closed_form": t_c,
        "z_score": z,
    })


def cmd_typical(args):
    # str() of an int refuses more than 4,300 digits (the process-wide
    # sys.get_int_max_str_digits); Decimal prints any exact size
    import decimal

    probs = np.asarray(_parse_list(args.pmf, "--pmf"))
    alphabet = Alphabet(tuple(range(len(probs))))
    p_x = Pmf(alphabet, probs)
    specs = [typicality.TypicalSpec(p_x, n, args.eps) for n in _parse_list(args.n, "--n", int)]
    print("# schema: psrates.typical.v1")
    print("n,eps,size,rate,lemma_lower_bound")
    h = entropy(p_x)
    for spec in specs:
        n = spec.n
        size = typicality.typical_set_size(spec)
        rate = typicality._rate_of_size(size, n)
        exponent = n * (1 - args.eps) * h
        lemma = math.inf if exponent >= 1024 else 2.0 ** exponent
        print(f"{n},{_fmt(args.eps)},{decimal.Decimal(size)},{_fmt(rate)},{_fmt(lemma)}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psrates",
        description="Achievable rates and random-coding simulation for "
                    "layered probabilistic shaping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="rate report for one scenario")
    _scenario_flags(p)
    p.add_argument("--optimize-s", action="store_true",
                   help="maximize the rate over the metric's s-family")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("sweep", help="rate table over a parameter grid")
    _scenario_flags(p)
    p.add_argument("--param", required=True, choices=("eps", "sigma", "s"))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gmi", help="generalized mutual information")
    _scenario_flags(p)
    p.add_argument("--s-min", type=float, default=1e-3)
    p.add_argument("--s-max", type=float, default=1e3)
    p.set_defaults(func=cmd_gmi)

    p = sub.add_parser("lm", help="LM-rate with exponent and weights")
    _scenario_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--weights", default="inv-input",
                   help="inv-input | w1,w2,...")
    p.set_defaults(func=cmd_lm)

    p = sub.add_parser("simulate", help="random-coding experiment")
    _scenario_flags(p)
    p.add_argument("--mode", choices=("layered-ps", "classical"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rc", type=float, required=True)
    p.add_argument("--rtx", type=float, required=True)
    p.add_argument("--eps-typ", type=float, default=0.1)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--per-trial-csv", default=None,
                   help="also write a per-trial CSV to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-tc", help="Monte-Carlo achievable code rate")
    _scenario_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--composition", choices=("iid", "exact"), default="iid")
    p.set_defaults(func=cmd_estimate_tc)

    p = sub.add_parser("typical", help="typical-set size and rate")
    p.add_argument("--pmf", required=True, help="p1,p2,...")
    p.add_argument("--n", required=True, help="length or comma list of lengths")
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_typical)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed reader must fail here, not at exit
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalCheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
