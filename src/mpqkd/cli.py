"""Batch front-end: rate curves, thresholds, simulations and validations.

Emits plot-ready CSV or JSON; rendering is left to the caller's toolchain.
Every output embeds the fully resolved parameter set (flags merged over an
optional JSON config file, defaults filled in), seed included where a
command takes one, so identical inputs reproduce byte-identical files.

Each command is one table of ``Option`` rows: the parser builds its flags
from the table, and the same rows give the defaults, the known config keys
and the checks a config-file value must pass.

Exit codes: 0 success, 2 usage error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .finite_key import ConfigurationError, Protocol, ProtocolConfig, derive_counts
from .noise import NoiseModel, NoiseScenario, expected_observed_stats, marginal_probabilities
from .numerics import LogEps
from .optimize import SearchConfig, optimize_rate, threshold_L
from .asymptotic import rate_bb84_asymptotic, rate_sixstate_asymptotic
from .simulate import (
    EC_HASH_LIMIT,
    ec_hash_length,
    ec_toy_run,
    exact_marginals,
    sampling_lemma_experiment,
    simulate_rounds,
)

SCHEMA_VERSION = 1

USAGE_ERROR = 2
VALIDATION_FAILURE = 3


@dataclass(frozen=True)
class Option:
    """One flag ``--key`` and config key ``key``; ``type`` str marks lists, grids and names."""

    key: str
    default: object
    help: Optional[str] = None
    type: Callable = str
    choices: Optional[Sequence[str]] = None


@dataclass(frozen=True)
class Command:
    word: str  # the sub-command on the command line
    name: str  # echoed as "command" in every output
    run: Callable[[Dict], int]  # its docstring is the sub-command's help line
    options: Tuple[Option, ...]


def _die_usage(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(USAGE_ERROR)


def _require(ok: bool, key: str, bounds: str, shown: object) -> None:
    """Exit 2 naming ``--key`` and the value ``shown`` unless ``ok``."""
    if not ok:
        raise _die_usage(f"--{key} must be {bounds}, got {shown}")


def _int_at_least(conf: Dict, key: str, low: int) -> int:
    """The integer of ``--key``, which must be at least ``low``."""
    value = int(conf[key])
    _require(value >= low, key, f"at least {low}", value)
    return value


def _round_count(key: str, value: float, convert: Callable[[float], int] = round) -> int:
    """``value`` made a round count by ``convert``; it must be finite and at least 1."""
    _require(math.isfinite(value), key, "finite", value)
    total = int(convert(value))
    _require(total >= 1, key, "at least 1", value)
    return total


def _parse_grid(
    key: str, spec: str, log10: bool = False, check: Optional[Callable[[float], object]] = None
) -> List[float]:
    """The grid of ``--key``: either 'a,b,c' or 'lo:hi:steps' (inclusive linspace).

    ``check`` sees both ends of a lo:hi:steps grid before they are spaced.
    """
    try:
        if ":" not in spec:
            return [float(v) for v in spec.split(",")]
        lo, hi, steps = spec.split(":")  # three parts, or ValueError
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise _die_usage(
            f"--{key} must be a comma list or lo:hi:steps grid of numbers, got {spec}"
        ) from None
    if check is not None:
        check(lo)
        check(hi)
    if steps < 1:
        raise _die_usage(f"--{key} grid needs at least one step, got {spec}")
    if steps == 1:
        return [lo]
    if log10:
        lo, hi = math.log10(lo), math.log10(hi)
        return [10.0 ** (lo + (hi - lo) * i / (steps - 1)) for i in range(steps)]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _qab(spec: str, single: bool = False, open_ends: bool = False) -> List[float]:
    """The Q_AB values of ``--qab``: one number if ``single``, else a grid.
    Each must lie in [0, 0.5], or in (0, 0.5) with ``open_ends``."""
    if single:
        try:
            values = [float(spec)]
        except ValueError:
            raise _die_usage(f"--qab must be a number, got {spec}") from None
    else:
        values = _parse_grid("qab", spec)
    interval = "(0, 0.5)" if open_ends else "[0, 0.5]"
    for q in values:
        ok = 0.0 < q < 0.5 if open_ends else 0.0 <= q <= 0.5
        _require(ok, "qab", f"in {interval}", spec if len(values) == 1 else f"{q!r} in {spec}")
    return values


def _parties(spec: str) -> List[int]:
    """The party counts of ``--parties``, a comma list; each must be at least 2."""
    try:
        values = [int(v) for v in spec.split(",")]
    except ValueError:
        raise _die_usage(f"--parties must be a comma list of integers, got {spec}") from None
    for n in values:
        _require(n >= 2, "parties", "at least 2", spec if len(values) == 1 else f"{n} in {spec}")
    return values


def _eps(conf: Dict, key: str) -> LogEps:
    """The epsilon of ``--key``, which must lie in (0, 1]."""
    try:
        return LogEps.from_eps(float(conf[key]))
    except ValueError:
        raise _die_usage(f"--{key} must be in (0, 1], got {float(conf[key])}") from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write(config: Dict, section: str, body, columns: Sequence[str] = ()) -> None:
    """Rows (``section`` "rows") as CSV or JSON per the format key; reports as JSON."""
    # the destination path plays no part in the computation
    echoed = {k: v for k, v in config.items() if k != "out"}
    if config.get("format") == "csv":
        lines = [
            f"# mpqkd schema {SCHEMA_VERSION}",
            "# config " + json.dumps(echoed, sort_keys=True),
            ",".join(columns),
        ]
        for row in body:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": config["command"],
            "config": echoed,
            section: body,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    out = config.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check(option: Option, value) -> None:
    """Hold a config-file value to the checks argparse applies to the flag."""
    if option.type is str:
        # lists and grids are parsed from text; only an unset path may be null
        ok = isinstance(value, str) or (value is None and option.default is None)
    elif isinstance(value, bool) or (option.type is int and isinstance(value, float)):
        ok = False  # no flag takes true; an int flag takes no 3.9, which int() would truncate
    else:
        try:
            option.type(value)
            ok = True
        except (TypeError, ValueError):
            ok = False
    where = f"config key {option.key!r}"
    if not ok:
        raise _die_usage(f"{where}: invalid {option.type.__name__} value: {value!r}")
    if option.choices is not None and value not in option.choices:
        raise _die_usage(f"{where}: {value!r} is not one of {list(option.choices)}")


def _resolve(args: argparse.Namespace, command: Command) -> Dict:
    """Defaults < config file < explicit flags, echoed back in every output."""
    resolved = {"command": command.name}
    resolved.update((opt.key, opt.default) for opt in command.options)
    if args.config:
        with open(args.config) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise _die_usage(f"config file {args.config} must hold a JSON object")
        table = {opt.key: opt for opt in command.options}
        unknown = set(file_conf) - set(table)
        if unknown:
            raise _die_usage(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_conf.items():
            _check(table[key], value)
        resolved.update(file_conf)
    for opt in command.options:
        value = getattr(args, opt.key.replace("-", "_"))
        if value is not None:
            resolved[opt.key] = value
    return resolved


def _search_config(resolved: Dict) -> SearchConfig:
    return SearchConfig(max_evaluations=_int_at_least(resolved, "max-evals", 1))


OUT = Option("out", None, "output path (default: stdout)")
FORMAT = Option("format", "csv", "output format", choices=("csv", "json"))
MODEL = Option("model", "global", choices=("global", "local"))
SEED = Option("seed", 0, type=int)
SEARCH = Option("max-evals", 5000, "most points scored per optimum", type=int)
TRIALS = Option("trials", 100_000, type=int)
EPS_TOT = Option("eps-tot", 5e-9, "total security parameter", type=float)
PARTY_LIST = Option("parties", "2", "comma list of party counts")
PARTIES = Option("parties", 3, type=int)


def cmd_asymptotic(conf: Dict) -> int:
    """asymptotic rate curves"""
    model = NoiseModel(conf["model"])
    grid = _qab(conf["qab"])
    rows = []
    for parties in _parties(conf["parties"]):
        for p_ab in grid:
            scenario = NoiseScenario(model, nu=2.0 * p_ab, parties=parties)
            probs = marginal_probabilities(scenario)
            r_bb84 = rate_bb84_asymptotic(probs.p_ab, probs.p_x)
            r_six = rate_sixstate_asymptotic(probs)
            rows.append(
                {
                    "model": conf["model"],
                    "parties": parties,
                    "p_ab": p_ab,
                    "rate_bb84": max(r_bb84, 0.0),
                    "rate_sixstate": 0.0 if math.isnan(r_six) else max(r_six, 0.0),
                }
            )
    rows.sort(key=lambda r: (r["parties"], r["p_ab"]))
    _write(conf, "rows", rows, ["model", "parties", "p_ab", "rate_bb84", "rate_sixstate"])
    return 0


ASYMPTOTIC = (
    MODEL,
    Option("parties", "2,5", "comma list, e.g. 2,5,8"),
    Option("qab", "0.0:0.12:25", "grid lo:hi:steps or comma list"),
    OUT,
    FORMAT,
)


def cmd_finite(conf: Dict) -> int:
    """optimized finite-key rates over L"""
    target = _eps(conf, "eps-tot")
    search = _search_config(conf)
    (q_ab,) = _qab(conf["qab"], single=True)
    grid = _parse_grid(
        "rounds", conf["rounds"], log10=True, check=lambda v: _round_count("rounds", v)
    )
    round_counts = [_round_count("rounds", v) for v in grid]
    rows = []
    for parties in _parties(conf["parties"]):
        scenario = NoiseScenario(NoiseModel(conf["model"]), nu=2.0 * q_ab, parties=parties)
        stats = expected_observed_stats(scenario)
        for total in round_counts:
            row = {"parties": parties, "rounds": total}
            for kind, tag in ((Protocol.N_BB84, "bb84"), (Protocol.N_SIX_STATE, "sixstate")):
                try:
                    opt = optimize_rate(kind, parties, total, stats, target, search)
                    row[f"rate_{tag}"] = opt.rate
                    row[f"p_{tag}"] = opt.shares.p
                    row[f"shares_{tag}"] = ";".join(repr(w) for w in opt.shares.weights)
                except ConfigurationError:  # L too small for this protocol
                    row[f"rate_{tag}"] = 0.0
                    row[f"p_{tag}"] = None
                    row[f"shares_{tag}"] = ""
            rows.append(row)
    rows.sort(key=lambda r: (r["parties"], r["rounds"]))
    columns = [
        "parties",
        "rounds",
        "rate_bb84",
        "rate_sixstate",
        "p_bb84",
        "p_sixstate",
        "shares_bb84",
        "shares_sixstate",
    ]
    _write(conf, "rows", rows, columns)
    return 0


FINITE = (
    MODEL,
    PARTY_LIST,
    Option("qab", "0.05", "observed Q_AB (other stats via the model)"),
    Option("rounds", "1e5:1e10:11", "L grid lo:hi:steps (log-spaced) or comma list"),
    EPS_TOT,
    SEARCH,
    OUT,
    FORMAT,
)


def cmd_threshold(conf: Dict) -> int:
    """six-state/BB84 crossover round counts"""
    target = _eps(conf, "eps-tot")
    search = _search_config(conf)
    l_max = _round_count("lmax", float(conf["lmax"]), int)
    grid = _qab(conf["qab"], open_ends=True)
    rows = []
    for parties in _parties(conf["parties"]):
        for q_ab in grid:
            lbar = threshold_L(q_ab, parties, target, l_max=l_max, search_config=search)
            rows.append({"q_ab": q_ab, "parties": parties, "threshold_rounds": lbar})
    rows.sort(key=lambda r: (r["parties"], r["q_ab"]))
    _write(conf, "rows", rows, ["q_ab", "parties", "threshold_rounds"])
    return 0


THRESHOLD = (
    Option("qab", "0.05", "grid lo:hi:steps or comma list"),
    PARTY_LIST,
    EPS_TOT,
    Option("lmax", 1e14, type=float),
    SEARCH,
    OUT,
    FORMAT,
)


def cmd_simulate(conf: Dict) -> int:
    """Monte Carlo protocol rounds"""
    nu, p = float(conf["noise"]), float(conf["p"])
    _require(0.0 <= nu <= 1.0, "noise", "in [0, 1]", nu)
    parties = _int_at_least(conf, "parties", 2)
    rounds = _round_count("rounds", float(conf["rounds"]), int)
    _require(0.0 < p < 0.5, "p", "in (0, 0.5)", p)
    seed = _int_at_least(conf, "seed", 0)
    scenario = NoiseScenario(NoiseModel(conf["model"]), nu=nu, parties=parties)
    config = ProtocolConfig(Protocol(conf["protocol"]), parties, rounds, p)
    try:
        derive_counts(config)  # n >= 1 holds for every p < 0.5
    except ConfigurationError as exc:
        raise _die_usage(f"--rounds {rounds} at --p {p} leaves {exc}") from None
    report = simulate_rounds(scenario, config, seed=seed)
    rates = {"q_ab": report.q_ab, "q_x": report.q_x, "q_z": report.q_z}
    _write(conf, "report", {**asdict(report), **rates})
    return 0


SIMULATE = (
    MODEL,
    Option("noise", 0.1, "depolarizing strength nu", type=float),
    PARTIES,
    Option("protocol", "n-six-state", choices=[k.value for k in Protocol]),
    Option("rounds", 1_000_000, type=float),
    Option("p", 0.25, "second-type round probability", type=float),
    SEED,
    OUT,
)


def _limit(bound: float, trials: int) -> float:
    """``bound`` plus three standard deviations of a frequency over ``trials``."""
    return bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)


def cmd_marginals(conf: Dict) -> int:
    """closed-form marginals against the dense state"""
    tol = float(conf["tol"])
    cases = []
    worst = 0.0
    for model in (NoiseModel.GLOBAL_DEPOLARIZING, NoiseModel.LOCAL_DEPOLARIZING):
        for parties in (2, 3, 4):
            for nu in (0.0, 0.1, 0.5, 1.0):
                scenario = NoiseScenario(model, nu, parties)
                closed = marginal_probabilities(scenario)
                dense = exact_marginals(scenario)
                err = max(
                    abs(closed.p_ab - dense.p_ab),
                    abs(closed.p_x - dense.p_x),
                    abs(closed.p_z - dense.p_z),
                )
                worst = max(worst, err)
                cases.append(
                    {
                        "model": model.value,
                        "parties": parties,
                        "nu": nu,
                        "max_abs_error": err,
                        "pass": err <= tol,
                    }
                )
    ok = all(c["pass"] for c in cases)
    _write(conf, "report", {"cases": cases, "worst_error": worst, "pass": ok})
    return 0 if ok else VALIDATION_FAILURE


MARGINALS = (Option("tol", 1e-12, "tolerance", type=float), OUT)


def cmd_sampling_lemma(conf: Dict) -> int:
    """sampling-lemma tail frequencies against their bounds"""
    bits, sample, weight = int(conf["bits"]), int(conf["sample"]), int(conf["weight"])
    _require(1 <= sample < bits, "sample", f"at least 1 and below --bits ({bits})", sample)
    _require(0 <= weight <= bits, "weight", f"in [0, --bits ({bits})]", weight)
    eps = _eps(conf, "eps")
    trials, seed = _int_at_least(conf, "trials", 1), _int_at_least(conf, "seed", 0)
    report = sampling_lemma_experiment(bits, sample, weight, trials, eps, seed)
    trials = report.trials
    checks = {
        "two_sided": (report.freq_two_sided, report.bound_two_sided),
        "upper": (report.freq_upper, report.bound_one_sided),
        "lower": (report.freq_lower, report.bound_one_sided),
    }
    results = {}
    for name, (freq, bound) in checks.items():
        limit = _limit(bound, trials)
        results[name] = {"frequency": freq, "bound": bound, "limit": limit, "pass": freq <= limit}
    ok = all(r["pass"] for r in results.values())
    _write(conf, "report", {"checks": results, "trials": trials, "seed": report.seed, "pass": ok})
    return 0 if ok else VALIDATION_FAILURE


SAMPLING_LEMMA = (
    Option("bits", 2000, "string length M", type=int),
    Option("sample", 1000, "sample size m", type=int),
    Option("weight", 100, "Hamming weight", type=int),
    Option("eps", 0.01, "epsilon", type=float),
    TRIALS,
    SEED,
    OUT,
)


def cmd_ec_toy(conf: Dict) -> int:
    """toy error-correction failure rate against eps_EC"""
    parties = _int_at_least(conf, "parties", 2)
    key_bits = _int_at_least(conf, "key-bits", 0)
    # the library enumerates every key of --key-bits bits
    _require(key_bits <= 20, "key-bits", "at most 20", key_bits)
    q, radius = float(conf["q"]), int(conf["radius"])
    _require(0.0 <= q <= 0.5, "q", "in [0, 0.5]", q)
    eps_ec = _eps(conf, "eps-ec")
    _require(0 <= radius <= key_bits, "radius", f"in [0, --key-bits ({key_bits})]", radius)
    # z_EC grows by log2(1/eps_EC) past log2(|ball| (N-1)), up to the packing limit
    ball = sum(math.comb(key_bits, wt) for wt in range(radius + 1))
    smallest = ball * (parties - 1) * 2.0**-EC_HASH_LIMIT
    unit = 10.0 ** (math.floor(math.log10(smallest)) - 2)  # shown rounded up to 3 digits
    _require(
        ec_hash_length(parties, key_bits, radius, eps_ec) <= EC_HASH_LIMIT,
        "eps-ec",
        f"at least {math.ceil(smallest / unit) * unit:.3g} at --key-bits {key_bits},"
        f" --radius {radius} and --parties {parties}",
        float(conf["eps-ec"]),
    )
    trials, seed = _int_at_least(conf, "trials", 1), _int_at_least(conf, "seed", 0)
    report = ec_toy_run(parties, key_bits, q, eps_ec, radius, trials, seed)
    limit = _limit(eps_ec.eps, report.trials)
    ok = report.failure_freq <= limit
    _write(
        conf,
        "report",
        {
            "failure_freq": report.failure_freq,
            "abort_freq": report.abort_freq,
            "leakage_bits": report.leakage_bits,
            "degenerate": report.degenerate,
            "bound": eps_ec.eps,
            "limit": limit,
            "trials": report.trials,
            "seed": report.seed,
            "pass": ok,
        },
    )
    return 0 if ok else VALIDATION_FAILURE


EC_TOY = (
    PARTIES,
    Option("key-bits", 12, type=int),
    Option("q", 0.05, "channel flip rate", type=float),
    Option("eps-ec", 2.0**-6, type=float),
    Option("radius", 3, type=int),
    TRIALS,
    SEED,
    OUT,
)


COMMANDS = (
    Command("asymptotic", "asymptotic", cmd_asymptotic, ASYMPTOTIC),
    Command("finite", "finite", cmd_finite, FINITE),
    Command("threshold", "threshold", cmd_threshold, THRESHOLD),
    Command("simulate", "simulate-rounds", cmd_simulate, SIMULATE),
)

VALIDATE_CHECKS = (
    Command("marginals", "validate-marginals", cmd_marginals, MARGINALS),
    Command("sampling-lemma", "validate-sampling-lemma", cmd_sampling_lemma, SAMPLING_LEMMA),
    Command("ec-toy", "validate-ec-toy", cmd_ec_toy, EC_TOY),
)


def _add_command(sub, command: Command) -> None:
    p = sub.add_parser(command.word, help=command.run.__doc__)
    for opt in command.options:
        if opt is OUT:  # --config sits just above the output flags in --help
            p.add_argument("--config", help="JSON file with defaults for this command")
        p.add_argument(f"--{opt.key}", type=opt.type, choices=opt.choices, help=opt.help)
    p.set_defaults(command=command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpqkd",
        description="Finite-key and asymptotic rates for multipartite QKD protocols",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in COMMANDS:
        _add_command(sub, command)
    validate = sub.add_parser("validate", help="oracle-band validation experiments")
    checks = validate.add_subparsers(dest="check", required=True)
    for command in VALIDATE_CHECKS:
        _add_command(checks, command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.command.run(_resolve(args, args.command))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
