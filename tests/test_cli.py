"""Command-line surface: formats, determinism, exit codes."""

import json
from pathlib import Path

import pytest

import mpqkd.cli as cli
from mpqkd.cli import main
from mpqkd.numerics import LogEps
from mpqkd.simulate import EC_HASH_LIMIT, ec_hash_length


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_asymptotic_csv_round_trip(capsys):
    code, out = run_cli(
        capsys, ["asymptotic", "--parties", "2,5", "--qab", "0.0,0.05", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# mpqkd schema")
    assert lines[1].startswith("# config ")
    header = lines[2].split(",")
    assert header == ["model", "parties", "p_ab", "rate_bb84", "rate_sixstate"]
    rows = [dict(zip(header, ln.split(","))) for ln in lines[3:]]
    zero_rows = [r for r in rows if r["p_ab"] == "0.0"]
    assert all(r["rate_bb84"] == "1.0" and r["rate_sixstate"] == "1.0" for r in zero_rows)


def test_asymptotic_bb84_column_n_independent_bit_exact(capsys):
    code, out = run_cli(
        capsys,
        ["asymptotic", "--parties", "2,5,8", "--qab", "0.0:0.1:11", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()[2:]
    header = lines[0].split(",")
    by_parties = {}
    for ln in lines[1:]:
        row = dict(zip(header, ln.split(",")))
        by_parties.setdefault(row["parties"], []).append((row["p_ab"], row["rate_bb84"]))
    columns = list(by_parties.values())
    assert columns[0] == columns[1] == columns[2]


def test_asymptotic_local_model_ordering(capsys):
    code, out = run_cli(
        capsys,
        ["asymptotic", "--model", "local", "--parties", "2,10", "--qab", "0.02", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    rates = {row["parties"]: row for row in doc["rows"]}
    assert rates[10]["rate_bb84"] < rates[2]["rate_bb84"]
    assert rates[10]["rate_sixstate"] < rates[2]["rate_sixstate"]


def test_byte_identical_reruns(capsys, tmp_path):
    argv = ["finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e5,1e6",
            "--max-evals", "300"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_finite_header_echoes_eps_tot(capsys):
    code, out = run_cli(
        capsys,
        ["finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e5", "--max-evals", "150"],
    )
    assert code == 0
    config_line = out.splitlines()[1]
    assert '"eps-tot": 5e-09' in config_line


def test_config_file_merging(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"parties": "2", "qab": "0.01,0.02"}))
    code, out = run_cli(
        capsys, ["asymptotic", "--config", str(conf), "--qab", "0.03", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["qab"] == "0.03"  # flag wins over file
    assert doc["config"]["parties"] == "2"  # file wins over default
    assert [row["p_ab"] for row in doc["rows"]] == [0.03]


@pytest.mark.parametrize(
    "command, key",
    [
        ("asymptotic", "nonsense"),
        # removed from the rate search, which never used them
        ("finite", "starts"),
        ("finite", "seed"),
        ("threshold", "starts"),
        ("threshold", "seed"),
    ],
)
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: 1}))
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(conf)])
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: unknown config keys: [{key!r}]\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["asymptotic", "--qab", "0.0:0.1"])  # malformed grid
    assert err.value.code == 2
    capsys.readouterr()


def test_simulate_report(capsys, tmp_path):
    out_path = tmp_path / "sim.json"
    code = main(
        ["simulate", "--model", "local", "--noise", "0.1", "--parties", "3",
         "--protocol", "n-six-state", "--rounds", "20000", "--p", "0.2",
         "--seed", "7", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["seed"] == 7
    report = doc["report"]
    assert report["ab_rounds"] == 4000
    assert report["x_rounds"] == 2000
    assert len(report["ab_errors"]) == 2


def test_finite_rates_nondecreasing_and_small_l_rows(capsys):
    code, out = run_cli(
        capsys,
        ["finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e3,1e5,1e7,1e9",
         "--max-evals", "800", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = sorted(doc["rows"], key=lambda r: r["rounds"])
    assert len(rows) == 4  # small-L points are rows with rate 0, not errors
    assert rows[0]["rate_sixstate"] == 0.0
    for col in ("rate_bb84", "rate_sixstate"):
        values = [r[col] for r in rows]
        assert all(b >= a - 1e-3 for a, b in zip(values, values[1:]))


def test_threshold_command_reports_none_below_lmax(capsys):
    code, out = run_cli(
        capsys,
        ["threshold", "--qab", "0.05", "--parties", "2", "--lmax", "4096",
         "--max-evals", "300", "--format", "csv"],
    )
    assert code == 0
    data_row = out.strip().splitlines()[-1]
    assert data_row.split(",") == ["0.05", "2", ""]  # no crossing found


def test_validate_marginals_passes(capsys):
    code, out = run_cli(capsys, ["validate", "marginals"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["pass"] is True


def test_validate_marginals_impossible_tolerance_fails(capsys):
    code, out = run_cli(capsys, ["validate", "marginals", "--tol", "0"])
    assert code == 3
    doc = json.loads(out)
    assert doc["report"]["pass"] is False


def test_validate_sampling_lemma(capsys):
    code, out = run_cli(
        capsys,
        ["validate", "sampling-lemma", "--trials", "20000", "--seed", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["report"]["checks"].values())


def test_validate_ec_toy(capsys):
    code, out = run_cli(
        capsys, ["validate", "ec-toy", "--trials", "20000", "--seed", "3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["pass"] is True
    assert doc["report"]["leakage_bits"] == 16


@pytest.mark.parametrize(
    "key_bits, radius, parties", [(12, 3, 3), (5, 0, 2), (16, 5, 4), (20, 20, 9)]
)
def test_ec_toy_names_the_smallest_eps_ec_that_fits(capsys, key_bits, radius, parties):
    flags = ["--key-bits", str(key_bits), "--radius", str(radius), "--parties", str(parties)]
    with pytest.raises(SystemExit):
        main(["validate", "ec-toy", *flags, "--eps-ec", "1e-300"])
    smallest = float(capsys.readouterr().err.split("at least ")[1].split()[0])
    for eps, hash_bits in ((smallest, EC_HASH_LIMIT), (0.99 * smallest, EC_HASH_LIMIT + 1)):
        assert ec_hash_length(parties, key_bits, radius, LogEps.from_eps(eps)) == hash_bits


def test_validate_ec_toy_at_the_smallest_eps_ec(capsys):
    code, out = run_cli(capsys, ["validate", "ec-toy", "--eps-ec", "1.3e-16", "--trials", "100"])
    assert code == 0
    assert json.loads(out)["report"]["leakage_bits"] == EC_HASH_LIMIT


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_finite_shares_are_plain_numbers(capsys, fmt):
    code, out = run_cli(
        capsys,
        ["finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e5,1e6",
         "--max-evals", "300", "--format", fmt],
    )
    assert code == 0
    if fmt == "json":
        rows = json.loads(out)["rows"]
    else:
        lines = out.strip().splitlines()[2:]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        for col, k in (("shares_bb84", 4), ("shares_sixstate", 6)):
            shares = [float(v) for v in row[col].split(";")]
            assert len(shares) == k
            assert abs(sum(shares) - 1.0) <= 1e-9


# Exit codes and exact stdout of cheap runs of every command, recorded before
# the commands were rebuilt from option tables. Regenerate only for an
# intended change of the output format.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_stdout_bytes(capsys, case):
    code, out = run_cli(capsys, case["argv"])
    assert code == case["exit"]
    assert out.encode() == case["stdout"].encode()


@pytest.mark.parametrize(
    "command, conf, key",
    [
        ("asymptotic", {"model": "Global"}, "model"),  # outside the flag's choices
        ("asymptotic", {"format": "xml"}, "format"),
        ("asymptotic", {"command": "finite"}, "command"),  # not a settable key
        ("asymptotic", {"parties": 2}, "parties"),  # lists are parsed from text
        ("finite", {"seed": "abc"}, "seed"),  # no longer a key of finite
        ("simulate", {"parties": 3.9, "rounds": 20000}, "parties"),  # int() would truncate
        ("simulate", {"seed": True, "rounds": 20000}, "seed"),  # int() would take it as 1
        ("simulate", {"noise": True, "rounds": 20000}, "noise"),  # float() would take it as 1.0
        ("finite", {"eps-tot": True}, "eps-tot"),
    ],
)
def test_config_value_checked_like_its_flag(tmp_path, capsys, command, conf, key):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(path)])
    assert err.value.code == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["null", "2"])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    path = tmp_path / "conf.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["asymptotic", "--config", str(path)])
    assert err.value.code == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check, own, foreign",
    [
        ("marginals", ["--tol", "1e-9"], ["--trials", "5"]),
        (
            "sampling-lemma",
            ["--bits", "400", "--sample", "200", "--weight", "40", "--eps", "0.05",
             "--trials", "2000", "--seed", "1"],
            ["--radius", "3"],
        ),
        (
            "ec-toy",
            ["--parties", "2", "--key-bits", "8", "--q", "0.05", "--eps-ec", "0.05",
             "--radius", "2", "--trials", "2000", "--seed", "1"],
            ["--tol", "0"],
        ),
    ],
)
def test_validate_checks_take_only_their_own_flags(capsys, check, own, foreign):
    code, out = run_cli(capsys, ["validate", check, *own])
    assert code == 0
    echoed = json.loads(out)["config"]
    assert {f"--{key}" for key in echoed} - {"--command"} == set(own[::2])
    with pytest.raises(SystemExit) as err:
        main(["validate", check, *own, *foreign])
    assert err.value.code == 2
    capsys.readouterr()


def test_threshold_help_shows_grid_syntax(capsys):
    with pytest.raises(SystemExit) as err:
        main(["threshold", "--help"])
    assert err.value.code == 0
    assert "lo:hi:steps" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["threshold", "--max-evals", "-5"], "--max-evals"),
        # the last of a repeated flag counts
        (["finite", "--max-evals", "300", "--max-evals", "0"], "--max-evals"),
        (["finite", "--max-evals", "0"], "--max-evals"),  # once printed the start points
        (["finite", "--max-evals", "-5"], "--max-evals"),
        (["threshold", "--max-evals", "0"], "--max-evals"),
    ],
)
def test_empty_search_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {argv[-1]}\n"


def test_empty_search_in_config_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"max-evals": 0}))
    with pytest.raises(SystemExit) as err:
        main(["finite", "--config", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: --max-evals must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["threshold", "--lmax", "inf"], "--lmax"),
        (["simulate", "--rounds", "inf"], "--rounds"),
        (["simulate", "--rounds", "1e400"], "--rounds"),
        (["finite", "--rounds", "1e5,inf", "--max-evals", "50"], "--rounds"),
        # the log-spaced grid's ends are checked before they are spaced
        (["finite", "--rounds", "1e5:inf:3", "--max-evals", "50"], "--rounds"),
    ],
)
def test_non_finite_round_count_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: {flag} must be finite, got inf\n"


@pytest.mark.parametrize(
    "rounds, shown",
    [
        ("0.4", "0.4"),  # rounds to L = 0
        ("-5", "-5.0"),
        ("1e5,0", "0.0"),
        ("0:1e5:3", "0.0"),  # a log-spaced grid cannot start at 0
        ("-1e3:1e5:3", "-1000.0"),
    ],
)
def test_round_count_below_one_is_usage_error(capsys, rounds, shown):
    with pytest.raises(SystemExit) as err:
        main(["finite", f"--rounds={rounds}", "--max-evals", "50"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --rounds must be at least 1, got {shown}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag, shown",
    [
        (["threshold", "--lmax", "-5"], "--lmax", "-5.0"),  # once an empty scan
        (["threshold", "--lmax", "0.5"], "--lmax", "0.5"),
        (["simulate", "--rounds", "0.4"], "--rounds", "0.4"),  # once named total_rounds
        (["simulate", "--rounds", "-3"], "--rounds", "-3.0"),
    ],
)
def test_other_round_counts_below_one_are_usage_errors(capsys, argv, flag, shown):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be at least 1, got {shown}\n"
    assert captured.out == ""


def test_round_count_below_one_in_config_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text('{"lmax": 0}')
    with pytest.raises(SystemExit) as err:
        main(["threshold", "--config", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: --lmax must be at least 1, got 0.0\n"


def test_non_finite_round_count_in_config_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text('{"rounds": 1e400}')  # json reads a number this large as inf
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--config", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: --rounds must be finite, got inf\n"


@pytest.mark.parametrize("check", ["sampling-lemma", "ec-toy"])
def test_empty_trial_count_is_usage_error(capsys, check):
    with pytest.raises(SystemExit) as err:
        main(["validate", check, "--trials", "0"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: --trials must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # once "nu must be in [0, 1], got 1.2", after the optima of earlier rows
        (["finite", "--qab", "0.6"], "--qab must be in [0, 0.5], got 0.6"),
        (["asymptotic", "--qab", "0.6"], "--qab must be in [0, 0.5], got 0.6"),
        (["asymptotic", "--qab", "0.05,-0.01"], "--qab must be in [0, 0.5], got -0.01 in 0.05,-0.01"),
        (["asymptotic", "--qab", "0:0.6:4"], "--qab must be in [0, 0.5], got 0.6 in 0:0.6:4"),
        (["finite", "--qab", "nan"], "--qab must be in [0, 0.5], got nan"),
        # once "q_ab must be in (0, 0.5), got 0.5"
        (["threshold", "--qab", "0.5"], "--qab must be in (0, 0.5), got 0.5"),
        (["threshold", "--qab", "0"], "--qab must be in (0, 0.5), got 0"),
        (["threshold", "--qab", "0.05,0.6"], "--qab must be in (0, 0.5), got 0.6 in 0.05,0.6"),
        # once "could not convert string to float: 'abc'"
        (["finite", "--qab", "abc"], "--qab must be a number, got abc"),
        (["finite", "--qab", "0.01,0.02"], "--qab must be a number, got 0.01,0.02"),
        (
            ["asymptotic", "--qab", "abc"],
            "--qab must be a comma list or lo:hi:steps grid of numbers, got abc",
        ),
        (
            ["threshold", "--qab", "0:0.1:x"],
            "--qab must be a comma list or lo:hi:steps grid of numbers, got 0:0.1:x",
        ),
    ],
)
def test_bad_qab_is_usage_error_naming_the_flag(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bad_qab_in_config_file_names_the_flag(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"qab": "0.6"}))
    with pytest.raises(SystemExit) as err:
        main(["finite", "--config", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: --qab must be in [0, 0.5], got 0.6\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["finite", "--qab", "0.5", "--rounds", "1e5"],
        ["finite", "--qab", "0", "--rounds", "1e5"],
        ["asymptotic", "--qab", "0,0.5", "--parties", "2"],
        ["threshold", "--qab", "0.49", "--lmax", "4096"],
    ],
)
def test_qab_range_ends_still_run(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        # once "grid must be lo:hi:steps, got '0.0:0.1'"
        (
            ["asymptotic", "--qab", "0.0:0.1"],
            "--qab must be a comma list or lo:hi:steps grid of numbers, got 0.0:0.1",
        ),
        (["asymptotic", "--qab", "0:0.1:0"], "--qab grid needs at least one step, got 0:0.1:0"),
        # once "could not convert string to float: 'abc'"
        (
            ["finite", "--rounds", "abc"],
            "--rounds must be a comma list or lo:hi:steps grid of numbers, got abc",
        ),
        (
            ["finite", "--rounds", "1e5:1e6:2:3"],
            "--rounds must be a comma list or lo:hi:steps grid of numbers, got 1e5:1e6:2:3",
        ),
        # once "invalid literal for int() with base 10: 'x'"
        (["asymptotic", "--parties", "2,x"], "--parties must be a comma list of integers, got 2,x"),
        (["threshold", "--parties", "2.5"], "--parties must be a comma list of integers, got 2.5"),
        # once "eps must be in (0, 1], got 0.0"
        (["finite", "--eps-tot", "0"], "--eps-tot must be in (0, 1], got 0.0"),
        (["threshold", "--eps-tot", "1.5"], "--eps-tot must be in (0, 1], got 1.5"),
        (["validate", "sampling-lemma", "--eps", "-1"], "--eps must be in (0, 1], got -1.0"),
        (["validate", "ec-toy", "--eps-ec", "nan"], "--eps-ec must be in (0, 1], got nan"),
    ],
)
def test_bad_grid_list_or_epsilon_names_the_flag(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--p", "0.7"], "--p must be in (0, 0.5), got 0.7"),
        (["simulate", "--noise", "2"], "--noise must be in [0, 1], got 2.0"),
        (
            ["validate", "sampling-lemma", "--sample", "5000"],
            "--sample must be at least 1 and below --bits (2000), got 5000",
        ),
        (["finite", "--parties", "1"], "--parties must be at least 2, got 1"),
        (["finite", "--parties", "2,1"], "--parties must be at least 2, got 1 in 2,1"),
        (["asymptotic", "--parties", "1"], "--parties must be at least 2, got 1"),
        (["threshold", "--parties", "1"], "--parties must be at least 2, got 1"),
        (["simulate", "--parties", "1"], "--parties must be at least 2, got 1"),
        # once the library's "parties must be >= 2, got 1" and friends
        (["validate", "ec-toy", "--parties", "1"], "--parties must be at least 2, got 1"),
        (["validate", "ec-toy", "--q", "0.7"], "--q must be in [0, 0.5], got 0.7"),
        (
            ["validate", "ec-toy", "--radius", "20"],
            "--radius must be in [0, --key-bits (12)], got 20",
        ),
        (["validate", "ec-toy", "--key-bits", "25"], "--key-bits must be at most 20, got 25"),
        (
            ["validate", "sampling-lemma", "--weight", "5000"],
            "--weight must be in [0, --bits (2000)], got 5000",
        ),
        # once numpy's "expected non-negative integer"
        (["simulate", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["validate", "ec-toy", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["validate", "sampling-lemma", "--seed", "-1"], "--seed must be at least 0, got -1"),
        # once the library's "hash length z_EC = 76 exceeds the 62-bit packing limit"
        (
            ["validate", "ec-toy", "--eps-ec", "1e-20"],
            "--eps-ec must be at least 1.3e-16 at --key-bits 12, --radius 3 and --parties 3,"
            " got 1e-20",
        ),
        (
            ["validate", "ec-toy", "--eps-ec", "1.29e-16"],
            "--eps-ec must be at least 1.3e-16 at --key-bits 12, --radius 3 and --parties 3,"
            " got 1.29e-16",
        ),
        # once the library's "no accepted X-parity rounds: m' = 0" and "no test rounds: m = 0"
        (
            ["simulate", "--rounds", "3", "--p", "0.4"],
            "--rounds 3 at --p 0.4 leaves no accepted X-parity rounds: m' = 0",
        ),
        (
            ["simulate", "--rounds", "2", "--p", "0.3"],
            "--rounds 2 at --p 0.3 leaves no test rounds: m = 0",
        ),
        # once "--radius must be in [0, --key-bits (-1)], got 3"
        (["validate", "ec-toy", "--key-bits", "-1"], "--key-bits must be at least 0, got -1"),
        (
            ["validate", "ec-toy", "--key-bits", "-1", "--radius", "-2"],
            "--key-bits must be at least 0, got -1",
        ),
    ],
)
def test_out_of_range_value_names_the_flag_before_computing(monkeypatch, capsys, argv, message):
    # ``--parties 2,1`` must fail before the N = 2 rows are computed
    def computed(*args, **kwargs):
        raise AssertionError("computed before the flags were checked")

    for name in (
        "marginal_probabilities",
        "optimize_rate",
        "threshold_L",
        "simulate_rounds",
        "sampling_lemma_experiment",
        "ec_toy_run",
    ):
        monkeypatch.setattr(cli, name, computed)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
