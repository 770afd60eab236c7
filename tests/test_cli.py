"""Command-line surface: formats, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from mpqkd.cli import main


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
            "--seed", "5", "--starts", "2", "--max-evals", "300"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_finite_header_echoes_eps_tot(capsys):
    code, out = run_cli(
        capsys,
        ["finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e5",
         "--starts", "1", "--max-evals", "150"],
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


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(SystemExit) as err:
        main(["asymptotic", "--config", str(conf)])
    assert err.value.code == 2
    capsys.readouterr()


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
         "--seed", "9", "--starts", "3", "--max-evals", "800", "--format", "json"],
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
         "--starts", "2", "--max-evals", "300", "--format", "csv"],
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_finite_shares_are_plain_numbers(capsys, fmt):
    code, out = run_cli(
        capsys,
        ["finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e5,1e6",
         "--starts", "2", "--max-evals", "300", "--format", fmt],
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
        ("finite", {"seed": "abc"}, "seed"),  # rejected by the flag's type
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
        (["finite", "--starts", "-3"], "--starts"),  # once ran as one start
        (["finite", "--starts", "0"], "--starts"),
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
    path.write_text(json.dumps({"starts": 0}))
    with pytest.raises(SystemExit) as err:
        main(["finite", "--config", str(path)])
    assert err.value.code == 2
    assert "--starts" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["sampling-lemma", "ec-toy"])
def test_empty_trial_count_is_usage_error(capsys, check):
    assert main(["validate", check, "--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: trials must be at least 1, got 0\n"
