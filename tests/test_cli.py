"""The p2qbrace command: exit codes and output of the subcommands."""

import pytest
from click.testing import CliRunner

from p2qbrace.braces import brace_from_regular
from p2qbrace.cli import main
from p2qbrace.report import export
from p2qbrace.ybe import solution_from_brace
from helpers import classes_of, export_oracle, hol_of, report_of


def test_enumerate_prints_the_export():
    result = CliRunner().invoke(main, ["enumerate", "--p", "2", "--q", "5", "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.output == export(report_of(2, 5), "csv")


def test_enumerate_refusal_names_the_predicted_holomorph_order():
    # (5,2): Gk(1) has 12 000 automorphisms, so |Hol| = 50 * 12 000; the
    # export and the exit code are those of the refused report
    result = CliRunner().invoke(main, ["enumerate", "--p", "5", "--q", "2", "--format", "csv"])
    assert result.exit_code == 2
    assert result.stderr == ("incomplete under the normal budget, skipped: "
                             "Gk(1) (|Hol| = 600000 > 150000) (rerun with --budget large)\n")
    assert report_of(5, 2).skipped == ["Gk(1)"]
    assert result.stdout == export(report_of(5, 2), "csv")


def test_verify_tables_matches_at_order28():
    result = CliRunner().invoke(main, ["verify-tables", "--p", "2", "--q", "7"])
    assert result.exit_code == 0, result.output
    assert result.output == "all cells match\n"


def test_conjecture_matches_at_order63():
    result = CliRunner().invoke(main, ["conjecture", "--p", "3", "--q", "7"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-1] == "match"


@pytest.mark.parametrize("command", ["enumerate", "verify-tables", "conjecture"])
def test_strategy_is_no_longer_an_option(command):
    result = CliRunner().invoke(main, [command, "--p", "2", "--q", "5", "--strategy", "dfs"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--strategy" in result.output


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enumerate_refuses_fewer_than_one_job(jobs):
    result = CliRunner().invoke(main, ["enumerate", "--p", "2", "--q", "5", "--jobs", jobs])
    assert result.exit_code == 2
    assert f"jobs must be at least 1, got {jobs}" in result.output


@pytest.mark.parametrize(
    "command, option",
    [
        ("enumerate", "--choice"),
        ("verify-tables", "--choice"),
        ("solutions", "--choice"),
        ("catalog", "--choice"),
        ("enumerate", "--budget"),
        ("conjecture", "--budget"),
    ],
)
def test_help_lists_the_shared_options(command, option):
    result = CliRunner().invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    [line] = [ln for ln in result.output.splitlines() if ln.lstrip().startswith(option)]
    choices = "[first|second]" if option == "--choice" else "[normal|large]"
    assert choices in line

def test_solutions_past_the_brute_force_bound():
    # order 363 is beyond the n <= 200 bound of the brute-force Aut(A) search;
    # its entries are one to three digits wide
    result = CliRunner().invoke(
        main, ["solutions", "--p", "11", "--q", "3", "--additive", "CyclicP2Q", "--orbit", "0"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.count("\n") == 363
    rep = classes_of(11, 3, "CyclicP2Q")[0].rep
    sol = solution_from_brace(brace_from_regular(hol_of(11, 3, "CyclicP2Q"), rep))
    assert result.stdout == export_oracle(sol)


def test_solutions_check_reports_the_passed_checks():
    result = CliRunner().invoke(
        main,
        ["solutions", "--p", "2", "--q", "5", "--additive", "QbyP2_ordP", "--orbit", "1", "--check"],
    )
    assert result.exit_code == 0, result.output
    assert result.stderr == "checks passed: braid relation, non-degenerate (non-involutive)\n"
    assert result.stdout.count("\n") == 20


def test_solutions_rejects_an_unknown_family():
    result = CliRunner().invoke(
        main, ["solutions", "--p", "2", "--q", "7", "--additive", "GF", "--orbit", "0"]
    )
    assert result.exit_code == 2
    assert "have: CyclicP2Q, PxPQ, QbyP2_ordP, PxQbyP" in result.output
