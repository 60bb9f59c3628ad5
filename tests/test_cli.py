"""The p2qbrace command: exit codes and output of the subcommands."""

from click.testing import CliRunner

from p2qbrace.cli import main


def test_solutions_past_the_brute_force_bound():
    # order 363 is beyond the n <= 200 bound of the brute-force Aut(A) search
    result = CliRunner().invoke(
        main, ["solutions", "--p", "11", "--q", "3", "--additive", "CyclicP2Q", "--orbit", "0"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.count("\n") == 363


def test_solutions_rejects_an_unknown_family():
    result = CliRunner().invoke(
        main, ["solutions", "--p", "2", "--q", "7", "--additive", "GF", "--orbit", "0"]
    )
    assert result.exit_code == 2
    assert "have: CyclicP2Q, PxPQ, QbyP2_ordP, PxQbyP" in result.output
