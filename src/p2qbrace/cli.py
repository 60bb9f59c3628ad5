"""Command-line interface.

Exit codes: 0 when everything matched, 1 when a comparison produced any
diff or a check failed, 2 on usage errors and budget refusals.
"""

from __future__ import annotations

import sys

import click

from .braces import brace_from_regular
from .catalog import manual_notes, verify_catalog
from .enumeration import stratified_orbit_classes
from .core import GroupLabel
from .families import derive_params, family_aut
from .holomorph import Holomorph
from .report import NORMAL_HOL_LIMIT, _hol_order, classify, conjecture, export, verify_tables
from .ybe import check_nondegenerate, check_ybe, export_solution, is_involutive, solution_from_brace

_PQ = [
    click.option("--p", "p", type=int, required=True, help="prime p (additive order p²q)"),
    click.option("--q", "q", type=int, required=True, help="prime q, distinct from p"),
]
_CHOICE = click.option("--choice", type=click.Choice(["first", "second"]), default="first",
                       show_default=True, help="derived parameter choice")
_BUDGET = click.option("--budget", type=click.Choice(["normal", "large"]), default="normal",
                       show_default=True, help="large lifts the normal limit on holomorph size")


def _with_pq(fn):
    for deco in reversed(_PQ):
        fn = deco(fn)
    return fn


def _usage(exc: Exception) -> "click.UsageError":
    return click.UsageError(str(exc))


@click.group()
def main():
    """Classification of skew braces of size p²q via regular subgroups."""


@main.command("enumerate")
@_with_pq
@click.option("--additive", default=None, help="restrict to one additive family (label key)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "md"]), default="md", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="write instead of printing")
@click.option("--cache", "cache_dir", type=click.Path(file_okay=False), default=None, help="orbit cache directory")
@click.option("--jobs", type=int, default=1, show_default=True, help="parallel per-family workers")
@_BUDGET
@_CHOICE
def enumerate_cmd(p, q, additive, fmt, out, cache_dir, jobs, budget, choice):
    """Classify braces at (p, q) and print or write the count tables."""
    try:
        report = classify(
            p,
            q,
            additive=additive,
            choice=choice,
            budget=budget,
            jobs=jobs,
            cache_dir=cache_dir,
        )
    except ValueError as exc:
        raise _usage(exc)
    text = export(report, fmt, out)
    if out is None:
        click.echo(text, nl=False)
    else:
        click.echo(f"wrote {out}")
    if not report.complete:
        params = derive_params(p, q, choice)
        skipped = ", ".join(
            f"{key} (|Hol| = {_hol_order(GroupLabel.from_key(key), params)} > {NORMAL_HOL_LIMIT})"
            for key in report.skipped
        )
        click.echo(
            f"incomplete under the normal budget, skipped: {skipped} (rerun with --budget large)",
            err=True,
        )
        sys.exit(2)


@main.command("verify-tables")
@_with_pq
@_CHOICE
def verify_tables_cmd(p, q, choice):
    """Diff the computed classification against the reference tables."""
    try:
        ok, diffs = verify_tables(p, q, choice=choice)
    except ValueError as exc:
        raise _usage(exc)
    for line in diffs:
        click.echo(line)
    click.echo("all cells match" if ok else f"{len(diffs)} cells differ")
    sys.exit(0 if ok else 1)


@main.command("conjecture")
@_with_pq
@_BUDGET
def conjecture_cmd(p, q, budget):
    """Compare computed totals with the closed-form counts."""
    try:
        res = conjecture(p, q, budget=budget)
    except ValueError as exc:
        raise _usage(exc)
    for key in ("n", "s_computed", "A_computed", "B_computed"):
        click.echo(f"{key} = {res[key]}")
    if res["s_formula"] is None:
        click.echo("closed form: not applicable at this order")
        sys.exit(0)
    click.echo(
        f"closed form: s = {res['s_formula']}, A = {res['A_formula']}, "
        f"B = {res['B_formula']}"
    )
    click.echo("match" if res["match"] else "MISMATCH")
    sys.exit(0 if res["match"] else 1)


@main.command("solutions")
@_with_pq
@click.option("--additive", required=True, help="additive family (label key)")
@click.option("--orbit", "orbit_index", type=int, required=True, help="orbit class index (0-based, canonical order)")
@click.option("--check", is_flag=True, help="verify the braid relation and non-degeneracy")
@_CHOICE
def solutions_cmd(p, q, additive, orbit_index, check, choice):
    """Emit the Yang-Baxter solution of one orbit class (text matrix)."""
    try:
        sa = family_aut(p, q, additive, choice)
    except ValueError as exc:
        raise _usage(exc)
    hol = Holomorph(sa.base, sa.aut)
    classes = stratified_orbit_classes(hol)
    if not 0 <= orbit_index < len(classes):
        raise click.UsageError(
            f"orbit index {orbit_index} out of range; {additive} has {len(classes)} classes"
        )
    brace = brace_from_regular(hol, classes[orbit_index].rep)
    sol = solution_from_brace(brace)
    click.echo(export_solution(sol), nl=False)
    if check:
        ok_braid, msg = check_ybe(sol)
        ok_nondeg = check_nondegenerate(sol)
        if not (ok_braid and ok_nondeg):
            detail = msg if not ok_braid else "degenerate component map"
            click.echo(f"check failed: {detail}", err=True)
            sys.exit(1)
        kind = "involutive" if is_involutive(sol) else "non-involutive"
        click.echo(f"checks passed: braid relation, non-degenerate ({kind})", err=True)


@main.command("catalog")
@_with_pq
@click.option("--lemma", "lemma_id", default=None, help="verify a single lemma id")
@_CHOICE
def catalog_cmd(p, q, lemma_id, choice):
    """Check the closed-form witnesses against the enumeration."""
    try:
        reports = verify_catalog(p, q, choice, lemma_id=lemma_id)
    except (KeyError, ValueError) as exc:
        raise _usage(exc)
    for rep in reports:
        click.echo(rep.summary())
        for problem in rep.problems:
            click.echo(f"    {problem}")
    if lemma_id is None:
        for note in manual_notes():
            click.echo(f"note: {note['additive']}-type strata are manual: {note['note']}")
    failed = [rep for rep in reports if not rep.ok]
    click.echo(f"{len(reports)} lemmas checked, {len(failed)} failed")
    sys.exit(0 if not failed else 1)


if __name__ == "__main__":
    main()
