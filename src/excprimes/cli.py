"""Command-line interface: bound / verify / dims / eisenstein / scan / characters.

Reports are JSON envelopes with sorted keys and canonical number strings, so
identical inputs produce byte-identical output. Exit codes: 0 success (verify:
certified), 1 refuted, 2 usage error, malformed fixture or a value outside a
function's domain, 3 inconclusive, 4 internal error.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

import click

from . import __version__
from .exact import DomainError, factor_hints, parse_factor_hints
from .characters import character_by_index, enumerate_characters
from .residues import DenominatorObstruction, FixtureError, NewformFixture

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class Reporter:
    """Assembles the report envelope and handles --format/--out."""

    def __init__(self, subcommand: str, inputs: dict, fmt: str, out, timing: bool):
        self.subcommand = subcommand
        self.inputs = inputs
        self.fmt = fmt
        self.out = out
        self.timing = timing
        self.t0 = time.monotonic()
        self.warnings: list[str] = []

    def emit(self, outputs: dict, text_lines: list[str]) -> None:
        if self.fmt == "json":
            envelope = {
                "tool": "excprimes",
                "version": __version__,
                "command": self.subcommand,
                "inputs": self.inputs,
                "outputs": outputs,
                "warnings": list(self.warnings),
            }
            if self.timing:
                envelope["timing"] = {"seconds": round(time.monotonic() - self.t0, 6)}
            payload = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
        else:
            lines = list(text_lines)
            for w in self.warnings:
                lines.append(f"warning: {w}")
            if self.timing:
                lines.append(f"elapsed: {time.monotonic() - self.t0:.6f}s")
            payload = "\n".join(lines) + "\n"
        if self.out is not None:
            with open(self.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            click.echo(payload, nl=False)


def _under_a_directory(ctx, param, path):
    """Reject, before any work, a report file whose directory does not exist."""
    if path is not None:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise click.BadParameter(f"{parent} is not an existing directory")
    return path


def _reported(*inputs):
    """A command's common options, Reporter and exit; `inputs` names its envelope inputs.

    Placed directly above the command function, it adds --format, --out and
    --timing, builds the Reporter from the command's name and the named
    options, calls the body with `rep` and the command's own options, and
    exits with the code the body returns.
    """
    def decorate(body):
        @click.option("--timing", is_flag=True, default=False,
                      help="Include elapsed time (breaks byte-for-byte determinism).")
        @click.option("--out", type=click.Path(dir_okay=False, writable=True),
                      default=None, callback=_under_a_directory,
                      help="Write the report to this file instead of stdout.")
        @click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                      default="json", show_default=True, help="Report format.")
        @functools.wraps(body)
        def command(fmt, out, timing, **params):
            named = {name: params[name] for name in inputs}
            rep = Reporter(click.get_current_context().command.name, named, fmt, out, timing)
            sys.exit(body(rep, **params))
        return command
    return decorate


class _Group(click.Group):
    """The one place where an exception from a command becomes an exit code.

    A command that returns exits through `_reported` with the code it
    returns; an exception from its body or from its Reporter lands here. The
    library makes every value check: a malformed fixture, or a value outside
    a function's domain, exits EXIT_USAGE with the library's message. Any
    other Exception exits EXIT_INTERNAL, never 1 (refuted). Click's own
    errors keep their codes; a BaseException passes through.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except FixtureError as exc:
            click.echo(f"error: malformed fixture: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except (DomainError, DenominatorObstruction) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="excprimes")
def main():
    """Candidate primes and congruence certificates for newform residual data."""


@main.command("bound")
@click.option("--weight", type=int, required=True, help="Even weight k >= 2.")
@click.option("--level", type=int, required=True, help="Level N >= 1.")
@click.option("--degree", type=int, default=None,
              help="Coefficient-field degree for the dihedral bound (default: new-subspace dimension).")
@click.option("--factors", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Factor hints, one 'n=p^e,p^e,...' line each, checked before use.")
@_reported("weight", "level", "degree")
def cmd_bound(rep, weight, level, degree, factors):
    """Candidate primes: reducible, dihedral, and exceptional projective image."""
    from .bounds import candidate_report

    hints = {}
    if factors is not None:
        with open(factors, encoding="ascii", errors="replace") as fh:
            hints, warnings = parse_factor_hints(fh.read().splitlines())
        rep.warnings.extend(warnings)
    with factor_hints(hints):
        outputs = candidate_report(weight, level, degree).to_dict()
    lines = [f"bound report for weight {weight}, level {level}"]
    lines.append("reducible candidates: " + ", ".join(map(str, outputs["reducible_primes"])))
    for r in outputs["reducible"]:
        lines.append(f"  {r['prime']}: {r['clause']}")
    for u in outputs.get("unfactored", ()):
        lines.append(f"  ell divides {u['cofactor']} (unfactored, {u['digits']} digits): {u['clause']}")
    dihedral = outputs["dihedral"]
    if "primes" in dihedral:
        lines.append("dihedral candidates: " + ", ".join(map(str, dihedral["primes"])))
    else:
        lines.append(f"dihedral bound (degree {dihedral['degree']}): {dihedral['bound']}")
    lines.append("exceptional image candidates: " + ", ".join(map(str, outputs["exceptional_image"])))
    for a in outputs["assumptions"]:
        lines.append(f"assumption: {a}")
    rep.emit(outputs, lines)
    return EXIT_OK


@main.command("verify")
@click.option("--form", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Fixture JSON file.")
@click.option("--ell", type=int, required=True, help="Prime ell to verify.")
@click.option("--char-modulus", type=int, default=None, help="Modulus of nu (with --char-index).")
@click.option("--char-index", type=int, default=None, help="Index of nu (with --char-modulus).")
@click.option("--pmax", type=int, default=100, show_default=True,
              help="Scan limit for the irreducibility certificate attached to refutations.")
@_reported("form", "ell", "char_modulus", "char_index")
def cmd_verify(rep, form, ell, char_modulus, char_index, pmax):
    """Certify (or refute) the reducibility congruence for a fixture at ell."""
    if (char_modulus is None) != (char_index is None):
        raise click.UsageError("--char-modulus and --char-index must be given together")
    fixture = NewformFixture.from_json_file(form)
    from .verify import verify_fixture

    nu = None if char_modulus is None else character_by_index(char_modulus, char_index)
    result = verify_fixture(fixture, ell, nu=nu, p_max=pmax)
    lines = [
        f"verify {fixture.label} at ell = {ell}",
        f"eisenstein side: {result.eisenstein}",
        f"mode: {result.mode}",
        f"checked n <= {result.checked_up_to} (sturm bound {result.sturm})",
        f"verdict: {result.verdict}",
    ]
    for w in result.witnesses:
        lines.append(f"  {w}")
    for w in result.warnings:
        lines.append(f"warning: {w}")
    if result.scan is not None:
        for pt in result.scan.points:
            lines.append(f"  scan {pt['point']}: witness {pt['witness']}")
    rep.emit(result.to_dict(), lines)
    return EXIT_REFUTED if result.refuted else EXIT_OK if result.certified else EXIT_INCONCLUSIVE


@main.command("dims")
@click.option("--weight", type=int, required=True, help="Even weight k >= 2.")
@click.option("--level", type=int, required=True, help="Level N >= 1.")
@_reported("weight", "level")
def cmd_dims(rep, weight, level):
    """Dimensions and the Sturm bound for weight k on Gamma_0(N)."""
    from .dimensions import dim_cusp_forms, dim_new, level_invariants, sturm_bound

    inv = level_invariants(level)
    outputs = {
        "weight": weight,
        "level": level,
        "index": inv.index,
        "nu2": inv.nu2,
        "nu3": inv.nu3,
        "cusps": inv.nu_inf,
        "genus": inv.genus,
        "dim_cusp_forms": dim_cusp_forms(weight, level),
        "dim_new": dim_new(weight, level),
        "sturm_bound": sturm_bound(weight, level),
    }
    lines = [f"dimensions for weight {weight}, level {level}"] + [
        f"{key}: {val}" for key, val in outputs.items() if key not in ("weight", "level")
    ]
    rep.emit(outputs, lines)
    return EXIT_OK


@main.command("eisenstein")
@click.option("--weight", type=int, required=True, help="Even weight k.")
@click.option("--char-modulus", type=int, required=True, help="Modulus of the character nu.")
@click.option("--char-index", type=int, required=True, help="Index of nu (see 'characters').")
@click.option("--terms", type=click.IntRange(min=1), required=True,
              help="Number of q-expansion terms (through q^terms).")
@_reported("weight", "char_modulus", "char_index", "terms")
def cmd_eisenstein(rep, weight, char_modulus, char_index, terms):
    """q-expansion of the Eisenstein series attached to nu at the given weight."""
    from .eisenstein import eisenstein_E

    nu = character_by_index(char_modulus, char_index)
    E = eisenstein_E(weight, nu, terms)
    coeffs = {str(n): str(E.coefficient(n)) for n in range(terms + 1)}
    outputs = {
        "weight": weight,
        "character": f"chi({char_modulus},{char_index})",
        "character_order": nu.order,
        "level": E.level,
        "coefficients": coeffs,
    }
    lines = [f"E(k={weight}, nu=chi({char_modulus},{char_index})) on level {E.level}"]
    for n in range(terms + 1):
        lines.append(f"a_{n} = {E.coefficient(n)}")
    rep.emit(outputs, lines)
    return EXIT_OK


@main.command("scan")
@click.option("--form", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Fixture JSON file.")
@click.option("--ell", type=int, required=True, help="Prime ell.")
@click.option("--pmax", type=int, required=True, help="Scan primes p <= pmax.")
@_reported("form", "ell", "pmax")
def cmd_scan(rep, form, ell, pmax):
    """Frobenius irreducibility scan of X^2 - a_p X + p^(k-1) at each residue point."""
    fixture = NewformFixture.from_json_file(form)
    from .verify import frobenius_scan

    result = frobenius_scan(fixture, ell, pmax)
    lines = [f"scan {fixture.label} at ell = {ell}, p <= {pmax}"]
    for pt in result.points:
        tested = ", ".join(f"{p}:{'irr' if v else 'red'}" for p, v in pt["tested"].items())
        lines.append(f"{pt['point']}: witness = {pt['witness']}  [{tested}]")
    if result.partial:
        lines.append("scan is partial (coefficients exhausted before pmax)")
    for w in result.warnings:
        lines.append(f"warning: {w}")
    rep.emit(result.to_dict(), lines)
    return EXIT_OK


@main.command("characters")
@click.option("--modulus", type=int, required=True, help="List the character table mod this modulus.")
@_reported("modulus")
def cmd_characters(rep, modulus):
    """Index / order / conductor / parity table for characters mod m."""
    rows = []
    sample = [a for a in range(2, min(modulus, 11)) if math.gcd(a, modulus) == 1]
    for chi in enumerate_characters(modulus, "all"):
        rows.append({
            "index": chi.index,
            "order": chi.order,
            "conductor": chi.conductor,
            "parity": "even" if chi.is_even() else "odd",
            "primitive": chi.is_primitive(),
            "values": {str(a): str(chi.value(a)) for a in sample},
        })
    outputs = {"modulus": modulus, "characters": rows}
    lines = [f"characters mod {modulus} ({len(rows)} total)"]
    for r in rows:
        vals = ", ".join(f"chi({a})={v}" for a, v in r["values"].items())
        lines.append(
            f"index {r['index']}: order {r['order']}, conductor {r['conductor']}, "
            f"{r['parity']}, {'primitive' if r['primitive'] else 'imprimitive'}"
            + (f"; {vals}" if vals else "")
        )
    rep.emit(outputs, lines)
    return EXIT_OK


if __name__ == "__main__":
    main()
