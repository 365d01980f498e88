"""Command-line front end.

Every command writes its artifacts plus a run manifest (same path with a
.manifest.json suffix) recording the command line, parameters, precision,
package version, the Python and mpmath versions with mpmath's backend, and
content digests of inputs and outputs.  Outputs are deterministic:
identical manifests mean byte-identical artifacts.

Exit codes: 0 success, 2 usage error, 3 internal invariant breach,
4 inconclusive probe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click
import mpmath
from mpmath import mp

from . import __version__
from .evaluator import LogPolar, default_precision, log_eval, precision_scope
from .ordinal import parse_ordinal, predecessor
from .pointset import (
    Arc,
    build_rank_set,
    canonical_json,
    cardinality,
    derive,
    tree_from_json,
    tree_to_json,
)
from .probe import (
    DilationRule,
    GeometricMean,
    InconclusiveProbe,
    RatioPlus,
    Sector,
    order_report,
)
from .schedule import (
    build_limit_schedule,
    build_row_schedule,
    build_sector_schedule,
    schedule_from_json,
    schedule_to_json,
)
from .verification import run_suite, suite_report_bytes


class InvariantViolation(RuntimeError):
    pass


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_with_manifest(path: str, data: bytes, command: str, params: dict,
                         inputs: Optional[dict] = None) -> None:
    Path(path).write_bytes(data)
    manifest = {
        "command": command,
        "parameters": params,
        "precision_bits": default_precision(),
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
        "inputs": inputs or {},
        "outputs": {os.path.basename(path): _digest(data)},
    }
    Path(path + ".manifest.json").write_bytes(canonical_json(manifest))


def _load(path: str, parse):
    """parse(JSON content of path) plus the input digest for the manifest;
    malformed content is a usage error."""
    data = Path(path).read_bytes()
    try:
        obj = parse(json.loads(data))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        # ValueError covers JSONDecodeError and bytes that are not UTF-8;
        # ArithmeticError a rational with denominator 0 and a JSON number
        # past the float range, which reads as inf
        raise click.UsageError(
            f"cannot load {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return obj, {os.path.basename(path): _digest(data)}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad rational {text!r}: {exc}") from exc


@click.group()
@click.option("--precision", type=click.IntRange(min=64), default=None,
              help="Working precision in bits for this command, at least 64 "
                   "(default 200).")
@click.pass_context
def main(ctx: click.Context, precision: Optional[int]) -> None:
    """Transfinite rank sets, zero schedules and dilation-family probes."""
    if precision is not None:
        ctx.with_resource(precision_scope(precision))


@main.command("build-set")
@click.option("--alpha", required=True, help="Rank parameter, e.g. 3 or w+2.")
@click.option("--nu", type=int, default=1, show_default=True)
@click.option("--arc-center", default="1/8", show_default=True)
@click.option("--arc-width", default="1/96", show_default=True, help="Half-width in turns.")
@click.option("--out", "out_path", required=True, type=click.Path())
def build_set_cmd(alpha: str, nu: int, arc_center: str, arc_width: str, out_path: str) -> None:
    """Construct a point set of prescribed derived-set rank."""
    try:
        a = parse_ordinal(alpha)
        arc = Arc(_fraction(arc_center), _fraction(arc_width))
        tree = build_rank_set(a, nu, arc)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    data = canonical_json(tree_to_json(tree))
    _write_with_manifest(out_path, data, "build-set",
                         {"alpha": alpha, "nu": nu, "arc_center": arc_center,
                          "arc_width": arc_width})
    click.echo(f"wrote {out_path}")


@main.command("derive")
@click.option("--set", "set_path", required=True, type=click.Path(exists=True))
@click.option("--beta", required=True, help="Pruning stage, e.g. 2 or w.")
@click.option("--out", "out_path", required=True, type=click.Path())
def derive_cmd(set_path: str, beta: str, out_path: str) -> None:
    """Prune a stored set at an ordinal stage."""
    tree, inputs = _load(set_path, tree_from_json)
    try:
        b = parse_ordinal(beta)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    result = derive(tree, b)
    data = canonical_json(tree_to_json(result))
    _write_with_manifest(out_path, data, "derive", {"beta": beta}, inputs)
    card = cardinality(result)
    click.echo(f"stage {beta}: cardinality {'infinite' if card == float('inf') else card}")


@main.command("build-zeros")
@click.option("--alpha", required=True)
@click.option("--nu", default="1", show_default=True,
              help="Positive integer, or 'inf' for the sector layout.")
@click.option("--nmax", type=int, default=10, show_default=True,
              help="Rings for the row layout; super-rows for the others.")
@click.option("--out", "out_path", required=True, type=click.Path())
def build_zeros_cmd(alpha: str, nu: str, nmax: int, out_path: str) -> None:
    """Generate a zero schedule (row, sector or limit layout)."""
    try:
        a = parse_ordinal(alpha)
        if predecessor(a) is None:
            if nu not in ("1", "inf"):
                click.echo("note: limit rank parameters fix nu; --nu ignored")
            sched = build_limit_schedule(a, nmax)
        elif nu == "inf":
            sched = build_sector_schedule(a, nmax)
        else:
            sched = build_row_schedule(a, int(nu), nmax)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    data = canonical_json(schedule_to_json(sched))
    _write_with_manifest(out_path, data, "build-zeros",
                         {"alpha": alpha, "nu": nu, "nmax": nmax})
    click.echo(f"wrote {out_path} ({len(sched)} zeros, variant {sched.variant})")


def _parse_spec(spec: str):
    """kind:key=value,... as (kind, {key: value}); a bare token is stored
    under the empty key (ring:a3)."""
    kind, _, rest = spec.partition(":")
    opts = {}
    for part in rest.split(",") if rest else []:
        if "=" in part:
            key, _, val = part.partition("=")
            opts[key] = val
        else:
            opts[""] = part  # bare positional token, e.g. ring:a3
    return kind, opts


def _grid_log_radius(sched, n: int) -> Fraction:
    """log a_n on the schedule's own ladder; past it the radii soon need
    more bits than any working precision holds."""
    if not 1 <= n <= sched.radii.n_max:
        raise ValueError(f"ring {n} outside 1..{sched.radii.n_max}")
    return sched.radii.log_radius(n)


@main.command("eval")
@click.option("--schedule", "sched_path", required=True, type=click.Path(exists=True))
@click.option("--j", "j_factor", default="1", show_default=True,
              help="Dilation factor (positive integer).")
@click.option("--grid", default="ring:3", show_default=True,
              help="ring:N (64 points on radius a_N) or annulus:n=N,samples=K.")
@click.option("--rows", type=int, default=None, help="Truncation rings (default: all).")
@click.option("--out", "out_path", required=True, type=click.Path())
def eval_cmd(sched_path: str, j_factor: str, grid: str, rows: Optional[int],
             out_path: str) -> None:
    """Evaluate the product on a grid; emits CSV."""
    sched, inputs = _load(sched_path, schedule_from_json)
    try:
        j = int(j_factor)
        if j < 1:
            raise ValueError(j_factor)
    except ValueError:
        raise click.UsageError(f"--j must be a positive integer, not {j_factor!r}") from None
    if rows is not None:
        if not 0 <= rows <= sched.n_rings:
            raise click.UsageError(f"--rows {rows} outside 0..{sched.n_rings}")
        sched = dataclasses.replace(sched, zeros=sched.zeros[:sched.through(rows)])
    kind, opts = _parse_spec(grid)
    points = []
    try:
        samples = int(opts.get("samples", "64"))
        if samples < 1:
            raise ValueError(f"samples must be >= 1, not {samples}")
        if kind == "ring":
            raw = opts.get("n") or opts.get("", "3")
            n = int(raw.lstrip("a"))  # both ring:3 and ring:a3 name radius a_3
            lr = _grid_log_radius(sched, n)
            for i in range(samples):
                points.append((lr, Fraction(i, samples)))
        elif kind == "annulus":
            n = int(opts["n"])
            lo, hi = _grid_log_radius(sched, n), _grid_log_radius(sched, n + 1)
            for i in range(samples):
                frac = Fraction(i + 1, samples)
                points.append((lo + (hi - lo) * frac, Fraction((2 * i + 1), 2 * samples)))
        else:
            raise click.UsageError(f"unknown grid kind {kind!r}")
    except (KeyError, ValueError) as exc:
        raise click.UsageError(f"bad grid spec {grid!r}: {exc}") from exc
    lines = ["log_r,turn,log_mag,phase,tail_bound,valid"]
    for log_r, turn in points:
        z = LogPolar.from_exact(log_r, turn)
        res = log_eval(sched, z.scaled_by_int(j) if j > 1 else z)
        lines.append(
            f"{log_r},{turn},{mp.nstr(res.value.log_mag, 17)},"
            f"{mp.nstr(res.value.phase, 17)},{mp.nstr(res.tail_log_bound, 12)},"
            f"{int(res.valid)}"
        )
    data = ("\n".join(lines) + "\n").encode("ascii")
    _write_with_manifest(out_path, data, "eval",
                         {"j": j_factor, "grid": grid, "rows": rows}, inputs)
    click.echo(f"wrote {out_path} ({len(points)} rows)")


def _parse_rule(spec: str) -> DilationRule:
    kind, opts = _parse_spec(spec)
    try:
        if kind == "ratio-plus":
            return RatioPlus(Fraction(opts["r"]))
        if kind == "geometric-mean":
            return GeometricMean(Fraction(opts.get("L", "1")))
        if kind == "sector":
            return Sector(Fraction(opts["r"]), int(opts["t"]))
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad rule {spec!r}: {exc}") from exc
    raise click.UsageError(f"unknown rule kind {kind!r}")


@main.command("probe")
@click.option("--schedule", "sched_path", required=True, type=click.Path(exists=True))
@click.option("--rule", required=True,
              help="ratio-plus:r=1/2, geometric-mean:L=1 or sector:r=1/2,t=2.")
@click.option("--k", "k_spec", default=None, help="Dilation index range lo..hi.")
@click.option("--depth", type=int, default=3, show_default=True,
              help="Enumerated targets to certify.")
@click.option("--out", "out_path", required=True, type=click.Path())
def probe_cmd(sched_path: str, rule: str, k_spec: Optional[str], depth: int,
              out_path: str) -> None:
    """Classify a dilation rule and certify its clustering targets."""
    sched, inputs = _load(sched_path, schedule_from_json)
    dil = _parse_rule(rule)
    k_range = None
    if k_spec:
        lo, _, hi = k_spec.partition("..")
        try:
            k_range = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise click.UsageError(f"bad range {k_spec!r}") from exc
    try:
        report = order_report(sched, dil, depth=depth, k_range=k_range)
    except ValueError as exc:  # arguments the schedule cannot honour
        raise click.UsageError(str(exc)) from exc
    data = canonical_json(report.as_dict())
    _write_with_manifest(out_path, data, "probe",
                         {"rule": rule, "k": k_spec, "depth": depth}, inputs)
    click.echo(f"branch: {report.branch}; claimed: {report.claimed}")
    if report.inconclusive:
        click.echo(f"inconclusive; failing targets: {', '.join(report.failing_targets)}")
        raise InconclusiveProbe(", ".join(report.failing_targets))
    click.echo(f"wrote {out_path}")


@main.command("verify")
@click.option("--suite", default="all", show_default=True,
              help="'all' or 'core' (skips the determinism double-run).")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Write the JSON report here as well.")
def verify_cmd(suite: str, out_path: Optional[str]) -> None:
    """Run the acceptance suite and print one line per criterion."""
    if suite not in ("all", "core"):
        raise click.UsageError("--suite must be 'all' or 'core'")
    results = run_suite(include_determinism=(suite == "all"), echo=click.echo)
    data = suite_report_bytes(results)
    if out_path:
        _write_with_manifest(out_path, data, "verify", {"suite": suite})
    if not all(r.passed for r in results):
        raise InvariantViolation("acceptance criteria failed")


def entry() -> None:  # pragma: no cover
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(130)
    except InconclusiveProbe:
        sys.exit(4)
    except InvariantViolation as exc:
        click.echo(f"invariant breach: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":  # pragma: no cover
    entry()
