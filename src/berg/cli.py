"""Command-line interface.

Exit codes: 0 all requested checks pass, 1 a verification failed,
2 usage error (malformed arguments or input files, and the library errors
``main`` catches).  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import verify as verify_mod
from .algebraic import SURFACES, boundary_leading_coefficient, fit_relation, fit_surface_relation
from .ball import ball_kernel, levi_form, sphere_defining_function, u_domain_defining_function
from .groups import (
    ClosureOverflowError,
    generate_group,
    is_fixed_point_free,
    is_reflection,
    matrices_from_json,
)
from .hartogs import kernel_series, monomial_norm, omega_closed_kernel
from .invariants import compute_basic_map, find_syzygies
from .polynomials import HermitianPolynomial, HoloPolynomial, MultiIndex
from .quotient import CoveringSpec, deck_sum_kernel, pushforward_kernel


class InputError(click.ClickException):
    """Input the command cannot evaluate: one-line message, usage exit code."""

    exit_code = 2


# what the library raises on input it cannot use; ``main`` turns each
# into an InputError
LIBRARY_ERRORS = (ArithmeticError, ValueError, ClosureOverflowError)
# what a value of the wrong shape also raises while it is decoded; only a
# decode catches these, since anywhere else they are a bug
BAD_INPUT = (*LIBRARY_ERRORS, LookupError, TypeError)
MAX_GRID_POINTS = 2**20  # omega-grid's most points (--steps 1024): about 250 B each, 250 MiB


class _Main(click.Group):
    """The one error boundary: a library error becomes one usage-error line."""

    def invoke(self, ctx):
        try:
            # numpy stays quiet: a kernel value that is not finite is refused as it is printed
            with np.errstate(all="ignore"):
                return super().invoke(ctx)
        except LIBRARY_ERRORS as exc:
            raise InputError(str(exc)) from exc


@contextmanager
def _decoding(what: str):
    """Turn an unusable value met while decoding ``what`` (an option or a
    file's contents) into one InputError that names it."""
    try:
        yield
    except BAD_INPUT as exc:
        raise InputError(f"unusable {what}: {exc}") from exc


def _finite(value, what: str = "value"):
    """``value``, or ValueError unless it is finite: the check on every number
    read from an option or file and on every printed kernel value."""
    if not cmath.isfinite(value):
        raise ValueError(f"{what} {value} is not finite")
    return value


def _parse_complex_list(text: str) -> list[complex]:
    with _decoding(f"complex list {text!r}"):
        return [_finite(complex(part.strip().replace(" ", ""))) for part in text.split(",")]


def _parse_one_complex(text: str, option: str) -> complex:
    values = _parse_complex_list(text)
    if len(values) != 1:
        raise InputError(f"{option} takes one complex value, got {len(values)}")
    return values[0]


def _seed(seed: int | None) -> int:
    """A --seed value, default 0, refused with the wording ``IntegrationSpec`` uses."""
    seed = 0 if seed is None else seed
    if seed < 0:
        raise InputError(f"seed: expected non-negative integer, got {seed}")
    return seed


def _reals(values) -> tuple[float, ...]:
    return tuple(_finite(float(x)) for x in values)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _load_group(data, max_order: int, source: str):
    with _decoding(f"group in {source}"):
        return generate_group(matrices_from_json(data), max_order=max_order)


def _holo_from_json(data) -> HoloPolynomial:
    terms = {MultiIndex(alpha): _finite(complex(re, im)) for alpha, re, im in data["terms"]}
    return HoloPolynomial(int(data["dim"]), terms)


def _pairs_from_json(data, source: str) -> list[tuple[tuple, tuple]]:
    with _decoding(f"pairs in {source}"):
        return [
            (tuple(_finite(complex(a, b)) for a, b in z), tuple(_finite(complex(a, b)) for a, b in w))
            for z, w in data
        ]


def _evaluate_pairs(kernel, pairs) -> None:
    """Write the kernel at every pair as CSV once all of them evaluated, so
    a pair that cannot be evaluated leaves only its error line."""
    rows = [(z, w, _finite(complex(kernel(z, w)), "kernel value")) for z, w in pairs]
    writer = csv.writer(sys.stdout)
    writer.writerow(["z", "w", "re", "im"])
    for z, w, value in rows:
        writer.writerow([repr(list(z)), repr(list(w)), value.real, value.imag])


@click.group(cls=_Main)
def main():
    """Bergman kernels of balls, ball quotients and Hartogs domains."""


@main.command("ball-kernel")
@click.option("--dim", type=int, required=True)
@click.option("--z", "z_text", required=True, help="comma-separated complex coordinates")
@click.option("--w", "w_text", required=True)
def ball_kernel_cmd(dim, z_text, w_text):
    """Evaluate the unit-ball kernel at (z, w)."""
    z = _parse_complex_list(z_text)
    w = _parse_complex_list(w_text)
    if len(z) != dim or len(w) != dim:
        raise InputError("coordinate count must match --dim")
    value = _finite(complex(ball_kernel(dim, z, w)), "kernel value")
    click.echo(json.dumps({"re": value.real, "im": value.imag}, sort_keys=True))


@main.command("levi")
@click.option("--rho", "rho_src", required=True,
              help="JSON polynomial file, or one of sphere-<n>, u-domain")
@click.option("--point", "point_text", required=True)
def levi_cmd(rho_src, point_text):
    """Levi-form eigenvalues of a defining function at a boundary point."""
    with _decoding(f"defining function {rho_src}"):
        if rho_src.startswith("sphere-"):
            rho = sphere_defining_function(int(rho_src.split("-", 1)[1]))
        elif rho_src == "u-domain":
            rho = u_domain_defining_function()
        else:
            rho = HermitianPolynomial.from_json_dict(_load_json(rho_src))
    report = levi_form(rho, _parse_complex_list(point_text))
    payload = {
        "smooth": report.smooth,
        "eigenvalues": None if report.eigenvalues is None else list(report.eigenvalues),
        "strictly_pseudoconvex": report.strictly_pseudoconvex,
        "gradient_norm": report.gradient_norm,
    }
    click.echo(json.dumps(payload, sort_keys=True))


@main.command("group")
@click.option("--gens", "gens_file", required=True, help="JSON list of generator matrices")
@click.option("--check", "check_kind", type=click.Choice(["fpf", "reflections"]), default=None)
@click.option("--max-order", type=int, default=4096)
def group_cmd(gens_file, check_kind, max_order):
    """Generate the closure of unitary generators; optionally run checks."""
    group = _load_group(_load_json(gens_file), max_order, gens_file)
    payload = {"order": group.order, "dim": group.dim, "exact": group.exact}
    if check_kind == "fpf":
        report = is_fixed_point_free(group)
        payload["fixed_point_free"] = report.free
        if report.witness is not None:
            g, vec = report.witness
            payload["witness_vector"] = [[v.real, v.imag] for v in vec]
    elif check_kind == "reflections":
        payload["reflections"] = sum(is_reflection(g) for g in group)
    click.echo(json.dumps(payload, sort_keys=True))


@main.command("basic-map")
@click.option("--group", "group_file", required=True)
@click.option("--syzygies", "syzygy_degree", type=int, default=0)
@click.option("--max-order", type=int, default=4096)
def basic_map_cmd(group_file, syzygy_degree, max_order):
    """Minimal invariant generators (and optional relations) for a group."""
    group = _load_group(_load_json(group_file), max_order, group_file)
    if not group.exact:
        raise InputError("basic map needs exact matrices; encode entries as zeta terms")
    if syzygy_degree < 0:
        raise InputError(f"--syzygies must be a nonnegative degree bound, got {syzygy_degree}")
    basic = compute_basic_map(group)
    payload = basic.to_json_dict()
    if syzygy_degree >= 2:
        relations = find_syzygies(basic, degree_bound=syzygy_degree)
        payload["syzygies"] = [s.to_json_dict() for s in relations]
    click.echo(json.dumps(payload, sort_keys=True))


@main.command("quotient-sum")
@click.option("--group", "group_file", required=True)
@click.option("--dim", type=int, required=True)
@click.option("--pairs", "pairs_file", required=True)
@click.option("--max-order", type=int, default=4096)
def quotient_sum_cmd(group_file, dim, pairs_file, max_order):
    """Deck-transformation kernel sums at sample pairs, as CSV."""
    group = _load_group(_load_json(group_file), max_order, group_file)
    pairs = _pairs_from_json(_load_json(pairs_file), pairs_file)
    _evaluate_pairs(lambda z, w: deck_sum_kernel(group, dim, z, w), pairs)


@main.command("quotient-push")
@click.option("--cover", "cover_file", required=True,
              help="JSON {generators, map, chart?, max_order?}")
@click.option("--pairs", "pairs_file", required=True)
def quotient_push_cmd(cover_file, pairs_file):
    """Push the ball kernel to the quotient in chart coordinates, as CSV."""
    data = _load_json(cover_file)
    with _decoding(f"cover in {cover_file}"):
        group = _load_group(data["generators"], int(data.get("max_order", 4096)), cover_file)
        cover_map = tuple(_holo_from_json(p) for p in data["map"])
        chart = tuple(data.get("chart", range(group.dim)))
        spec = CoveringSpec(group=group, cover_map=cover_map, chart=chart)
    pairs = _pairs_from_json(_load_json(pairs_file), pairs_file)
    _evaluate_pairs(lambda z, w: pushforward_kernel(spec, z, w), pairs)


@main.command("omega-kernel")
@click.option("--z", "z_text", required=True, help="two comma-separated complex numbers")
@click.option("--lambda", "lam_text", required=True)
@click.option("--w", "w_text", default=None)
@click.option("--tau", "tau_text", default=None)
@click.option("--series", "series_m", type=int, default=0,
              help="use the series kernel with this truncation instead of the closed form")
def omega_kernel_cmd(z_text, lam_text, w_text, tau_text, series_m):
    """Kernel of the standard Hartogs domain (closed form by default)."""
    z = _parse_complex_list(z_text)
    lam = _parse_one_complex(lam_text, "--lambda")
    w = _parse_complex_list(w_text) if w_text else z
    tau = _parse_one_complex(tau_text, "--tau") if tau_text else lam
    if len(z) != 2 or len(w) != 2:
        raise InputError("--z/--w need exactly two components")
    if series_m < 0:
        raise InputError(f"--series must be a nonnegative truncation, got {series_m}")
    series = {}
    if series_m > 0:
        result = kernel_series(z, lam, w, tau, truncation=series_m)
        value, series = result.value, {"tail_bound": result.tail_bound, "terms": result.terms}
    else:
        value = complex(omega_closed_kernel(z, lam, w, tau))
    value = _finite(value, "kernel value")
    click.echo(json.dumps({"re": value.real, "im": value.imag, **series}, sort_keys=True))


@main.command("moments")
@click.option("--m", "m_value", type=int, required=True)
@click.option("--alpha", "alpha_text", required=True, help="comma-separated exponents")
@click.option("--exact/--numeric", "want_exact", default=True)
def moments_cmd(m_value, alpha_text, want_exact):
    """Squared norm of the fiber monomial lambda^m z^alpha."""
    with _decoding(f"monomial --m {m_value} --alpha {alpha_text}"):
        alpha = tuple(int(a) for a in alpha_text.split(","))
        exact = monomial_norm(m_value, alpha)
    numeric = math.inf if exact == math.inf else complex(exact).real
    if want_exact:
        if exact == math.inf:
            click.echo(json.dumps({"exact": "infinite"}))
            return
        payload = {
            "exact": {
                "re": [str(exact.re)],
                "pi_power": exact.pi_pow,
            },
            "numeric": numeric,
        }
    else:
        payload = {"numeric": numeric}
    click.echo(json.dumps(payload, sort_keys=True))


@main.command("omega-grid")
@click.option("--rmax", type=float, default=2.0, help="max |z_i|^2 on the grid")
@click.option("--steps", type=int, default=8)
@click.option("--fiber", type=float, default=0.5, help="|lambda|^2 h as a fraction of 1")
def omega_grid_cmd(rmax, steps, fiber):
    """CSV grid of diagonal kernel values over base radii."""
    if not 0.0 < fiber < 1.0:
        raise InputError(f"--fiber must lie in (0, 1), got {fiber}")
    if not 0.0 < rmax < math.inf:
        raise InputError(f"--rmax must be positive and finite, got {rmax}")
    if steps < 1:
        raise InputError(f"--steps must be at least 1, got {steps}")
    if steps * steps > MAX_GRID_POINTS:
        raise InputError(f"--steps {steps} is {steps * steps} grid points, above the limit of {MAX_GRID_POINTS}")
    radii = rmax * (np.arange(steps) + 0.5) / steps
    r1, r2 = (r.ravel() for r in np.meshgrid(radii, radii, indexing="ij"))
    lam = np.sqrt(fiber / ((1.0 + r1) * (1.0 + r2)))
    z = (np.sqrt(r1), np.sqrt(r2))
    values = omega_closed_kernel(z, lam, z, lam).real
    writer = csv.writer(sys.stdout)
    writer.writerow(["r1", "r2", "value"])
    writer.writerows(zip(r1.tolist(), r2.tolist(), values.tolist()))


@main.command("fit")
@click.option("--kernel", "kernel_name", required=True,
              help="disk | ball2 | omega | annulus | a JSON samples file")
@click.option("--dz", type=int, required=True)
@click.option("--dk", type=int, required=True)
@click.option("--boundary-check", is_flag=True, default=False)
@click.option("--samples", "count", type=int, default=None, help="named kernels only")
@click.option("--seed", type=int, default=None, help="default 0; named kernels only")
def fit_cmd(kernel_name, dz, dk, boundary_check, count, seed):
    """Fit a polynomial relation to diagonal kernel samples."""
    if kernel_name in SURFACES:
        surface = SURFACES[kernel_name]()
        seed = _seed(seed)
        relation = fit_surface_relation(surface, dz, dk, count=count, seed=seed)
        boundary = surface.boundary_features(50, seed=seed) if boundary_check else None
    else:
        for option, value in (("--samples", count), ("--seed", seed)):
            if value is not None:
                raise InputError(f"{option} does not apply to a samples file")
        data = _load_json(kernel_name)
        with _decoding(f"samples in {kernel_name}"):
            samples = [(_reals(f), _finite(float(k))) for f, k in zip(data["features"], data["values"])]
            boundary = np.array([_reals(f) for f in data["boundary_features"]]).T if boundary_check else None
        relation = fit_relation(samples, dz, dk)
    payload = {
        "residual": relation.residual,
        "k_degree": relation.k_degree,
        "feature_degree": relation.feature_degree,
        "coefficients": [
            [list(beta), j, c]
            for j, beta, c in sorted((a[-1], a[:-1], c) for a, c in relation.relation.terms.items())
        ],
    }
    if boundary is not None:
        payload["boundary_max"] = boundary_leading_coefficient(relation, boundary)
    click.echo(json.dumps(payload, sort_keys=True))


# per suite, the options it takes and how it runs; Monte Carlo reports carry
# no residual to hold to --tol and keep their own verdict
VERIFY_SUITES = {
    "repro": (("--n", "--seed"), lambda seed, n: verify_mod.suite_repro(seed=seed, n_samples=n)),
    "orthogonality": (("--n", "--seed"), lambda seed, n: verify_mod.suite_orthogonality(seed=seed, n_samples=n)),
    "transform": (("--tol", "--seed"), lambda seed, n: verify_mod.suite_transform(seed=seed)),
    "isometry": (("--tol",), lambda seed, n: verify_mod.suite_isometry()),
}


@main.command("verify")
@click.argument("which", type=click.Choice(["repro", "transform", "isometry", "orthogonality"]))
@click.option("--seed", type=int, default=None, help="default 0; not for isometry")
@click.option("--n", "--N", "n_samples", type=int, default=None,
              help="Monte Carlo samples, default 1000000; repro and orthogonality only")
@click.option("--tol", type=float, default=None,
              help="residual tolerance; transform and isometry only")
def verify_cmd(which, seed, n_samples, tol):
    """Run a verification suite; one JSON line per check."""
    takes, run = VERIFY_SUITES[which]
    for option, value in (("--n", n_samples), ("--tol", tol), ("--seed", seed)):
        if value is not None and option not in takes:
            raise InputError(f"{option} does not apply to the {which} suite")
    if tol is not None and not math.isfinite(tol):
        raise InputError(f"--tol must be finite, got {tol}")
    if tol is not None and tol < 0:
        raise InputError(f"--tol must be non-negative, got {tol}")
    n_samples = 1_000_000 if n_samples is None else n_samples
    # one sample has no standard error
    if "--n" in takes and n_samples < 2:
        raise InputError(f"--n must be at least 2, got {n_samples}")
    reports = run(_seed(seed), n_samples)
    if tol is not None:
        reports = [dataclasses.replace(r, passed=r.residual <= tol, tolerance=tol) for r in reports]
    all_pass = True
    for r in reports:
        click.echo(r.to_json())
        all_pass = all_pass and r.passed
    sys.exit(0 if all_pass else 1)


if __name__ == "__main__":
    main()
