"""Command-line front end.

One flat subcommand namespace; each subcommand maps to exactly one library
operation. Every run writes a JSON report with the fixed schema {"version",
"subcommand", "inputs_digest", "seed", "results", "tolerances"} to stdout
(and to --out when given) plus optional CSV curves. Exit codes: 0 success,
1 domain error (machine-readable error JSON), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import additive, groups, hermite, maxcorr, spectra, stationary
from .errors import NLCorrError, ValidationError
from .report import canonical_json, inputs_digest, make_report, write_curve, write_report

DEFAULT_SEED = 1729


def _weights(args, p: int) -> tuple[np.ndarray, list]:
    """The --weights matrix for p variables, and the input paths it was read from."""
    if args.weights == "ones":
        return np.ones((p, p)), []
    if args.weights == "offdiag":
        return np.ones((p, p)) - np.eye(p), []
    return spectra.load_matrix(args.weights), [args.weights]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}") from exc


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {p}")
    try:
        with p.open() as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {p}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{p} must hold a JSON object, not a {type(obj).__name__}")
    return obj


def _matrix_from_obj(obj) -> np.ndarray:
    if isinstance(obj, dict):
        return spectra.matrix_from_json_dict(obj)
    return spectra.as_sym_matrix(np.array(obj, dtype=float))


def _law_from_obj(obj):
    if isinstance(obj, str):
        return groups.named_law(obj)
    return groups.DiscreteLaw(
        values=np.asarray(obj["values"], float), probs=np.asarray(obj["probs"], float)
    )


def _law_from_cli(spec: str):
    """A named law or a path to a tabulated-law JSON {"values", "probs"}."""
    try:
        return groups.named_law(spec)
    except ValidationError:
        if Path(spec).exists():
            return _law_from_obj(_load_json(spec))
        raise


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, tolerances, input_paths)
# ---------------------------------------------------------------------------


def _cmd_eig(args):
    m = spectra.load_matrix(args.input)
    lo, hi = spectra.extreme_eigs(m)
    spectrum = spectra.full_spectrum(m)
    results = {"lambda_min": lo, "lambda_max": hi, "spectrum": spectrum.tolist()}
    return results, {"eig_rel": 1e-10}, [args.input]


def _cmd_schur_check(args):
    sigma = spectra.load_matrix(args.input)
    w, w_paths = _weights(args, sigma.shape[0])
    cert = spectra.schur_power_contraction_check(sigma, w, args.power)
    return cert.as_dict(), {"containment": spectra.CONTRACTION_TOL}, [args.input] + w_paths


def _cmd_hermite(args):
    rule = hermite.gauss_hermite_rule(args.nodes)
    fn = hermite.resolve_function(args.fn)
    exp = hermite.expand(fn, args.order, rule)
    results = dict(exp.to_json_dict())
    results["mean"] = exp.mean
    results["tail_mass"] = exp.tail_mass
    return results, {"quadrature_degree": 2 * args.nodes - 1}, []


def _cmd_oracle(args):
    joint = maxcorr.DiscreteJoint.load(args.joint)
    w, w_paths = _weights(args, joint.nvars)
    res = maxcorr.exact_extremes(joint, w)
    results = res.as_dict()
    results["supports"] = [list(s) for s in joint.supports]
    return results, {"ratio": 1e-9}, [args.joint] + w_paths


def _cmd_ace(args):
    with warnings.catch_warnings():
        # an empty table is reported below, naming the file
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        data = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise ValidationError(f"{args.input} holds no sample rows below its header")
    w, w_paths = _weights(args, data.shape[1])
    res = maxcorr.ace_estimate(data, w, bins=args.bins)
    return res.as_dict(), {"ratio": 1e-9}, [args.input] + w_paths


def _cmd_nested(args):
    m = _parse_int_list(args.m)
    r = groups.nested_sum_matrix(m)
    w, w_paths = _weights(args, len(m))
    lo, hi = spectra.extreme_eigs(r * w)
    results = {
        "m": m,
        "R": r.tolist(),
        "lambda_min": lo,
        "lambda_max": hi,
    }
    return results, {"eig_rel": 1e-10}, w_paths


def _cmd_groups(args):
    obj = _load_json(args.input)
    lists = obj.get("groups")
    if not isinstance(lists, list) or not all(isinstance(g, list) for g in lists):
        raise ValidationError("groups must be a list of label lists")
    system = groups.GroupSystem.from_lists(lists)
    w, w_paths = _weights(args, system.nvars)
    symm = groups.extreme_symm(system, w)
    check = groups.assumption_c_check(system)
    results = {
        "sizes": list(system.sizes),
        "ell_star": system.ell_star,
        "R": groups.group_matrix(system, 1).matrix.tolist(),
        "extremes": symm.as_dict(),
        "shadow_system": {
            "status": check.status,
            "witness": [sorted(g) for g in check.witness] if check.witness else None,
        },
    }
    return results, {"eig_rel": 1e-10}, [args.input] + w_paths


def _cmd_hoeffding(args):
    obj = _load_json(args.input)
    law = _law_from_obj(obj["law"])
    m = int(obj["m"])
    if m < 1:
        raise ValidationError(f"m must be a positive number of arguments, got {m}")
    f0 = np.asarray(obj["f0"], dtype=float)
    if f0.size != law.size ** m:
        raise ValidationError(
            f"f0 needs {law.size ** m} values (law size {law.size} to the power "
            f"m={m}), got {f0.size}"
        )
    f0 = f0.reshape((law.size,) * m)
    dec = groups.hoeffding_decompose(f0, law)
    recon_err = float(np.max(np.abs(dec.reconstruct() - dec.centered)))
    mass = dec.variance_components()
    total = float(
        np.sum(groups._product_weights(law.probs, m) * dec.centered ** 2)
    )
    results = {
        "m": m,
        "components": [c.ravel().tolist() for c in dec.components],
        "variance_components": list(mass),
        "total_variance": total,
        "reconstruction_error": recon_err,
    }
    return results, {"identity": 1e-12}, [args.input]


def _cmd_sinlimit(args):
    law = _law_from_cli(args.law)
    m = _parse_int_list(args.m)
    res = groups.sin_construction_corr(args.t, m, law)
    r = groups.nested_sum_matrix(m)
    results = {
        "t": args.t,
        "c_t": res.c_t,
        "corr": res.corr.tolist(),
        "R": r.tolist(),
        "max_abs_gap": float(np.max(np.abs(res.corr - r))),
    }
    if args.curve:
        ts = np.logspace(np.log10(args.t), 0.0, 20)
        rows = []
        for t in ts:
            c = groups.sin_construction_corr(float(t), m, law)
            rows.append((float(t), float(np.max(np.abs(c.corr - r)))))
        write_curve(args.curve, ("t", "max_abs_gap"), rows)
    return results, {"limit_gap_at_1e-3": 1e-3}, []


def _kernel_from_args(args) -> tuple[stationary.StationaryKernel, list]:
    if args.input:
        obj = _load_json(args.input)
        name = obj.get("name", "table")
        domain = obj.get("domain", "lattice")
        if name == "ar1":
            return stationary.ar1_kernel(float(obj["params"]["beta"])), [args.input]
        if name == "ou":
            return stationary.ou_kernel(), [args.input]
        decay = None
        if obj.get("decay"):
            decay = stationary.DecayBound(
                C=float(obj["decay"]["C"]), r=float(obj["decay"]["r"])
            )
        table = obj.get("table")
        if not isinstance(table, dict) or "values" not in table:
            raise ValidationError("a tabulated kernel needs table.values")
        return stationary.table_kernel(domain, table["values"], decay), [args.input]
    if args.name == "ar1":
        if args.beta is None:
            raise ValidationError("ar1 needs --beta")
        return stationary.ar1_kernel(args.beta), []
    if args.name == "ou":
        return stationary.ou_kernel(), []
    raise ValidationError("pass --name ar1|ou or --input kernel.json")


def _cmd_stationary(args):
    kernel, paths = _kernel_from_args(args)
    ext = stationary.spectral_extremes(kernel)
    results = {"kernel": kernel.name, "domain": kernel.domain}
    if kernel.name == "ar1":
        results["beta"] = kernel.beta
    results["extremes"] = ext.as_dict()
    if args.crosscheck:
        results["crosscheck"] = stationary.circulant_cross_check(
            kernel, args.crosscheck
        ).as_dict()
    if args.curve:
        if kernel.domain == stationary.LATTICE:
            grid = np.linspace(-np.pi, np.pi, 513)
        else:
            grid = np.linspace(-25.0, 25.0, 1001)
        dens = np.asarray(stationary.spectral_density(kernel, grid))
        write_curve(args.curve, ("omega", "density"), zip(grid, dens))
    return results, {"grid_tol": 1e-6, "tail_bound": kernel.tail_bound()}, paths


def _cmd_kernel(args):
    ns = _parse_int_list(args.n)
    if any(n < 2 for n in ns):
        raise ValidationError("grid sizes must be at least 2")
    estimates = [spectra.brownian_lambda_max(n) for n in ns]
    cap = float(np.sqrt(0.5))
    continuum = 4.0 / spectra.J01 ** 2
    results = {
        "kernel": "brownian-correlation",
        "n": ns,
        "lambda_max": estimates,
        "cap_sqrt_half": cap,
        "within_cap": bool(all(e <= cap + 2e-3 for e in estimates)),
        "continuum": continuum,
        "gap": [e - continuum for e in estimates],
    }
    if args.curve:
        write_curve(args.curve, ("n", "lambda_max"), zip(ns, estimates))
    return results, {"cap_slack": 2e-3}, []


def _cmd_copula_check(args):
    obj = _load_json(args.input)
    sigma = _matrix_from_obj(obj["sigma_z"])
    design = additive.CopulaDesign(
        sigma_z=sigma,
        transforms=tuple(obj["transforms"]),
        n=int(obj["n"]),
        seed=int(obj.get("seed", args.seed)),
    )
    data = additive.sample_design(design)
    basis = additive.BasisSpec(family=args.basis, size=args.basis_size)
    active = tuple(_parse_int_list(args.active)) if args.active else (0,)
    query = additive.CompatibilityQuery(active=active, xi0=args.xi0, q=args.q)
    rep = additive.empirical_phi_star(data, basis, query, n_dirs=args.ndirs, seed=args.seed)
    bound = additive.copula_bound(sigma)
    results = rep.as_dict()
    results["kappa0"] = bound.kappa0
    results["lambda_max"] = bound.lambda_max
    results["clears_kappa0_at_3se"] = bool(rep.phi_hat >= bound.kappa0 - 3.0 * rep.se)
    return results, {"resolution": "3 standard errors"}, [args.input]


def _cmd_sandwich(args):
    obj = _load_json(args.input)
    sigma = _matrix_from_obj(obj["sigma_z"])
    rep = additive.sandwich_check(
        sigma,
        tuple(obj["transforms"]),
        obj["f"],
        obj["f_hat"],
        n_mc=int(obj.get("n_mc", args.nmc)),
        seed=int(obj.get("seed", args.seed)),
    )
    results = rep.as_dict()
    results["verdict"] = "holds" if rep.holds else "violated"
    return results, {"resolution": "3 standard errors"}, [args.input]


_HANDLERS = {
    "eig": _cmd_eig,
    "schur-check": _cmd_schur_check,
    "hermite": _cmd_hermite,
    "oracle": _cmd_oracle,
    "ace": _cmd_ace,
    "nested": _cmd_nested,
    "groups": _cmd_groups,
    "hoeffding": _cmd_hoeffding,
    "sinlimit": _cmd_sinlimit,
    "stationary": _cmd_stationary,
    "kernel": _cmd_kernel,
    "copula-check": _cmd_copula_check,
    "sandwich": _cmd_sandwich,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlcorr",
        description="Extreme eigenvalues of nonlinear correlation matrices and operators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, weights=False, curve=False):
        p.add_argument("--out", help="write the JSON report here as well as stdout")
        if weights:
            p.add_argument("--weights", default="ones",
                           help="weight matrix: path, 'ones', or 'offdiag'")
        if curve:
            p.add_argument("--curve", help="write a plot-ready CSV curve here")

    p = sub.add_parser("eig", help="extreme eigenvalues of a symmetric matrix")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("schur-check", help="Schur-power contraction certificate")
    p.add_argument("--input", required=True, help="correlation matrix file")
    p.add_argument("--power", type=int, required=True)
    common(p, weights=True)

    p = sub.add_parser("hermite", help="Hermite expansion of a catalog function")
    p.add_argument("--fn", required=True,
                   help="identity|square|cube|sign|sin|indicator:c|table:path.csv")
    p.add_argument("--order", type=int, default=hermite.DEFAULT_ORDER)
    p.add_argument("--nodes", type=int, default=64)
    common(p)

    p = sub.add_parser("oracle", help="exact extreme nonlinear correlations")
    p.add_argument("--joint", required=True, help="DiscreteJoint JSON file")
    common(p, weights=True)

    p = sub.add_parser("ace", help="sample-based extreme correlation estimate")
    p.add_argument("--input", required=True, help="CSV with a header row")
    p.add_argument("--bins", type=int, default=16)
    common(p, weights=True)

    p = sub.add_parser("nested", help="nested-sum correlation matrix extremes")
    p.add_argument("--m", required=True, help="comma-separated sum lengths")
    common(p, weights=True)

    p = sub.add_parser("groups", help="group-system spectra and shadow check")
    p.add_argument("--input", required=True, help='JSON {"groups": [[...], ...]}')
    common(p, weights=True)

    p = sub.add_parser("hoeffding", help="interaction decomposition of a symmetric function")
    p.add_argument("--input", required=True,
                   help='JSON {"law": ..., "m": m, "f0": [row-major values]}')
    common(p)

    p = sub.add_parser("sinlimit", help="sin-construction correlations at parameter t")
    p.add_argument("--law", default="rademacher",
                   help="rademacher|bernoulli(p)|cauchy or a tabulated-law JSON path")
    p.add_argument("--m", required=True)
    p.add_argument("--t", type=float, required=True)
    common(p, curve=True)

    p = sub.add_parser("stationary", help="spectral density extremes of a stationary kernel")
    p.add_argument("--name", choices=["ar1", "ou"])
    p.add_argument("--beta", type=float)
    p.add_argument("--input", help="kernel JSON file")
    p.add_argument("--crosscheck", type=int, default=0,
                   help="also eigensolve the n x n Toeplitz section")
    common(p, curve=True)

    p = sub.add_parser("kernel", help="Nystrom extremes of the partial-sum kernel")
    p.add_argument("--n", default="500,1000,2000", help="comma-separated grid sizes")
    common(p, curve=True)

    p = sub.add_parser("copula-check", help="empirical compatibility check of a copula design")
    p.add_argument("--input", required=True, help="design JSON file")
    p.add_argument("--basis", default="histogram", choices=["histogram", "poly"])
    p.add_argument("--basis-size", type=int, default=8)
    p.add_argument("--q", type=int, default=1, choices=[1, 2])
    p.add_argument("--xi0", type=float, default=3.0)
    p.add_argument("--active", default="0", help="comma-separated active indices")
    p.add_argument("--ndirs", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)

    p = sub.add_parser("sandwich", help="latent-spectrum error sandwich by Monte Carlo")
    p.add_argument("--input", required=True, help="configuration JSON file")
    p.add_argument("--nmc", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.subcommand]
    try:
        results, tolerances, paths = handler(args)
        digest = inputs_digest(argv if argv is not None else sys.argv[1:], paths)
        # only the sampling subcommands take --seed; the others report null
        seed = getattr(args, "seed", None)
        report = make_report(args.subcommand, digest, seed, results, tolerances)
        text = write_report(report, args.out)
        sys.stdout.write(text)
        return 0
    except (NLCorrError, ArithmeticError, RecursionError) as exc:
        # a valid input past a float range or the recursion limit is reported
        # under its own exception name, like a domain error
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(canonical_json(error) + "\n")
        return 1
    except (FileNotFoundError, KeyError, TypeError, ValueError,
            np.linalg.LinAlgError) as exc:
        # malformed inputs surface as domain errors with their location
        error = {"error": {"type": "ValidationError",
                           "message": f"{type(exc).__name__}: {exc}"}}
        sys.stdout.write(canonical_json(error) + "\n")
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
