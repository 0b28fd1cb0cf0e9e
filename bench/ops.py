"""The operations of each workload, as calls into the package's public API.

Runs only in the workload process. ``build`` turns a workload's inputs into
an ordered list of operations plus a warm-up; each operation is
``(name, call, digest)``: ``call()`` is what is timed, and ``digest(raw)``
turns its result into the small JSON outputs that the checking process
compares against the references, outside the timed region. Package functions
are looked up through their modules at call time, so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import NON_LATTICE, RADEMACHER

CHILD_TIMEOUT_S = 120


@dataclass
class Workload:
    ops: list[tuple[str, Callable, Callable]]
    warmup: Callable[[], None]
    in_process: bool = True


def _joint_digest(joint) -> dict:
    return {
        "sizes": list(joint.sizes),
        "atoms": int(joint.atom_idx.shape[0]),
        "supports": [[float(v) for v in s] for s in joint.supports],
        "marginals": [joint.marginal(j).tolist() for j in range(joint.nvars)],
    }


def _extremes_digest(raw) -> dict:
    joint, res = raw
    return {**_joint_digest(joint), "rho_max": res.rho_max, "rho_min": res.rho_min}


# ---------------------------------------------------------------------------
# cli-cold: one cold interpreter per subcommand
# ---------------------------------------------------------------------------


class ChildRunner:
    """Runs one child process at a time and reads its CPU time from RUSAGE_CHILDREN.

    Children are waited for one after another, so the change in the
    children's CPU totals across a wait belongs to that child alone; the
    children's ru_maxrss is the peak of the largest child so far.
    """

    def __init__(self, root: Path, env: dict, scratch: Path):
        self.root, self.env, self.scratch = root, env, scratch

    def run(self, argv: list[str]) -> dict:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        stdout = out_path.read_text()
        stderr = err_path.read_text().strip().splitlines()
        try:
            report = json.loads(stdout) if stdout.strip() else None
        except json.JSONDecodeError:
            report = None
        return {"rc": code, "report": report, "stderr_tail": stderr[-1] if stderr else "",
                "child_cpu": cpu}


def _write_cli_inputs(inp: dict, d: Path) -> None:
    def matrix(a):
        return {"dim": len(a), "rows": np.asarray(a).tolist()}

    from inputs import nested_rademacher_joint

    (d / "eig.json").write_text(json.dumps(matrix(inp["eig"])))
    (d / "schur.json").write_text(json.dumps(matrix(inp["schur"])))
    (d / "oracle.json").write_text(json.dumps(nested_rademacher_joint(inp["oracle_m"])))
    with (d / "ace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(inp["ace"].shape[1])])
        writer.writerows(inp["ace"].tolist())
    (d / "groups.json").write_text(json.dumps({"groups": inp["groups"]}))
    (d / "hoeffding.json").write_text(json.dumps(
        {"law": "rademacher", "m": 3, "f0": inp["hoeffding_f0"].ravel().tolist()}))
    (d / "copula.json").write_text(json.dumps({
        "sigma_z": matrix(inp["copula_sigma"]),
        "transforms": ["identity", "probit_uniform", "exp", "identity"],
        "n": 2000, "seed": inp["child_seed"]}))
    (d / "sandwich.json").write_text(json.dumps({
        "sigma_z": matrix(inp["sandwich_sigma"]),
        "transforms": ["identity", "probit_uniform", "identity"],
        "f": ["identity", "square", "sin"], "f_hat": ["sin", "identity", "square"],
        "n_mc": 20_000, "seed": inp["child_seed"]}))
    # the malformed input: a JSON list where the kernel object belongs
    (d / "bad-kernel.json").write_text(json.dumps([{"name": "ar1"}]))


def cli_commands(inp: dict, d: Path) -> list[tuple[str, list[str]]]:
    """(op name, argv after ``python -m nlcorr.cli``) for every subcommand, in order."""
    return [
        ("eig", ["eig", "--input", str(d / "eig.json")]),
        ("schur-check", ["schur-check", "--input", str(d / "schur.json"),
                         "--power", str(inp["power"])]),
        ("hermite", ["hermite", "--fn", f"sin:{inp['hermite_a']}", "--order", "8",
                     "--nodes", "64"]),
        ("oracle", ["oracle", "--joint", str(d / "oracle.json")]),
        ("ace", ["ace", "--input", str(d / "ace.csv"), "--bins", "6"]),
        ("nested", ["nested", "--m", "1,2"]),
        ("groups", ["groups", "--input", str(d / "groups.json")]),
        ("hoeffding", ["hoeffding", "--input", str(d / "hoeffding.json")]),
        ("sinlimit", ["sinlimit", "--law", "cauchy", "--m", "1,2,3", "--t", "0.001"]),
        ("stationary", ["stationary", "--name", "ar1", "--beta", "0.5"]),
        ("kernel", ["kernel", "--n", "50,100,200"]),
        ("copula-check", ["copula-check", "--input", str(d / "copula.json")]),
        ("sandwich", ["sandwich", "--input", str(d / "sandwich.json")]),
        ("error", ["stationary", "--input", str(d / "bad-kernel.json")]),
    ]


def build_cli_cold(inp: dict, root: Path, scratch: Path) -> Workload:
    _write_cli_inputs(inp, scratch)
    runner = ChildRunner(root, dict(os.environ), scratch)
    py = sys.executable

    def child(argv):
        return lambda: runner.run(argv)

    ops = [("import", child([py, "-c", "import nlcorr"]), lambda r: r)]
    for name, argv in cli_commands(inp, scratch):
        ops.append((name, child([py, "-m", "nlcorr.cli", *argv]), lambda r: r))

    def warmup():
        # compiles the package's bytecode and pulls every module through the page cache
        runner.run([py, "-m", "nlcorr.cli", "nested", "--m", "1,2"])

    return Workload(ops=ops, warmup=warmup, in_process=False)


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def build_exact_oracle(inp: dict) -> Workload:
    from nlcorr import groups, maxcorr

    def law(spec):
        return groups.DiscreteLaw(values=np.array(spec["values"]), probs=np.array(spec["probs"]))

    rad, lattice, nonlattice = law(RADEMACHER), law(inp["lattice"]), law(NON_LATTICE)

    def nested(m, lw, w):
        def call():
            joint = groups.nested_sums_joint(m, lw)
            return joint, maxcorr.exact_extremes(joint, w)
        return call

    def pair(m):
        def call():
            joint = groups.nested_sums_joint(m, rad)
            return joint, maxcorr.pair_max_corr(joint)
        return call

    def pair_digest(raw):
        return {**_joint_digest(raw[0]), "rho": raw[1]}

    def system(lists, w):
        def call():
            gs = groups.GroupSystem.from_lists(lists)
            symm = groups.extreme_symm(gs, w)
            check = groups.assumption_c_check(gs)
            joint = groups.group_sums_joint(gs, rad)
            return joint, maxcorr.exact_extremes(joint, w), symm, check
        return call

    def system_digest(raw):
        joint, res, symm, check = raw
        witness = [sorted(g) for g in check.witness] if check.witness else None
        return {**_extremes_digest((joint, res)), "symm": symm.as_dict(),
                "shadow_status": check.status, "witness": witness}

    tables = [(tab, rad if spec is RADEMACHER else lattice) for spec, tab in inp["tables"]]

    def sweep():
        return [(tab, lw, groups.hoeffding_decompose(tab, lw)) for tab, lw in tables]

    def sweep_digest(raw):
        return [{"probs": lw.probs.tolist(), "f0": tab.tolist(),
                 "components": [c.tolist() for c in dec.components]} for tab, lw, dec in raw]

    ops = [
        ("rademacher-u18", nested(inp["rad_m"], rad, inp["rad_w"]), _extremes_digest),
        ("pair-1-2", pair([1, 2]), pair_digest),
        ("pair-seeded", pair(inp["pair"]), pair_digest),
    ]
    for i, (lists, w) in enumerate(zip(inp["systems"], inp["system_w"])):
        ops.append((f"groups-{i}", system(lists, w), system_digest))
    ops += [
        ("lattice-3pt", nested(inp["lattice_m"], lattice, inp["lattice_w"]), _extremes_digest),
        ("non-lattice", nested(NON_LATTICE["m"], nonlattice, np.ones((3, 3))), _extremes_digest),
        ("hoeffding-sweep", sweep, sweep_digest),
    ]

    def warmup():
        nested([1, 2], lattice, np.ones((2, 2)))()
        pair([1, 2])()
        system([[1, 2], [1, 3]], np.ones((2, 2)))()
        groups.hoeffding_decompose(np.eye(2), rad)

    return Workload(ops=ops, warmup=warmup)


def build_operators(inp: dict) -> Workload:
    from scipy.linalg import toeplitz

    from nlcorr import spectra, stationary

    decay_lattice = stationary.DecayBound(C=1.0, r=0.5)
    decay_line = stationary.DecayBound(C=1.0, r=float(np.exp(-1.0)))
    lattice = stationary.table_kernel("lattice", inp["lattice_table"], decay_lattice)
    line = stationary.table_kernel("line", inp["line_table"], decay_line)
    col = np.zeros(inp["section_n"])
    col[: inp["lattice_table"].size] = inp["lattice_table"]
    section = toeplitz(col)
    ar1 = stationary.ar1_kernel(inp["ar1_beta"])

    def as_dict(raw):
        return raw.as_dict()

    ops = [(f"brownian-{n}", (lambda n=n: spectra.brownian_lambda_max(n)),
            lambda v: {"lambda_max": v}) for n in inp["ns"]]
    ops += [
        ("toeplitz-ar1", lambda: stationary.circulant_cross_check(ar1, inp["ar1_n"]), as_dict),
        ("lattice-scan", lambda: stationary.spectral_extremes(lattice), as_dict),
        ("lattice-section", lambda: spectra.extreme_eigs(section),
         lambda v: {"lambda_min": v[0], "lambda_max": v[1]}),
        ("line-scan", lambda: stationary.spectral_extremes(line), as_dict),
        ("line-density", lambda: stationary.spectral_density(line, inp["freqs"]),
         lambda v: {"density": v.tolist()}),
    ]

    def warmup():
        spectra.brownian_lambda_max(20)
        stationary.circulant_cross_check(ar1, 20)
        stationary.spectral_extremes(stationary.table_kernel("lattice", [1.0, 0.5]))
        spectra.extreme_eigs(section[:20, :20])
        small_line = stationary.table_kernel("line", [1.0, 0.0])
        stationary.spectral_extremes(small_line, n_points=9)
        stationary.spectral_density(small_line, inp["freqs"][:2])

    return Workload(ops=ops, warmup=warmup)


def build_estimators(inp: dict) -> Workload:
    from nlcorr import additive, maxcorr

    state: dict = {}
    design = additive.CopulaDesign(
        sigma_z=inp["design_sigma"], transforms=tuple(inp["design_transforms"]),
        n=inp["design_n"], seed=inp["design_seed"])
    basis = additive.BasisSpec(family="histogram", size=8)
    query = additive.CompatibilityQuery(active=(0,), xi0=3.0, q=1)

    def ace(data):
        return lambda: maxcorr.ace_estimate(data, np.ones((data.shape[1],) * 2))

    def ace_digest(res):
        return {"rho_max": res.rho_max, "rho_min": res.rho_min,
                "converged": res.converged, "iterations": list(res.iterations)}

    def sample():
        state["design"] = additive.sample_design(design)
        return state["design"]

    def sample_digest(x):
        from references import latent_corr_gap
        return {"shape": list(x.shape),
                "latent_gap": latent_corr_gap(x, inp["design_transforms"], inp["design_sigma"])}

    def phi():
        return additive.empirical_phi_star(state["design"], basis, query,
                                           n_dirs=inp["phi_dirs"], seed=inp["phi_seed"])

    def sandwich(cfg):
        return lambda: additive.sandwich_check(
            cfg["sigma"], tuple(cfg["transforms"]), cfg["f"], cfg["f_hat"],
            n_mc=cfg["n_mc"], seed=cfg["seed"])

    ops = [
        ("ace-p8", ace(inp["ace8"]), ace_digest),
        ("ace-p40", ace(inp["ace40"]), ace_digest),
        ("sample-design", sample, sample_digest),
        ("phi-star", phi, lambda rep: rep.as_dict()),
    ]
    ops += [(f"sandwich-{i}", sandwich(cfg), lambda rep: rep.as_dict())
            for i, cfg in enumerate(inp["sandwich"])]

    def warmup():
        ace(inp["ace8"][:500, :3])()
        small = additive.CopulaDesign(sigma_z=inp["design_sigma"][:3, :3],
                                      transforms=tuple(inp["design_transforms"][:3]), n=500)
        x = additive.sample_design(small)
        additive.empirical_phi_star(x, basis, query, n_dirs=5, n_boot=4)
        cfg = dict(inp["sandwich"][0], n_mc=1000)
        sandwich(cfg)()

    return Workload(ops=ops, warmup=warmup)


def build(workload: str, inp: dict, root: Path, scratch: Path) -> Workload:
    if workload == "cli-cold":
        return build_cli_cold(inp, root, scratch)
    return {"exact-oracle": build_exact_oracle, "operators": build_operators,
            "estimators": build_estimators}[workload](inp)

