"""Reading an op's output files and checking them against stored answers.

``read_outputs(argv, out_dir)`` turns the files one CLI op wrote into a
JSON-friendly summary; ``make_answers.py`` stores that summary for every
grid input, and ``check(argv, out_dir, answer)`` compares a fresh op's
summary with it.  Both sides go through the same reader, so a format change
shows up as a failed op.

Tolerances (absolute "atol", relative "rtol" to the stored value):

* Eigenvalues, 1e-10 relative.  Solvers are held to agree within 1e-12,
  so this leaves a factor of 100 for a change of solver or of summation
  order and still catches a wrong mode.
* ``lambda_err_pct = 100 |lam_h - lam_ref| / lam_ref`` is a difference of
  two eigenvalues that at N=128 agree to eight digits or more, so a
  relative tolerance on it would be meaningless.  If each eigenvalue may
  move by 1e-10 relative, the percentage may move by 100 * 2e-10
  (1 + pct/100); LAMBDA_PCT_ATOL = 2.5e-8 covers that for every stored
  error below 25 %.
* The function errors of a study (energy and max-norm percentages) and
  the sampled eigenfunctions depend on eigenvectors.  A banded
  shift-invert Lanczos solve (scipy ``eigsh``) reproduced them to within
  1e-11 relative to the function's maximum on a sample of every
  workload's grid; the check allows 1e-9 of that maximum, i.e. 1e-7 on a
  percentage, while the smallest stored study error is 7e-7 %.
* Fitted orders move with the errors they are fitted to; the allowed
  change is the least-squares sensitivity to the per-point tolerances,
  see ``_slope_tol``.
* interp-study errors are exact-arithmetic quantities evaluated in
  floating point; 1e-7 relative plus 1e-11 times the scale of the
  derivative involved (1, beta/eps, beta/eps) absorbs rounding of the
  degree-(2n+1) interpolant at the finest N.
* Mesh nodes, 1e-13 absolute on [0, 1].
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

EIG_RTOL = 1e-10
LAMBDA_PCT_ATOL = 2.5e-8
FUNC_RTOL = 1e-9
INTERP_RTOL = 1e-7
INTERP_ATOL = 1e-11
NODE_ATOL = 1e-13
RESIDUAL_MAX = 1e-9        # the solver itself refuses residuals above this
MODE_SAMPLES = 9

STUDY_COLUMNS = ["mesh_kind", "epsilon", "p", "N", "dof", "mode", "lambda_h",
                 "lambda_err_pct", "energy_err_pct", "maxnorm_u_pct",
                 "maxnorm_du_pct"]
STUDY_FUNC_COLUMNS = ("energy_err_pct", "maxnorm_u_pct", "maxnorm_du_pct")
INTERP_COLUMNS = ["mesh_kind", "epsilon", "beta", "p", "N", "max_err",
                  "max_err_d1", "scaled_h2_err"]
TABLE1_COLUMNS = ["mode", "N", "dof", "lambda_h", "benchmark_dof",
                  "benchmark_lambda", "rel_dev_pct"]


class OutputError(Exception):
    """An op's output files are missing or malformed."""


def _arg(argv, flag):
    return argv[list(argv).index(flag) + 1]


def _read_csv(path, header):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OutputError(f"cannot read {os.path.basename(path)}: {exc}")
    if not rows or rows[0] != header:
        raise OutputError(f"{os.path.basename(path)}: header "
                          f"{rows[0] if rows else None} != {header}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise OutputError(f"{os.path.basename(path)}: bad row {row}")
    return rows[1:]


def _read_solve(argv, out):
    modes = int(_arg(argv, "--modes"))
    rows = _read_csv(os.path.join(out, "eigenvalues.csv"),
                     ["mode", "lambda", "residual"])
    if [int(r[0]) for r in rows] != list(range(1, modes + 1)):
        raise OutputError("eigenvalues.csv does not list modes 1..k")
    residuals = [float(r[2]) for r in rows]
    if not all(0.0 <= r <= RESIDUAL_MAX for r in residuals):
        raise OutputError(f"residuals {residuals} outside [0, {RESIDUAL_MAX}]")
    summary = {"eigenvalues": [float(r[1]) for r in rows], "modes": []}
    for k in range(1, modes + 1):
        data = [[float(v) for v in r] for r in
                _read_csv(os.path.join(out, f"mode_{k}.csv"),
                          ["x", "u", "du"])]
        n = len(data)
        idx = [round(i * (n - 1) / (MODE_SAMPLES - 1))
               for i in range(MODE_SAMPLES)]
        summary["modes"].append({
            "rows": n,
            "x": [data[i][0] for i in idx],
            "u": [data[i][1] for i in idx],
            "du": [data[i][2] for i in idx],
            "u_max": max(abs(r[1]) for r in data),
            "du_max": max(abs(r[2]) for r in data),
        })
    return summary


def _read_study(argv, out):
    stem = os.path.join(out, f"study_eps{float(_arg(argv, '--epsilon')):g}")
    rows = _read_csv(stem + ".csv", STUDY_COLUMNS)
    records = [{c: (int(v) if c in ("N", "dof", "mode") else float(v))
                for c, v in zip(STUDY_COLUMNS, r) if c not in
                ("mesh_kind", "epsilon", "p")} for r in rows]
    try:
        with open(stem + ".json") as fh:
            slopes = json.load(fh)["slopes"]
    except (OSError, ValueError, KeyError) as exc:
        raise OutputError(f"study JSON unreadable: {exc}")
    return {"records": records,
            "slopes": {metric: {mode: fit["slope"]
                                for mode, fit in per_mode.items()}
                       for metric, per_mode in slopes.items()}}


def _read_interp(argv, out):
    rows = _read_csv(os.path.join(out, "interp.csv"), INTERP_COLUMNS)
    return {"records": [{"N": int(r[4]), "max_err": float(r[5]),
                         "max_err_d1": float(r[6]),
                         "scaled_h2_err": float(r[7])} for r in rows]}


def _read_table1(argv, out):
    rows = _read_csv(os.path.join(out, "table1.csv"), TABLE1_COLUMNS)
    return {"records": [{"mode": int(r[0]), "N": int(r[1]), "dof": int(r[2]),
                         "lambda_h": float(r[3]),
                         "rel_dev_pct": float(r[6]) if r[6] else None}
                        for r in rows]}


def _read_mesh(argv, out):
    rows = _read_csv(os.path.join(out, "mesh.csv"),
                     ["index", "x", "region_right"])
    return {"nodes": [float(r[1]) for r in rows],
            "regions": [r[2] for r in rows]}


READERS = {"solve": _read_solve, "convergence": _read_study,
           "interp-study": _read_interp, "table1": _read_table1,
           "mesh-dump": _read_mesh}


def read_outputs(argv, out_dir) -> dict:
    """Summary of the files the op ``argv`` wrote into ``out_dir``."""
    try:
        return READERS[argv[0]](argv, out_dir)
    except (ValueError, IndexError) as exc:
        raise OutputError(f"malformed output: {exc}")


def out_bytes(out_dir) -> int:
    return sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


def digest(out_dir) -> str:
    """Hash of every file the op wrote, names included."""
    h = hashlib.sha256()
    for entry in sorted(os.scandir(out_dir), key=lambda e: e.name):
        if entry.is_file():
            h.update(entry.name.encode() + b"\0")
            with open(entry.path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Check:
    """Collects the misses of one op and the largest eigenvalue deviation."""

    def __init__(self):
        self.misses = []
        self.lambda_rel_dev = 0.0

    def eig(self, what, got, want):
        dev = abs(got - want) / abs(want)
        self.lambda_rel_dev = max(self.lambda_rel_dev, dev)
        if not dev <= EIG_RTOL:
            self.misses.append(f"{what}: {got!r} vs {want!r} "
                               f"(rel {dev:.2e} > {EIG_RTOL:g})")

    def close(self, what, got, want, atol, rtol=0.0):
        if not abs(got - want) <= atol + rtol * abs(want):
            self.misses.append(f"{what}: {got!r} vs {want!r} "
                               f"(atol {atol:.3g}, rtol {rtol:.3g})")

    def equal(self, what, got, want):
        if got != want:
            self.misses.append(f"{what}: {got!r} != {want!r}")
            return False
        return True


def _slope_tol(ns, errors, tols):
    """Largest change of the fitted log-log slope when each error may move
    by its tolerance: the slope is sum_i w_i log e_i with least-squares
    weights w_i, and a relative move t_i/e_i of an error moves log e_i by
    at most -log(1 - t_i/e_i)."""
    logn = [math.log(n) for n in ns]
    mean = sum(logn) / len(logn)
    sxx = sum((x - mean) ** 2 for x in logn)
    total = 0.0
    for x, e, t in zip(logn, errors, tols):
        rel = min(t / e, 0.5)
        total += abs(x - mean) / sxx * -math.log1p(-rel)
    return total + 1e-9


def _check_solve(c, got, want):
    if not c.equal("mode count", len(got["eigenvalues"]),
                   len(want["eigenvalues"])):
        return
    for k, (g, w) in enumerate(zip(got["eigenvalues"], want["eigenvalues"])):
        c.eig(f"lambda_{k + 1}", g, w)
    for k, (g, w) in enumerate(zip(got["modes"], want["modes"]), 1):
        if not c.equal(f"mode_{k}.csv rows", g["rows"], w["rows"]):
            continue
        # eigenvectors carry an arbitrary sign when the normalizing entry
        # is tied, as on symmetric problems
        dot = sum(a * b for a, b in zip(g["u"], w["u"]))
        sign = -1.0 if dot < 0.0 else 1.0
        c.close(f"mode_{k} max|u|", g["u_max"], w["u_max"], 0.0, FUNC_RTOL)
        c.close(f"mode_{k} max|du|", g["du_max"], w["du_max"], 0.0, FUNC_RTOL)
        for i in range(len(w["x"])):
            c.close(f"mode_{k} x[{i}]", g["x"][i], w["x"][i], NODE_ATOL)
            c.close(f"mode_{k} u[{i}]", sign * g["u"][i], w["u"][i],
                    FUNC_RTOL * w["u_max"])
            c.close(f"mode_{k} du[{i}]", sign * g["du"][i], w["du"][i],
                    FUNC_RTOL * w["du_max"])


# absolute tolerance of each error column of a study, in percent
STUDY_ATOL = {"lambda_err_pct": LAMBDA_PCT_ATOL,
              **{col: FUNC_RTOL * 100.0 for col in STUDY_FUNC_COLUMNS}}


def _check_study(c, got, want):
    if not c.equal("study rows", len(got["records"]), len(want["records"])):
        return
    for g, w in zip(got["records"], want["records"]):
        tag = f"N={w['N']} mode {w['mode']}"
        for col in ("N", "dof", "mode"):
            c.equal(f"{tag} {col}", g[col], w[col])
        c.eig(f"{tag} lambda_h", g["lambda_h"], w["lambda_h"])
        for col, atol in STUDY_ATOL.items():
            c.close(f"{tag} {col}", g[col], w[col], atol)
    if not c.equal("slope blocks", sorted(got["slopes"]),
                   sorted(want["slopes"])):
        return
    for metric, per_mode in want["slopes"].items():
        for mode, slope in per_mode.items():
            recs = [r for r in want["records"] if str(r["mode"]) == mode]
            tol = _slope_tol([r["dof"] for r in recs],
                             [r[metric] for r in recs],
                             [STUDY_ATOL[metric]] * len(recs))
            c.close(f"{metric} order, mode {mode}",
                    got["slopes"][metric].get(mode, math.nan), slope, tol)


def _check_interp(c, got, want, argv):
    scale = {"max_err": 1.0,
             "max_err_d1": 1.0 / float(_arg(argv, "--epsilon")),
             "scaled_h2_err": 1.0 / float(_arg(argv, "--epsilon"))}
    if not c.equal("interp rows", len(got["records"]), len(want["records"])):
        return
    for g, w in zip(got["records"], want["records"]):
        c.equal("interp N", g["N"], w["N"])
        for col, s in scale.items():
            c.close(f"N={w['N']} {col}", g[col], w[col], INTERP_ATOL * s,
                    INTERP_RTOL)


def _check_table1(c, got, want):
    if not c.equal("table1 rows", len(got["records"]), len(want["records"])):
        return
    for g, w in zip(got["records"], want["records"]):
        tag = f"mode {w['mode']} N={w['N']}"
        c.equal(f"{tag} dof", g["dof"], w["dof"])
        c.eig(f"{tag} lambda_h", g["lambda_h"], w["lambda_h"])
        if c.equal(f"{tag} has deviation", g["rel_dev_pct"] is None,
                   w["rel_dev_pct"] is None) and w["rel_dev_pct"] is not None:
            c.close(f"{tag} rel_dev_pct", g["rel_dev_pct"], w["rel_dev_pct"],
                    LAMBDA_PCT_ATOL)


def _check_mesh(c, got, want):
    if not c.equal("node count", len(got["nodes"]), len(want["nodes"])):
        return
    c.equal("regions", got["regions"], want["regions"])
    for i, (g, w) in enumerate(zip(got["nodes"], want["nodes"])):
        c.close(f"node {i}", g, w, NODE_ATOL)


def check(argv, out_dir, answer) -> Check:
    """Compare the op's output files with its stored answer."""
    c = Check()
    try:
        got = read_outputs(argv, out_dir)
    except OutputError as exc:
        c.misses.append(str(exc))
        return c
    cmd = argv[0]
    if cmd == "solve":
        _check_solve(c, got, answer)
    elif cmd == "convergence":
        _check_study(c, got, answer)
    elif cmd == "interp-study":
        _check_interp(c, got, answer, argv)
    elif cmd == "table1":
        _check_table1(c, got, answer)
    else:
        _check_mesh(c, got, answer)
    return c
