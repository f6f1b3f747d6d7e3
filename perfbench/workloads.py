"""The three benchmark workloads: inputs, timed section and output checks.

Each workload turns (seed, j) into the inputs of its j-th dataset
(`prepare`, untimed), runs the timed section on them (`run`) and checks the
program's outputs (`check`, untimed). Every call into the library goes
through a module attribute (`selection.select_model`, `cli.main`) so that a
traced pass sees the same calls an untraced one makes.

`select-d20` and `path-d200-tight` draw their inputs from `inputs.py`, not
from the library's simulator; `cli-simulate-d200` exercises that simulator on
purpose.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import inputs

# Relative tolerance of the EM ascent gate: trace[i+1] >= trace[i] -
# EM_TOL * max(1, |trace[i]|). Rounding in the E-step sums is ~1e-15
# relative; a real descent is many orders larger.
EM_TOL = 1e-9

# (name, shape) of each workload at full size and at the smoke-test size.
SIZES = {
    "select-d20": {
        "full": dict(d=20, N=1000, K_true=3, K_candidates=(2, 3, 4), base_kappa=6.25,
                     sparsity=0.5, restarts=10, max_steps=None),
        "tiny": dict(d=10, N=300, K_true=3, K_candidates=(2, 3), base_kappa=80.0,
                     sparsity=0.5, restarts=8, max_steps=10),
    },
    "path-d200-tight": {
        "full": dict(d=200, N=2000, K_true=3, base_kappa=5e4, sparsity=0.5,
                     restarts=10, max_steps=150),
        "tiny": dict(d=20, N=240, K_true=3, base_kappa=5e3, sparsity=0.5,
                     restarts=3, max_steps=5),
    },
    "cli-simulate-d200": {
        "full": dict(d=200, N=2000, K_true=3, overlap=0.05, sparsity=0.5, overlap_mc=50_000),
        "tiny": dict(d=10, N=240, K_true=3, overlap=0.05, sparsity=0.5, overlap_mc=20_000),
    },
}


def dataset_seed(seed: int, j: int) -> int:
    """Seed of the j-th dataset of a run; also the program's --seed for it."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0] >> 1)


@dataclass
class Outcome:
    """What the benchmark reads off one dataset's outputs."""

    ops: int = 0
    failed_ops: int = 0
    gates: dict = field(default_factory=dict)   # gate name -> passed
    ari: float | None = None
    pll_per_obs: float | None = None
    support_precision: float | None = None
    support_recall: float | None = None
    overlap_rel_err: float | None = None
    model_hash: str = ""
    fingerprint: str = ""
    notes: dict = field(default_factory=dict)


# -- independent checks ---------------------------------------------------

def adjusted_rand(a, b) -> float:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    pairs = lambda x: (x * (x - 1.0) / 2.0).sum()  # noqa: E731
    cells, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    expected = rows * cols / pairs(np.array([float(len(a))]))
    top = 0.5 * (rows + cols)
    return 1.0 if top == expected else float((cells - expected) / (top - expected))


def support_scores(est_means, true_means):
    """Precision and recall of the estimated zero coordinates against the
    planted ones, after matching components by mean inner product. Precision
    is None when the estimate has no zero coordinate."""
    K = est_means.shape[0]
    if true_means.shape[0] != K:
        return None, None
    gains = est_means @ true_means.T
    perm = max(itertools.permutations(range(K)), key=lambda p: sum(gains[k, p[k]] for k in range(K)))
    est_zero = est_means == 0.0
    true_zero = (true_means == 0.0)[list(perm)]
    hits = int(np.sum(est_zero & true_zero))
    precision = hits / int(est_zero.sum()) if est_zero.any() else None
    recall = hits / int(true_zero.sum()) if true_zero.any() else None
    return precision, recall


def em_ascends(trace) -> bool:
    return all(b >= a - EM_TOL * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def params_valid(alpha, means, kappas, kappa_cap: float) -> bool:
    arrays = (np.asarray(alpha), np.asarray(means), np.asarray(kappas))
    return (all(np.all(np.isfinite(a)) for a in arrays)
            and bool(np.all(arrays[2] > 0.0)) and bool(np.all(arrays[2] <= kappa_cap)))


def _hash_arrays(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def hash_fits(fits) -> str:
    h = hashlib.sha256()
    for fit in fits:
        _hash_arrays(h, fit.params.alpha, fit.params.means, fit.params.kappas)
        h.update(f"{fit.beta!r}|{fit.status.value}|{fit.n_iters}|{fit.penalized_log_likelihood!r}".encode())
    return h.hexdigest()


def fit_gates(fits, kappa_cap: float) -> dict:
    return {
        "em_ascent": all(em_ascends(f.trace) for f in fits),
        "params_valid": all(
            params_valid(f.params.alpha, f.params.means, f.params.kappas, kappa_cap) for f in fits),
    }


# -- workloads --------------------------------------------------------------

class _PlantedWorkload:
    """A workload whose inputs come from `inputs.planted_mixture`."""

    name = ""

    def __init__(self, scale: str):
        self.size = SIZES[self.name][scale]

    def prepare(self, seed: int, j: int):
        s = self.size
        ds = dataset_seed(seed, j)
        planted = inputs.planted_mixture(ds, s["K_true"], s["d"], s["N"], s["base_kappa"], s["sparsity"])
        return ds, planted


class SelectD20(_PlantedWorkload):
    """select_model over K in {2,3,4} on a planted K=3 mixture at d=20."""

    name = "select-d20"

    def run(self, prepared):
        from sparsevmf import path, selection

        ds, planted = prepared
        s = self.size
        path_opts = None if s["max_steps"] is None else path.PathOptions(max_steps=s["max_steps"])
        return selection.select_model(planted.X, list(s["K_candidates"]), n_restarts=s["restarts"],
                                      path_opts=path_opts, seed=ds)

    def check(self, prepared, report, kappa_cap: float) -> Outcome:
        _, planted = prepared
        s = self.size
        X, N = planted.X, planted.X.shape[0]
        final = report.final_model
        fits = [report.dense_fits[k] for k in sorted(report.dense_fits)]
        fits += [st.fit for k in sorted(report.paths) for st in report.paths[k].steps]
        out = Outcome(fingerprint=inputs.fingerprint(X), model_hash=hash_fits([final] + fits))
        out.ops = s["restarts"] * len(s["K_candidates"])
        out.failed_ops = s["restarts"] * len(report.skipped)
        out.gates = {"bic_picks_planted_k": report.chosen_K["BIC"] == s["K_true"]}
        out.gates.update(fit_gates(fits, kappa_cap))
        p = final.params
        out.ari = adjusted_rand(planted.labels, inputs.hard_labels(X, p.alpha, p.means, p.kappas))
        out.support_precision, out.support_recall = support_scores(p.means, planted.means)
        if s["K_true"] in report.dense_fits:
            out.pll_per_obs = report.dense_fits[s["K_true"]].penalized_log_likelihood / N
        out.notes = {"chosen_K": report.chosen_K["BIC"],
                     "path_steps": {str(k): len(v.steps) - 1 for k, v in report.paths.items()}}
        return out


class PathD200Tight(_PlantedWorkload):
    """Dense best-of-restarts fit, then a fixed-length regularization path
    scored by all five criteria, on tight clusters at d=200."""

    name = "path-d200-tight"

    def run(self, prepared):
        from sparsevmf import em, path, selection

        ds, planted = prepared
        s = self.size
        X = planted.X
        N, d = X.shape
        crits = {kind: selection.Criterion(kind) for kind in selection.CRITERIA}

        def ic_fn(fit):
            return {kind: selection.information_criterion(fit, N, d, c) for kind, c in crits.items()}

        dense = selection.best_of_restarts(X, s["K_true"], s["restarts"], em.FitOptions(), seed=ds)
        return path.follow_path(X, s["K_true"], path.PathOptions(max_steps=s["max_steps"]),
                                dense, ic_fn=ic_fn)

    def check(self, prepared, result, kappa_cap: float) -> Outcome:
        _, planted = prepared
        s = self.size
        X, N = planted.X, planted.X.shape[0]
        fits = [st.fit for st in result.steps]
        best = min(range(len(fits)), key=lambda i: result.steps[i].ic_values["BIC"])
        p = fits[best].params
        out = Outcome(fingerprint=inputs.fingerprint(X), model_hash=hash_fits(fits))
        out.ops = s["restarts"]
        out.gates = {"path_took_steps": len(fits) > 1}
        out.gates.update(fit_gates(fits, kappa_cap))
        out.ari = adjusted_rand(planted.labels, inputs.hard_labels(X, p.alpha, p.means, p.kappas))
        out.support_precision, out.support_recall = support_scores(p.means, planted.means)
        out.pll_per_obs = fits[0].penalized_log_likelihood / N
        out.notes = {"bic_step": best, "termination": result.termination_reason}
        return out


class CliSimulateD200:
    """`sparsevmf simulate`, then `fit --kappa-mode shared` and `metrics`,
    all in-process through cli.main, with files under the work directory."""

    name = "cli-simulate-d200"

    def __init__(self, scale: str, workdir: str):
        self.size = SIZES[self.name][scale]
        self.workdir = workdir

    def prepare(self, seed: int, j: int):
        s = self.size
        ds = dataset_seed(seed, j)
        os.makedirs(self.workdir, exist_ok=True)
        f = {k: os.path.join(self.workdir, v) for k, v in (
            ("data", "data.csv"), ("truth", "truth.json"), ("model", "model.json"),
            ("trace", "em_trace.csv"), ("metrics", "metrics.json"))}
        argvs = [
            ["simulate", "--k", str(s["K_true"]), "--d", str(s["d"]), "--n", str(s["N"]),
             "--overlap", repr(s["overlap"]), "--sparsity", repr(s["sparsity"]),
             "--seed", str(ds), "--out", f["data"], "--truth-out", f["truth"]],
            ["fit", "--input", f["data"], "--k", str(s["K_true"]), "--kappa-mode", "shared",
             "--seed", str(ds), "--out", f["model"], "--trace-out", f["trace"]],
            ["metrics", "--truth", f["truth"], "--model", f["model"], "--input", f["data"],
             "--out", f["metrics"]],
        ]
        return ds, argvs, f

    def run(self, prepared):
        from sparsevmf import cli

        _, argvs, _ = prepared
        codes = []
        for argv in argvs:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        return codes

    def check(self, prepared, codes, kappa_cap: float) -> Outcome:
        ds, argvs, f = prepared
        s = self.size
        out = Outcome(ops=len(argvs))
        out.failed_ops = len(argvs) - sum(1 for c in codes if c == 0)
        out.gates = {"cli_exit_codes": out.failed_ops == 0}
        if out.failed_ops:
            return out
        X = np.loadtxt(f["data"], delimiter=",", ndmin=2)
        with open(f["truth"]) as fh:
            truth = json.load(fh)
        with open(f["model"]) as fh:
            model = json.load(fh)
        with open(f["trace"]) as fh:
            trace = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
        t_means = _dense_means(truth["mu"], truth["d"])
        m_means = _dense_means(model["means"], model["d"])
        m_kappas = np.broadcast_to(np.asarray(model["kappa"], dtype=float), (model["K"],))
        m_alpha = np.asarray(model["alpha"])
        out.fingerprint = inputs.fingerprint(X)
        h = hashlib.sha256(out.fingerprint.encode())
        _hash_arrays(h, m_alpha, m_means, m_kappas)
        h.update(repr((model["status"], model["n_iters"], model["penalized_log_likelihood"])).encode())
        out.model_hash = h.hexdigest()
        out.gates["em_ascent"] = em_ascends(trace)
        out.gates["params_valid"] = params_valid(m_alpha, m_means, m_kappas, kappa_cap) and params_valid(
            truth["alpha"], t_means, truth["kappa"], kappa_cap)
        labels = np.asarray(truth["labels"])
        out.ari = adjusted_rand(labels, inputs.hard_labels(X, m_alpha, m_means, m_kappas))
        out.pll_per_obs = model["penalized_log_likelihood"] / X.shape[0]
        planted = inputs.Planted(X=X, labels=labels, means=t_means,
                                 kappas=np.asarray(truth["kappa"], dtype=float),
                                 alpha=np.asarray(truth["alpha"], dtype=float))
        realised = inputs.crisp_overlap(planted, s["overlap_mc"], np.random.default_rng([ds, 1]))
        out.overlap_rel_err = abs(realised - s["overlap"]) / s["overlap"]
        out.notes = {"realised_overlap": realised, "status": model["status"]}
        return out


def _dense_means(entries, d: int) -> np.ndarray:
    means = np.zeros((len(entries), d))
    for k, row in enumerate(entries):
        for j, v in row:
            means[k, j] = v
    return means


def make(name: str, scale: str, workdir: str):
    if name == CliSimulateD200.name:
        return CliSimulateD200(scale, workdir)
    return {SelectD20.name: SelectD20, PathD200Tight.name: PathD200Tight}[name](scale)
