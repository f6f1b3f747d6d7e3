"""Outside-in tracing of the sparsevmf layers.

`Tracer.install()` replaces every public function of the layer modules, at
every module that binds it (for instance `em.e_step` is also bound as
`path.e_step`, `dataset.e_step` and `metrics.e_step`), with one wrapper that
records a span: name, start, end, parent span and run id. Calls made through
a lazy `from .special import ...` resolve the wrapped attribute at call time,
so they are covered as well. `uninstall()` puts the originals back.

Spans stay in memory. Self time is a span's duration minus the time covered
by its direct children, accumulated on exit. A few functions carry a hook
that reads arguments or results to count work (rows, iterations, path
steps); the hooks never change what the wrapped call returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("special", "vmf", "em", "path", "selection", "dataset", "cli")

# Layer -> end-to-end effect, as predicted before measuring. A layer listed
# as idle for a workload must record zero calls there; an active one must
# record at least one. `dataset.calibrate` stands for calibrate_overlap.
EXPECT = {
    "select-d20": {
        "active": ("special", "em", "path", "selection"),
        "idle": ("vmf", "dataset", "dataset.calibrate", "cli"),
    },
    "path-d200-tight": {
        "active": ("special", "em", "path", "selection"),
        "idle": ("vmf", "dataset", "dataset.calibrate", "cli"),
    },
    "cli-simulate-d200": {
        "active": ("special", "em", "selection", "dataset", "dataset.calibrate", "vmf", "cli"),
        "idle": ("path",),
    },
}

_OK_STATUSES = ("Converged", "MaxIters")
TERMINATIONS = ("MaxSteps", "MaxSparsity", "EmFailure", "NoIncrementAvailable")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, kappa_cap: float, run_id: int):
        self.kappa_cap = kappa_cap
        self.run_id = run_id
        self.spans: list = []           # (name, start, end, parent index, run id)
        self._stack: list = []          # indices of open spans
        self._child: list = []          # time covered by children of open spans
        self._open = Counter()          # name -> open depth, for ancestor tests
        self.calls = Counter()
        self.errors = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.count = Counter()          # work counters filled by the hooks
        self.fits: list = []            # (X, FitResult) of every fit_em return
        self._saved: list = []          # (module, attribute, original)
        self._hooks = {
            "special.invert_bessel_ratio": self._on_invert,
            "em.fit_em": self._on_fit_em,
            "em.e_step": self._on_e_step,
            "em.init_random": self._on_init,
            "em.soft_threshold_mu": self._on_soft_threshold,
            "path.follow_path": self._on_follow_path,
            "selection.best_of_restarts": self._on_best_of_restarts,
            "dataset.sample_mixture": self._on_sample_mixture,
            "dataset.load_matrix": self._on_load_matrix,
            "dataset.save_matrix": self._on_save_matrix,
            "vmf.sample": self._on_vmf_sample,
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sparsevmf.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[fn] = self._wrap(fn, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "sparsevmf" and not modname.startswith("sparsevmf."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        pre = self._on_m_step if name == "em.m_step" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            self._child.append(0.0)
            self._open[name] += 1
            if pre is not None:
                pre(args, kwargs)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                covered = self._child.pop()
                dur = t1 - t0
                if self._child:
                    self._child[-1] += dur
                self.spans[idx] = (name, t0, t1, parent, self.run_id)
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - covered
                if dur > self.max_s[name]:
                    self.max_s[name] = dur
                if not ok:
                    self.errors[name] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- hooks ----------------------------------------------------------

    def _on_invert(self, args, kwargs, kappa):
        if _arg(args, kwargs, 2, "refine", False):
            self.count["special.refined_solves"] += 1
        if kappa > self.kappa_cap:
            self.count["special.solves_over_cap"] += 1

    def _on_fit_em(self, args, kwargs, fit):
        self.fits.append((args[0], fit))
        self.count["em.iters"] += fit.n_iters
        if self._open["path.follow_path"]:
            self.count["path.em_iters"] += fit.n_iters
        if self._open["selection.best_of_restarts"] and fit.status.value in _OK_STATUSES:
            self.count["selection.restart_ok"] += 1

    def _on_e_step(self, args, kwargs, resp):
        self.count["em.e_step.rows"] += np.shape(args[0])[0]
        if self._open["path.follow_path"]:
            self.count["path.e_steps"] += 1

    def _on_init(self, args, kwargs, params):
        self.count["em.init_ok"] += 1

    def _on_m_step(self, args, kwargs):
        # Counted before the call: an M-step that raises still ran its
        # soft-thresholding passes.
        self.count["em.m_step.components"] += np.shape(_arg(args, kwargs, 1, "resp").tau)[1]

    def _on_soft_threshold(self, args, kwargs, mu):
        self.count["em.soft_threshold_calls"] += 1

    def _on_follow_path(self, args, kwargs, result):
        steps = len(result.steps) - 1
        self.count["path.steps"] += steps
        self.count[f"path.termination.{result.termination_reason}"] += 1
        first = np.count_nonzero(result.steps[0].fit.params.means)
        last = np.count_nonzero(result.steps[-1].fit.params.means)
        self.count["path.coords_zeroed"] += int(first - last)

    def _on_best_of_restarts(self, args, kwargs, fit):
        self.count["selection.restarts"] += int(_arg(args, kwargs, 2, "n_restarts"))

    def _on_sample_mixture(self, args, kwargs, out):
        self.count["dataset.sample_mixture.rows"] += int(_arg(args, kwargs, 1, "n"))
        if self._open["dataset.calibrate_overlap"]:
            self.count["dataset.calibrate.evals"] += 1

    def _on_load_matrix(self, args, kwargs, ds):
        self.count["dataset.load_matrix.bytes"] += os.path.getsize(args[0])

    def _on_save_matrix(self, args, kwargs, _):
        self.count["dataset.save_matrix.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _on_vmf_sample(self, args, kwargs, x):
        self.count["vmf.sample.rows"] += int(_arg(args, kwargs, 1, "n"))

    # -- results --------------------------------------------------------

    def nested_calls(self, child: str, parent: str) -> int:
        """Spans named `child` whose direct parent span is named `parent`."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)

    def calls_under(self, key: str) -> int:
        """Calls into a layer ("path") or into the functions whose name starts
        with a stem ("dataset.calibrate")."""
        prefix = key + "." if key in LAYERS else key
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.startswith(layer + "."))

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced pass, by BENCHMARK.json name."""
        from sparsevmf import em

        c, n, tot, own = self.count, self.calls, self.total_s, self.self_s
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        special = [k for k in n if k.startswith("special.")]
        degenerate = 0
        for X, fit in self.fits:
            sizes = np.bincount(em.hard_assign(em.e_step(X, fit.params)), minlength=fit.params.K)
            if np.any(fit.params.kappas >= self.kappa_cap) or np.any(sizes <= 1):
                degenerate += 1
        m = {
            "special.bessel_ratio.calls": n["special.bessel_ratio"],
            "special.bessel_ratio.self_s": own["special.bessel_ratio"],
            "special.invert_bessel_ratio.calls": n["special.invert_bessel_ratio"],
            "special.invert_bessel_ratio.self_s": own["special.invert_bessel_ratio"],
            "special.log_vmf_normalizer.self_s": own["special.log_vmf_normalizer"],
            "special.newton_per_solve": ratio(
                self.nested_calls("special.bessel_ratio", "special.invert_bessel_ratio"),
                c["special.refined_solves"]),
            "special.solves_over_cap": c["special.solves_over_cap"],
            "special.max_call_ms": 1e3 * max((self.max_s[k] for k in special), default=0.0),
            "em.fit_em.calls": n["em.fit_em"],
            "em.iters": c["em.iters"],
            "em.iters_per_fit": ratio(c["em.iters"], n["em.fit_em"] - self.errors["em.fit_em"]),
            "em.e_step.calls": n["em.e_step"],
            "em.e_step.self_s": own["em.e_step"],
            "em.e_step.rows_per_s": ratio(c["em.e_step.rows"], tot["em.e_step"]),
            "em.m_step.calls": n["em.m_step"],
            "em.m_step.self_s": own["em.m_step"],
            "em.inner_per_mstep": ratio(
                c["em.soft_threshold_calls"], c["em.m_step.components"]),
            "em.init_success_ratio": ratio(c["em.init_ok"], n["em.init_random"]),
            "em.degenerate_fits": degenerate,
            "path.follow_path.total_s": tot["path.follow_path"],
            "path.steps": c["path.steps"],
            "path.estep_per_step": ratio(c["path.e_steps"], c["path.steps"]),
            "path.iters_per_step": ratio(c["path.em_iters"], c["path.steps"]),
            "path.next_beta.self_s": own["path.next_beta"],
            "path.coords_zeroed_per_step": ratio(c["path.coords_zeroed"], c["path.steps"]),
        }
        for reason in TERMINATIONS:
            m[f"path.termination.{reason}"] = c[f"path.termination.{reason}"]
        m.update({
            "selection.best_of_restarts.total_s": tot["selection.best_of_restarts"],
            "selection.restarts": c["selection.restarts"],
            "selection.restart_success_ratio": ratio(c["selection.restart_ok"], c["selection.restarts"]),
            "selection.information_criterion.self_s": own["selection.information_criterion"],
            "selection.select_model.total_s": tot["selection.select_model"],
            "dataset.simulate_mixture.total_s": tot["dataset.simulate_mixture"],
            "dataset.calibrate_overlap.total_s": tot["dataset.calibrate_overlap"],
            "dataset.calibrate.evals": c["dataset.calibrate.evals"],
            "dataset.sample_mixture.rows": c["dataset.sample_mixture.rows"],
            "dataset.sample_mixture.self_s": own["dataset.sample_mixture"],
            "dataset.load_matrix.self_s": own["dataset.load_matrix"],
            "dataset.load_matrix.mb_per_s": ratio(c["dataset.load_matrix.bytes"] / 1e6, tot["dataset.load_matrix"]),
            "dataset.save_matrix.self_s": own["dataset.save_matrix"],
            "dataset.save_matrix.mb_per_s": ratio(c["dataset.save_matrix.bytes"] / 1e6, tot["dataset.save_matrix"]),
            "dataset.save_ground_truth.self_s": own["dataset.save_ground_truth"],
            "vmf.sample.calls": n["vmf.sample"],
            "vmf.sample.rows": c["vmf.sample.rows"],
            "vmf.sample.self_s": own["vmf.sample"],
            "cli.simulate.wall_s": tot["cli.cmd_simulate"],
            "cli.fit.wall_s": tot["cli.cmd_fit"],
            "cli.metrics.wall_s": tot["cli.cmd_metrics"],
        })
        for layer in LAYERS:
            m[f"{layer}.self_share"] = ratio(self.layer_self_s(layer), wall_s)
        m["trace.spans"] = len(self.spans)
        return m

    def write_spans(self, path) -> None:
        """One line per span: name, start, end (seconds from the first span),
        parent index (-1 for a root) and run id."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,run_id\n")
            for i, (name, t0, t1, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0 - base:.9f},{t1 - base:.9f},{parent},{run_id}\n")
