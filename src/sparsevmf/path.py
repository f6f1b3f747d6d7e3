"""Regularization-path following: compute the smallest beta increment that is
guaranteed to sparsify the means on the next M step, then warm-restart EM."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .em import FitOptions, FitResult, MixtureParams, e_step, fit_em
from .metrics import sparsity

__all__ = [
    "PathOptions",
    "PathStep",
    "PathResult",
    "next_beta",
    "follow_path",
    "path_to_dict",
]

@dataclass
class PathOptions:
    """max_steps caps the number of recorded steps, step 0 included; None
    runs the path to its end, when next_beta finds no increment or a fit
    fails. fit_options must have beta = 0, as the path sets beta at each
    step, and max_em_iters >= 1, as a step with no EM iteration never moves."""

    max_steps: int | None = None
    fit_options: FitOptions = field(default_factory=FitOptions)

    def __post_init__(self):
        cap = self.max_steps
        if cap is not None and not (isinstance(cap, (int, np.integer)) and cap >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {cap!r}")
        if self.fit_options.beta != 0.0:
            raise ValueError("fit_options.beta must be 0: the path sets beta at each step")
        if self.fit_options.max_em_iters < 1:
            raise ValueError("fit_options.max_em_iters must be >= 1: a path step needs an M step")


@dataclass
class PathStep:
    """One point of a path: its fit, without the E-step, and the criterion
    values ic_fn gave it. The step's beta is fit.beta and its sparsity is
    metrics.sparsity(fit.params)."""

    fit: FitResult
    ic_values: dict = field(default_factory=dict)


@dataclass
class PathResult:
    steps: list
    termination_reason: str  # MaxSteps | EmFailure | NoIncrementAvailable


def next_beta(params: MixtureParams, r: np.ndarray, beta_prev: float) -> float | None:
    """Smallest beta > beta_prev guaranteed to zero at least one currently
    surviving mean coordinate on the next M step:
    beta_prev + min over {kappa_k |r_kj| - beta_prev > 0 : mu_kj != 0,
    mu_k has another nonzero}. Coordinates already zero are left out, and so
    is the last coordinate of a 1-sparse mean, which the M step keeps at any
    beta: a beta that only they bound would zero nothing.

    Returns None when every such kappa|r| <= beta_prev: the path cannot
    advance."""
    margins = params.kappas[:, None] * np.abs(r) - beta_prev
    nonzero = params.means != 0.0
    can_zero = nonzero & (nonzero.sum(axis=1) > 1)[:, None]
    positive = margins[(margins > 0) & can_zero]
    return beta_prev + float(positive.min()) if positive.size else None


def follow_path(X: np.ndarray, K: int, path_opts: PathOptions,
                initial: FitResult, ic_fn=None) -> PathResult:
    """Follow the regularization path starting from a converged dense fit.

    Each step computes the next beta from the resultants of the previous
    converged model, warm-restarts EM from that model and its E-step, and
    records fit_em's result as it is, without its E-step. A start without its
    E-step (a fit loaded from JSON) gets one before the first step. ic_fn,
    when given, maps a FitResult to a dict of information-criterion values
    stored on the step. The start must be a beta = 0 fit of K components in
    the kappa mode of path_opts.fit_options."""
    if initial.beta != 0.0:
        raise ValueError("path must start from a beta = 0 fit")
    if initial.params.K != K:
        raise ValueError(f"K = {K}, but the initial fit holds {initial.params.K} components")
    if initial.params.kappa_mode != path_opts.fit_options.kappa_mode:
        raise ValueError(f"kappa_mode = {path_opts.fit_options.kappa_mode!r}, but the initial "
                         f"fit is in {initial.params.kappa_mode!r} mode")
    X = np.asarray(X, dtype=float)
    fit = initial if initial.resp is not None else replace(initial, resp=e_step(X, initial.params))
    steps = []
    reason = "MaxSteps"
    while True:
        ic = {} if ic_fn is None else ic_fn(fit)
        steps.append(PathStep(fit=replace(fit, resp=None), ic_values=ic))
        if len(steps) == path_opts.max_steps:
            break
        beta = next_beta(fit.params, fit.resp.resultants, fit.beta)
        if beta is None:
            reason = "NoIncrementAvailable"
            break
        opts = replace(path_opts.fit_options, beta=beta)
        fit = fit_em(X, K, opts, init=fit.params, resp=fit.resp)
        if fit.status.failed:
            reason = "EmFailure"
            break
    return PathResult(steps=steps, termination_reason=reason)


def path_to_dict(result: PathResult) -> dict:
    """The termination reason and one summary record per step."""
    records = []
    for i, step in enumerate(result.steps):
        rec = {
            "step": i,
            "beta": step.fit.beta,
            "sparsity": sparsity(step.fit.params),
            "log_likelihood": step.fit.log_likelihood,
            "penalized_log_likelihood": step.fit.penalized_log_likelihood,
            "status": step.fit.status.value,
            "n_iters": step.fit.n_iters,
        }
        rec.update(step.ic_values)
        records.append(rec)
    return {"termination_reason": result.termination_reason, "steps": records}
