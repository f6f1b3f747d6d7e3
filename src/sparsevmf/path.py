"""Regularization-path following: compute the smallest beta increment that is
guaranteed to sparsify the means on the next M step, then warm-restart EM."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .em import (FitOptions, FitResult, FitStatus, MixtureParams, _penalized, e_step,
                 fit_em)
from .errors import NoIncrementAvailableError
from .metrics import sparsity

__all__ = [
    "PathOptions",
    "PathStep",
    "PathResult",
    "next_beta",
    "follow_path",
    "path_to_dict",
    "save_path",
]

@dataclass
class PathOptions:
    max_steps: int = 1000
    epsilon: float = 1e-8
    min_rel_increase: float = 0.0
    fit_options: FitOptions = field(default_factory=FitOptions)

    def __post_init__(self):
        for name in ("epsilon", "min_rel_increase"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.min_rel_increase < 0:
            raise ValueError("min_rel_increase must be >= 0")


@dataclass
class PathStep:
    beta: float
    fit: FitResult
    sparsity: float
    ic_values: dict = field(default_factory=dict)


@dataclass
class PathResult:
    steps: list
    termination_reason: str  # MaxSteps | EmFailure | NoIncrementAvailable


def next_beta(params: MixtureParams, r: np.ndarray, beta_prev: float,
              min_rel_increase: float = 0.0) -> float:
    """Smallest beta > beta_prev guaranteed to zero at least one currently
    surviving mean coordinate on the next M step:
    beta_prev + min over {kappa_k |r_kj| - beta_prev > 0 : mu_kj != 0,
    mu_k has another nonzero}. Coordinates already zero (by thresholding or
    epsilon truncation) are left out, and so is the last coordinate of a
    1-sparse mean, which the M step keeps at any beta: a beta that only they
    bound would zero nothing.

    Raises NoIncrementAvailableError when every such kappa|r| <= beta_prev."""
    margins = params.kappas[:, None] * np.abs(r) - beta_prev
    nonzero = params.means != 0.0
    can_zero = nonzero & (nonzero.sum(axis=1) > 1)[:, None]
    positive = margins[(margins > 0) & can_zero]
    if positive.size == 0:
        raise NoIncrementAvailableError(f"no surviving coordinate exceeds beta = {beta_prev:g}")
    beta = beta_prev + float(positive.min())
    if min_rel_increase > 0:
        beta = max(beta, beta_prev * (1.0 + min_rel_increase))
    return beta


def _truncate_means(fit: FitResult, X: np.ndarray, epsilon: float) -> FitResult:
    """Zero mean coordinates below epsilon, renormalise, and re-evaluate the
    likelihoods at the truncated parameters. A mean whose coordinates all
    fall below epsilon would vanish: the fit then reports ZeroMean."""
    means = fit.params.means.copy()
    small = (np.abs(means) < epsilon) & (means != 0.0)
    if not small.any():
        return fit
    means[small] = 0.0
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        return replace(fit, status=FitStatus.ZERO_MEAN)
    params = replace(fit.params, means=means / norms)
    resp = e_step(X, params, prev=fit.resp)
    ll = resp.log_likelihood
    return replace(fit, params=params, log_likelihood=ll,
                   penalized_log_likelihood=_penalized(ll, params, fit.beta), resp=resp)


def follow_path(X: np.ndarray, K: int, path_opts: PathOptions,
                initial: FitResult, ic_fn=None) -> PathResult:
    """Follow the regularization path starting from a converged dense fit.

    Each step computes the next beta from the resultants of the previous
    converged model, warm-restarts EM from that model and its E-step,
    truncates mean coordinates below epsilon, and records the step without
    its E-step. ic_fn, when given, maps a FitResult to a dict of
    information-criterion values stored on the step."""
    if initial.beta != 0.0:
        raise ValueError("path must start from a beta = 0 fit")
    X = np.asarray(X, dtype=float)

    def make_step(beta, fit):
        ic = {} if ic_fn is None else ic_fn(fit)
        return PathStep(beta=beta, fit=replace(fit, resp=None),
                        sparsity=sparsity(fit.params), ic_values=ic)

    steps = [make_step(0.0, initial)]
    reason = "MaxSteps"
    prev_fit = initial
    while len(steps) < path_opts.max_steps:
        if prev_fit.resp is None:  # a fit loaded from JSON
            prev_fit = replace(prev_fit, resp=e_step(X, prev_fit.params))
        try:
            beta = next_beta(prev_fit.params, prev_fit.resp.resultants, prev_fit.beta,
                             path_opts.min_rel_increase)
        except NoIncrementAvailableError:
            reason = "NoIncrementAvailable"
            break
        opts = replace(path_opts.fit_options, beta=beta)
        fit = fit_em(X, K, opts, init=prev_fit.params, resp=prev_fit.resp)
        if not fit.status.failed:
            fit = _truncate_means(fit, X, path_opts.epsilon)
        if fit.status.failed:
            reason = "EmFailure"
            break
        steps.append(make_step(beta, fit))
        prev_fit = fit
    return PathResult(steps=steps, termination_reason=reason)


def path_to_dict(result: PathResult) -> dict:
    """The termination reason and one summary record per step."""
    records = []
    for i, step in enumerate(result.steps):
        rec = {
            "step": i,
            "beta": step.beta,
            "sparsity": step.sparsity,
            "log_likelihood": step.fit.log_likelihood,
            "penalized_log_likelihood": step.fit.penalized_log_likelihood,
            "status": step.fit.status.value,
            "n_iters": step.fit.n_iters,
        }
        rec.update(step.ic_values)
        records.append(rec)
    return {"termination_reason": result.termination_reason, "steps": records}


def save_path(result: PathResult, csv_path) -> None:
    """Write a path as a one-row-per-step CSV summary."""
    records = path_to_dict(result)["steps"]
    fields = list(records[0].keys()) if records else []
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(records)
