"""Command line interface: simulate | fit | path | select | skmeans | viz | metrics.

Exit codes: 0 success, 1 computation failure, 2 usage/config error. Every
output file embeds the invoking configuration, the seed and a config hash so
runs can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__, dataset, em, metrics, selection, skmeans, viz
from .em import FitOptions
from .errors import ParseError, SparseVmfError
from .path import PathOptions, follow_path, path_to_dict
from .selection import CRITERIA, make_ic_fn
from .special import _check_d


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _run_meta(args: argparse.Namespace) -> dict:
    cfg = _config_dict(args)
    return {
        "command": args.func.__name__.removeprefix("cmd_"),
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": cfg.get("seed"),
        "version": __version__,
    }


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _write_csv(path, records: list) -> None:
    """The one CSV table writer: the first record's keys, then one row per record,
    values by str (a float's shortest round-trip decimals), LF line endings."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(records[0]) + "\n")
        for rec in records:
            fh.write(",".join(map(str, rec.values())) + "\n")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, which main reports as one JSON
    ConfigError line (exit 2) instead of usage text and SystemExit."""

    def error(self, message):
        raise ValueError(message)


def _apply_config_file(args, argv):
    """Merge a config file (JSON object or key=value lines) below the flags.

    Each entry becomes its flag, placed before the command line's own, and
    the whole is parsed again: values get their flag's conversion and checks,
    and flags, abbreviated too, win. Unknown keys are rejected."""
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ValueError("config file: not UTF-8 text") from None
    try:
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValueError("config file: must hold a JSON object")
    except json.JSONDecodeError:
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config file: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            try:
                values[key.strip()] = json.loads(val.strip())
            except json.JSONDecodeError:
                values[key.strip()] = val.strip()
    known = vars(args)
    tokens = []
    for key, val in values.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("func", "config", "command"):
            raise ValueError(f"config file: unknown key {key!r}")
        flag = "--" + dest.replace("_", "-")
        tokens += [flag, *map(str, val)] if isinstance(val, list) else [f"{flag}={val}"]
    at = argv.index(args.command) + 1
    try:
        return build_parser().parse_args(argv[:at] + tokens + argv[at:])
    except ValueError as err:
        raise ValueError(f"config file: {err}") from None


def _load_dataset(args, d: int | None = None) -> np.ndarray:
    """The --input matrix, row-normalised. A column count outside the vMF
    domain, or given a model's d another column count, raises ParseError."""
    X = dataset.load_matrix(args.input, format=args.format)
    try:
        _check_d("--input", X.shape[1])
    except ValueError as err:
        raise ParseError(str(err)) from None
    if d is not None and X.shape[1] != d:
        raise ParseError(f"--input has {X.shape[1]} columns, --model has d = {d}")
    return X


def cmd_simulate(args):
    cfg = dataset.SimulationConfig(
        K=args.k, d=args.d, N=args.n,
        overlap_target=args.overlap, base_kappa=args.base_kappa,
        sparsity=args.sparsity, seed=args.seed,
        alpha=None if args.alpha is None else np.array(args.alpha),
    )
    X, truth = dataset.simulate_mixture(cfg)
    dataset.save_matrix(X, args.out, format=args.format)
    doc = dataset.ground_truth_to_dict(truth)
    doc["run"] = _run_meta(args)
    _write_json(args.truth_out, doc)


def cmd_fit(args):
    X = _load_dataset(args)
    opts = FitOptions(beta=args.beta, max_em_iters=args.max_em_iters,
                      em_tol=args.em_tol, kappa_mode=args.kappa_mode)
    fit = selection.best_of_restarts(X, args.k, args.restarts, opts, seed=args.seed)
    doc = dataset.fit_result_to_dict(fit)
    doc["run"] = _run_meta(args)
    _write_json(args.out, doc)
    if args.trace_out:
        _write_csv(args.trace_out, [{"iteration": i, "penalized_log_likelihood": v}
                                    for i, v in enumerate(fit.trace)])


def _path_options(args) -> PathOptions:
    fit_opts = FitOptions(max_em_iters=args.max_em_iters, em_tol=args.em_tol,
                          kappa_mode=args.kappa_mode)
    return PathOptions(max_steps=args.max_steps, fit_options=fit_opts)


def cmd_path(args):
    path_opts = _path_options(args)
    X = _load_dataset(args)
    dense = selection.best_of_restarts(X, args.k, args.restarts,
                                       path_opts.fit_options, seed=args.seed)
    result = follow_path(X, args.k, path_opts, dense, ic_fn=make_ic_fn(*X.shape))
    doc = path_to_dict(result)
    doc["run"] = _run_meta(args)
    _write_json(args.out, doc)
    if args.csv_out:
        _write_csv(args.csv_out, doc["steps"])


def cmd_select(args):
    path_opts = _path_options(args)
    X = _load_dataset(args)
    report = selection.select_model(
        X, list(range(args.k_min, args.k_max + 1)), n_restarts=args.restarts,
        path_opts=path_opts, k_criterion=args.k_criterion,
        beta_criterion=args.beta_criterion, seed=args.seed,
    )
    doc = {
        "run": _run_meta(args),
        "dense_ic": {str(k): v for k, v in report.dense_ic.items()},
        "chosen_K": report.chosen_K,
        "best_steps": {str(k): v for k, v in report.best_steps.items()},
        "skipped": {str(k): v for k, v in report.skipped.items()},
        "final_model": dataset.fit_result_to_dict(report.final_model),
    }
    _write_json(args.out, doc)
    if args.ic_csv:
        _write_csv(args.ic_csv, [{"K": k, **row} for k, row in sorted(report.dense_ic.items())])


def cmd_skmeans(args):
    # Spherical k-means has no vMF density, so no domain on d.
    X = dataset.load_matrix(args.input, format=args.format)
    rng = np.random.default_rng(args.seed)
    result = skmeans.skmeans_fit(X, args.k, max_iters=args.max_iters, rng=rng)
    doc = {
        "run": _run_meta(args),
        "K": args.k,
        "prototypes": dataset.means_to_sparse(result.prototypes),
        "labels": result.labels.tolist(),
        "coherence": result.coherence,
        "n_iters": result.n_iters,
        "converged": result.converged,
    }
    _write_json(args.out, doc)


def cmd_viz(args):
    if bool(args.input) != bool(args.data_out):
        raise ValueError("viz: --input and --data-out must be given together")
    fit = dataset.load_model(args.model)
    X = _load_dataset(args, fit.params.d) if args.input else None
    ordering = viz.order_dimensions(fit.params)
    row_perm = viz.order_rows(fit.params)
    viz.render_pixel_map(fit.params.means, ordering, row_perm, args.out,
                         mode="means", scale=args.scale)
    if args.csv_out:
        _write_csv(args.csv_out, [
            {"original_dim": dim, "position": pos, "group_id": group, "n_j": n}
            for pos, (dim, group, n) in enumerate(
                zip(ordering.perm, ordering.group_of, ordering.n))])
    if X is not None:
        labels = em.hard_assign(em.e_step(X, fit.params))
        data_perm = viz.data_row_order(labels, row_perm)
        viz.render_pixel_map(X, ordering, data_perm, args.data_out,
                             mode="data", scale=args.scale)


def cmd_metrics(args):
    fit = dataset.load_model(args.model)
    truth = dataset.load_ground_truth(args.truth)
    if truth.params.d != fit.params.d:
        raise ParseError(f"--truth has d = {truth.params.d}, --model has d = {fit.params.d}")
    record = {"run": _run_meta(args), "sparsity": metrics.sparsity(fit.params)}
    if args.input:
        X = _load_dataset(args, fit.params.d)
        if truth.labels.size != X.shape[0]:
            raise ParseError(f"--truth has {truth.labels.size} labels, "
                             f"--input has {X.shape[0]} rows")
        pred = em.hard_assign(em.e_step(X, fit.params))
        record["ari"] = metrics.adjusted_rand_index(truth.labels, pred)
    if fit.params.K == truth.params.K:
        precision, recall, meta = metrics.support_precision_recall(fit.params, truth.params)
        record["support_precision"] = precision
        record["support_recall"] = recall
        record["support_matching"] = meta
    _write_json(args.out, record)


def _add_common(p):
    p.add_argument("--config", help="JSON or key=value config file (flags take precedence)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker bound (>= 1); results do not depend on it")


def _add_data_in(p):
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--format", choices=["dense-csv", "sparse-triplet"], default="dense-csv")


def _add_fit_opts(p):
    p.add_argument("--kappa-mode", choices=em.KAPPA_MODES, default="free")
    p.add_argument("--max-em-iters", type=int, default=500)
    p.add_argument("--em-tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=10)


def _add_path_opts(p):
    p.add_argument("--max-steps", type=int, help="cap on the path's steps (default: none)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsevmf",
        description="Sparse von Mises-Fisher mixture clustering",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a planted sparse vMF mixture dataset")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--overlap", type=float, help="target crisp-assignment error in (0, 0.5)")
    p.add_argument("--base-kappa", type=float, help="base concentration before rescaling")
    p.add_argument("--sparsity", type=float, default=0.0)
    p.add_argument("--alpha", type=float, nargs="+", help="explicit mixture proportions")
    p.add_argument("--format", choices=["dense-csv", "sparse-triplet"], default="dense-csv")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a penalized vMF mixture at a fixed beta")
    _add_data_in(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    _add_fit_opts(p)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("path", help="follow the regularization path over beta")
    _add_data_in(p)
    p.add_argument("--k", type=int, required=True)
    _add_fit_opts(p)
    _add_path_opts(p)
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out")
    _add_common(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("select", help="two-stage model selection over K and beta")
    _add_data_in(p)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-criterion", choices=CRITERIA, default="BIC")
    p.add_argument("--beta-criterion", choices=CRITERIA, default="BIC")
    _add_fit_opts(p)
    _add_path_opts(p)
    p.add_argument("--out", required=True)
    p.add_argument("--ic-csv")
    _add_common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("skmeans", help="spherical k-means baseline")
    _add_data_in(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=300)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_skmeans)

    p = sub.add_parser("viz", help="render pixel maps of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="PPM image for the means")
    p.add_argument("--csv-out", help="dimension ordering CSV")
    p.add_argument("--input", help="dataset to render alongside the means")
    p.add_argument("--format", choices=["dense-csv", "sparse-triplet"], default="dense-csv")
    p.add_argument("--data-out", help="PPM image for the data rows")
    p.add_argument("--scale", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("metrics", help="evaluate a model against a ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--input", help="dataset file, enables the ARI")
    p.add_argument("--format", choices=["dense-csv", "sparse-triplet"], default="dense-csv")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _apply_config_file(build_parser().parse_args(argv), argv)
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        args.func(args)
    except (SparseVmfError, OSError) as err:
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except ValueError as err:
        json.dump({"error": "ConfigError", "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
