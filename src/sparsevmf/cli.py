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
from .errors import SparseVmfError
from .path import PathOptions, follow_path, path_to_dict, save_path
from .selection import CRITERIA, make_ic_fn


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


class _ConfigParser(argparse.ArgumentParser):
    """Reports a bad config value as a ConfigError (exit 2), not as usage."""

    def error(self, message):
        raise ValueError(f"config file: {message}")


def _apply_config_file(parser, args, argv):
    """Merge a config file (JSON object or key=value lines) below the flags.

    Each entry becomes its flag, placed before the command line's own, and
    the whole is parsed again: values get their flag's conversion and checks,
    and flags, abbreviated too, win. Unknown keys are rejected."""
    if not args.config:
        return args
    with open(args.config) as fh:
        text = fh.read()
    try:
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValueError("config file must hold a JSON object")
    except json.JSONDecodeError:
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                parser.error(f"config file: expected key=value, got {line!r}")
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
            parser.error(f"config file: unknown key {key!r}")
        flag = "--" + dest.replace("_", "-")
        tokens += [flag, *map(str, val)] if isinstance(val, list) else [f"{flag}={val}"]
    at = argv.index(args.command) + 1
    return build_parser(_ConfigParser).parse_args(argv[:at] + tokens + argv[at:])


def _load_dataset(args) -> np.ndarray:
    return dataset.load_matrix(args.input, format=args.format, normalize=True)


def cmd_simulate(args) -> int:
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
    return 0


def cmd_fit(args) -> int:
    X = _load_dataset(args)
    opts = FitOptions(beta=args.beta, max_em_iters=args.max_em_iters,
                      em_tol=args.em_tol, kappa_mode=args.kappa_mode)
    fit = selection.best_of_restarts(X, args.k, args.restarts, opts, seed=args.seed)
    doc = em.fit_result_to_dict(fit, seed=args.seed)
    doc["run"] = _run_meta(args)
    _write_json(args.out, doc)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write("iteration,penalized_log_likelihood\n")
            for i, v in enumerate(fit.trace):
                fh.write(f"{i},{v!r}\n")
    return 0


def _path_options(args) -> PathOptions:
    fit_opts = FitOptions(max_em_iters=args.max_em_iters, em_tol=args.em_tol,
                          kappa_mode=args.kappa_mode)
    return PathOptions(max_steps=args.max_steps, epsilon=args.epsilon,
                       min_rel_increase=args.min_rel_increase,
                       fit_options=fit_opts)


def cmd_path(args) -> int:
    X = _load_dataset(args)
    path_opts = _path_options(args)
    dense = selection.best_of_restarts(X, args.k, args.restarts,
                                       path_opts.fit_options, seed=args.seed)
    result = follow_path(X, args.k, path_opts, dense, ic_fn=make_ic_fn(*X.shape))
    doc = path_to_dict(result)
    doc["run"] = _run_meta(args)
    _write_json(args.out, doc)
    if args.csv_out:
        save_path(result, csv_path=args.csv_out)
    return 0


def cmd_select(args) -> int:
    X = _load_dataset(args)
    path_opts = _path_options(args)
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
        "final_model": em.fit_result_to_dict(report.final_model, seed=args.seed),
    }
    _write_json(args.out, doc)
    if args.ic_csv:
        with open(args.ic_csv, "w") as fh:
            fh.write("K," + ",".join(CRITERIA) + "\n")
            for k, row in sorted(report.dense_ic.items()):
                fh.write(str(k) + "," + ",".join(repr(row[c]) for c in CRITERIA) + "\n")
    return 0


def cmd_skmeans(args) -> int:
    X = _load_dataset(args)
    rng = np.random.default_rng(args.seed)
    result = skmeans.skmeans_fit(X, args.k, max_iters=args.max_iters, rng=rng)
    doc = {
        "run": _run_meta(args),
        "K": args.k,
        "prototypes": em.means_to_sparse(result.prototypes),
        "labels": result.labels.tolist(),
        "coherence": result.coherence,
        "n_iters": result.n_iters,
        "converged": result.converged,
    }
    _write_json(args.out, doc)
    return 0


def cmd_viz(args) -> int:
    fit = em.load_model(args.model)
    ordering = viz.order_dimensions(fit.params, epsilon=args.epsilon)
    row_perm = viz.order_rows(fit.params)
    viz.render_pixel_map(fit.params.means, ordering, row_perm, args.out,
                         mode="means", scale=args.scale)
    if args.csv_out:
        viz.save_ordering_csv(ordering, args.csv_out)
    if args.input and args.data_out:
        X = _load_dataset(args)
        labels = em.hard_assign(em.e_step(X, fit.params))
        data_perm = viz.data_row_order(labels, row_perm)
        viz.render_pixel_map(X, ordering, data_perm, args.data_out,
                             mode="data", scale=args.scale)
    return 0


def cmd_metrics(args) -> int:
    fit = em.load_model(args.model)
    truth = dataset.load_ground_truth(args.truth)
    record = {"run": _run_meta(args), "sparsity": metrics.sparsity(fit.params)}
    if args.input:
        X = _load_dataset(args)
        pred = em.hard_assign(em.e_step(X, fit.params))
        record["ari"] = metrics.adjusted_rand_index(truth.labels, pred)
    if fit.params.K == truth.params.K:
        precision, recall, meta = metrics.support_precision_recall(fit.params, truth)
        record["support_precision"] = precision
        record["support_recall"] = recall
        record["support_matching"] = meta
    _write_json(args.out, record)
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON or key=value config file (flags take precedence)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker bound; results do not depend on it")


def _add_data_in(p):
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--format", choices=["dense-csv", "sparse-triplet"], default="dense-csv")


def _add_fit_opts(p):
    p.add_argument("--kappa-mode", choices=["free", "shared"], default="free")
    p.add_argument("--max-em-iters", type=int, default=500)
    p.add_argument("--em-tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=10)


def _add_path_opts(p):
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--min-rel-increase", type=float, default=0.0)


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
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
    p.add_argument("--epsilon", type=float, default=1e-8)
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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, args, argv)
        if args.command == "simulate" and (args.overlap is None) == (args.base_kappa is None):
            parser.error("exactly one of --overlap / --base-kappa is required")
        return args.func(args)
    except (SparseVmfError, OSError) as err:
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except ValueError as err:
        json.dump({"error": "ConfigError", "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
