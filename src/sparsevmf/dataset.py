"""Every file the package reads back (observation matrices, truth and model
files, whose means are sparse [index, value] pairs), and the planted-structure
simulation of sparse vMF mixtures with its Monte Carlo overlap estimates."""

from __future__ import annotations

import json
import math
import reprlib
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import vmf
from .em import KAPPA_MODES, FitResult, FitStatus, MixtureParams, _log_joint, e_step, hard_assign
from .errors import CannotSparsifyError, NotBracketedError, ParseError, ZeroRowError, _check_count
from .special import _check_d

__all__ = [
    "SimulationConfig",
    "GroundTruth",
    "load_matrix",
    "save_matrix",
    "greedy_max_separation",
    "sparsify_means",
    "simulate_mixture",
    "calibrate_overlap",
    "sample_mixture",
    "estimate_overlap",
    "means_to_sparse",
    "means_from_sparse",
    "load_model",
    "ground_truth_to_dict",
    "load_ground_truth",
]

# Relative standard deviation of the Gaussian jitter on each base kappa.
KAPPA_JITTER_SD_FRAC = 0.025
# The greedy separation picks K means out of this many times K uniform
# candidates.
CANDIDATE_MULTIPLIER = 20
# Draws behind each error rate that calibrate_overlap bisects on.
CALIBRATION_SAMPLES = 100_000


@dataclass
class SimulationConfig:
    """K, N >= 1 and d (2 <= d <= 1e5) must be integers, Python or NumPy."""

    K: int
    d: int
    N: int
    overlap_target: float | None = None
    base_kappa: float | None = None
    sparsity: float = 0.0
    alpha: np.ndarray | None = None  # None means balanced 1/K
    seed: int = 0

    def __post_init__(self):
        # Each range test is written so that NaN fails it.
        _check_count("K", self.K, 1)
        _check_count("N", self.N, 1)
        _check_d("SimulationConfig", self.d)
        _check_count("d", self.d, 2)
        if (self.overlap_target is None) == (self.base_kappa is None):
            raise ValueError("exactly one of overlap_target / base_kappa must be given")
        if self.overlap_target is not None and not 0.0 < self.overlap_target < 0.5:
            raise ValueError("overlap_target must be in (0, 0.5)")
        if self.base_kappa is not None and not 0 < self.base_kappa < math.inf:
            raise ValueError(f"base_kappa must be finite and > 0, got {self.base_kappa!r}")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        if self.alpha is not None:
            self.alpha = np.asarray(self.alpha, dtype=float)
            if self.alpha.shape != (self.K,):
                raise ValueError(f"alpha must hold K = {self.K} weights, "
                                 f"got shape {self.alpha.shape}")
            if not (np.all(self.alpha >= 0) and abs(self.alpha.sum() - 1.0) <= 1e-10):
                raise ValueError("alpha must be nonnegative and sum to 1")


@dataclass
class GroundTruth:
    """Planted parameters (after separability rescaling) and labels."""

    params: MixtureParams
    labels: np.ndarray


def _text_lines(path):
    """(line number, stripped text) of each non-blank line of a UTF-8 file.
    A line that is not UTF-8 raises ParseError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            try:
                line.encode()  # an undecodable byte came in as a lone surrogate
            except UnicodeEncodeError:
                raise ParseError("not UTF-8 text", line=lineno) from None
            if line:
                yield lineno, line


def _scan_dense_csv(path):
    """Line-by-line dense-CSV parse: the authority on what is accepted and on
    which ParseError (message and line) a malformed file raises."""
    rows = []
    linenos = []
    for lineno, line in _text_lines(path):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            if lineno == 1:
                continue  # header line
            raise ParseError(f"non-numeric value in {line!r}", line=lineno)
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise ParseError("empty file")
    d = len(rows[0])
    for lineno, row in zip(linenos, rows):
        if len(row) != d:
            raise ParseError(f"expected {d} columns, got {len(row)}", line=lineno)
    X = np.array(rows)
    bad = np.nonzero(~np.isfinite(X).all(axis=1))[0]
    if bad.size:
        raise ParseError("non-finite value", line=linenos[bad[0]])
    return X


def _parse_dense_csv(path):
    """Bulk dense-CSV parse with NumPy's C tokenizer.

    loadtxt is stricter than float() (it rejects 1_0, non-ASCII digits and
    lines of only whitespace), so a file it reads with finite values parses
    to the same bits as the scan. Anything else (a rejected or empty file, a
    non-finite value, a header line) goes to _scan_dense_csv for the verdict."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            X = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return _scan_dense_csv(path)
    if not X.size or not np.isfinite(X).all():
        return _scan_dense_csv(path)
    return X


def _parse_sparse_triplet(path):
    entries = []
    shape = None
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "shape":
                try:
                    shape = (int(parts[1]), int(parts[2]))
                    if min(shape) < 1:
                        raise ValueError
                except (IndexError, ValueError):
                    raise ParseError(f"malformed shape comment {line!r}", line=lineno)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'row col value', got {line!r}", line=lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"malformed triplet {line!r}", line=lineno)
        if min(i, j) < 0:
            raise ParseError(f"negative index ({i}, {j})", line=lineno)
        entries.append((lineno, i, j, v))
    if not entries and shape is None:
        raise ParseError("empty file")
    if shape is None:
        shape = (max(e[1] for e in entries) + 1, max(e[2] for e in entries) + 1)
    seen = set()
    for lineno, i, j, v in entries:
        if i >= shape[0] or j >= shape[1] or (i, j) in seen:
            raise ParseError(f"index ({i}, {j}) repeated or outside shape {shape}", line=lineno)
        if not math.isfinite(v):
            raise ParseError("non-finite value", line=lineno)
        seen.add((i, j))
    try:
        X = np.zeros(shape)
    except (MemoryError, ValueError):  # ValueError: more bytes than NumPy can address
        raise ParseError(f"a matrix of shape {shape} does not fit in memory") from None
    for _, i, j, v in entries:
        X[i, j] = v
    return X


def load_matrix(path, format: str = "dense-csv") -> np.ndarray:
    """Load a dense CSV or sparse triplet matrix and normalise its rows to
    unit norm (zero rows are rejected with their indices).

    Malformed content (non-UTF-8 text, nan or inf values, a triplet index
    repeated or outside the matrix) raises ParseError with the file line number,
    and so, without one, does a triplet matrix too big to allocate."""
    if format == "dense-csv":
        X = _parse_dense_csv(path)
    elif format == "sparse-triplet":
        X = _parse_sparse_triplet(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    norms = np.linalg.norm(X, axis=1)
    zero_rows = np.nonzero(norms == 0)[0]
    if zero_rows.size:
        raise ZeroRowError(zero_rows.tolist())
    X /= norms[:, None]
    return X


def save_matrix(X: np.ndarray, path, format: str = "dense-csv") -> None:
    X = np.asarray(X, dtype=float)
    if format == "dense-csv":
        # Row by row: shortest round-trip decimals, no whole-file buffer.
        with open(path, "w") as fh:
            for row in X:
                fh.write(",".join(map(repr, row.tolist())) + "\n")
    elif format == "sparse-triplet":
        with open(path, "w") as fh:
            fh.write(f"#shape {X.shape[0]} {X.shape[1]}\n")
            for i, j in zip(*np.nonzero(X)):
                fh.write(f"{i} {j} {float(X[i, j])!r}\n")
    else:
        raise ValueError(f"unknown format {format!r}")


def greedy_max_separation(candidates: np.ndarray, K: int) -> np.ndarray:
    """Pick K vectors with small pairwise inner products: start from the
    candidate pair with the smallest inner product, then repeatedly add the
    candidate whose worst (largest) inner product with the selection is
    smallest. Ties break to the lowest candidate index."""
    candidates = np.asarray(candidates, dtype=float)
    m = candidates.shape[0]
    _check_count("K", K, 1)
    if m < K:
        raise ValueError(f"need at least K={K} candidates, got {m}")
    if K == m:
        return candidates.copy()
    gram = candidates @ candidates.T
    if K == 1:
        return candidates[:1].copy()
    mask = ~np.tri(m, dtype=bool)
    flat = np.where(mask, gram, np.inf)
    i, j = np.unravel_index(np.argmin(flat), flat.shape)
    chosen = [int(i), int(j)]
    while len(chosen) < K:
        remaining = [c for c in range(m) if c not in chosen]
        worst = gram[np.ix_(remaining, chosen)].max(axis=1)
        chosen.append(remaining[int(np.argmin(worst))])
    return candidates[chosen].copy()


def sparsify_means(means: np.ndarray, sparsity: float, rng: np.random.Generator) -> np.ndarray:
    """Zero out floor(sparsity*d) random coordinates per mean and renormalise.

    Retries with fresh coordinate subsets until the means are all nonzero and
    pairwise distinct; raises CannotSparsifyError after 100 tries."""
    means = np.asarray(means, dtype=float)
    K, d = means.shape
    n_zero = int(np.floor(sparsity * d))
    if n_zero >= d:
        raise CannotSparsifyError("sparsity would zero every coordinate")
    for _ in range(100):
        out = means.copy()
        for k in range(K):
            zeros = rng.choice(d, size=n_zero, replace=False)
            out[k, zeros] = 0.0
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms < 1e-12):
            continue
        out /= norms[:, None]
        distinct = all(
            not np.array_equal(out[a], out[b]) for a in range(K) for b in range(a + 1, K)
        )
        if distinct:
            return out
    raise CannotSparsifyError("no valid sparsification after 100 tries")


def sample_mixture(params: MixtureParams, n: int, rng: np.random.Generator):
    """Draw n labeled observations from the mixture; n must be an integer >= 0."""
    _check_count("n", n, 0)
    labels = rng.choice(params.K, size=n, p=params.alpha)
    X = np.empty((n, params.d))
    for k in range(params.K):
        idx = np.nonzero(labels == k)[0]
        if idx.size:
            # n by keyword: perfbench's tracer reads the row count by name.
            X[idx] = vmf.sample(params.means[k], params.kappas[k], n=idx.size, rng=rng)
    return X, labels


def estimate_overlap(truth: MixtureParams, n_samples: int,
                     rng: np.random.Generator) -> float:
    """Misclassification rate of crisp assignment under the true parameters,
    estimated on n_samples fresh draws from the mixture."""
    _check_count("n_samples", n_samples, 1)
    X, labels = sample_mixture(truth, n_samples, rng)
    pred = hard_assign(e_step(X, truth))
    return float(np.mean(pred != labels))


def _rescale_for_separability(means: np.ndarray, kappas: np.ndarray) -> np.ndarray:
    """kappa'_k = 2 kappa_k / (1 - max_{l != k} <mu_k, mu_l>), the max taken
    as -1 when there is no other component, so K = 1 keeps its kappa."""
    gram = means @ means.T
    np.fill_diagonal(gram, -np.inf)
    cross = gram.max(axis=1, initial=-1.0)
    return 2.0 * kappas / (1.0 - cross)


def _build_truth_params(means, kappas, alpha):
    """The planted MixtureParams: kappas rescaled for separability, capped."""
    kappas = np.minimum(_rescale_for_separability(means, kappas), vmf.KAPPA_CAP)
    return MixtureParams(alpha=alpha, means=means, kappas=kappas, kappa_mode="free")


def _reduced_overlap(means: np.ndarray, alpha: np.ndarray, n_samples: int,
                     rng: np.random.Generator):
    """The estimate_overlap error rate as a function of MixtureParams with
    these means and alpha, drawn exactly in at most K+1 dimensions.

    Crisp assignment sees a draw x of component k only through <x, mu_l>.
    With x = t mu_k + sqrt(1 - t^2) v and v uniform on the unit sphere of
    mu_k's complement, <v, mu_l> needs v only in the part of span(means)
    orthogonal to mu_k (r = min(K, d) - 1 dimensions): v's coordinates there
    are z / |g|, with z ~ N(0, I_r) and |g|^2 = |z|^2 + chi^2_{d-1-r}.
    Label counts, z and the chi^2 draws do not depend on kappa, and neither
    do Wood's proposals for t, so every call reuses them (common random
    numbers). Each component keeps its draws as one K x n_k block and a
    pool of proposals; a call takes the first n_k proposals accepted at its
    kappa, which are exact i.i.d. draws of t, and draws more proposals only
    when the pool runs short. A call costs O(n K)."""
    K, d = means.shape
    counts = np.bincount(rng.choice(K, size=n_samples, p=alpha), minlength=K)
    # Coordinates of the means in an orthonormal basis of a subspace that
    # holds them all: means = u diag(sv) vt, so means @ vt.T = u * sv.
    u, sv, _ = np.linalg.svd(means, full_matrices=False)
    coords = u * sv
    r = coords.shape[1] - 1
    gram = means @ means.T
    tangents = []
    for k, n_k in enumerate(counts):
        # Householder: the last r columns span the complement of mu_k there.
        perp = np.linalg.qr(coords[k][:, None], mode="complete")[0][:, 1:]
        z = rng.standard_normal((n_k, r))
        rest = rng.chisquare(d - 1 - r, n_k) if d - 1 > r else 0.0
        norm = np.sqrt(np.einsum("ij,ij->i", z, z) + rest)
        tangents.append(((z @ (perp.T @ coords.T)) / norm[:, None]).T)
    pools = [vmf._wood_proposals(d, n_k, rng) for n_k in counts]

    def error(params: MixtureParams) -> float:
        wrong = 0
        for k, n_k in enumerate(counts):
            w, accept = vmf._wood_accept(params.kappas[k], d, *pools[k])
            while (short := n_k - np.count_nonzero(accept)) > 0:
                more = vmf._wood_proposals(d, max(short, n_k // 4), rng)
                pools[k] = tuple(np.concatenate(pair) for pair in zip(pools[k], more))
                w, accept = vmf._wood_accept(params.kappas[k], d, *pools[k])
            t = w[accept][:n_k]
            # K x n_k inner products. A draw is misassigned when the argmax down
            # the components, ties to the lowest, is not k: an earlier row
            # reaches row k or a later row exceeds it.
            inner = t * gram[k][:, None] + np.sqrt(np.maximum(1.0 - t * t, 0.0)) * tangents[k]
            lj = _log_joint(inner, params)
            wrong += int(np.count_nonzero((lj[:k] >= lj[k]).any(axis=0)
                                          | (lj[k + 1:] > lj[k]).any(axis=0)))
        return wrong / n_samples

    return error


def calibrate_overlap(means: np.ndarray, target: float, alpha: np.ndarray,
                      rng: np.random.Generator) -> float:
    """Find a base kappa whose mixture (jitter off, separability rescaling on)
    has a crisp-assignment error rate close to target, by bisection.

    The error rate is estimated on CALIBRATION_SAMPLES draws whose kappa-free
    parts, Wood's proposals included, are shared by every bisection step
    (_reduced_overlap). Stops when
    |error - target| < 0.1*target or after 40 bisections. Raises
    NotBracketedError when the target is unreachable in [0.01, 1e4]."""
    if not 0.0 < target < 0.5:
        raise ValueError("target must be in (0, 0.5)")
    error = _reduced_overlap(means, alpha, CALIBRATION_SAMPLES, rng)

    def error_at(base_kappa):
        return error(_build_truth_params(means, np.full(len(means), base_kappa), alpha))

    lo, hi = 0.01, 1e4
    err_lo = error_at(lo)
    err_hi = error_at(hi)
    # Error decreases with kappa: need err_lo >= target >= err_hi.
    if err_lo < target or err_hi > target:
        raise NotBracketedError(
            f"target {target} outside reachable range [{err_hi:.4f}, {err_lo:.4f}]"
        )
    for _ in range(40):
        # Geometric midpoint: kappa acts on a multiplicative scale.
        kappa = float(np.sqrt(lo * hi))
        err = error_at(kappa)
        if abs(err - target) < 0.1 * target:
            return kappa
        if err > target:
            lo = kappa
        else:
            hi = kappa
    return kappa


def simulate_mixture(cfg: SimulationConfig) -> tuple[np.ndarray, GroundTruth]:
    """Generate a planted sparse vMF mixture, seeded by cfg.seed: the N x d
    observations and the ground truth.

    Steps: uniform candidates, greedy separation, sparsification, base-kappa
    resolution (given or calibrated), per-component Gaussian jitter truncated
    at 0, separability rescaling, then sampling."""
    rng = np.random.default_rng(cfg.seed)
    g = rng.standard_normal((CANDIDATE_MULTIPLIER * cfg.K, cfg.d))
    candidates = g / np.linalg.norm(g, axis=1, keepdims=True)
    means = greedy_max_separation(candidates, cfg.K)
    means = sparsify_means(means, cfg.sparsity, rng)
    alpha = cfg.alpha if cfg.alpha is not None else np.full(cfg.K, 1.0 / cfg.K)
    if cfg.base_kappa is not None:
        base_kappa = cfg.base_kappa
    else:
        base_kappa = calibrate_overlap(means, cfg.overlap_target, alpha, rng)
    kappas = np.empty(cfg.K)
    for k in range(cfg.K):
        while True:  # truncate the jitter at 0
            kappas[k] = rng.normal(base_kappa, KAPPA_JITTER_SD_FRAC * base_kappa)
            if kappas[k] > 0:
                break
    params = _build_truth_params(means, kappas, alpha)
    X, labels = sample_mixture(params, cfg.N, rng)
    return X, GroundTruth(params=params, labels=labels)


def means_to_sparse(means: np.ndarray) -> list:
    """Per mean, the [index, value] pairs of its nonzero coordinates."""
    return [[[int(j), float(row[j])] for j in np.nonzero(row)[0]] for row in means]


def means_from_sparse(entries: list, d: int) -> np.ndarray:
    """Inverse of means_to_sparse: a dense len(entries) x d matrix. A d outside
    the vMF domain or an index that is negative, repeated or >= d raises ValueError."""
    _check_d("means_from_sparse", d)  # before the K x d allocation
    means = np.zeros((len(entries), d))
    for k, row in enumerate(entries):
        seen = set()
        for j, v in row:
            if not 0 <= j < d or j in seen:
                raise ValueError(f"mean {k}: index {j} is negative or repeated, or >= d = {d}")
            seen.add(j)
            means[k, j] = v
    return means


def _check_json(value, kind, where: str) -> None:
    """Raise ValueError, naming the path where, unless the JSON value has kind: int,
    float (finite), a set of strings, [t] (a list of t; [] any list) or (int, float) (a pair)."""
    if type(kind) is set:
        ok, want = type(value) is str and value in kind, f"one of {sorted(kind)}"
    elif type(kind) is list or type(kind) is tuple:
        ok = type(value) is list and (type(kind) is list or len(value) == len(kind))
        want = "a list" if type(kind) is list else "an [index, value] pair"
    else:  # type(), not isinstance: bool is an int. nan, inf and huge ints fail abs().
        ok = type(value) in (kind, int) and (kind is int or abs(value) <= sys.float_info.max)
        want = "an integer" if kind is int else "a finite number"
    if not ok:
        raise ValueError(f"{where} must be {want}, got {reprlib.repr(value)}")
    if type(kind) is list or type(kind) is tuple:
        kinds = kind * len(value) if type(kind) is list else kind
        for i, (item, item_kind) in enumerate(zip(value, kinds)):
            # An int or a finite float passes inline, at a third of a call's cost.
            if type(item) is not item_kind or item_kind is float and not abs(item) < np.inf:
                _check_json(item, item_kind, f"{where}[{i}]")


def _read_json_doc(path, kind: str, fields: dict, from_dict):
    """from_dict of the JSON object in the file at path, once the keys fields
    names have their kinds (others are ignored). Text not UTF-8 or not JSON (with
    its line), a non-object, a missing key and a ValueError raise ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError("not UTF-8 text", line=raw.count(b"\n", 0, err.start) + 1) from None
    except json.JSONDecodeError as err:
        raise ParseError(f"not JSON: {err.msg}", line=err.lineno) from None
    except RecursionError:
        raise ParseError("not JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"not a {kind} file: not a JSON object")
    try:
        for key, t in fields.items():
            _check_json(doc[key], t[doc["kappa_mode"]] if type(t) is dict else t, key)
        return from_dict(doc)
    except KeyError as err:
        raise ParseError(f"not a {kind} file: no {err.args[0]!r} key") from None
    except ValueError as err:
        raise ParseError(f"not a {kind} file: {err}") from None


def _params_from_doc(doc: dict, key: str, K: int, kappas, kappa_mode: str,
                     mismatch: str) -> MixtureParams:
    """MixtureParams of the sparse means doc[key] of a model or truth doc: counted against
    K (else ValueError(mismatch.format(K=K, n=count))), then checked pair by pair, then built."""
    entries = doc[key]
    if len(entries) != K:
        raise ValueError(mismatch.format(K=K, n=len(entries)))
    _check_json(entries, [[(int, float)]], key)
    return MixtureParams(alpha=np.array(doc["alpha"]), means=means_from_sparse(entries, doc["d"]),
                         kappas=kappas, kappa_mode=kappa_mode)


def fit_result_to_dict(fit: FitResult) -> dict:
    p = fit.params
    kappa = float(p.kappas[0]) if p.kappa_mode == "shared" else [float(v) for v in p.kappas]
    return {
        "K": p.K,
        "d": p.d,
        "kappa_mode": p.kappa_mode,
        "alpha": [float(a) for a in p.alpha],
        "kappa": kappa,
        "means": means_to_sparse(p.means),
        "beta": fit.beta,
        "log_likelihood": fit.log_likelihood,
        "penalized_log_likelihood": fit.penalized_log_likelihood,
        "status": fit.status.value,
        "n_iters": fit.n_iters,
    }


def fit_result_from_dict(doc: dict) -> FitResult:
    """Inverse of fit_result_to_dict, for a doc that matches _MODEL_FIELDS. A K
    that disagrees with the arrays or a negative beta or n_iters raises ValueError."""
    kappas = [doc["kappa"]] * len(doc["alpha"]) if doc["kappa_mode"] == "shared" else doc["kappa"]
    params = _params_from_doc(doc, "means", doc["K"], kappas, doc["kappa_mode"],
                              "K = {K}, but the arrays hold {n} components")
    for key in ("beta", "n_iters"):
        if doc[key] < 0:
            raise ValueError(f"{key} must be >= 0, got {doc[key]!r}")
    return FitResult(
        params=params,
        beta=doc["beta"],
        log_likelihood=doc["log_likelihood"],
        penalized_log_likelihood=doc["penalized_log_likelihood"],
        n_iters=doc["n_iters"],
        status=FitStatus(doc["status"]),
    )


# The JSON kind of each model file key (see _check_json), in missing-key order;
# kappa's is picked by kappa_mode: K numbers in free mode, one in shared mode.
# means is any list here: _params_from_doc checks its pairs once counted.
_MODEL_FIELDS = {
    "d": int, "kappa_mode": set(KAPPA_MODES), "kappa": {"free": [float], "shared": float},
    "alpha": [float], "means": [], "K": int, "beta": float,
    "log_likelihood": float, "penalized_log_likelihood": float, "n_iters": int,
    "status": {s.value for s in FitStatus},
}


def load_model(path) -> FitResult:
    """Read a fit_result_to_dict file; malformed content raises ParseError."""
    return _read_json_doc(path, "model", _MODEL_FIELDS, fit_result_from_dict)


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    p = truth.params
    return {
        "alpha": [float(a) for a in p.alpha],
        "kappa": [float(v) for v in p.kappas],
        "mu": means_to_sparse(p.means),
        "d": p.d,
        "labels": [int(v) for v in truth.labels],
    }


def _ground_truth_from_dict(doc: dict) -> GroundTruth:
    params = _params_from_doc(doc, "mu", len(doc["alpha"]), doc["kappa"], "free",
                              "alpha holds {K} weights, but mu {n} means")
    # Over the Python ints: a huge label is out of range, not an OverflowError.
    if min(doc["labels"], default=0) < 0 or max(doc["labels"], default=0) >= params.K:
        raise ValueError(f"labels must be a list of integers in [0, {params.K})")
    return GroundTruth(params=params, labels=np.array(doc["labels"], dtype=int))


# The JSON kind of each truth file key (see _check_json), in missing-key order;
# mu is any list here: _params_from_doc checks its pairs once counted.
_TRUTH_FIELDS = {"alpha": [float], "mu": [], "d": int, "kappa": [float], "labels": [int]}


def load_ground_truth(path) -> GroundTruth:
    """Read a ground_truth_to_dict file; malformed content raises ParseError."""
    return _read_json_doc(path, "truth", _TRUTH_FIELDS, _ground_truth_from_dict)
