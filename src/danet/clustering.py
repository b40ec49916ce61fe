"""Inference-time clustering: k-means (Lloyd, ++ seeding) and full-covariance
GMM fitted by MAP-EM, its covariances shrunk towards the pooled k-means
covariance. Cluster centers become the attractors at test time."""

from dataclasses import dataclass, field

import numpy as np

ALGOS = ("kmeans", "gmm")  # the names cluster_attractors accepts
KMEANS_RESTARTS = 5
EM_TOL = 1e-6
EM_MAX_ITER = 100
LL_SLACK = 1e-9


@dataclass
class KMeansResult:
    centers: np.ndarray          # (k, dim)
    assignments: np.ndarray      # (n_points,)
    inertia: float
    inertia_history: list[float] = field(default_factory=list)


@dataclass
class GmmModel:
    weights: np.ndarray          # (k,) on the simplex
    means: np.ndarray            # (k, dim)
    covariances: np.ndarray      # (k, dim, dim) symmetric positive-definite
    log_likelihood: float        # mean per-point log-likelihood at convergence
    ll_history: list[float] = field(default_factory=list)  # EM objective per iteration
    converged: bool = False      # EM stopped on a gain below tol, not at max_iter


def _squared_distances(points: np.ndarray, centers: np.ndarray, point_sq: np.ndarray,
                       out: np.ndarray | None = None,
                       product: np.ndarray | None = None) -> np.ndarray:
    """Squared distances (n, k) from every point to every center, floored at 0.

    point_sq is np.sum(points * points, axis=1), computed once per fit.
    Scaling the (n, k) product by 2 rather than the points is exact for
    normal floats and makes no (n, dim) temporary. `out` and `product`,
    C-ordered (n, k) buffers, take the distances and the GEMM when given.
    Each column of `out` is assembled on its own, so the loop runs over n
    and not over k.
    """
    product = np.matmul(points, centers.T, out=product)
    product *= 2.0
    center_sq = np.sum(centers * centers, axis=1)
    if out is None:
        out = np.empty(product.shape)
    for c in range(centers.shape[0]):
        np.add(point_sq, center_sq[c], out=out[:, c])
    out -= product
    return np.maximum(out, 0.0, out=out)


def _kmeans_pp_seed(points: np.ndarray, k: int, rng: np.random.Generator,
                    point_sq: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _squared_distances(points, centers[:1], point_sq).ravel()
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = points[rng.integers(n)]
        else:
            centers[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _squared_distances(points, centers[c:c + 1], point_sq).ravel())
    return centers


def _reseed_empty(labels: np.ndarray, own_d2: np.ndarray, k: int) -> None:
    """Give each empty cluster its own point, farthest-from-its-center first,
    taken only from clusters that keep at least one member (needs n >= k)."""
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return
    donors = iter(np.argsort(-own_d2, kind="stable"))
    for c in empty:
        far = next(i for i in donors if counts[labels[i]] > 1)
        counts[labels[far]] -= 1
        labels[far] = c
        counts[c] = 1


def _nearest(d2: np.ndarray, labels: np.ndarray, own: np.ndarray,
             closer: np.ndarray) -> None:
    """Write each row's argmin of d2 into labels and its minimum into own.

    One strict-< pass per column, over all n rows: a tie keeps the earlier
    column, which is np.argmin's first-minimum rule. closer is an (n,) bool
    buffer. The distances are finite, so np.minimum takes the same values.
    """
    labels.fill(0)
    own[...] = d2[:, 0]
    for c in range(1, d2.shape[1]):
        np.less(d2[:, c], own, out=closer)
        np.copyto(labels, c, where=closer)
        np.minimum(own, d2[:, c], out=own)


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int, tol: float,
           point_sq: np.ndarray | None = None):
    """Lloyd iterations until no center moves more than tol (or max_iter).

    An iteration costs one distance GEMM, a strict-< argmin over the k
    columns (`_nearest`, which also gives the own distances that
    `_reseed_empty` needs), one bincount and one GEMM for the means. The
    fit allocates its buffers once; each is C-ordered like the temporary it
    replaces, so both GEMMs sum in the same order. An iteration's history
    entry comes from the per-cluster statistics,
    sum ||x||^2 - sum_c n_c ||mu_c||^2 clamped at 0. The GEMM may sum in
    another order than a mean does, and the statistics lose digits when
    the points sit far from the origin, so the returned centers and inertia
    (also the last history entry) are recomputed once from the final labels
    as plain means and a plain sum: restarts compare exact inertias.
    """
    if point_sq is None:
        point_sq = np.sum(points * points, axis=1)
    total_sq = float(point_sq.sum())
    n, k = points.shape[0], centers.shape[0]
    d2, product, one_hot = np.empty((n, k)), np.empty((n, k)), np.empty((n, k))
    labels, own, closer = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=bool)
    history = []
    for _ in range(max_iter):
        _squared_distances(points, centers, point_sq, d2, product)
        _nearest(d2, labels, own, closer)
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            _reseed_empty(labels, own, k)
            counts = np.bincount(labels, minlength=k)
        for c in range(k):
            np.equal(labels, c, out=one_hot[:, c])
        new_centers = one_hot.T @ points / counts[:, None]
        history.append(max(total_sq - float(counts @ np.sum(new_centers ** 2, axis=1)), 0.0))
        converged = np.max(np.abs(new_centers - centers)) <= tol
        centers = new_centers
        if converged:
            break
    centers = np.stack([points[labels == c].mean(axis=0) for c in range(k)])
    residual = points - centers[labels]
    history[-1] = float(np.sum(np.square(residual, out=residual)))
    return centers, labels, history[-1], history


def _as_points(points) -> np.ndarray:
    """The points as a float64 (n, dim) array, checked to be finite."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, dim), got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (found NaN or inf)")
    return points


def kmeans(points: np.ndarray, k: int, max_iter: int = 100, tol: float = 1e-10,
           restarts: int = KMEANS_RESTARTS, seed: int = 0) -> KMeansResult:
    """Best-of-restarts Lloyd iterations from k-means++ seeding."""
    points = _as_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n_points, got k={k}, n_points={n}")
    for name, value in (("restarts", restarts), ("max_iter", max_iter)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")

    point_sq = np.sum(points * points, axis=1)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers0 = _kmeans_pp_seed(points, k, rng, point_sq)
        centers, labels, inertia, history = _lloyd(points, centers0, max_iter, tol, point_sq)
        if best is None or inertia < best.inertia:
            best = KMeansResult(centers, labels, inertia, history)
    return best


def _centred(points: np.ndarray, means: np.ndarray, work: dict) -> np.ndarray:
    """points.T - means[:, :, None], (k, dim, n), kept in work["centred"]. A
    second call with the same means object (the M-step's means reaching the
    next E-step) returns the stored values without recomputing them."""
    if work.get("centred_of") is not means:
        work["centred"] = np.subtract(points.T, means[:, :, None], out=work.get("centred"))
        work["centred_of"] = means
    return work["centred"]


def _e_step(points: np.ndarray, model: GmmModel, work: dict | None = None):
    """Log responsibilities (n, k) and per-point log-likelihoods (n,), plus
    inv(L) and log det cov from the one Cholesky factor L of each covariance
    (stacked over components), which the prior's terms reuse.

    work holds the buffers of one EM fit by name (see `gmm_fit`); the
    returned log responsibilities and log-likelihoods live in two of them
    until the next E-step. Without work every buffer is fresh.
    """
    work = {} if work is None else work
    chol = np.linalg.cholesky(model.covariances)
    inv_chol = np.linalg.inv(chol)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    z = work["z"] = np.matmul(inv_chol, _centred(points, model.means, work), out=work.get("z"))
    # log w - 0.5 * |z|^2 - 0.5 * (dim log 2 pi + log det), in that order.
    log_dens = work["log_dens"] = np.einsum("kdn,kdn->nk", z, z, out=work.get("log_dens"))
    log_dens *= 0.5
    np.subtract(np.log(model.weights), log_dens, out=log_dens)
    log_dens -= 0.5 * (points.shape[1] * np.log(2.0 * np.pi) + logdet)
    top = work["top"] = np.max(log_dens, axis=1, out=work.get("top"))
    shifted = work["shifted"] = np.subtract(log_dens, top[:, None], out=work.get("shifted"))
    lse = work["lse"] = np.sum(np.exp(shifted, out=shifted), axis=1, out=work.get("lse"))
    np.log(lse, out=lse)
    lse += top
    log_dens -= lse[:, None]
    return log_dens, lse, inv_chol, logdet


def _moments(points: np.ndarray, resp: np.ndarray, work: dict | None = None):
    """Mass (k,), means (k, dim) and symmetrised scatter matrices (k, dim, dim)
    of the points weighted by each column of resp, with `_e_step`'s work."""
    work = {} if work is None else work
    mass = resp.sum(axis=0) + 1e-300
    means = (resp.T @ points) / mass[:, None]
    centred = _centred(points, means, work)
    weighted = work["weighted"] = np.multiply(centred, resp.T[:, None, :],
                                              out=work.get("weighted"))
    scatter = weighted @ centred.transpose(0, 2, 1)
    return mass, means, 0.5 * (scatter + scatter.transpose(0, 2, 1))


def default_regularization(points: np.ndarray) -> float:
    """1e-6 of the average global variance per dimension, floored to stay positive."""
    global_cov_trace = float(np.sum(np.var(points, axis=0)))
    return max(1e-6 * global_cov_trace / points.shape[1], 1e-10)


def gmm_fit(points: np.ndarray, k: int, max_iter: int = EM_MAX_ITER,
            tol: float = EM_TOL, reg: float | None = None,
            seed: int = 0) -> GmmModel:
    """MAP-EM with one full covariance matrix per component.

    Initialized from a k-means run. Each covariance carries a conjugate
    (inverse-Wishart-like) prior,
        log p(cov) = -strength / 2 * (log det cov + tr(inv(cov) @ scale)) + const,
    with strength an even share n / k of the points and scale the pooled
    within-cluster covariance of the k-means run plus 2 * reg * I (reg
    defaults to `default_regularization`). A component holding an even share
    thus gets the mean of its sample covariance and the pooled one, plus
    reg * I: every covariance stays positive-definite and no component can
    widen to take in a speaker together with the diffuse low-energy bins.
    The M-step, (scatter + strength * scale) / (mass + strength), is the
    exact maximiser, for the k-means partition and every E-step alike. EM
    maximises the mean log-likelihood minus the per-point prior penalty;
    `ll_history` records that objective at every iteration, EM stops when
    its gain drops below tol, and it is checked to be non-decreasing (1e-9
    slack). `log_likelihood` is the plain mean log-likelihood of the final
    model. `converged` is True when EM stopped because its gain fell below
    tol, and False when it stopped at max_iter.

    The loop runs in one workspace per fit, a dict of the (k, dim, n) and
    (n, k) arrays of `_e_step` and `_moments`. The first step that needs a
    buffer makes it with the expression an allocating step evaluates
    (`out=None`), and later steps write into it with `out=`. It so keeps
    that temporary's layout, from which OpenBLAS and numpy's reductions
    choose their summation order: the fit is bit-identical to allocating
    steps, for C- and F-ordered points. The M-step's centred points serve
    the next E-step, whose means are the same array. The k-means
    partition's moments stay outside the workspace: its one-hot
    responsibilities are C-ordered, the E-step's F-ordered.
    """
    points = _as_points(points)
    n, dim = points.shape
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    if reg is None:
        reg = default_regularization(points)
    if reg <= 0:
        raise ValueError(f"reg must be positive, got {reg}")

    hard = kmeans(points, k, seed=seed).assignments[:, None] == np.arange(k)
    mass, means, scatter = _moments(points, hard.astype(np.float64))
    strength, scale = n / k, scatter.sum(axis=0) / n + 2.0 * reg * np.eye(dim)

    work = {}
    history, prev, converged = [], -np.inf, False
    done = max_iter <= 0
    while True:
        model = GmmModel(mass / mass.sum(), means,
                         (scatter + strength * scale) / (mass + strength)[:, None, None],
                         -np.inf, history, converged)
        log_resp, lse, inv_chol, logdet = _e_step(points, model, work)
        if done:
            model.log_likelihood = float(np.mean(lse))
            return model
        trace = np.sum((inv_chol @ scale) * inv_chol)  # sum of tr(inv(cov) @ scale)
        objective = float(np.mean(lse)) - 0.5 * strength / n * float(np.sum(logdet) + trace)
        if objective + LL_SLACK * max(1.0, abs(prev)) < prev:
            raise FloatingPointError(
                f"EM objective decreased: {prev} -> {objective}")
        history.append(objective)
        mass, means, scatter = _moments(points, np.exp(log_resp, out=log_resp), work)
        converged = bool(objective - prev < tol and np.isfinite(prev))
        done = converged or len(history) == max_iter
        prev = objective


def gmm_posterior(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """Responsibility matrix (rows on the simplex), log-sum-exp stabilized."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.exp(_e_step(points, model)[0])


def cluster_attractors(V: np.ndarray, n_speakers: int, algo: str = "gmm",
                       seed: int = 0) -> np.ndarray:
    """Cluster embedding columns; cluster centers become attractor rows.

    Rows are ordered by descending cluster mass so outputs are deterministic
    for a fixed seed.
    """
    if n_speakers < 1:
        raise ValueError(f"n_speakers must be >= 1, got {n_speakers}")
    points = np.asarray(V, dtype=np.float64).T
    if algo == "kmeans":
        result = kmeans(points, n_speakers, seed=seed)
        centers = result.centers
        mass = np.bincount(result.assignments, minlength=n_speakers)
    elif algo == "gmm":
        model = gmm_fit(points, n_speakers, seed=seed)
        centers = model.means
        mass = model.weights
    else:
        raise ValueError(f"unknown clustering algorithm {algo!r}")
    order = np.argsort(-mass, kind="stable")
    return centers[order]
