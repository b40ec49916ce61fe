"""Inference-time clustering: k-means (Lloyd, ++ seeding) and full-covariance
GMM fitted by MAP-EM, its covariances shrunk towards the pooled k-means
covariance. Cluster centers become the attractors at test time.

Every fit (`kmeans`, `gmm_fit`, `gmm_posterior`) copies its (n, dim) points
once into a C-contiguous (dim, n) array X (feature-major) and runs on X
alone, so each pass over the points walks n contiguous values, and no result
depends on the layout of the given points."""

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


def _feature_major(points: np.ndarray) -> np.ndarray:
    """The (n, dim) points as the feature-major X."""
    return np.ascontiguousarray(points.T)


def _check_tol(tol: float) -> None:
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")


def _squared_distances(X: np.ndarray, centers: np.ndarray, point_sq: np.ndarray,
                       out: np.ndarray | None = None,
                       product: np.ndarray | None = None) -> np.ndarray:
    """Squared distances (k, n) from every center to every point, floored at 0.

    X holds the points as columns and point_sq is np.sum(X * X, axis=0),
    computed once per fit. Scaling the (k, n) product by 2 rather than the
    points is exact for normal floats and makes no (dim, n) temporary.
    `out` and `product`, (k, n) buffers, take the distances and the GEMM
    when given.
    """
    product = np.matmul(centers, X, out=product)
    product *= 2.0
    center_sq = np.sum(centers * centers, axis=1)
    out = np.add(point_sq, center_sq[:, None], out=out)
    out -= product
    return np.maximum(out, 0.0, out=out)


def _kmeans_pp_seed(X: np.ndarray, k: int, rng: np.random.Generator,
                    point_sq: np.ndarray) -> np.ndarray:
    n = X.shape[1]
    centers = np.empty((k, X.shape[0]))
    centers[0] = X[:, rng.integers(n)]
    d2 = _squared_distances(X, centers[:1], point_sq)[0]
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = X[:, rng.integers(n)]
        else:
            centers[c] = X[:, rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _squared_distances(X, centers[c:c + 1], point_sq)[0])
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
    """Write each column's argmin of the (k, n) d2 into labels and its
    minimum into own.

    One strict-< pass per row, over all n points: a tie keeps the earlier
    center, which is np.argmin's first-minimum rule. closer is an (n,) bool
    buffer. The distances are finite, so np.minimum takes the same values.
    """
    labels.fill(0)
    own[...] = d2[0]
    for c in range(1, d2.shape[0]):
        np.less(d2[c], own, out=closer)
        np.copyto(labels, c, where=closer)
        np.minimum(own, d2[c], out=own)


class _LloydWork:
    """The buffers that every restart of one `kmeans` call writes into:
    (k, n) distances and distance GEMM, the (n, k) one-hot matrix of the
    means GEMM, the (n,) labels, own distances and comparison mask, and the
    (n, dim) residual of the exact inertia."""

    def __init__(self, dim: int, n: int, k: int):
        self.d2, self.product = np.empty((k, n)), np.empty((k, n))
        self.eye, self.one_hot = np.eye(k), np.empty((n, k))
        self.labels, self.own = np.empty(n, dtype=np.intp), np.empty(n)
        self.closer = np.empty(n, dtype=bool)
        self.residual = np.empty((n, dim))


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int, tol: float,
           point_sq: np.ndarray, work: _LloydWork) -> tuple[np.ndarray, list[float]]:
    """Lloyd iterations on the (dim, n) points X until no center moves more
    than tol (or max_iter); returns the final labels and the history.

    An iteration costs one (k, dim) x (dim, n) distance GEMM, a strict-<
    argmin over the k rows (`_nearest`, which also gives the own distances
    that `_reseed_empty` needs), one bincount and one GEMM for the means,
    all written into `work`. The means GEMM multiplies a C-ordered (n, k)
    one-hot matrix, transposed, by X transposed: the call the (n, dim) loop
    made on F-ordered points, so the centers of every iteration, and the
    labels they lead to, are the bits of that loop. An iteration's history
    entry comes from the per-cluster statistics, sum ||x||^2 - sum_c n_c
    ||mu_c||^2 clamped at 0; `_finish` replaces the last one by the exact
    inertia.
    """
    total_sq = float(point_sq.sum())
    k = centers.shape[0]
    labels = work.labels
    history = []
    for _ in range(max_iter):
        _squared_distances(X, centers, point_sq, work.d2, work.product)
        _nearest(work.d2, labels, work.own, work.closer)
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            _reseed_empty(labels, work.own, k)
            counts = np.bincount(labels, minlength=k)
        np.take(work.eye, labels, axis=0, out=work.one_hot, mode="clip")
        new_centers = work.one_hot.T @ X.T / counts[:, None]
        history.append(max(total_sq - float(counts @ np.sum(new_centers ** 2, axis=1)), 0.0))
        converged = np.max(np.abs(new_centers - centers)) <= tol
        centers = new_centers
        if converged:
            break
    return labels.copy(), history


def _finish(X: np.ndarray, labels: np.ndarray, history: list[float],
            work: _LloydWork) -> np.ndarray:
    """A Lloyd run's centers and exact inertia, recomputed from its labels.

    The GEMM may sum in another order than a mean does, and the statistics
    behind the history lose digits when the points sit far from the origin.
    So each center is the plain mean of its members, points[labels == c]
    .mean(axis=0) on (n, dim) points, and the inertia squares and sums the
    C-ordered (n, dim) residual, as a plain sum over those points does. The
    inertia becomes the last history entry; restarts compare these values.
    numpy sums the members of a mean in point order when dim > 1, which is
    np.bincount(labels, weights=X[d]) for every coordinate d at once; a
    single coordinate it sums pairwise, so there the mean itself is taken.
    """
    k = work.eye.shape[0]
    if X.shape[0] == 1:
        centers = np.stack([X.T[labels == c].mean(axis=0) for c in range(k)])
    else:
        centers = np.stack([np.bincount(labels, weights=row, minlength=k) for row in X], axis=1)
        centers /= np.bincount(labels, minlength=k)[:, None]
    residual = np.take(centers, labels, axis=0, out=work.residual, mode="clip")
    np.subtract(X.T, residual, out=residual)
    history[-1] = float(np.sum(np.square(residual, out=residual)))
    return centers


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
    """Best-of-restarts Lloyd iterations from k-means++ seeding.

    Every restart runs on the feature-major X in one `_LloydWork`. The
    centers are the plain means of the final clusters and the inertia a
    plain sum (`_finish`), bit for bit as a direct evaluation gives them;
    the strict < keeps the first restart of least inertia.
    """
    points = _as_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n_points, got k={k}, n_points={n}")
    for name, value in (("restarts", restarts), ("max_iter", max_iter)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    _check_tol(tol)

    X = _feature_major(points)
    point_sq = np.sum(X * X, axis=0)
    work = _LloydWork(X.shape[0], n, k)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers0 = _kmeans_pp_seed(X, k, rng, point_sq)
        labels, history = _lloyd(X, centers0, max_iter, tol, point_sq, work)
        centers = _finish(X, labels, history, work)
        if best is None or history[-1] < best.inertia:
            best = KMeansResult(centers, labels, history[-1], history)
    return best


class _EmWork:
    """The buffers of one EM fit on (dim, n) points: the (k, dim, n) centred
    points and a (k, dim, n) temporary (whitened points in the E-step,
    weighted points in the M-step), the (k, n) log-densities, which become
    the log responsibilities and then the responsibilities, and their
    shifted copy, and the (n,) maxima and log-sum-exps."""

    def __init__(self, k: int, dim: int, n: int):
        self.centred, self.temp = np.empty((k, dim, n)), np.empty((k, dim, n))
        self.log_dens, self.shifted = np.empty((k, n)), np.empty((k, n))
        self.top, self.lse = np.empty(n), np.empty(n)


def _e_step(centred: np.ndarray, model: GmmModel, work: _EmWork):
    """Log responsibilities (k, n) and per-point log-likelihoods (n,) of the
    points, given as their (k, dim, n) differences from the model's means,
    plus inv(L) and log det cov from the one Cholesky factor L of each
    covariance (stacked over components), which the prior's terms reuse.
    The two returned arrays live in `work` until the next E-step."""
    chol = np.linalg.cholesky(model.covariances)
    inv_chol = np.linalg.inv(chol)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    z = np.matmul(inv_chol, centred, out=work.temp)
    # log w - 0.5 * |z|^2 - 0.5 * (dim log 2 pi + log det), in that order.
    log_dens = np.einsum("kdn,kdn->kn", z, z, out=work.log_dens)
    log_dens *= 0.5
    np.subtract(np.log(model.weights)[:, None], log_dens, out=log_dens)
    log_dens -= 0.5 * (centred.shape[1] * np.log(2.0 * np.pi) + logdet)[:, None]
    top = np.max(log_dens, axis=0, out=work.top)
    shifted = np.subtract(log_dens, top, out=work.shifted)
    lse = np.sum(np.exp(shifted, out=shifted), axis=0, out=work.lse)
    np.log(lse, out=lse)
    lse += top
    log_dens -= lse
    return log_dens, lse, inv_chol, logdet


def _moments(X: np.ndarray, resp: np.ndarray, work: _EmWork):
    """Mass (k,), means (k, dim) and symmetrised scatter matrices (k, dim, dim)
    of the (dim, n) points weighted by each row of the (k, n) resp, and the
    points centred on those means, (k, dim, n) in work.centred, which the
    next E-step takes."""
    mass = resp.sum(axis=1) + 1e-300
    means = (resp @ X.T) / mass[:, None]
    centred = np.subtract(X, means[:, :, None], out=work.centred)
    weighted = np.multiply(centred, resp[:, None, :], out=work.temp)
    scatter = weighted @ centred.transpose(0, 2, 1)
    return mass, means, 0.5 * (scatter + scatter.transpose(0, 2, 1)), centred


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
    tol, and False when it stopped at max_iter (max_iter=0 returns the
    k-means initialisation).

    EM runs on the feature-major X in one `_EmWork` made for the fit: the
    centred, whitened and weighted points are (k, dim, n) and the
    log-densities and responsibilities (k, n). The M-step's centred points
    serve the next E-step, whose means are the M-step's.
    """
    points = _as_points(points)
    n, dim = points.shape
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    _check_tol(tol)
    X = _feature_major(points)
    if reg is None:
        reg = default_regularization(X.T)
    if reg <= 0:
        raise ValueError(f"reg must be positive, got {reg}")

    labels = kmeans(X.T, k, seed=seed).assignments  # X.T is X's memory: kmeans copies nothing
    work = _EmWork(k, dim, n)
    hard = np.equal(labels, np.arange(k)[:, None]).astype(np.float64)
    mass, means, scatter, centred = _moments(X, hard, work)
    strength, scale = n / k, scatter.sum(axis=0) / n + 2.0 * reg * np.eye(dim)

    history, prev, converged = [], -np.inf, False
    done = max_iter == 0
    while True:
        model = GmmModel(mass / mass.sum(), means,
                         (scatter + strength * scale) / (mass + strength)[:, None, None],
                         -np.inf, history, converged)
        log_resp, lse, inv_chol, logdet = _e_step(centred, model, work)
        if done:
            model.log_likelihood = float(np.mean(lse))
            return model
        trace = np.sum((inv_chol @ scale) * inv_chol)  # sum of tr(inv(cov) @ scale)
        objective = float(np.mean(lse)) - 0.5 * strength / n * float(np.sum(logdet) + trace)
        if objective + LL_SLACK * max(1.0, abs(prev)) < prev:
            raise FloatingPointError(
                f"EM objective decreased: {prev} -> {objective}")
        history.append(objective)
        mass, means, scatter, centred = _moments(X, np.exp(log_resp, out=log_resp), work)
        converged = bool(objective - prev < tol and np.isfinite(prev))
        done = converged or len(history) == max_iter
        prev = objective


def gmm_posterior(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """Responsibility matrix (n, k) (rows on the simplex), log-sum-exp
    stabilized, as a C-contiguous array."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k, dim = model.means.shape
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"points must be (n, {dim}) for a model of dimension {dim}, "
                         f"got {points.shape}")
    work = _EmWork(k, dim, points.shape[0])
    centred = np.subtract(_feature_major(points), model.means[:, :, None], out=work.centred)
    log_resp = _e_step(centred, model, work)[0]
    return np.ascontiguousarray(np.exp(log_resp, out=log_resp).T)


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
