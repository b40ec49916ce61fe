"""k-means and GMM/EM tests."""

import itertools
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from danet import clustering
from danet.clustering import (
    EM_MAX_ITER,
    EM_TOL,
    KMEANS_RESTARTS,
    LL_SLACK,
    GmmModel,
    KMeansResult,
    _e_step,
    _EmWork,
    _finish,
    _kmeans_pp_seed,
    _lloyd,
    _LloydWork,
    _reseed_empty,
    _squared_distances,
    cluster_attractors,
    default_regularization,
    gmm_fit,
    gmm_posterior,
    kmeans,
)


def two_blobs(rng, n_per=30, dim=2, sep=8.0, scale=0.5):
    a = rng.normal(size=(n_per, dim)) * scale
    b = rng.normal(size=(n_per, dim)) * scale + sep
    return np.vstack([a, b]), np.array([0] * n_per + [1] * n_per)


def feature_major(points):
    """The (dim, n) points and their squared norms, as `kmeans` makes them."""
    X = np.ascontiguousarray(points.T)
    return X, np.sum(X * X, axis=0)


def run_lloyd(points, centers, max_iter, tol):
    """One restart of `kmeans` on (n, dim) points from the given centers:
    Lloyd iterations and the exact final recompute. Returns the centers,
    labels, inertia and history."""
    X, point_sq = feature_major(points)
    work = _LloydWork(X.shape[0], X.shape[1], centers.shape[0])
    labels, history = _lloyd(X, centers, max_iter, tol, point_sq, work)
    centers = _finish(X, labels, history, work)
    return centers, labels, history[-1], history


def reference_lloyd(points, centers, max_iter, tol):
    """Lloyd iterations with boolean-mask means and the full inertia sum at
    every iteration: the reference for `_lloyd`'s statistics-based loop."""
    X, point_sq = feature_major(points)
    history = []
    for _ in range(max_iter):
        d2 = _squared_distances(X, centers, point_sq).T
        labels = np.argmin(d2, axis=1)
        _reseed_empty(labels, d2[np.arange(points.shape[0]), labels], centers.shape[0])
        new_centers = np.stack([points[labels == c].mean(axis=0)
                                for c in range(centers.shape[0])])
        history.append(float(np.sum((points - new_centers[labels]) ** 2)))
        converged = np.allclose(new_centers, centers, rtol=0, atol=tol)
        centers = new_centers
        if converged:
            break
    return centers, labels, history[-1], history


class TestKMeans:
    def test_two_points_two_clusters(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        res = kmeans(pts, 2, seed=1)
        assert res.inertia == 0.0
        assert sorted(map(tuple, res.centers)) == [(0.0, 0.0), (3.0, 4.0)]

    def test_identical_points_single_cluster(self):
        pts = np.tile([1.5, -2.0], (7, 1))
        res = kmeans(pts, 1, seed=2)
        assert np.allclose(res.centers[0], [1.5, -2.0])
        assert res.inertia == 0.0

    def test_matches_exhaustive_best_two_partition(self):
        # Brute-force oracle over every labeling of six points.
        rng = np.random.default_rng(40)
        pts = np.vstack([rng.normal(size=(3, 2)) * 0.2,
                         rng.normal(size=(3, 2)) * 0.2 + [5.0, 1.0]])

        def partition_inertia(labels):
            total = 0.0
            for c in (0, 1):
                member = pts[np.array(labels) == c]
                if member.size:
                    total += np.sum((member - member.mean(axis=0)) ** 2)
            return total

        best_labels, best_inertia = None, np.inf
        for labels in itertools.product([0, 1], repeat=6):
            if len(set(labels)) < 2:
                continue
            inertia = partition_inertia(labels)
            if inertia < best_inertia:
                best_labels, best_inertia = labels, inertia

        res = kmeans(pts, 2, seed=3)
        assert res.inertia == pytest.approx(best_inertia, rel=1e-12)
        same = np.array_equal(res.assignments, best_labels)
        flipped = np.array_equal(1 - res.assignments, best_labels)
        assert same or flipped

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(41)
        pts = rng.normal(size=(60, 3))
        res = kmeans(pts, 4, seed=4)
        hist = res.inertia_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_centers_are_member_means(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(50, 2))
        res = kmeans(pts, 3, seed=5)
        for c in range(3):
            member = pts[res.assignments == c]
            assert member.size > 0
            assert np.allclose(res.centers[c], member.mean(axis=0), atol=1e-10)

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ValueError, match="k"):
            kmeans(np.zeros((3, 2)), 4)

    def test_two_empty_clusters_reseeded_from_distinct_points(self):
        # Both far centers lose every point in the first pass; each must take
        # its own point, or one stays empty and its center turns NaN.
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [10.0, 0.0]])
        init = np.array([[0.1, 0.0], [50.0, 50.0], [60.0, 60.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centers, labels, _, _ = run_lloyd(pts, init, max_iter=100, tol=1e-10)
        assert np.all(np.isfinite(centers))
        assert sorted(np.bincount(labels, minlength=3)) == [1, 1, 2]

    def test_restart_choice_exact_on_off_centre_cloud(self):
        # Far from the origin, sum ||x||^2 - sum n_c ||mu_c||^2 loses about
        # six digits: restarts that reach one partition under permuted labels
        # must still tie exactly, so the first of them is kept.
        rng = np.random.default_rng(61)
        pts = two_blobs(rng, n_per=200, dim=3, sep=3.0)[0] + 1e3
        res = kmeans(pts, 2, seed=0)
        assert res.inertia == float(np.sum((pts - res.centers[res.assignments]) ** 2))
        assert res.inertia_history[-1] == res.inertia

        X, point_sq = feature_major(pts)
        runs = [reference_lloyd(pts, _kmeans_pp_seed(X, 2, np.random.default_rng([0, r]),
                                                     point_sq), 100, 1e-10)
                for r in range(KMEANS_RESTARTS)]
        first_best = min(range(KMEANS_RESTARTS), key=lambda r: runs[r][2])
        assert len({tuple(run[1]) for run in runs}) > 1  # some restarts permute labels
        assert np.array_equal(res.assignments, runs[first_best][1])
        assert np.array_equal(res.centers, runs[first_best][0])
        assert res.inertia == runs[first_best][2]

    @pytest.mark.parametrize("call, match", [
        pytest.param(partial(kmeans, np.eye(3), 2, restarts=0), "restarts", id="restarts=0"),
        pytest.param(partial(kmeans, np.eye(3), 2, max_iter=0), "max_iter", id="max_iter=0"),
        pytest.param(partial(kmeans, np.eye(3), 2, restarts=-1), "restarts", id="restarts=-1"),
        pytest.param(partial(kmeans, np.eye(3), 2, tol=np.nan), "tol", id="kmeans-tol=nan"),
        pytest.param(partial(kmeans, np.eye(3), 2, tol=-1e-12), "tol", id="kmeans-tol<0"),
        pytest.param(partial(gmm_fit, np.eye(3), 2, max_iter=-1), "max_iter",
                     id="gmm_fit-max_iter=-1"),
        pytest.param(partial(gmm_fit, np.eye(3), 2, tol=np.nan), "tol", id="gmm_fit-tol=nan"),
        pytest.param(partial(gmm_fit, np.eye(3), 2, tol=-np.inf), "tol", id="gmm_fit-tol<0"),
        pytest.param(partial(gmm_posterior, GmmModel(np.ones(1), np.zeros((1, 3)),
                                                     np.eye(3)[None], 0.0), np.eye(2)),
                     "dimension", id="gmm_posterior-dim"),
    ])
    def test_bad_arguments_rejected_before_seeding(self, call, match, monkeypatch):
        # gmm_fit(max_iter=-1) used to return the k-means initialisation, a
        # NaN or negative tol ran to the iteration caps, and points of another
        # dimension than the model's failed as a numpy broadcast error.
        def no_draws(*args, **kw):
            raise AssertionError("random generator created before validation")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("fit", [kmeans, gmm_fit])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, fit, bad):
        pts = np.random.default_rng(44).normal(size=(12, 2))
        pts[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit(pts, 2)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(43)
        pts = rng.normal(size=(40, 2))
        a = kmeans(pts, 3, seed=6)
        b = kmeans(pts, 3, seed=6)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignments, b.assignments)


class TestGmmFit:
    def test_single_component_mle(self):
        rng = np.random.default_rng(44)
        pts = rng.normal(size=(200, 3)) @ np.diag([1.0, 2.0, 0.5]) + [1.0, -2.0, 0.0]
        reg = 1e-8
        model = gmm_fit(pts, 1, reg=reg, seed=7)
        assert np.allclose(model.weights, [1.0])
        assert np.allclose(model.means[0], pts.mean(axis=0), atol=1e-9)
        centered = pts - pts.mean(axis=0)
        biased_cov = centered.T @ centered / pts.shape[0]
        assert np.allclose(model.covariances[0], biased_cov + reg * np.eye(3), atol=1e-9)

    def test_repeated_point_covariance_is_reg_identity(self):
        pts = np.tile([2.0, -1.0], (10, 1))
        model = gmm_fit(pts, 1, reg=1e-4, seed=8)
        assert np.allclose(model.covariances[0], 1e-4 * np.eye(2), atol=1e-15)

    def test_hard_assignments_match_kmeans_on_separated_blobs(self):
        rng = np.random.default_rng(45)
        pts, _ = two_blobs(rng)
        model = gmm_fit(pts, 2, seed=9)
        resp = gmm_posterior(model, pts)
        gmm_labels = np.argmax(resp, axis=1)
        km_labels = kmeans(pts, 2, seed=9).assignments
        same = np.array_equal(gmm_labels, km_labels)
        flipped = np.array_equal(1 - gmm_labels, km_labels)
        assert same or flipped

    @pytest.mark.parametrize("seed", range(5))
    def test_ll_monotone_on_seeded_clouds(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.normal(size=(40, 3)),
                         rng.normal(size=(40, 3)) * 0.7 + rng.uniform(1, 4, size=3)])
        model = gmm_fit(pts, 3, seed=seed)
        hist = model.ll_history
        assert len(hist) >= 2
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev))

    @pytest.mark.parametrize("k,scale", [(2, 0.3), (3, 1e-2), (3, 0.3)])
    def test_objective_monotone_at_large_reg(self, k, scale):
        # A covariance floor well above rounding level, tied to the data's
        # per-dimension variance: the MAP step keeps the EM objective monotone.
        for seed in range(10):
            pts, _ = two_blobs(np.random.default_rng(seed))
            reg = scale * float(np.mean(np.var(pts, axis=0)))
            model = gmm_fit(pts, k, reg=reg, seed=seed)
            hist = model.ll_history
            assert len(hist) >= 2
            for prev, cur in zip(hist, hist[1:]):
                assert cur >= prev - 1e-9 * max(1.0, abs(prev)), f"seed {seed}"
            for cov in model.covariances:
                assert np.linalg.eigvalsh(cov)[0] > 0

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            gmm_fit(np.zeros((2, 2)), 3)

    def test_zero_iterations_return_the_kmeans_initialisation(self):
        pts, _ = two_blobs(np.random.default_rng(46))
        model = gmm_fit(pts, 2, max_iter=0, seed=10)
        assert model.ll_history == []
        assert np.isfinite(model.log_likelihood)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(46)
        pts, _ = two_blobs(rng)
        model = gmm_fit(pts, 2, seed=10)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.weights > 0)

    def test_default_regularization_positive_on_degenerate_cloud(self):
        assert default_regularization(np.zeros((5, 3))) > 0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(1, 80), dim=st.integers(1, 6), k=st.integers(1, 4),
       n_distinct=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_em_properties_on_random_clouds(n, dim, k, n_distinct, seed):
    # Clouds of n points drawn (with repeats) from n_distinct anisotropic
    # sites: EM's objective never falls, every fitted covariance stays
    # positive-definite, and k-means keeps every centre finite.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    sites = rng.normal(size=(n_distinct, dim)) * rng.uniform(1e-3, 10.0, size=dim)
    pts = sites[rng.integers(n_distinct, size=n)]
    assert np.all(np.isfinite(kmeans(pts, k, seed=seed % 7).centers))
    model = gmm_fit(pts, k, seed=seed % 7)
    hist = model.ll_history
    for prev, cur in zip(hist, hist[1:]):
        assert cur >= prev - LL_SLACK * max(1.0, abs(prev))
    for cov in model.covariances:
        np.linalg.cholesky(cov)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(1, 200), dim=st.integers(1, 7), k=st.integers(1, 4),
       n_distinct=st.integers(1, 200), init=st.sampled_from(["points", "far"]),
       seed=st.integers(0, 2**32 - 1))
def test_lloyd_matches_reference(n, dim, k, n_distinct, init, seed):
    # n points drawn (with repeats) from n_distinct sites in the unit cube.
    # Initial centers are drawn points, so repeats start clusters empty, or
    # one point plus far centers that lose every point in the first pass.
    # The statistics-based history is off by about eps * sum ||x||^2, which
    # unit-scale coordinates keep below 1e-12; the final entry is exact.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-1.0, 1.0, size=(n_distinct, dim)) * rng.uniform(1e-3, 1.0, size=dim)
    pts = sites[rng.integers(n_distinct, size=n)]
    init_centers = pts[rng.integers(n, size=k)]
    if init == "far":
        init_centers[1:] = 50.0 * np.arange(1, k)[:, None] + np.zeros(dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        centers, labels, inertia, history = run_lloyd(pts, init_centers.copy(), 100, 1e-10)
    ref_centers, ref_labels, ref_inertia, ref_history = reference_lloyd(
        pts, init_centers.copy(), 100, 1e-10)
    assert np.array_equal(labels, ref_labels)
    assert len(history) == len(ref_history)
    assert np.allclose(centers, ref_centers, rtol=0, atol=1e-12)
    assert inertia == ref_inertia == history[-1]
    assert np.allclose(history, ref_history, rtol=1e-12, atol=1e-12)


def test_e_step_matches_scipy_log_densities():
    rng = np.random.default_rng(54)
    k, dim = 3, 4
    covs = []
    for _ in range(k):
        a = rng.normal(size=(dim, dim))
        covs.append(a @ a.T + 0.3 * np.eye(dim))
    weights = rng.uniform(0.1, 1.0, size=k)
    model = GmmModel(weights / weights.sum(), rng.normal(size=(k, dim)) * 3,
                     np.stack(covs), 0.0)
    pts = rng.normal(size=(50, dim)) * 2
    centred = feature_major(pts)[0] - model.means[:, :, None]
    log_resp, lse, _, _ = _e_step(centred, model, _EmWork(k, dim, 50))
    expected = np.stack([np.log(model.weights[c])
                         + multivariate_normal.logpdf(pts, model.means[c], covs[c])
                         for c in range(k)])
    assert np.allclose(log_resp + lse, expected, rtol=0, atol=1e-10)


class TestGmmPosterior:
    def test_single_component_all_ones(self):
        rng = np.random.default_rng(47)
        pts = rng.normal(size=(30, 2))
        model = gmm_fit(pts, 1, seed=11)
        assert np.allclose(gmm_posterior(model, pts), 1.0)

    def test_equidistant_symmetric_components(self):
        model = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
            covariances=np.stack([np.eye(2)] * 2),
            log_likelihood=0.0,
        )
        resp = gmm_posterior(model, np.array([[0.0, 3.0]]))
        assert np.allclose(resp, [[0.5, 0.5]], atol=1e-12)

    def test_matches_density_ratio_oracle(self):
        rng = np.random.default_rng(48)
        k, dim = 3, 2
        means = rng.normal(size=(k, dim)) * 2
        covs = []
        for _ in range(k):
            a = rng.normal(size=(dim, dim))
            covs.append(a @ a.T + 0.5 * np.eye(dim))
        weights = rng.uniform(0.1, 1.0, size=k)
        weights /= weights.sum()
        model = GmmModel(weights, means, np.stack(covs), 0.0)
        pts = rng.normal(size=(6, dim))

        dens = np.zeros((6, k))
        for c in range(k):
            inv = np.linalg.inv(covs[c])
            det = np.linalg.det(covs[c])
            for m in range(6):
                d = pts[m] - means[c]
                dens[m, c] = weights[c] * np.exp(-0.5 * d @ inv @ d) / \
                    np.sqrt((2 * np.pi) ** dim * det)
        expected = dens / dens.sum(axis=1, keepdims=True)
        assert np.allclose(gmm_posterior(model, pts), expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(49)
        pts, _ = two_blobs(rng)
        model = gmm_fit(pts, 2, seed=12)
        resp = gmm_posterior(model, pts)
        assert np.max(np.abs(resp.sum(axis=1) - 1.0)) < 1e-12

    def test_small_sigma_frozen_gmm_reduces_to_kmeans(self):
        # Spherical components with sigma -> 0 make the posterior a hard
        # nearest-center rule, which is exactly k-means assignment.
        rng = np.random.default_rng(50)
        pts, _ = two_blobs(rng)
        km = kmeans(pts, 2, seed=13)
        sigma = 1e-3 * float(np.std(pts))
        frozen = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=km.centers,
            covariances=np.stack([sigma ** 2 * np.eye(2)] * 2),
            log_likelihood=0.0,
        )
        labels = np.argmax(gmm_posterior(frozen, pts), axis=1)
        assert np.array_equal(labels, km.assignments)


class TestClusterAttractors:
    def test_single_speaker_gives_column_mean(self):
        rng = np.random.default_rng(51)
        V = rng.normal(size=(3, 20))
        A = cluster_attractors(V, 1, algo="kmeans", seed=14)
        assert np.allclose(A[0], V.mean(axis=1), atol=1e-12)

    def test_repeated_distinct_columns(self):
        c1, c2 = np.array([1.0, 2.0]), np.array([-3.0, 0.5])
        V = np.stack([c1, c2, c1, c2, c1], axis=1)
        A = cluster_attractors(V, 2, algo="kmeans", seed=15)
        assert sorted(map(tuple, A)) == sorted([tuple(c1), tuple(c2)])

    @pytest.mark.parametrize("algo", ["kmeans", "gmm"])
    def test_seeded_determinism(self, algo):
        rng = np.random.default_rng(52)
        V = np.hstack([rng.normal(size=(2, 30)), rng.normal(size=(2, 30)) + 6.0])
        a = cluster_attractors(V, 2, algo=algo, seed=16)
        b = cluster_attractors(V, 2, algo=algo, seed=16)
        assert np.array_equal(a, b)

    def test_rows_ordered_by_mass(self):
        rng = np.random.default_rng(53)
        big = rng.normal(size=(2, 50)) * 0.3
        small = rng.normal(size=(2, 10)) * 0.3 + 7.0
        V = np.hstack([big, small])
        A = cluster_attractors(V, 2, algo="kmeans", seed=17)
        assert np.linalg.norm(A[0]) < np.linalg.norm(A[1])  # big cluster sits near 0

    @pytest.mark.parametrize("algo", ["kmeans", "gmm"])
    @pytest.mark.parametrize("distinct, k", [(1, 2), (2, 3)])
    def test_fewer_distinct_points_than_speakers(self, algo, distinct, k):
        cols = np.array([[1.0, 2.0], [-3.0, 0.5]])[:distinct]
        V = np.repeat(cols, 6, axis=0).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = cluster_attractors(V, k, algo=algo, seed=18)
        assert A.shape == (k, 2)
        assert np.all(np.isfinite(A))

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            cluster_attractors(np.ones((2, 4)), 1, algo="dbscan")


# Frozen copies of the allocating k-means and EM loops on (n, dim) points
# that the feature-major fits replaced: a new (n, k) or (k, dim, n) temporary
# for every operation, np.argmin, a one-hot matrix by fancy indexing and
# np.allclose. The (dim, n) layout changes summation orders on purpose, so
# k-means must keep its assignments, centers, inertia and iteration count
# bit for bit (earlier history entries within 1e-12), and EM must keep its
# iteration count and `converged`, with every other field within 1e-12.
def frozen_squared_distances(points, centers, point_sq):
    d2 = (point_sq[:, None]
          + np.sum(centers * centers, axis=1)[None, :]
          - 2.0 * (points @ centers.T))
    return np.maximum(d2, 0.0)


def frozen_kmeans_pp_seed(points, k, rng, point_sq):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = frozen_squared_distances(points, centers[:1], point_sq).ravel()
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = points[rng.integers(n)]
        else:
            centers[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, frozen_squared_distances(points, centers[c:c + 1], point_sq).ravel())
    return centers


def frozen_lloyd(points, centers, max_iter, tol, point_sq=None):
    if point_sq is None:
        point_sq = np.sum(points * points, axis=1)
    total_sq = float(point_sq.sum())
    n, k = points.shape[0], centers.shape[0]
    rows = np.arange(n)
    history = []
    for _ in range(max_iter):
        d2 = frozen_squared_distances(points, centers, point_sq)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            _reseed_empty(labels, d2[rows, labels], k)
            counts = np.bincount(labels, minlength=k)
        one_hot = np.zeros((n, k))
        one_hot[rows, labels] = 1.0
        new_centers = one_hot.T @ points / counts[:, None]
        history.append(max(total_sq - float(counts @ np.sum(new_centers ** 2, axis=1)), 0.0))
        converged = np.allclose(new_centers, centers, rtol=0, atol=tol)
        centers = new_centers
        if converged:
            break
    centers = np.stack([points[labels == c].mean(axis=0) for c in range(k)])
    history[-1] = float(np.sum((points - centers[labels]) ** 2))
    return centers, labels, history[-1], history


def frozen_kmeans(points, k, seed=0):
    point_sq = np.sum(points * points, axis=1)
    best = None
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        centers0 = frozen_kmeans_pp_seed(points, k, rng, point_sq)
        centers, labels, inertia, history = frozen_lloyd(points, centers0, 100, 1e-10, point_sq)
        if best is None or inertia < best.inertia:
            best = KMeansResult(centers, labels, inertia, history)
    return best


def frozen_e_step(points, model):
    chol = np.linalg.cholesky(model.covariances)
    inv_chol = np.linalg.inv(chol)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    z = inv_chol @ (points.T - model.means[:, :, None])
    log_dens = (np.log(model.weights) - 0.5 * np.einsum("kdn,kdn->nk", z, z)
                - 0.5 * (points.shape[1] * np.log(2.0 * np.pi) + logdet))
    top = log_dens.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.sum(np.exp(log_dens - top), axis=1))
    return log_dens - lse[:, None], lse, inv_chol, logdet


def frozen_moments(points, resp):
    mass = resp.sum(axis=0) + 1e-300
    means = (resp.T @ points) / mass[:, None]
    centred = points.T - means[:, :, None]
    scatter = (centred * resp.T[:, None, :]) @ centred.transpose(0, 2, 1)
    return mass, means, 0.5 * (scatter + scatter.transpose(0, 2, 1))


def frozen_gmm_fit(points, k, max_iter=EM_MAX_ITER, tol=EM_TOL, seed=0):
    """The EM loop, with `converged` read off the history as the loop's
    stopping rule makes it: the last gain fell below tol."""
    n, dim = points.shape
    reg = default_regularization(points)
    hard = frozen_kmeans(points, k, seed=seed).assignments[:, None] == np.arange(k)
    mass, means, scatter = frozen_moments(points, hard.astype(np.float64))
    strength, scale = n / k, scatter.sum(axis=0) / n + 2.0 * reg * np.eye(dim)
    history, prev, done = [], -np.inf, max_iter <= 0
    while True:
        model = GmmModel(mass / mass.sum(), means,
                         (scatter + strength * scale) / (mass + strength)[:, None, None],
                         -np.inf, history)
        log_resp, lse, inv_chol, logdet = frozen_e_step(points, model)
        if done:
            model.log_likelihood = float(np.mean(lse))
            model.converged = len(history) >= 2 and history[-1] - history[-2] < tol
            return model
        trace = np.sum((inv_chol @ scale) * inv_chol)
        objective = float(np.mean(lse)) - 0.5 * strength / n * float(np.sum(logdet) + trace)
        history.append(objective)
        mass, means, scatter = frozen_moments(points, np.exp(log_resp))
        done = len(history) == max_iter or (objective - prev < tol and np.isfinite(prev))
        prev = objective


def assert_fields_equal(got, want):
    for name in want.__dataclass_fields__:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_lloyd_equal(got, want):
    """(centers, labels, inertia, history) of two Lloyd runs: bit-equal but
    for the statistics-based history entries before the last."""
    for name, a, b in zip(("centers", "labels", "inertia"), got, want):
        assert np.array_equal(a, b), name
    assert len(got[3]) == len(want[3])
    assert got[3][-1] == want[3][-1]
    np.testing.assert_allclose(got[3][:-1], want[3][:-1], rtol=1e-12, atol=0)


def assert_kmeans_matches(got, want):
    assert_lloyd_equal((got.centers, got.assignments, got.inertia, got.inertia_history),
                       (want.centers, want.assignments, want.inertia, want.inertia_history))


def assert_gmm_matches(got, want):
    """The same iteration count and `converged`; every other field within
    1e-12 of its largest magnitude (a covariance entry of a nearly empty
    component can be 0 on one side and 1e-37 on the other), and a mean
    log-likelihood near 0 within 1e-12 of the terms it sums, which are of
    order 1. Where the prior's reg * I alone sets a covariance's smallest
    eigenvalue, its condition number c reaches 1e6, and rounding moves the
    fields by up to c times 2e-16, between the frozen C and F loops as
    well: the bound there is 1e-15 * c."""
    assert len(got.ll_history) == len(want.ll_history)
    assert got.converged == want.converged
    bound = max(1e-12, 1e-15 * float(np.max(np.linalg.cond(want.covariances))))
    for name, floor in (("weights", 0.0), ("means", 0.0), ("covariances", 0.0),
                        ("log_likelihood", 1.0), ("ll_history", 1.0)):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.shape == b.shape, name
        assert np.all(np.abs(a - b) <= bound * np.max(np.abs(b), initial=floor)), name


def assert_fits_match(pts, k, seed, max_iter, ref):
    """The fits of pts against the frozen loops' fits of ref, the same
    points in the order the frozen loops take them."""
    assert_kmeans_matches(kmeans(pts, k, seed=seed), frozen_kmeans(ref, k, seed=seed))
    assert_gmm_matches(gmm_fit(pts, k, max_iter=max_iter, seed=seed),
                       frozen_gmm_fit(ref, k, max_iter=max_iter, seed=seed))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(n=st.integers(1, 150), dim=st.integers(1, 6), k=st.integers(1, 4),
       n_distinct=st.integers(1, 150), order=st.sampled_from("CF"),
       max_iter=st.sampled_from([0, 1, 2, EM_MAX_ITER]), seed=st.integers(0, 2**32 - 1))
@example(n=40, dim=3, k=1, n_distinct=40, order="C", max_iter=EM_MAX_ITER, seed=1)
@example(n=4, dim=2, k=4, n_distinct=4, order="F", max_iter=EM_MAX_ITER, seed=2)
@example(n=30, dim=2, k=3, n_distinct=2, order="C", max_iter=EM_MAX_ITER, seed=3)
@example(n=50, dim=4, k=2, n_distinct=50, order="F", max_iter=0, seed=4)
@example(n=27, dim=5, k=4, n_distinct=2, order="C", max_iter=EM_MAX_ITER, seed=4)
@example(n=62, dim=3, k=1, n_distinct=3, order="C", max_iter=1, seed=2129)
def test_workspace_fits_equal_allocating_loops_bitwise(n, dim, k, n_distinct, order,
                                                      max_iter, seed):
    # Repeats among the n points (n_distinct sites) start clusters empty and
    # force `_reseed_empty`; k is drawn up to n itself. The examples pin
    # k = 1, n == k, three clusters on two sites, max_iter=0, four clusters
    # on two sites where the frozen C and F loops part, and three sites in
    # three dimensions, a covariance of condition number 2.6e6 and a
    # log-likelihood of -0.055. The frozen loops run on the draw in its own
    # order, C-ordered as in `cluster_attractors` or F-ordered. Only where k
    # exceeds the distinct points do they run on the F-ordered copy, the
    # memory of the feature-major one: there rounding alone decides seeding
    # draws and ties, and the frozen C and F loops themselves end on
    # different partitions.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    sites = rng.normal(size=(n_distinct, dim)) * rng.uniform(1e-2, 10.0, size=dim)
    pts = np.asarray(sites[rng.integers(n_distinct, size=n)], order=order)
    ref = pts if k <= len(np.unique(pts, axis=0)) else np.asfortranarray(pts)
    assert_fits_match(pts, k, seed % 7, max_iter, ref)

    init = pts[rng.integers(n, size=k)]
    if k > 1 and seed % 2:
        init[1:] = 50.0 * np.arange(1, k)[:, None] + np.zeros(dim)  # centers that lose every point
    assert_lloyd_equal(run_lloyd(pts, init.copy(), 100, 1e-10),
                       frozen_lloyd(ref, init.copy(), 100, 1e-10))


@pytest.mark.parametrize("order", "CF")
def test_workspace_fits_equal_allocating_loops_at_benchmark_size(order):
    # One draw the size of a benchmark mixture's embeddings: 66 frames x 129
    # bins of K = 10, two speakers in unequal, anisotropic clouds.
    rng = np.random.default_rng(70)
    n, dim = 66 * 129, 10
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.2, 2.0, size=dim)
    pts[: n // 3] += rng.normal(size=dim) * 3.0
    pts = np.asarray(pts, order=order)
    for k in (2, 3):
        assert_fits_match(pts, k, 0, EM_MAX_ITER, pts)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(1, 120), dim=st.integers(2, 6), k=st.integers(1, 4),
       n_distinct=st.integers(1, 120), max_iter=st.sampled_from([0, 1, 2, EM_MAX_ITER]),
       seed=st.integers(0, 2**32 - 1))
def test_fits_do_not_depend_on_the_layout_of_the_points(n, dim, k, n_distinct, max_iter,
                                                        seed):
    # The same draws as the frozen-loop comparison; dim >= 2 so that the C-
    # and F-ordered copies differ in memory.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    sites = rng.normal(size=(n_distinct, dim)) * rng.uniform(1e-2, 10.0, size=dim)
    c_pts = np.ascontiguousarray(sites[rng.integers(n_distinct, size=n)])
    f_pts = np.asfortranarray(c_pts)
    assert_fields_equal(kmeans(c_pts, k, seed=seed % 7), kmeans(f_pts, k, seed=seed % 7))
    model = gmm_fit(c_pts, k, max_iter=max_iter, seed=seed % 7)
    assert_fields_equal(gmm_fit(f_pts, k, max_iter=max_iter, seed=seed % 7), model)
    resp = gmm_posterior(model, f_pts)
    assert resp.flags.c_contiguous
    assert np.array_equal(gmm_posterior(model, c_pts), resp)


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("dim", [1, 3])
def test_finish_centers_are_mask_means_bitwise(order, dim):
    # Off-centre points, so that summation order shows; cluster 0 has a
    # single member.
    rng = np.random.default_rng(80)
    pts = np.asarray(rng.normal(size=(40, dim)) * 3.0 + 1e2, order=order)
    labels = rng.integers(1, 4, size=40)
    labels[7] = 0
    history = [np.nan]
    X, _ = feature_major(pts)
    centers = _finish(X, labels, history, _LloydWork(dim, 40, 4))
    want = np.stack([pts[labels == c].mean(axis=0) for c in range(4)])
    assert np.array_equal(centers, want)
    assert history[-1] == float(np.sum((pts - want[labels]) ** 2))


@pytest.mark.parametrize("order", "CF")
def test_reseeded_cluster_centers_are_mask_means_bitwise(order):
    # Far initial centers lose every point in the first pass, so both are
    # reseeded; each ends up with members whose mean is its center.
    rng = np.random.default_rng(81)
    pts = np.asarray(rng.normal(size=(30, 3)) + 1e2, order=order)
    init = np.vstack([pts[0], np.full(3, 1e4), np.full(3, 2e4)])
    centers, labels, inertia, history = run_lloyd(pts, init, 100, 1e-10)
    assert sorted(np.bincount(labels, minlength=3))[0] >= 1
    want = np.stack([pts[labels == c].mean(axis=0) for c in range(3)])
    assert np.array_equal(centers, want)
    assert inertia == history[-1] == float(np.sum((pts - want[labels]) ** 2))


@pytest.mark.parametrize("algo, expected", [("kmeans", {"kmeans": 1, "gmm_fit": 0}),
                                            ("gmm", {"kmeans": 1, "gmm_fit": 1})])
def test_cluster_attractors_fits_through_the_module_names(algo, expected, monkeypatch):
    # Callers that wrap `danet.clustering.kmeans` and `gmm_fit` (the
    # benchmark's spans) see every fit, and `gmm` runs one k-means.
    calls = dict.fromkeys(expected, 0)
    for name in calls:
        def counted(*args, _name=name, _fit=getattr(clustering, name), **kwargs):
            calls[_name] += 1
            return _fit(*args, **kwargs)

        monkeypatch.setattr(clustering, name, counted)
    V = np.hstack([np.random.default_rng(83).normal(size=(3, 40)),
                   np.random.default_rng(84).normal(size=(3, 40)) + 6.0])
    cluster_attractors(V, 2, algo=algo, seed=0)
    assert calls == expected


def test_gmm_seeds_through_the_module_kmeans(monkeypatch):
    # Callers that wrap `danet.clustering.kmeans` (the benchmark's nested
    # span) see the one k-means run that initialises EM.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(clustering, "kmeans", counted)
    pts, _ = two_blobs(np.random.default_rng(71))
    gmm_fit(pts, 2, seed=3)
    assert len(calls) == 1


class TestConverged:
    def test_true_when_the_gain_falls_below_tol(self):
        pts, _ = two_blobs(np.random.default_rng(72))
        model = gmm_fit(pts, 2, seed=0)
        assert model.converged
        assert len(model.ll_history) < EM_MAX_ITER
        assert model.ll_history[-1] - model.ll_history[-2] < EM_TOL

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_false_at_the_iteration_cap(self, max_iter):
        pts, _ = two_blobs(np.random.default_rng(73))
        model = gmm_fit(pts, 2, max_iter=max_iter, seed=0, tol=0.0)
        assert len(model.ll_history) == max_iter
        assert not model.converged

    def test_positional_construction_defaults_to_false(self):
        model = GmmModel(np.ones(1), np.zeros((1, 2)), np.eye(2)[None], 0.0, [])
        assert model.converged is False
