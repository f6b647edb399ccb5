"""Monte Carlo localization over (lateral offset, heading).

Three estimators: uniform draws over a prior box, grid search over that
box (the deterministic oracle), and an odometry-informed particle filter
with systematic resampling.  The estimate is always the highest-weight
proposal; confidence is the second-moment matrix of the top-1% proposals
about that estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import DegenerateInputError, PointCloud, PreprocessConfig, preprocess
from .measurement import DEFAULT_P_FLOOR, PoseScorer
from .template import Template

FLAG_EMPTY_MEASUREMENT = "empty-measurement"
FLAG_LOW_CONFIDENCE = "low-confidence"
FLAG_REINITIALIZED = "reinitialized"

# the share of proposals, best first, whose spread about the estimate is
# its covariance
TOP_FRACTION = 0.01
# the covariance reported when the measurement is empty
MAX_COVARIANCE = np.diag([0.8**2, 0.6**2])
# grid search's cell size in y (m) and theta (rad)
GRID_Y_STEP = 0.02
GRID_THETA_STEP = 0.01


@dataclass(frozen=True)
class PoseProposal:
    y: float
    theta: float


@dataclass(frozen=True)
class UniformPrior:
    y_min: float = -0.8
    y_max: float = 0.8
    theta_min: float = -0.6
    theta_max: float = 0.6

    def __post_init__(self):
        bounds = (self.y_min, self.y_max, self.theta_min, self.theta_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"prior bounds must be finite, got {bounds}")
        if self.y_min > self.y_max or self.theta_min > self.theta_max:
            raise ValueError("prior interval minimum exceeds maximum")


@dataclass(frozen=True)
class OdometryDelta:
    """Vehicle-frame increment (dx, dy, dtheta) and its covariance."""

    u: np.ndarray  # (3,)
    sigma: np.ndarray  # (3, 3)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64).reshape(3)
        s = np.asarray(self.sigma, dtype=np.float64).reshape(3, 3)
        if not np.allclose(s, s.T, atol=1e-12):
            raise ValueError("odometry covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(s)) < -1e-12:
            raise ValueError("odometry covariance must be positive semidefinite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "sigma", s)


@dataclass
class ParticleSet:
    poses: np.ndarray  # (n, 2) columns (y, theta)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        self.poses = np.atleast_2d(np.asarray(self.poses, dtype=np.float64))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.poses.shape[0] == 0:
            raise ValueError("particle set may not be empty")
        if self.poses.shape[0] != self.weights.shape[0]:
            raise ValueError("poses/weights length mismatch")

    def __len__(self):
        return self.poses.shape[0]


@dataclass(frozen=True)
class PoseEstimate:
    pose: PoseProposal
    covariance: np.ndarray  # (2, 2) over (y, theta)
    std_y: float
    std_theta: float
    loglik: float
    n_points: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class MclConfig:
    prior: UniformPrior = UniformPrior()
    n_particles: int = 5000
    p_floor: float = DEFAULT_P_FLOOR
    pre_cfg: PreprocessConfig = PreprocessConfig()
    # std thresholds above which the estimate is flagged low-confidence
    low_conf_std_y: float = 0.2
    low_conf_std_theta: float = 0.15

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError(f"need n_particles >= 1, got {self.n_particles}")
        # its log is every empty voxel's score
        if not 0.0 < self.p_floor <= 1.0:
            raise ValueError(f"p_floor must be in (0, 1], got {self.p_floor}")


def sample_uniform(prior: UniformPrior, n: int, seed: int) -> np.ndarray:
    """(n, 2) i.i.d. uniform draws of (y, theta); deterministic per seed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    ys = rng.uniform(prior.y_min, prior.y_max, size=n)
    thetas = rng.uniform(prior.theta_min, prior.theta_max, size=n)
    return np.column_stack([ys, thetas])


def sample_motion_model(
    u: OdometryDelta, poses: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Propagate (y, theta) states by a noisy vehicle-frame increment.

    The forward component moves the along-row station only through the
    heading (lateral displacement dx*sin(theta) + dy*cos(theta)).
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=np.float64))
    n = poses.shape[0]
    if np.any(u.sigma):
        noise = rng.multivariate_normal(np.zeros(3), u.sigma, size=n, method="cholesky")
    else:
        noise = np.zeros((n, 3))
    du = u.u[None, :] + noise
    theta = poses[:, 1]
    y = poses[:, 0] + du[:, 0] * np.sin(theta) + du[:, 1] * np.cos(theta)
    return np.column_stack([y, theta + du[:, 2]])


def resample(particles: ParticleSet, seed: int) -> ParticleSet:
    """Systematic (low-variance) resampling, count-preserving."""
    w = particles.weights
    total = w.sum()
    if total <= 0:
        raise ValueError("cannot resample with zero total weight")
    n = len(particles)
    rng = np.random.default_rng(seed)
    positions = (rng.uniform(0.0, 1.0 / n) + np.arange(n) / n) * total
    idx = np.searchsorted(np.cumsum(w), positions, side="right")
    idx = np.minimum(idx, n - 1)
    return ParticleSet(particles.poses[idx].copy(), np.full(n, 1.0 / n))


def covariance_top_fraction(
    poses: np.ndarray, weights: np.ndarray, best: PoseProposal
) -> np.ndarray:
    """Unweighted second moment about `best` of the top-weight particles.

    Selects the ceil(TOP_FRACTION * n) highest-weight particles (at least
    one), ties broken by stable (index) order.
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    k = _top_count(poses.shape[0], TOP_FRACTION)
    # the first k of the stable argsort of -weights: the candidates at or
    # above the k-th highest weight, in index order, stably sorted
    neg = -weights
    kth = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(~(neg > kth))
    order = cand[np.argsort(neg[cand], kind="stable")[:k]]
    dev = poses[order] - np.array([best.y, best.theta])
    return dev.T @ dev / k


def _top_count(n: int, fraction: float) -> int:
    return max(1, math.ceil(fraction * n))


def _make_estimate(poses, logliks, n_scored, cfg: MclConfig) -> PoseEstimate:
    best_i = int(np.argmax(logliks))
    best = PoseProposal(float(poses[best_i, 0]), float(poses[best_i, 1]))
    cov = covariance_top_fraction(poses, logliks, best)
    std_y = math.sqrt(max(cov[0, 0], 0.0))
    std_theta = math.sqrt(max(cov[1, 1], 0.0))
    low = std_y > cfg.low_conf_std_y or std_theta > cfg.low_conf_std_theta
    return PoseEstimate(
        pose=best,
        covariance=cov,
        std_y=std_y,
        std_theta=std_theta,
        loglik=float(logliks[best_i]),
        n_points=int(n_scored[best_i]),
        flags=(FLAG_LOW_CONFIDENCE,) if low else (),
    )


def _empty_estimate() -> PoseEstimate:
    cov = MAX_COVARIANCE.copy()
    return PoseEstimate(
        pose=PoseProposal(0.0, 0.0),
        covariance=cov,
        std_y=math.sqrt(cov[0, 0]),
        std_theta=math.sqrt(cov[1, 1]),
        loglik=0.0,
        n_points=0,
        flags=(FLAG_EMPTY_MEASUREMENT, FLAG_LOW_CONFIDENCE),
    )


def _scorer_for(cloud_C: PointCloud, template: Template, cfg: MclConfig) -> PoseScorer | None:
    """None when the frame is unusable (empty, or no ground plane found)."""
    try:
        frame = preprocess(cloud_C, cfg.pre_cfg)
    except DegenerateInputError:
        return None
    return PoseScorer(frame, template, cfg.p_floor)


def _localize_proposals(
    cloud_C: PointCloud, template: Template, cfg: MclConfig, poses: np.ndarray
) -> PoseEstimate:
    """The estimate from the (n, 2) proposals (y, theta), bit for bit the
    one scoring every proposal gives.

    Only the top TOP_FRACTION of proposals, which set the pose and its
    covariance, must be scored exactly, so blocks of proposals whose upper
    bound falls strictly below the k-th best score are skipped
    (`PoseScorer.score_top_k`).
    """
    scorer = _scorer_for(cloud_C, template, cfg)
    if scorer is None:
        return _empty_estimate()
    k = _top_count(poses.shape[0], TOP_FRACTION)
    logliks, n_scored = scorer.score_top_k(poses[:, 0], poses[:, 1], k)
    if not np.any(n_scored):
        return _empty_estimate()
    return _make_estimate(poses, logliks, n_scored, cfg)


def localize_uniform(
    cloud_C: PointCloud, template: Template, cfg: MclConfig, seed: int
) -> PoseEstimate:
    """Draw cfg.n_particles uniform proposals and return the best-scoring
    pose, with top-k pruning (`_localize_proposals`)."""
    poses = sample_uniform(cfg.prior, cfg.n_particles, seed)
    return _localize_proposals(cloud_C, template, cfg, poses)


def localize_grid(cloud_C: PointCloud, template: Template, cfg: MclConfig) -> PoseEstimate:
    """Grid search over the prior box in GRID_Y_STEP x GRID_THETA_STEP
    cells (deterministic oracle), theta-major, with top-k pruning
    (`_localize_proposals`)."""
    p = cfg.prior
    ys = np.arange(p.y_min, p.y_max + 1e-12, GRID_Y_STEP)
    thetas = np.arange(p.theta_min, p.theta_max + 1e-12, GRID_THETA_STEP)
    tt, yy = np.meshgrid(thetas, ys, indexing="ij")
    return _localize_proposals(cloud_C, template, cfg, np.column_stack([yy.ravel(), tt.ravel()]))


def init_particles(cfg: MclConfig, seed: int, n: int | None = None) -> ParticleSet:
    n = n if n is not None else cfg.n_particles
    poses = sample_uniform(cfg.prior, n, seed)
    return ParticleSet(poses, np.full(n, 1.0 / n))


def localize_pf(
    cloud_C: PointCloud,
    prev: ParticleSet,
    u: OdometryDelta,
    template: Template,
    cfg: MclConfig,
    seed: int,
) -> tuple[PoseEstimate, ParticleSet]:
    """One odometry-informed filter step: sample, weight, estimate, resample."""
    rng = np.random.default_rng(seed)
    poses = sample_motion_model(u, prev.poses, rng)
    scorer = _scorer_for(cloud_C, template, cfg)
    if scorer is None:
        return _empty_estimate(), ParticleSet(poses, np.full(len(prev), 1.0 / len(prev)))
    logliks, n_scored = scorer.score(poses[:, 0], poses[:, 1])

    # Lost track: no particle sees a single point (the set has drifted off
    # the row), or every particle scored at the probability floor (shed
    # points pay the no-info penalty, so subtract that baseline).  Either
    # way the weights carry no information; restart from the prior.  Both
    # sides are exact sums of the scorer's rounded logs (measurement.py).
    no_points = not np.any(n_scored)
    floor_ll = n_scored * scorer.tables.log_floor + (scorer.n_points - n_scored) * scorer.log_no_info
    if no_points or np.all(logliks <= floor_ll):
        n = len(prev)
        reinit = init_particles(cfg, int(rng.integers(0, 2**32)), n)
        flags = (FLAG_EMPTY_MEASUREMENT,) if no_points else ()
        est = replace(_empty_estimate(), flags=flags + (FLAG_LOW_CONFIDENCE, FLAG_REINITIALIZED))
        return est, reinit

    est = _make_estimate(poses, logliks, n_scored, cfg)
    weights = np.exp(logliks - logliks.max())
    resampled = resample(ParticleSet(poses, weights), int(rng.integers(0, 2**32)))
    return est, resampled
