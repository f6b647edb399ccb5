"""Monte Carlo localization over (lateral offset, heading).

Two sampling modes: uniform draws over a prior box, and an
odometry-informed particle filter with systematic resampling.  The
estimate is always the highest-weight proposal; confidence is the
second-moment matrix of the top-1% proposals about that estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    Box3,
    DegenerateInputError,
    LowConfidenceFitError,
    PointCloud,
    PreprocessConfig,
    preprocess,
)
from .measurement import DEFAULT_P_FLOOR, PoseScorer
from .template import Template

FLAG_EMPTY_MEASUREMENT = "empty-measurement"
FLAG_LOW_CONFIDENCE = "low-confidence"
FLAG_REINITIALIZED = "reinitialized"


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

    @property
    def low_confidence(self) -> bool:
        return FLAG_LOW_CONFIDENCE in self.flags


@dataclass(frozen=True)
class MclConfig:
    prior: UniformPrior = UniformPrior()
    n_particles: int = 5000
    top_fraction: float = 0.01
    p_floor: float = DEFAULT_P_FLOOR
    pre_cfg: PreprocessConfig = PreprocessConfig()
    # None -> the template's full grid box; proposals then pay the
    # no-info penalty for mismatched points instead of shedding them
    cutoff: Box3 | None = None
    # std thresholds above which the estimate is flagged low-confidence
    low_conf_std_y: float = 0.2
    low_conf_std_theta: float = 0.15
    # covariance reported when the measurement is empty
    max_covariance: np.ndarray = field(
        default_factory=lambda: np.diag([0.8**2, 0.6**2])
    )


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
    poses: np.ndarray,
    weights: np.ndarray,
    best: PoseProposal,
    fraction: float = 0.01,
) -> np.ndarray:
    """Unweighted second moment about `best` of the top-weight particles.

    Selects ceil(fraction * n) highest-weight particles, ties broken by
    stable (index) order.
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    n = poses.shape[0]
    k = max(1, math.ceil(fraction * n))
    order = np.argsort(-weights, kind="stable")[:k]
    dev = poses[order] - np.array([best.y, best.theta])
    return dev.T @ dev / k


def _make_estimate(poses, logliks, n_scored, cfg: MclConfig, extra_flags=()) -> PoseEstimate:
    flags = list(extra_flags)
    best_i = int(np.argmax(logliks))
    best = PoseProposal(float(poses[best_i, 0]), float(poses[best_i, 1]))
    cov = covariance_top_fraction(poses, logliks, best, cfg.top_fraction)
    std_y = math.sqrt(max(cov[0, 0], 0.0))
    std_theta = math.sqrt(max(cov[1, 1], 0.0))
    if std_y > cfg.low_conf_std_y or std_theta > cfg.low_conf_std_theta:
        flags.append(FLAG_LOW_CONFIDENCE)
    return PoseEstimate(
        pose=best,
        covariance=cov,
        std_y=std_y,
        std_theta=std_theta,
        loglik=float(logliks[best_i]),
        n_points=int(n_scored[best_i]),
        flags=tuple(dict.fromkeys(flags)),
    )


def _empty_estimate(cfg: MclConfig) -> PoseEstimate:
    cov = np.asarray(cfg.max_covariance, dtype=np.float64)
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
    except (DegenerateInputError, LowConfidenceFitError):
        return None
    cutoff = cfg.cutoff if cfg.cutoff is not None else template.config.template_range
    return PoseScorer(frame, template, cutoff, cfg.p_floor)


def localize_uniform(
    cloud_C: PointCloud,
    template: Template,
    cfg: MclConfig,
    seed: int,
    n: int | None = None,
) -> PoseEstimate:
    """Draw n uniform proposals, score them all, return the argmax pose."""
    n = n if n is not None else cfg.n_particles
    poses = sample_uniform(cfg.prior, n, seed)
    scorer = _scorer_for(cloud_C, template, cfg)
    if scorer is None:
        return _empty_estimate(cfg)
    logliks, n_scored = scorer.score(poses[:, 0], poses[:, 1])
    if not np.any(n_scored):
        return _empty_estimate(cfg)
    return _make_estimate(poses, logliks, n_scored, cfg)


def localize_grid(
    cloud_C: PointCloud,
    template: Template,
    cfg: MclConfig,
    y_step: float = 0.02,
    theta_step: float = 0.01,
) -> PoseEstimate:
    """Exhaustive grid search over the prior box (deterministic oracle)."""
    p = cfg.prior
    ys = np.arange(p.y_min, p.y_max + 1e-12, y_step)
    thetas = np.arange(p.theta_min, p.theta_max + 1e-12, theta_step)
    tt, yy = np.meshgrid(thetas, ys, indexing="ij")
    poses = np.column_stack([yy.ravel(), tt.ravel()])
    scorer = _scorer_for(cloud_C, template, cfg)
    if scorer is None:
        return _empty_estimate(cfg)
    logliks, n_scored = scorer.score(poses[:, 0], poses[:, 1])
    if not np.any(n_scored):
        return _empty_estimate(cfg)
    return _make_estimate(poses, logliks, n_scored, cfg)


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
        return _empty_estimate(cfg), ParticleSet(poses, np.full(len(prev), 1.0 / len(prev)))
    logliks, n_scored = scorer.score(poses[:, 0], poses[:, 1])

    # Lost track: no particle sees a single point (the set has drifted off
    # the row), or every particle scored at the probability floor (shed
    # points pay the no-info penalty, so subtract that baseline).  Either
    # way the weights carry no information; restart from the prior.
    no_points = not np.any(n_scored)
    floor_ll = n_scored * scorer.log_floor + (scorer.n_points - n_scored) * scorer.log_no_info
    if no_points or np.all(logliks <= floor_ll + 1e-9):
        n = len(prev)
        reinit = init_particles(cfg, int(rng.integers(0, 2**32)), n)
        flags = (FLAG_EMPTY_MEASUREMENT,) if no_points else ()
        est = replace(_empty_estimate(cfg), flags=flags + (FLAG_LOW_CONFIDENCE, FLAG_REINITIALIZED))
        return est, reinit

    est = _make_estimate(poses, logliks, n_scored, cfg)
    weights = np.exp(logliks - logliks.max())
    resampled = resample(ParticleSet(poses, weights), int(rng.integers(0, 2**32)))
    return est, resampled
