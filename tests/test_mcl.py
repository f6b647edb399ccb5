import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowloc import mcl
from rowloc.geometry import Box3, PointCloud, Pose6D, PreprocessConfig, PreprocessedFrame
from rowloc.baselines import baseline1, baseline2, baseline2_refine_offset
from rowloc.mcl import (
    FLAG_EMPTY_MEASUREMENT,
    FLAG_LOW_CONFIDENCE,
    FLAG_REINITIALIZED,
    MAX_COVARIANCE,
    MclConfig,
    OdometryDelta,
    ParticleSet,
    PoseProposal,
    UniformPrior,
    covariance_top_fraction,
    init_particles,
    localize_grid,
    localize_pf,
    localize_uniform,
    resample,
    sample_motion_model,
    sample_uniform,
)
from rowloc.synth import (
    SensorSpec,
    TrajectorySpec,
    generate_scene,
    render_frame,
    simulate_odometry,
    sinusoidal_trajectory,
    vineyard_preset,
)
from rowloc.template import GroundTruthPose, Template, TemplateConfig, build_template

PRE = PreprocessConfig(leaf_size=0.08)


def test_sample_uniform_degenerate_interval_is_constant():
    prior = UniformPrior(y_min=0.3, y_max=0.3, theta_min=-0.1, theta_max=0.1)
    s = sample_uniform(prior, 100, seed=0)
    assert np.all(s[:, 0] == 0.3)
    assert np.all((s[:, 1] >= -0.1) & (s[:, 1] <= 0.1))


def test_sample_uniform_mean_within_three_sigma():
    prior = UniformPrior()
    n = 20_000
    s = sample_uniform(prior, n, seed=1)
    # uniform on [a, b]: sd of the mean is (b - a) / sqrt(12 n)
    tol_y = 3 * (prior.y_max - prior.y_min) / math.sqrt(12 * n)
    tol_t = 3 * (prior.theta_max - prior.theta_min) / math.sqrt(12 * n)
    assert abs(s[:, 0].mean()) < tol_y
    assert abs(s[:, 1].mean()) < tol_t


def test_sample_uniform_deterministic_and_validated():
    np.testing.assert_array_equal(
        sample_uniform(UniformPrior(), 50, seed=7), sample_uniform(UniformPrior(), 50, seed=7)
    )
    with pytest.raises(ValueError):
        sample_uniform(UniformPrior(), 0, seed=0)
    with pytest.raises(ValueError):
        UniformPrior(y_min=1.0, y_max=-1.0)


@pytest.mark.parametrize("bound", ["y_min", "y_max", "theta_min", "theta_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_uniform_prior_rejects_a_non_finite_bound(bound, value):
    with pytest.raises(ValueError, match="finite"):
        UniformPrior(**{bound: value})


@pytest.mark.parametrize("p_floor", [math.nan, 0.0, -1e-4, 1.5, math.inf])
def test_mcl_config_rejects_a_p_floor_outside_zero_one(p_floor):
    with pytest.raises(ValueError, match="p_floor"):
        MclConfig(p_floor=p_floor)
    assert MclConfig(p_floor=1.0).p_floor == 1.0


@pytest.mark.parametrize("n", [0, -3])
def test_mcl_config_needs_a_particle(n):
    with pytest.raises(ValueError, match="n_particles"):
        MclConfig(n_particles=n)
    assert MclConfig(n_particles=1).n_particles == 1


def test_motion_model_noise_free_composition():
    poses = np.array([[0.1, 0.2], [-0.3, -0.4]])
    u = OdometryDelta(np.array([0.5, 0.1, 0.05]), np.zeros((3, 3)))
    out = sample_motion_model(u, poses, np.random.default_rng(0))
    for k in range(2):
        y, th = poses[k]
        assert out[k, 0] == pytest.approx(y + 0.5 * math.sin(th) + 0.1 * math.cos(th))
        assert out[k, 1] == pytest.approx(th + 0.05)


def test_motion_model_monte_carlo_covariance():
    sigma = np.diag([0.04**2, 0.03**2, 0.02**2])
    u = OdometryDelta(np.zeros(3), sigma)
    poses = np.zeros((40_000, 2))  # theta = 0: y picks up the dy noise only
    out = sample_motion_model(u, poses, np.random.default_rng(2))
    assert np.var(out[:, 0]) == pytest.approx(0.03**2, rel=0.1)
    assert np.var(out[:, 1]) == pytest.approx(0.02**2, rel=0.1)


def test_odometry_delta_validation():
    with pytest.raises(ValueError):
        OdometryDelta(np.zeros(3), np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(ValueError):
        OdometryDelta(np.zeros(3), np.diag([-1.0, 1, 1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_odometry_delta_rejects_a_non_finite_increment_or_covariance(bad):
    with pytest.raises(ValueError, match="finite"):
        OdometryDelta(np.array([bad, 0.0, 0.0]), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="finite"):
        OdometryDelta(np.zeros(3), np.diag([0.01, bad, 0.01]))


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((3, 2)), np.zeros(2))


def test_resample_equal_weights_preserves_particles():
    poses = np.arange(20, dtype=float).reshape(10, 2)
    ps = ParticleSet(poses, np.full(10, 0.1))
    out = resample(ps, seed=3)
    np.testing.assert_array_equal(np.sort(out.poses, axis=0), np.sort(poses, axis=0))
    np.testing.assert_allclose(out.weights, 0.1)


def test_resample_all_weight_on_one_particle():
    poses = np.arange(20, dtype=float).reshape(10, 2)
    w = np.zeros(10)
    w[4] = 1.0
    out = resample(ParticleSet(poses, w), seed=4)
    assert np.all(out.poses == poses[4])


def test_resample_multiplicities_match_weights_within_one_percent():
    n = 100_000
    poses = np.column_stack([np.arange(4, dtype=float), np.zeros(4)])
    poses = np.repeat(poses, n // 4, axis=0)
    w = np.concatenate([np.full(n // 4, v) for v in (0.1, 0.2, 0.3, 0.4)])
    out = resample(ParticleSet(poses, w), seed=5)
    ids = out.poses[:, 0].astype(int)
    expected = np.array([0.1, 0.2, 0.3, 0.4]) / 1.0 * (n // 4)
    expected = expected / expected.sum()
    for v in range(4):
        frac = np.count_nonzero(ids == v) / n
        assert frac == pytest.approx(expected[v], abs=0.01)


def test_resample_rejects_zero_total_weight():
    with pytest.raises(ValueError):
        resample(ParticleSet(np.zeros((3, 2)), np.zeros(3)), seed=0)


def _padded_to_top_two(poses, weights, n=200):
    """poses and weights followed by zero-weight outliers at y = 10, n rows
    in all: the top TOP_FRACTION of n is 2, the two best given poses."""
    assert math.ceil(mcl.TOP_FRACTION * n) == 2
    pad = n - poses.shape[0]
    return (np.vstack([poses, np.tile([10.0, 0.0], (pad, 1))]),
            np.concatenate([weights, np.zeros(pad)]))


def test_covariance_top_fraction_two_point_example():
    delta = 0.4
    poses, w = _padded_to_top_two(np.array([[0.0, 0.0], [delta, 0.0]]), np.array([0.5, 0.5]))
    cov = covariance_top_fraction(poses, w, PoseProposal(0.0, 0.0))
    assert cov[0, 0] == pytest.approx(delta**2 / 2.0)
    assert cov[1, 1] == 0.0


def test_covariance_top_fraction_selects_highest_weights():
    poses, w = _padded_to_top_two(np.array([[0.0, 0.0], [10.0, 0.0], [0.1, 0.0]]),
                                  np.array([1.0, 0.01, 0.9]))
    cov = covariance_top_fraction(poses, w, PoseProposal(0.0, 0.0))
    # the outlier carries negligible weight and is excluded from the top set
    assert cov[0, 0] == pytest.approx(0.1**2 / 2.0)


def reference_top_covariance(poses, weights, best):
    """covariance_top_fraction by its definition: the first k of the
    stable argsort of -weights, in that order."""
    k = max(1, math.ceil(mcl.TOP_FRACTION * poses.shape[0]))
    order = np.argsort(-weights, kind="stable")[:k]
    dev = poses[order] - np.array([best.y, best.theta])
    return dev.T @ dev / k


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1200), st.integers(0, 2**32 - 1),
       st.sampled_from(["ties", "tied-kth", "-inf", "all-equal", "all--inf", "distinct"]))
def test_covariance_top_fraction_equals_the_stable_argsort_definition(n, seed, kind):
    """The top set, its order, ties broken by index, and -inf weights are
    those of a stable argsort, bit for bit."""
    rng = np.random.default_rng(seed)
    poses = rng.uniform(-2.0, 2.0, (n, 2))
    weights = {
        "ties": rng.choice([-5.0, -1.0, 0.0, 2.5], n),
        # fewer than k above the k-th weight, which many share
        "tied-kth": np.where(rng.uniform(size=n) < 0.004, 2.0, rng.choice([1.0, -3.0], n)),
        "-inf": np.where(rng.uniform(size=n) < 0.7, -np.inf, rng.choice([-1.0, 3.0], n)),
        "all-equal": np.full(n, -7.25),
        "all--inf": np.full(n, -np.inf),
        "distinct": rng.normal(size=n),
    }[kind]
    best = PoseProposal(float(poses[0, 0]), float(poses[0, 1]))
    got = covariance_top_fraction(poses, weights, best)
    assert got.tobytes() == reference_top_covariance(poses, weights, best).tobytes()


def _wall_run(n_frames, amplitude=0.15, row_length=30.0, seed=6):
    spec = vineyard_preset(
        row_length=row_length, foliage_density=30.0, clump_amplitude=1.0
    )
    scene = generate_scene(spec, seed)
    sensor = SensorSpec(hfov=math.radians(150.0), max_range=8.0, noise_coeff=0.001)
    traj = TrajectorySpec(frame_rate=6.0, amplitude=amplitude, wavelength=15.0)
    poses_t = sinusoidal_trajectory(traj, row_length, spec, sensor)
    poses = [p for p, _ in poses_t][:n_frames]
    clouds = [render_frame(scene, p, sensor, seed=1000 + i) for i, p in enumerate(poses)]
    return spec, sensor, poses, clouds


@pytest.fixture(scope="module")
def wall_template_and_run():
    spec, sensor, poses, clouds = _wall_run(130)
    truths = [GroundTruthPose(y=p.y, theta=p.yaw) for p in poses]
    template = build_template(clouds[:100], truths[:100], TemplateConfig(), PRE)
    return template, poses, clouds


def test_localize_uniform_single_sample_returns_it(wall_template_and_run):
    template, poses, clouds = wall_template_and_run
    cfg = MclConfig(pre_cfg=PRE, n_particles=1)
    est = localize_uniform(clouds[10], template, cfg, seed=8)
    expected = sample_uniform(cfg.prior, 1, seed=8)[0]
    assert est.pose.y == expected[0]
    assert est.pose.theta == expected[1]


def test_localize_uniform_deterministic(wall_template_and_run):
    template, poses, clouds = wall_template_and_run
    cfg = MclConfig(pre_cfg=PRE, n_particles=2000)
    a = localize_uniform(clouds[12], template, cfg, seed=9)
    b = localize_uniform(clouds[12], template, cfg, seed=9)
    assert a.pose == b.pose
    np.testing.assert_array_equal(a.covariance, b.covariance)


def test_localize_uniform_near_truth(wall_template_and_run):
    template, poses, clouds = wall_template_and_run
    cfg = MclConfig(pre_cfg=PRE, n_particles=4000)
    errs = []
    for i in (105, 112, 119):
        est = localize_uniform(clouds[i], template, cfg, seed=10 + i)
        errs.append(abs(est.pose.y - poses[i].y))
        assert np.all(np.linalg.eigvalsh(est.covariance) >= -1e-12)
    assert np.mean(errs) < 0.08


def test_localize_empty_cloud_is_flagged(wall_template_and_run):
    template, _, _ = wall_template_and_run
    cfg = MclConfig(pre_cfg=PRE)
    est = localize_uniform(PointCloud(np.zeros((0, 3))), template, cfg, seed=11)
    assert FLAG_EMPTY_MEASUREMENT in est.flags
    assert FLAG_LOW_CONFIDENCE in est.flags
    np.testing.assert_array_equal(est.covariance, MAX_COVARIANCE)


def test_particle_filter_tracks_without_drift(wall_template_and_run):
    template, poses, clouds = wall_template_and_run
    cfg = MclConfig(pre_cfg=PRE, n_particles=1200)
    sub_poses, sub_clouds = poses[80:130], clouds[80:130]
    # exact increments, but a small assumed covariance keeps the particle
    # cloud diverse so the filter can absorb resampling noise
    assumed = np.diag([0.01**2, 0.01**2, 0.005**2])
    exact = simulate_odometry(sub_poses, np.zeros((3, 3)), seed=12)
    odo = [OdometryDelta(u.u, assumed) for u in exact]
    particles = init_particles(cfg, seed=13)
    errs = []
    for i in range(50):
        u = OdometryDelta(np.zeros(3), assumed) if i == 0 else odo[i - 1]
        est, particles = localize_pf(sub_clouds[i], particles, u, template, cfg, seed=200 + i)
        errs.append(abs(est.pose.y - sub_poses[i].y))
    # after burn-in the filter stays locked to the truth
    assert np.mean(errs[10:]) <= 0.1
    assert errs[-1] <= 0.1


def test_particle_filter_recovers_after_drifting_off_the_row(wall_template_and_run):
    """A set locked onto a wrong heading drifts until no particle scores a
    point; the filter must then restart from the prior and lock back on."""
    template, poses, clouds = wall_template_and_run
    cfg = MclConfig(pre_cfg=PRE, n_particles=1200)
    sub_poses, sub_clouds = poses[80:130], clouds[80:130]
    assumed = np.diag([0.01**2, 0.01**2, 0.005**2])
    exact = simulate_odometry(sub_poses, np.zeros((3, 3)), seed=12)
    odo = [OdometryDelta(u.u, assumed) for u in exact]
    n = cfg.n_particles
    particles = ParticleSet(np.column_stack([np.zeros(n), np.full(n, 1.2)]), np.full(n, 1.0 / n))
    flags, y_err, theta_err = [], [], []
    for i in range(50):
        u = OdometryDelta(np.zeros(3), assumed) if i == 0 else odo[i - 1]
        est, particles = localize_pf(sub_clouds[i], particles, u, template, cfg, seed=200 + i)
        flags.append(est.flags)
        y_err.append(abs(est.pose.y - sub_poses[i].y))
        theta_err.append(abs(est.pose.theta - sub_poses[i].yaw))
    reinit = [i for i, f in enumerate(flags) if FLAG_REINITIALIZED in f]
    assert reinit, "the filter never restarted"
    first = reinit[0]
    assert FLAG_EMPTY_MEASUREMENT in flags[first]
    # AC7's bound: after a short burn-in the filter is at least as accurate
    # as the twin-line baseline on the same frames
    later = range(first + 5, 50)
    assert len(later) >= 10
    b1 = [baseline1(sub_clouds[i], seed=300 + i) for i in later]
    b1_y = np.mean([abs(b[0] - sub_poses[i].y) for b, i in zip(b1, later)])
    b1_theta = np.mean([abs(b[1] - sub_poses[i].yaw) for b, i in zip(b1, later)])
    assert all(FLAG_EMPTY_MEASUREMENT not in flags[i] for i in later)
    assert np.mean([y_err[i] for i in later]) <= b1_y
    assert np.mean([theta_err[i] for i in later]) <= b1_theta


@pytest.mark.parametrize("p_floor", [1e-4, 2e-4, 1e-5])
def test_particle_filter_restarts_when_every_particle_scores_at_the_floor(monkeypatch, p_floor):
    """An all-zero template: every point a particle places in the box pays
    the floor, and every other point the no-info log, so the weights carry
    no information and the filter restarts.  The scores must equal the
    floor baseline exactly at every p_floor, not only where the rounding
    of the two logs happens to fall below it."""
    box = Box3.from_ranges((0.0, 4.0), (-2.0, 2.0), (0.0, 2.0))
    tcfg = TemplateConfig(template_range=box, row_range=box, no_info_frequency=0.02)
    template = Template(tcfg, np.zeros(tcfg.dims, dtype=np.float32), 10)
    rng = np.random.default_rng(3)
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], (200, 3))
    frame = PreprocessedFrame(PointCloud(pts), 0.0, 0.0, 0.0)
    monkeypatch.setattr(mcl, "preprocess", lambda cloud, pre_cfg: frame)
    cfg = MclConfig(p_floor=p_floor, n_particles=50)
    prev = ParticleSet(np.zeros((50, 2)), np.full(50, 1.0 / 50))
    u = OdometryDelta(np.zeros(3), np.diag([0.05**2, 0.05**2, 0.02**2]))
    est, _ = localize_pf(frame.cloud_V, prev, u, template, cfg, seed=4)
    assert FLAG_REINITIALIZED in est.flags
    assert FLAG_EMPTY_MEASUREMENT not in est.flags


def _with_bad_rows(points, kind, rng):
    """(points with bad rows inserted, mask of the good rows)."""
    if kind == "inf":
        bad = np.array([[np.inf, 0.0, 1.0]])
    elif kind in ("far", "farther"):  # finite, but past any int64 voxel index
        bad = np.array([[1e20 if kind == "far" else 1e300, 0.0, 1.0]])
    else:  # NaN in one coordinate of 10% of the points
        bad = points[rng.choice(len(points), len(points) // 10, replace=False)].copy()
        bad[np.arange(len(bad)), rng.integers(0, 3, len(bad))] = np.nan
    out = np.vstack([points, bad])
    order = rng.permutation(len(out))
    return out[order], order < len(points)


@pytest.mark.parametrize("kind", ["inf", "nan10", "far", "farther"])
def test_non_finite_points_are_dropped_by_every_estimator(wall_template_and_run, kind):
    """Every estimator returns what it returns on the cloud without the bad
    rows: a finite estimate, never an exception or a warning.  Finite rows
    too far off for a voxel index are bad rows too."""
    template, poses, clouds = wall_template_and_run
    cfg = MclConfig(pre_cfg=PRE, n_particles=500)
    rng = np.random.default_rng(21)
    points, finite = _with_bad_rows(clouds[105].points, kind, rng)
    dirty, clean = PointCloud(points), PointCloud(points[finite])
    particles = init_particles(cfg, seed=3)
    zero_u = OdometryDelta(np.zeros(3), np.diag([0.01**2, 0.01**2, 0.005**2]))

    def run(cloud):
        _, _, pair = baseline2(cloud, seed=5)
        return {
            "uniform": localize_uniform(cloud, template, cfg, seed=4).pose,
            "grid": localize_grid(cloud, template, cfg).pose,
            "pf": localize_pf(cloud, particles, zero_u, template, cfg, seed=6)[0].pose,
            "baseline1": baseline1(cloud, seed=5),
            "baseline2": baseline2(cloud, seed=5)[:2],
            "baseline2-refined": baseline2_refine_offset(cloud, pair),
        }

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = run(dirty)
    assert got == run(clean)
    for est in got.values():
        values = (est.y, est.theta) if isinstance(est, PoseProposal) else np.atleast_1d(est)
        assert np.all(np.isfinite(values))
