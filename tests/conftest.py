"""Shared fixtures: deterministic hand-built scenes and small synthetic runs."""

import os

import numpy as np
import pytest
from hypothesis import settings

from rowloc.geometry import PointCloud, invert, make_pose_transform, transform_cloud

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failure
# seen in CI reproduces locally with the same variable set
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_wall_cloud_T(
    row_spacing=3.0,
    length=15.0,
    height=2.2,
    step=0.15,
    ground_half_width=2.5,
    ground_step=0.3,
    x0=0.5,
):
    """Noiseless two-wall + ground cloud in the row-aligned frame {T}.

    Regular grids, no randomness: usable as an exact geometric oracle.
    """
    xs = np.arange(x0, length, step)
    zs = np.arange(0.1, height, step)
    wx, wz = np.meshgrid(xs, zs, indexing="ij")
    wx, wz = wx.ravel(), wz.ravel()
    half = row_spacing / 2.0
    left = np.column_stack([wx, np.full(wx.shape, half), wz])
    right = np.column_stack([wx, np.full(wx.shape, -half), wz])
    gx = np.arange(x0, length, ground_step)
    gy = np.arange(-ground_half_width, ground_half_width + 1e-9, ground_step)
    gxx, gyy = np.meshgrid(gx, gy, indexing="ij")
    ground = np.column_stack([gxx.ravel(), gyy.ravel(), np.zeros(gxx.size)])
    return PointCloud(np.vstack([left, right, ground]), "T")


def camera_cloud_at(cloud_T: PointCloud, y: float, theta: float, z: float = 1.0):
    """The {C} (= {V}) view of a {T} cloud from vehicle pose (y, theta, z)."""
    T = make_pose_transform(y, theta, 0.0, 0.0, z)
    return transform_cloud(invert(T), cloud_T, frame="C")


def grid_poses(cfg, y_step, theta_step):
    """The (n, 2) cells (y, theta) of a grid search over cfg's prior box, theta-major."""
    p = cfg.prior
    ys = np.arange(p.y_min, p.y_max + 1e-12, y_step)
    thetas = np.arange(p.theta_min, p.theta_max + 1e-12, theta_step)
    tt, yy = np.meshgrid(thetas, ys, indexing="ij")
    return np.column_stack([yy.ravel(), tt.ravel()])


@pytest.fixture(scope="session")
def wall_cloud_T():
    return make_wall_cloud_T()


@pytest.fixture(scope="session")
def centered_wall_cloud_C(wall_cloud_T):
    return camera_cloud_at(wall_cloud_T, 0.0, 0.0)
