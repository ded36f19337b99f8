"""The operator checks of vplandau.verify report a defect when one exists."""

import dataclasses
import warnings

import numpy as np

from vplandau import landau, verify
from vplandau.grid import PhaseGrid, SpatialGrid, VelocityGrid


def test_oracle_error_exposes_mismatched_tables():
    tables = landau.build_kernel_tables(0.0, VelocityGrid(8, 8.0),
                                        measure=False)
    matching = verify.oracle_error(tables, np.random.default_rng(1), 2)
    # FFT path with gamma = 0 kernels, oracle at gamma = -1
    wrong = dataclasses.replace(tables, gamma=-1.0)
    mismatched = verify.oracle_error(wrong, np.random.default_rng(1), 2)
    assert matching <= 1e-12
    assert mismatched > verify.FFT_ORACLE_TOL


def test_mass_moment_error_is_round_off_for_a_growing_kernel():
    # |int Q| is round-off of a sum of Q, so it is read against int |Q|;
    # read against ||g|| ||f|| it reached 3.8e-12 here
    tables = landau.build_kernel_tables(1.0, VelocityGrid(16, 8.0),
                                        measure=False)
    err = verify.mass_moment_error(tables, np.random.default_rng(1234), 6)
    assert err <= verify.MASS_MOMENT_TOL


def test_projection_defects_act_on_raw_pairs():
    # the random pairs are not charge neutral; the projections never read a
    # potential, so none is solved and none warns about the charge's mean
    grid = PhaseGrid(SpatialGrid(1, 8), VelocityGrid(32, 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst = verify.projection_defects(grid, np.random.default_rng(109), 5)
    assert max(worst.values()) <= verify.PROJECTION_TOL
