import numpy as np
import pytest

from fusionframes import WeightedFrame, catalog, certify_tight, haar_basis_batch, save_frame


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def mercedes():
    return catalog("mercedes")


@pytest.fixture(scope="session")
def mub_planes():
    return catalog("mub-planes-r4")


@pytest.fixture(scope="session")
def ortho_lines_r2():
    return catalog("cross-polytope-lines(2)")


@pytest.fixture(scope="session")
def mc_moment():
    """Monte Carlo oracle for t(k, l, d, p), independent of the zonal sum:
    ``mc_moment(k, l, d, p, budget, rng)`` is the mean of trace(P_V P_W)^p
    over ``budget`` Haar k-subspaces V drawn from ``rng``, and its standard
    error."""
    def estimate(k, l, d, p, budget, rng):
        # W is frozen to the first-l coordinate span; by invariance the law of
        # trace(P_V P_W) is unchanged
        bases = haar_basis_batch(d, k, budget, rng)
        vals = (bases[:, :l, :] ** 2).sum(axis=(1, 2)) ** p
        return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(budget))

    return estimate


@pytest.fixture(scope="session")
def assert_same_frame(tmp_path_factory):
    """A check that a frame agrees bitwise with ``twin``, by default
    ``WeightedFrame(d, frame.entries)``, the same members built from
    (Subspace, weight) pairs: length, weights, dims, stacks, masses (also
    against the frame-order sum), certificates at p = 1..3 and the bytes of
    ``save_frame``, which tell -0.0 from 0.0."""
    folder = tmp_path_factory.mktemp("same-frame")

    def check(frame, twin=None):
        if twin is None:
            twin = WeightedFrame(frame.ambient_dim, frame.entries)
        assert frame.ambient_dim == twin.ambient_dim and len(frame) == len(twin)
        for a, b in ((frame.weights, twin.weights), (frame.dims, twin.dims)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert len(frame.stacks) == len(twin.stacks)
        for (bases, weights), (twin_bases, twin_weights) in zip(frame.stacks, twin.stacks):
            assert np.array_equal(bases, twin_bases) and np.array_equal(weights, twin_weights)
        mass = {}
        for sub, w in twin.entries:
            mass[sub.dim] = mass.get(sub.dim, 0.0) + w
        assert (list(frame.mass_by_dim().items()) == list(twin.mass_by_dim().items())
                == list(mass.items()))
        for p in (1, 2, 3):
            cert, twin_cert = certify_tight(frame, p), certify_tight(twin, p)
            assert (cert.residual, cert.target_A) == (twin_cert.residual, twin_cert.target_A)
        save_frame(frame, folder / "frame.json")
        save_frame(twin, folder / "twin.json")
        assert (folder / "frame.json").read_bytes() == (folder / "twin.json").read_bytes()

    return check
