import numpy as np
import pytest
import scipy.sparse.linalg

from jam.embed_io import SynthConfig, synth_generate
from jam.numkit import RngStream


@pytest.fixture
def rng():
    return RngStream(1234)


@pytest.fixture(scope="session")
def small_synth():
    """Shared planted dataset (n=200) for metric and eval tests."""
    cfg = SynthConfig(n=200, seed=5)
    ds, easy, latents = synth_generate(cfg)
    return ds, easy, latents


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The k of every ARPACK ``eigsh`` call made during the test."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    return calls


@pytest.fixture
def fail_eigsh(monkeypatch):
    """Call it to make every later ``eigsh`` call raise ArpackNoConvergence."""

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

    return lambda: monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)


def assert_allclose(actual, expected, tol):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=tol)
