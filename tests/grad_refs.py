"""Finite-difference references only the tests use, on top of ``jam.nnet``.

``grad_check`` compares analytic gradients with central differences;
``named_views`` names the parts of a gradient vector and ``layer_params``
names one layer's trained arrays, both as ``jam`` names parameters.
"""

import math

import numpy as np

from jam.numkit import RngStream


def layer_params(layer) -> dict:
    """The layer's trained arrays by ``<layer>.<attr>``, in ``PARAMS`` order."""
    return {f"{layer.name}.{attr}": getattr(layer, attr) for attr in layer.PARAMS}


def named_views(arrays: dict, vector) -> dict:
    """Each name of ``arrays`` mapped to its view of ``vector``, laid out
    back to back in the order and the shapes of ``arrays``."""
    views, start = {}, 0
    for name, arr in arrays.items():
        stop = start + math.prod(np.shape(arr))
        views[name] = vector[start:stop].reshape(np.shape(arr))
        start = stop
    return views


def grad_check(
    params: dict,
    loss_fn,
    grads: dict,
    h: float = 1e-5,
    num_samples: int = 200,
    rng: RngStream | None = None,
) -> float:
    """Max relative error between analytic grads and central differences.

    ``loss_fn()`` must be a deterministic function of ``params``. Samples
    ``num_samples`` coordinates across all parameters (all of them if fewer).
    Relative error is |analytic - fd| / max(1e-8, |analytic| + |fd|).
    """
    rng = rng or RngStream(0)
    flat = []
    for name, p in params.items():
        flat.extend((name, i) for i in range(p.size))
    if len(flat) > num_samples:
        picks = rng.choice(len(flat), num_samples, replace=False)
        flat = [flat[i] for i in picks]
    worst = 0.0
    for name, i in flat:
        p = params[name]
        old = p.flat[i]
        p.flat[i] = old + h
        up = loss_fn()
        p.flat[i] = old - h
        down = loss_fn()
        p.flat[i] = old
        fd = (up - down) / (2.0 * h)
        an = float(np.asarray(grads[name]).flat[i])
        rel = abs(an - fd) / max(1e-8, abs(an) + abs(fd))
        worst = max(worst, rel)
    return worst
