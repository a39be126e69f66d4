"""Literal per-level error norms of the cut-off estimate, the tests' reference oracle.

Each sums one row's squared terms exactly (`math.fsum`), independently of the
cumulative-sum profiles in `speccut.sequence_model` that every rule and table reads.
"""

import math


def strong_error_literal(p, obs, k):
    """||x_k - x_true|| of one row's level-k estimate."""
    var = (obs.y_obs[:k] / p.sigma[:k] - p.x_true[:k]) ** 2
    return math.sqrt(math.fsum(var.tolist() + (p.x_true[k:] ** 2).tolist()))


def weak_error_literal(p, obs, k):
    """||K(x_k - x_true)|| of one row's level-k estimate."""
    var = (obs.y_obs[:k] - obs.y_clean[:k]) ** 2
    return math.sqrt(math.fsum(var.tolist() + (obs.y_clean[k:] ** 2).tolist()))
