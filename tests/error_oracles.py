"""Literal per-level error norms of the cut-off estimate, the tests' reference oracle.

Each sums one row's squared terms exactly (`math.fsum`), independently of the
cumulative-sum profiles in `speccut.sequence_model` that every rule and table reads.
Both read the truth from the observation's own problem.
"""

import math


def strong_error_literal(obs, k):
    """||x_k - x_true|| of one row's level-k estimate."""
    p = obs.problem
    var = (obs.y_obs[:k] / p.sigma[:k] - p.x_true[:k]) ** 2
    return math.sqrt(math.fsum(var.tolist() + (p.x_true[k:] ** 2).tolist()))


def weak_error_literal(obs, k):
    """||K(x_k - x_true)|| of one row's level-k estimate."""
    y_clean = obs.problem.y_clean
    var = (obs.y_obs[:k] - y_clean[:k]) ** 2
    return math.sqrt(math.fsum(var.tolist() + (y_clean[k:] ** 2).tolist()))
