"""Reed-Frost chain-binomial oracle for reach on a complete graph.

A document spreads from one agent of K_n in generations: each agent not yet
holding it receives it from the i newest holders with probability
1 - (1-p)**i, independently.  Tracking (agents still waiting, newest holders)
gives the distribution of the final number of holders from sums of
nonnegative terms only, in O(n**3) work, independent of the recursion the
library uses.
"""

import math

import numpy as np


def final_size_distribution(n, p):
    """P(exactly k agents end up holding the document), for k = 0..n; 0 < p < 1."""
    log_escape = math.log1p(-p)
    state = np.zeros((n, n + 1))  # state[s, i]: s waiting, i newest holders
    state[n - 1, 1] = 1.0
    final = np.zeros(n + 1)
    for s in range(n - 1, -1, -1):
        i = np.arange(1, n - s + 1)[:, None]
        j = np.arange(s + 1)
        comb = np.array([float(math.comb(s, k)) for k in j])
        pmf = comb * (-np.expm1(i * log_escape)) ** j * np.exp(i * log_escape) ** (s - j)
        flow = state[s, 1 : n - s + 1] @ pmf
        final[n - s] += flow[0]
        state[s - j[1:], j[1:]] += flow[1:]
    return final


def complete_reach_oracle(n, p):
    """(pair reach, probability the document reaches all n agents) on K_n."""
    final = final_size_distribution(n, p)
    holders = np.arange(n + 1)
    pair = float(final[1:] @ (holders[1:] - 1)) / (n - 1)
    return pair, float(final[n])
