"""Fixed reference work that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, whose load
changes how fast a core runs netsec's code: within a second by a fifth or
more, and over minutes by up to half.  A fresh process also runs at a
speed of its own, which can differ from the next one's by a tenth.  Each
child times this work right after its command (see child.py), and the
benchmark reports the command's time at the speed at which the work takes
its nominal time, so drift and the process's own speed largely cancel.

Each workload uses the kind of work that behaves like its own hot loop,
because contention slows interpreter loops, small numpy calls and numpy
array sweeps by different amounts:

- `projection`: Euclidean projections of 5-vectors onto the simplex in
  numpy (the attacker's problem), alternating with a plain Python loop;
  for the game and attack solvers.
- `union_find`: union-find over every edge subset of a fixed graph in
  plain Python; for exact enumeration.
- `labelling`: min-label propagation over random samples of a ring in
  numpy arrays; for Monte Carlo dissemination.

The work is written here, not imported from netsec, so no change to the
program changes the reference.  It runs in chunks of about a tenth of a
second.
"""

import time

import numpy as np

# 8 nodes, 11 edges: 2048 subsets per enumeration.
UF_N = 8
UF_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (0, 4), (1, 5), (2, 6))
RING_N = 6
LABEL_SAMPLES = 20_000


def _project(v, omega=1.0):
    vs = np.sort(v)[::-1]
    lams = (omega - np.cumsum(vs)) / np.arange(1, v.size + 1)
    k = int(np.nonzero(vs + lams > 0.0)[0][-1]) + 1
    return np.maximum(v + lams[k - 1], 0.0) / omega


def projection():
    v = np.array([0.3, 0.1, 0.7, 0.2, 0.5])
    total = 0
    for _ in range(3):
        for _ in range(1000):
            v = 0.999 * v + 0.001 * _project(v)
        for i in range(100_000):
            total += (i * i) % 7
    return total


def _connected_subsets():
    eu = [u for u, _ in UF_EDGES]
    ev = [v for _, v in UF_EDGES]
    connected = 0
    for mask in range(1 << len(UF_EDGES)):
        parent = list(range(UF_N))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        mm = mask
        while mm:
            e = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            ru, rv = find(eu[e]), find(ev[e])
            if ru != rv:
                parent[rv] = ru
        roots = [find(v) for v in range(UF_N)]
        connected += roots.count(roots[0]) == UF_N
    return connected


def union_find():
    return sum(_connected_subsets() for _ in range(7))


def labelling():
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(4):
        present = rng.random((LABEL_SAMPLES, RING_N)) < 0.5
        labels = np.broadcast_to(np.arange(RING_N, dtype=np.int32), present.shape).copy()
        for _ in range(RING_N // 2):
            for e in range(RING_N):
                u, v = e, (e + 1) % RING_N
                low = np.minimum(labels[:, u], labels[:, v])
                on = present[:, e]
                labels[on, u] = low[on]
                labels[on, v] = low[on]
        total += int((labels == labels[:, :1]).sum())
    return total


KINDS = {"projection": projection, "union_find": union_find, "labelling": labelling}
# Seconds one chunk of each kind took in a child on the machine the
# benchmark was written on.  Times are reported at that speed.
CHUNK_S = {"projection": 0.10, "union_find": 0.09, "labelling": 0.09}
# Reference time after a command, as a share of the command's time.  The
# reference's own noise adds to the program's; in a run of fixed length,
# half the program's time comes close to the least sum.
SHARE = 0.5


def speed(kind, command_s):
    """Speed factors {"wall_s": f, "cpu_s": f}: CHUNK_S over the chunk time
    measured now, over about SHARE times `command_s` of work."""
    work = KINDS[kind]
    chunks = max(1, round(SHARE * command_s / CHUNK_S[kind]))
    cpu_start, start = time.process_time(), time.perf_counter()
    for _ in range(chunks):
        work()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return {"wall_s": CHUNK_S[kind] * chunks / wall, "cpu_s": CHUNK_S[kind] * chunks / cpu}
