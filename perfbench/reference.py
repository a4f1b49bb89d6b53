"""A fixed pure-Python reference workload that gauges the host's speed.

The shared hosts this benchmark runs on change speed by up to 1.8x
within minutes (another tenant on the same cores, not CPU steal), far
more than any bound a regression check could use.  So every timed unit
is bracketed by two measurements of this reference, and the times of
units that run in the benchmark process are scaled to a host on which
the reference takes :data:`NOMINAL_S`.

The reference imports nothing from the library, so no change to the
program can move it.  It does the kind of work the pipeline does: a
frontier-vector sweep over a random DAG (element-wise max merges of
int lists, as the chain-frontier checkers do), reachability probes
into those vectors, and churn of small tuples, lists and dicts.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Reference time of the host the scaled figures describe (seconds).
NOMINAL_S = 0.2


def reference_work(seed: int = 7, nodes: int = 8000, chains: int = 40) -> int:
    rng = random.Random(seed)
    chain_of = [rng.randrange(chains) for _ in range(nodes)]
    preds = [[rng.randrange(i) for _ in range(3)] if i else [] for i in range(nodes)]
    vectors = []
    for i in range(nodes):
        vector = [0] * chains
        for p in preds[i]:
            vector = [a if a >= b else b for a, b in zip(vector, vectors[p])]
        vector[chain_of[i]] = i
        vectors.append(vector)
    hits = 0
    for _ in range(40000):
        a = rng.randrange(nodes)
        if vectors[rng.randrange(nodes)][chain_of[a]] >= a:
            hits += 1
    table = {}
    for i in range(60000):
        table[i % 997] = (i, [i, i + 1], {"v": i})
    return hits


#: Reference runs per measurement.  One run varies by a quarter from
#: second to second on a noisy host; the median of three tracks the
#: slower drift that the scaling is meant to remove.
RUNS = 3


def measure() -> float:
    """Median wall time of :data:`RUNS` reference runs, each from a
    collected heap."""
    samples = []
    for _ in range(RUNS):
        gc.collect()
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(before: float, after: float) -> float:
    """Factor that turns a time bracketed by these two reference runs
    into nominal-host time."""
    return NOMINAL_S / ((before + after) / 2)
