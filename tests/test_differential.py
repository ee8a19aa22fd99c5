"""Differential lockdown: fast paths on == fast paths off, bit for bit.

Each seed derives one random scenario (collective x size x topology x jitter
x faults — see :mod:`repro.bench.fuzz`) and runs it twice, with the
coalescing fast path enabled and disabled.  The two runs must agree
on the full behaviour digest: completion times at repr precision, per-link
byte counters by flow class, control-message counts, and the ObjectID
allocation order.

The tier-1 band here is ~20 seeds; `python -m repro.bench.fuzz --seeds N`
sweeps deeper.  A failing seed prints its spec — reproduce it directly with
``fuzz.differential(seed)``.
"""

import pytest

from repro.bench.fuzz import TIER1_SEEDS, differential


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_fast_paths_match_slow_kernel(seed):
    spec, on, off = differential(seed)
    assert on == off, f"fast-path divergence: {spec.describe()}"
