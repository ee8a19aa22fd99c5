"""Control-plane kills: fast paths on and off agree on all but known seeds.

A deep sweep, not shrunk by ``--quick``, runs control-plane fuzz seeds
0-199 with fast paths on and off: each seed kills directory shards
mid-collective, and the killed run must digest identically either way.
The seeds whose killed runs differ are asserted exactly: a change that
makes another seed diverge fails here, and one that fixes a seed updates
:data:`DIVERGENT`.  The control-plane kill table itself (WAL replay
against a static job restart) is the claims table's ``control_plane_kill``
(``benchmarks/bench_claims.py``).
"""

from repro.bench.fuzz import control_plane_case, run_spec

#: control-plane fuzz seeds whose killed run differs between fast paths on
#: and off.
DIVERGENT = {63, 82}


def _divergent() -> set:
    divergent = set()
    for seed in range(200):
        case, _ = control_plane_case(seed)
        if run_spec(case, fast_paths=True) != run_spec(case, fast_paths=False):
            divergent.add(seed)
    return divergent


def test_control_plane_fuzz_diverges_only_on_known_seeds(run_once):
    divergent = run_once(_divergent)
    identical = 200 - len(divergent)
    print(f"\n{identical}/200 control-plane seeds identical; divergent: {sorted(divergent)}")
    assert divergent == DIVERGENT
