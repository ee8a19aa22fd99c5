"""Hermetic runs: a scenario's result depends only on its own ``Scenario``.

Directory shard placement hashes ObjectIDs, so IDs are minted from a
counter each cluster owns.  What ran earlier in the process, or in what
order, must change no result.  The admission queues' arrival stamp is
counted by each run's own simulator; only its differences matter.
"""

import itertools
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.digest import _row, churn_scenario
from repro.bench.fuzz import generate_spec, run_spec
from repro.bench.scenarios import Scenario, run

MB = 1024 * 1024
SRC = Path(__file__).resolve().parents[1] / "src"


def _outcome(scenario: Scenario) -> str:
    """The latency ``repr``, or the error the run ended with."""
    try:
        return repr(run(scenario)["latency"])
    except Exception as error:  # noqa: BLE001 - the outcome is the error
        return f"{type(error).__name__}: {error}"


def test_identical_runs_in_one_process_agree():
    """With a process-global ID counter this cell wedged on its first call
    and completed on an identical second one.  Whether it completes is not
    asserted here, only that both calls end the same way."""
    assert _outcome(churn_scenario("allgather", 35)) == _outcome(churn_scenario("allgather", 35))


@lru_cache(maxsize=None)
def _alone(seed: int) -> str:
    """The digest of fuzz seed ``seed`` run alone in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = (
        "from repro.bench.fuzz import generate_spec, run_spec\n"
        f"print(run_spec(generate_spec({seed}), fast_paths=True))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout.strip()


@settings(max_examples=4, deadline=None)
@given(st.lists(st.integers(0, 79), min_size=2, max_size=2, unique=True))
def test_run_order_changes_no_digest(seeds):
    """Two fuzz scenarios run in both orders in one process, nothing reset
    between them: each digests as it does alone in a fresh process."""
    cases = [generate_spec(seed) for seed in seeds]
    forward = [run_spec(case, fast_paths=True) for case in cases]
    backward = [run_spec(case, fast_paths=True) for case in reversed(cases)][::-1]
    assert forward == backward == [_alone(seed) for seed in seeds]


def test_arrival_stamp_offset_changes_no_result():
    """Only differences of the simulator's arrival stamp order the admission
    queues, so starting it far from zero changes no latency, event count,
    byte counter or ObjectID state of a contended alltoall."""
    scenario = Scenario("alltoall", "hoplite", 16, 8 * MB)
    sims: list = []

    def offset(cluster) -> None:
        sims.append(cluster.sim)
        cluster.sim._arrivals = itertools.count(10**9)

    assert _row(scenario, observe=offset) == _row(scenario)
    assert next(sims[0]._arrivals) > 10**9
