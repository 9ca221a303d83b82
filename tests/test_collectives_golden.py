"""Golden row digests of the Figs. 6-8 sweeps.

A small sweep (seed 29, 3 episodes a point, 2/16/64 threads, both
schedules) must give byte-identical rows across changes that only make
the sweep cheaper: program reuse, tree lookups, engine bookkeeping.
Any change to the RNG stream, the order of noise draws or the programs
themselves moves a digest.  A change that is meant to move the figures
records new digests here and regenerates ``results/fig6-8.json``.
"""

import hashlib
import json

import pytest

from repro.experiments import run

GOLDEN_SHA256 = {
    "fig6": "0604fab6e2e9d43f86ad7923c7d6da51c520ebb39d047ec518ddfe7f18fc9346",
    "fig7": "723fb9bba4b5f2fc45a4bad80aa9dd24c7e3d5182c886e400e4148f7612a2e1c",
    "fig8": "72bbfe0b82ff222e71c3323042b1e6e5d59af251f75ebeb8143cd94e002be4cd",
}


def rows_sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("exp_id", sorted(GOLDEN_SHA256))
def test_sweep_rows_match_golden_digest(exp_id):
    res = run(
        exp_id,
        iterations=3,
        seed=29,
        thread_counts=(2, 16, 64),
        schedules=("fill_tiles", "scatter"),
    )
    assert len(res.rows) == 6
    assert rows_sha256(res.rows) == GOLDEN_SHA256[exp_id]
