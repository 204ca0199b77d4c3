"""Each demo script runs to completion and prints the same bytes as when
its output was pinned. The hashes change only with a change that is meant
to change what the demos print (a random stream, a score or a class
encoding), and such a change says so."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

DEMO_STDOUT_SHA256 = {
    "01_equivalence_classes.py":
        "570e0d9cd72152aa06b8295d6e949abcf591872a2e3a04f5b2d2fd3ba1df521a",
    "02_scoring_criteria.py":
        "046a6e7342192add7a3178adba507a908323428c4aeaa7e501f278afa264dac1",
    "03_gold_standards_oracle.py":
        "12287c5478cd92d09c99c3de1a1be1e0c58eb25a5f38d84a797e8314adb8a7a6",
    "04_greedy_search.py":
        "ed12a48f2e39668f1969fe2f0373a539d806e461e3a8128b1a4d4c332571ed6d",
    "05_benchmark_sweep.py":
        "d50ffaa5c9b4b6e88e2889eaeeedbbb48e37fd3f0f392538ea2d60b3e1908c66",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT_SHA256) == sorted(
        f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")
    )


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout(tmp_path, demo):
    src = os.path.abspath(os.path.join(ROOT, "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.abspath(os.path.join(ROOT, "demos", demo))],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, check=True, timeout=300,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
    assert not os.listdir(tmp_path)
