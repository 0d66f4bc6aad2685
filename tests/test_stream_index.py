"""The index of v1-dependent tests in tests/stream_v1.py names tests that
exist, and names no v1-dependent test as a contract-free twin."""

import subprocess
import sys
from pathlib import Path

from tests.stream_v1 import DRAW_DEPENDENT, IMPLEMENTATION

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = DRAW_DEPENDENT + IMPLEMENTATION


def _covers(name: str, node_id: str) -> bool:
    """Whether index name ``name`` covers ``node_id``: the same test, one of
    its parameters, or a test of the class it names."""
    return node_id == name or node_id.startswith((name + "[", name + "::"))


def test_index_names_collected_tests():
    named = {e.test for e in ENTRIES} | {twin for e in ENTRIES for twin in e.twins}
    files = sorted({name.split("::")[0] for name in named})
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *files],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert [n for n in sorted(named) if not any(_covers(n, c) for c in collected)] == []
    # CI compares failed ids with these exactly, so each is one collected id
    assert [e.test for e in DRAW_DEPENDENT if e.test not in collected] == []


def test_twins_are_not_indexed():
    tests = [e.test for e in ENTRIES]
    assert len(tests) == len(set(tests))
    twins = {twin for e in ENTRIES for twin in e.twins}
    assert [(t, w) for t in tests for w in twins if _covers(t, w) or _covers(w, t)] == []
