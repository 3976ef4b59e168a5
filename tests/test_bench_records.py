"""Benchmark records at the repository root: every BENCH_*.json names what
it claims and how it was run, and its exact answers are unchanged."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def entries(node, key):
    """Every value stored under key anywhere in a JSON document."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key:
                yield v
            yield from entries(v, key)
    elif isinstance(node, list):
        for v in node:
            yield from entries(v, key)


def counts(value):
    """The integers of a failed entry: a count, a list of counts, or such
    lists by side."""
    if isinstance(value, int):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    return [n for v in value for n in counts(v)]


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_claim_and_runs(path):
    record = json.loads(path.read_text())
    for key in ("claim", "command", "seed", "pairs"):
        assert key in record, f"{path.name} has no {key!r}"
    assert record["pairs"] >= 1


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_answers_are_unchanged(path):
    record = json.loads(path.read_text())
    assert "digest_round0" in record
    for digest in entries(record, "digest_round0"):
        if isinstance(digest, dict):  # a single run records a string
            assert digest["parent"] == digest["change"]
    for failed in entries(record, "failed"):
        assert counts(failed) and set(counts(failed)) == {0}
