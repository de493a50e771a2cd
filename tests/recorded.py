"""Comparison of an output with one recorded under ``tests/data``, field by
field, for tests that pin outputs byte for byte."""

from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"


def json_differences(recorded, got, path="$"):
    """(key path, recorded value, got value) of every field where two JSON
    documents differ; a key on one side only reads as missing on the other."""
    if isinstance(recorded, dict) and isinstance(got, dict):
        return [
            diff
            for key in sorted(recorded.keys() | got.keys())
            for diff in json_differences(
                recorded.get(key, "<missing>"), got.get(key, "<missing>"), f"{path}.{key}"
            )
        ]
    if isinstance(recorded, list) and isinstance(got, list) and len(recorded) == len(got):
        return [
            diff
            for i, (want, have) in enumerate(zip(recorded, got))
            for diff in json_differences(want, have, f"{path}[{i}]")
        ]
    return [] if recorded == got and type(recorded) is type(got) else [(path, recorded, got)]


def fail_on_differences(what, recorded, got):
    """Fail, listing every field where the JSON documents ``got`` and
    ``recorded`` differ; ``what`` names the output in the message."""
    fields = json_differences(recorded, got)
    pytest.fail(
        f"{what} differs from the recorded one:\n"
        + "\n".join(f"  {path}: recorded {want!r}, got {have!r}" for path, want, have in fields)
        if fields
        else f"{what} differs from the recorded one in its bytes, not in its fields"
    )
