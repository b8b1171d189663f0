"""Test helper shared by the test modules that replay traces."""

from perronval.oracle import _required
from perronval.reduce import replay_trace


def replay_matches(doc: dict) -> bool:
    """Whether replaying ``doc`` ends at its recorded ``final_f``; a
    document without one raises InputError."""
    return replay_trace(doc) == _required(doc, "final_f", "trace")
