"""``tools/ab.py``: the stderr classification of a perfbench run that
printed no result line."""

from __future__ import annotations

import importlib.util
import os

_spec = importlib.util.spec_from_file_location(
    "ab", os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

_CHECK = "[2026-01-01 raylet] src/ray/object_manager/plasma/store.cc:123: Check failed: ok\n"
_TIMEOUT = "perfbench: run exceeded 300 s; stopping it\n"
_SIGNAL = "perfbench: run died of signal 9\n"
_TRACEBACK = 'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: bad\n'


def test_classify_tells_the_supervisor_messages_apart():
    """The supervisor exits 6 on a timeout and on a signal death alike, so
    the class comes from its message, not the exit code."""
    assert ab.classify(_TIMEOUT) == "timeout"
    assert ab.classify(_SIGNAL) == "signal"
    assert ab.classify(_CHECK + _SIGNAL) == "check_failed"
    assert ab.classify(_TRACEBACK) == "traceback"
    assert ab.classify(_TRACEBACK + _TIMEOUT) == "timeout"
    assert ab.classify("perfbench: pass 0 failed: []\n") == "other"
