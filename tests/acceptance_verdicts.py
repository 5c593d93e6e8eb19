"""Verdict lines recorded by the acceptance tests, replayed by conftest after
the run so that they survive pytest's output capture.

A module of its own, not a conftest attribute: ``bench/tests`` has a conftest
too, and ``from conftest import`` would find whichever loaded last.
"""

ACCEPTANCE_VERDICTS: list[str] = []
