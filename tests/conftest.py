import json
import pathlib

import pytest

from obliqueshell import geometry

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: verdict lines recorded by the acceptance tests; replayed after the run so
#: they survive pytest's output capture
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def circle():
    return geometry.make_curve("circle")


@pytest.fixture(scope="session")
def ellipse():
    return geometry.make_curve("ellipse", a=2.0, b=1.0)


@pytest.fixture(scope="session")
def kite():
    return geometry.make_curve("kite")


@pytest.fixture(scope="session")
def mirror_free():
    """A smooth curve with no mirror axis, where adjoint and conjugate-side
    errors that a symmetric curve hides show up."""
    return geometry.make_curve("custom", x_coeffs=[0, 0.5, 0.1 + 0.05j],
                               y_coeffs=[0, -0.5j, 0.08 + 0.03j])


@pytest.fixture(scope="session")
def bessel_oracle():
    with open(FIXTURES / "bessel_oracle.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def circle_roots():
    with open(FIXTURES / "circle_roots.json") as fh:
        return json.load(fh)
