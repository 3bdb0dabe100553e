import numpy as np
import pytest


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion(request):
    """Record one pass/fail line per acceptance criterion, then assert."""
    def record(num: int, ok: bool, detail: str):
        line = "criterion %2d %s: %s" % (num, "PASS" if ok else "FAIL", detail)
        request.config._criterion_lines.append(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def hermiticity_checks(monkeypatch):
    """Counts, per matrix, the ``is_hermitian`` calls of the package's checks:
    ``hermiticity_checks(mat)`` is how often a matrix equal to ``mat`` was
    tested, ``hermiticity_checks.clear()`` forgets the calls so far."""
    from schmidt_norms import cones, linalg, maps
    seen, check = [], linalg.is_hermitian

    def counted(x):
        seen.append(np.asarray(x))
        return check(x)
    for module in (cones, linalg, maps):
        monkeypatch.setattr(module, "is_hermitian", counted)

    def times(mat) -> int:
        return sum(np.array_equal(x, mat) for x in seen)
    times.clear = seen.clear
    return times
