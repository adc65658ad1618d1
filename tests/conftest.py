import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Shared list of per-criterion verdict lines, echoed after the run."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def interrupt_at(monkeypatch):
    """interrupt_at(L): the first block of period L raises KeyboardInterrupt."""
    import laminhom.stats as stats
    solve = stats._solve_batch

    def arm(period):
        def solve_or_interrupt(args):
            if args[1] == period:
                raise KeyboardInterrupt
            return solve(args)

        monkeypatch.setattr(stats, "_solve_batch", solve_or_interrupt)

    return arm
