_ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, passed: bool, detail: str = ""):
    _ACCEPTANCE_RESULTS.append((number, description, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, desc, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number}: {desc}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
