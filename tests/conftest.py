CRITERION_RESULTS = []


def record_criterion(number, passed, detail):
    CRITERION_RESULTS.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(CRITERION_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d}: {status} — {detail}")


def counted(fn, tally, key):
    """`fn` wrapped to add one to tally[key] on every call."""
    def wrapper(*args, **kwargs):
        tally[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_callback_calls(monkeypatch, module, name, tally, key):
    """Replace `module.name(callback, ...)` by a wrapper that counts the
    calls of the callback it is handed under tally[key]."""
    fn = getattr(module, name)

    def wrapper(callback, *args, **kwargs):
        return fn(counted(callback, tally, key), *args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
