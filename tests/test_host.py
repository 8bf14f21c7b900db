import sys
import threading
import time

import pytest

from lungrisk import host


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3, 6])
def test_ordered_map_keeps_input_order_and_a_bounded_window(workers, fast_switching, monkeypatch):
    monkeypatch.setattr(host, "usable_cpus", lambda: workers)
    lock = threading.Lock()
    running, most_running = 0, 0
    finished = set()
    pulled, unfinished = [], []

    def items():
        for i in range(60):
            with lock:
                unfinished.append(len(pulled) - len(finished))
            pulled.append(i)
            yield i

    def work(i):
        nonlocal running, most_running
        with lock:
            running += 1
            most_running = max(most_running, running)
        time.sleep(0.002 * (i % 3))       # later items often finish first
        with lock:
            running -= 1
            finished.add(i)
        return i * i

    out, ahead = [], []
    for value in host.ordered_map(work, items()):
        ahead.append(len(pulled) - len(out))
        out.append(value)
    assert out == [i * i for i in range(60)]
    assert most_running <= workers
    # earlier items still being worked on when the next is pulled
    assert max(unfinished) <= workers, unfinished
    # submitted and not yet yielded, plus the item pulled
    assert max(ahead) <= 2 * workers + 1, ahead


def test_ordered_map_raises_in_order_and_starts_nothing_after(monkeypatch):
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
    started = []

    def work(i):
        started.append(i)
        time.sleep(0.001)
        if i in (5, 7):
            raise ValueError(f"item {i}")
        return i

    out = []
    with pytest.raises(ValueError, match="item 5"):
        for value in host.ordered_map(work, range(100)):
            out.append(value)
    assert out == [0, 1, 2, 3, 4]
    # item 5 and the window after it (two items per thread), not 100
    assert len(started) <= 10, started


def test_ordered_map_closed_early_stops_pulling(monkeypatch):
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
    pulled = []

    def items():
        for i in range(100):
            pulled.append(i)
            yield i

    results = host.ordered_map(lambda i: i, items())
    assert next(results) == 0
    results.close()
    assert len(pulled) <= 6, pulled
