"""``fork_map``: the seed-level parallelism under ``ScenarioRunner(jobs=)``
and ``fuzz(jobs=)``."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.eval.runner import ForkWorkerError, fork_map


def test_results_come_back_in_item_order():
    def slow_square(item):
        time.sleep((5 - item) * 0.02)     # later items finish first
        return item * item, os.getpid()

    results = fork_map(slow_square, range(5), jobs=2)
    assert [square for square, _pid in results] == [0, 1, 4, 9, 16]
    assert os.getpid() not in {pid for _square, pid in results}


def test_a_raising_child_is_a_fork_worker_error_with_its_traceback():
    def fail_on_three(item):
        if item == 3:
            raise ValueError(f"boom {item}")
        return item

    with pytest.raises(ForkWorkerError) as excinfo:
        fork_map(fail_on_three, range(5), jobs=2, label="case")
    message = str(excinfo.value)
    assert "case for item 3 raised" in message
    assert "Traceback" in message and "ValueError: boom 3" in message


def test_a_result_larger_than_the_pipe_buffer_returns():
    # The parent drains each pipe before waitpid: a child blocked writing
    # a megabyte would otherwise never exit.
    def deadlocked(signum, frame):
        raise TimeoutError("fork_map never reaped a large result")

    previous = signal.signal(signal.SIGALRM, deadlocked)
    signal.alarm(60)
    try:
        results = fork_map(lambda size: b"x" * size, [1 << 20] * 3, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [len(blob) for blob in results] == [1 << 20] * 3


def test_more_jobs_than_items_forks_one_child_per_item():
    results = fork_map(lambda item: (item, os.getpid()), range(3), jobs=8)
    assert [item for item, _pid in results] == [0, 1, 2]
    assert len({pid for _item, pid in results} - {os.getpid()}) == 3


def test_no_items_is_an_empty_result():
    assert fork_map(lambda item: item, [], jobs=3) == []


def test_a_child_that_dies_without_reporting_is_a_fork_worker_error():
    def die_on_one(item):
        if item == 1:
            os._exit(3)
        return item

    with pytest.raises(ForkWorkerError,
                       match="case for item 1 died without reporting"):
        fork_map(die_on_one, range(3), jobs=2, label="case")


def test_an_unpicklable_result_is_a_fork_worker_error():
    # The child cannot ship a lambda back; it ships the pickling traceback.
    with pytest.raises(ForkWorkerError) as excinfo:
        fork_map(lambda item: (lambda: item), range(2), jobs=2)
    message = str(excinfo.value)
    assert "worker for item 0 raised" in message
    assert "pickle" in message.lower()


def test_a_failed_map_kills_and_reaps_the_children_still_running(tmp_path):
    def fail_first_or_hang(item):
        if item == 0:
            # Fail only once both siblings are up and have said who they are.
            deadline = time.monotonic() + 20
            while (len(list(tmp_path.glob("*.pid"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            raise ValueError("first item fails")
        (tmp_path / f"{item}.tmp").write_text(str(os.getpid()))
        os.replace(tmp_path / f"{item}.tmp", tmp_path / f"{item}.pid")
        time.sleep(60)
        return item

    started = time.monotonic()
    with pytest.raises(ForkWorkerError, match="first item fails"):
        fork_map(fail_first_or_hang, range(3), jobs=3)
    assert time.monotonic() - started < 40
    pid_files = sorted(tmp_path.glob("*.pid"))
    assert [path.name for path in pid_files] == ["1.pid", "2.pid"]
    for pid_file in pid_files:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)


def test_one_job_runs_in_process():
    seen = []

    def record(item):
        seen.append(item)
        return os.getpid()

    assert fork_map(record, range(4), jobs=1) == [os.getpid()] * 4
    assert seen == [0, 1, 2, 3]
