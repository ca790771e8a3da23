"""SVL003: only picklable objects cross the process-pool boundary."""

from repro.staticcheck.analyzer import check_source

MODULE = "repro.sim.parallel"


def _lines(source, module=MODULE):
    return [
        f.line for f in check_source(source, module=module, select=["SVL003"])
    ]


def test_fixture_hits(fixture_source):
    findings = check_source(
        fixture_source("svl003_picklable.py"),
        module=MODULE,
        select=["SVL003"],
    )
    assert [f.line for f in findings] == [12, 19, 24, 28, 33]
    assert all(f.code == "SVL003" for f in findings)


def test_module_level_callable_passes():
    source = (
        "def _worker(x):\n"
        "    return x\n"
        "def run(pool):\n"
        "    return pool.submit(_worker, 1)\n"
    )
    assert _lines(source) == []


def test_rule_scoped_to_parallel_module():
    source = "def run(pool):\n    return pool.submit(lambda: 1)\n"
    assert _lines(source, module="repro.sim.engine") == []
    assert _lines(source) == [2]
    assert _lines(source, module="repro.util.fanout") == [2]


def test_pool_initializer_checked():
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def build():\n"
        "    return ProcessPoolExecutor(initializer=lambda: None)\n"
    )
    assert _lines(source) == [3]


def test_fanout_driver_payloads_checked():
    source = (
        "from repro.util.fanout import run_tasks\n"
        "def _init():\n"
        "    pass\n"
        "def run(tasks):\n"
        "    def work(state):\n"
        "        return None, state\n"
        "    return run_tasks(tasks, worker=work, initializer=_init)\n"
    )
    assert _lines(source) == [7]


def test_with_open_handle_flagged():
    source = (
        "def _worker(x):\n"
        "    return x\n"
        "def run(pool, path):\n"
        "    with open(path) as fh:\n"
        "        return pool.submit(_worker, fh)\n"
    )
    assert _lines(source) == [5]
