"""ProjectGraph: symbol table, edge resolution, boundary facts."""

from pathlib import Path

from repro.staticcheck.callgraph import ProjectGraph
from repro.staticcheck.context import ModuleContext, Project


def _ctx(source, module):
    return ModuleContext.from_source(
        source, Path(f"<{module}>"), module=module
    )


def _graph(*pairs):
    return ProjectGraph([_ctx(src, mod) for src, mod in pairs])


def test_symbol_table_indexes_functions_methods_and_nested():
    graph = _graph(
        (
            "def top():\n"
            "    def inner():\n"
            "        pass\n"
            "    return inner\n"
            "class Store:\n"
            "    def put(self, key):\n"
            "        pass\n",
            "repro.demo",
        )
    )
    assert set(graph.functions) == {
        "repro.demo.top",
        "repro.demo.top.inner",
        "repro.demo.Store.put",
    }
    assert graph.function("repro.demo.Store.put").cls == "Store"
    assert graph.function("repro.demo.top").name == "top"


def test_cross_module_edges_resolve_through_imports():
    graph = _graph(
        ("def helper(x):\n    return x\n", "repro.a"),
        (
            "from repro.a import helper\n"
            "def caller():\n"
            "    return helper(1)\n",
            "repro.b",
        ),
    )
    caller = graph.function("repro.b.caller")
    assert [site.callee for site in caller.calls] == ["repro.a.helper"]
    callers = graph.callers_of("repro.a.helper")
    assert [(fn.qualname, call.lineno) for fn, call in callers] == [
        ("repro.b.caller", 3)
    ]


def test_self_method_dispatch_resolves():
    graph = _graph(
        (
            "class Engine:\n"
            "    def run(self):\n"
            "        self.step()\n"
            "    def step(self):\n"
            "        pass\n",
            "repro.demo",
        )
    )
    run = graph.function("repro.demo.Engine.run")
    assert [site.callee for site in run.calls] == ["repro.demo.Engine.step"]


def test_unresolvable_calls_produce_no_edges():
    graph = _graph(
        (
            "def caller(obj):\n"
            "    obj.method()\n"
            "    unknown_name(1)\n",
            "repro.demo",
        )
    )
    assert graph.function("repro.demo.caller").calls == []


def test_pool_facts_propagate_transitively():
    graph = _graph(
        (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def leaf():\n"
            "    pass\n"
            "def worker(task):\n"
            "    leaf()\n"
            "    return task\n"
            "def driver(tasks):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(worker, tasks))\n",
            "repro.demo",
        )
    )
    worker = graph.function("repro.demo.worker")
    leaf = graph.function("repro.demo.leaf")
    driver = graph.function("repro.demo.driver")
    assert worker.pool_entry and worker.runs_in_pool_worker
    assert not leaf.pool_entry and leaf.runs_in_pool_worker
    assert not driver.runs_in_pool_worker
    assert [f.qualname for f in graph.pool_worker_functions()] == [
        "repro.demo.leaf",
        "repro.demo.worker",
    ]


def test_initializer_is_a_pool_entry():
    graph = _graph(
        (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def _init(cfg):\n"
            "    pass\n"
            "def driver():\n"
            "    return ProcessPoolExecutor(initializer=_init)\n",
            "repro.demo",
        )
    )
    assert graph.function("repro.demo._init").pool_entry


def test_thread_facts_propagate():
    graph = _graph(
        (
            "import threading\n"
            "def tick():\n"
            "    poll()\n"
            "def poll():\n"
            "    pass\n"
            "def start():\n"
            "    threading.Thread(target=tick).start()\n",
            "repro.demo",
        )
    )
    assert graph.function("repro.demo.tick").thread_entry
    assert graph.function("repro.demo.poll").reachable_from_thread
    assert not graph.function("repro.demo.start").reachable_from_thread


def test_touches_persisted_path_fact():
    graph = _graph(
        (
            "from pathlib import Path\n"
            "def save(path):\n"
            "    Path(path).write_text('x')\n"
            "def load(path):\n"
            "    return Path(path).read_text()\n",
            "repro.demo",
        )
    )
    assert graph.function("repro.demo.save").touches_persisted_path
    assert not graph.function("repro.demo.load").touches_persisted_path


def test_project_graph_is_lazy_and_cached():
    project = Project([_ctx("def f():\n    pass\n", "repro.demo")])
    graph = project.graph
    assert graph is project.graph  # built once, cached
    assert "repro.demo.f" in graph.functions


def test_fanout_driver_keywords_are_pool_entries():
    """``run_tasks`` submits its ``worker=`` parameter — an edge no
    resolver can follow — so its call sites name the entries."""
    graph = _graph(
        ("def run_tasks(tasks, *, worker, initializer):\n    pass\n",
         "repro.util.fanout"),
        (
            "from repro.util.fanout import run_tasks\n"
            "def leaf():\n"
            "    pass\n"
            "def _work(state, name):\n"
            "    leaf()\n"
            "def _init(path):\n"
            "    pass\n"
            "def run(tasks):\n"
            "    return run_tasks(tasks, worker=_work, initializer=_init)\n",
            "repro.demo",
        ),
    )
    assert graph.function("repro.demo._work").pool_entry
    assert graph.function("repro.demo._init").pool_entry
    assert graph.function("repro.demo.leaf").runs_in_pool_worker
    assert not graph.function("repro.demo.run").runs_in_pool_worker


SRC = Path(__file__).resolve().parents[2] / "src"


def _real_project(patch=None):
    contexts = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        source = path.read_text()
        if patch is not None and path.name == patch[0]:
            assert patch[1] in source
            source = source.replace(patch[1], patch[2])
        contexts.append(ModuleContext.from_source(source, path))
    return Project(contexts)


def test_real_suite_and_shard_workers_are_pool_entries():
    graph = _real_project().graph
    for qualname in (
        "repro.sim.parallel._run_one",
        "repro.sim.parallel._init_worker",
        "repro.sim.parallel._replay_shard",
        "repro.sim.parallel._init_shard_worker",
        "repro.util.fanout._run_in_pool_worker",
        "repro.util.fanout._init_pool_worker",
    ):
        assert graph.function(qualname).pool_entry, qualname
    # ... and the fact still reaches the engines behind them.
    assert graph.function("repro.sim.engine.simulate").runs_in_pool_worker


def test_global_mutation_inside_a_real_worker_trips_svl008():
    from repro.staticcheck.registry import all_rules

    (rule,) = [r for r in all_rules() if r.meta.code == "SVL008"]
    for anchor in (
        "    from repro.sim.experiment import run_policy\n",
        "    from repro.sim.experiment import ExperimentContext, run_policy\n",
    ):
        project = _real_project((
            "parallel.py",
            anchor,
            anchor + "    global MANIFEST_SCHEMA_VERSION\n"
            "    MANIFEST_SCHEMA_VERSION = 9\n",
        ))
        hits = [
            f.symbol for f in rule.check_project(project)
            if f.module == "repro.sim.parallel"
        ]
        assert len(hits) == 1 and hits[0].endswith(":MANIFEST_SCHEMA_VERSION")
