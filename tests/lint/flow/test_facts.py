"""Unit coverage for the per-file fact extraction layer."""

from repro.lint.flow.facts import FileFacts, extract_facts


def fn(facts, name):
    for entry in facts.functions:
        if entry.qualname.endswith(name):
            return entry
    raise AssertionError(
        f"{name} not extracted; have "
        f"{[f.qualname for f in facts.functions]}")


def test_module_anchoring_at_repro():
    facts = extract_facts("x = 1\n", path="src/repro/sim/kernel.py")
    assert facts.module == "repro.sim.kernel"
    assert facts.module_path == "repro/sim/kernel.py"


def test_package_init_drops_the_suffix():
    facts = extract_facts("x = 1\n", path="src/repro/obs/__init__.py")
    assert facts.module == "repro.obs"


def test_relative_imports_resolve_against_the_package():
    source = "from .runtime import install\nfrom . import trace\n"
    facts = extract_facts(source, path="src/repro/obs/__init__.py")
    assert facts.aliases["install"] == "repro.obs.runtime.install"
    assert facts.aliases["trace"] == "repro.obs.trace"


def test_call_targets_resolve_through_import_aliases():
    source = (
        "import numpy as np\n"
        "from repro.sim import kernel as k\n"
        "def go():\n"
        "    k.run()\n"
        "    np.zeros(3)\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    targets = {c.target for c in fn(facts, "go").calls
               if c.form == "direct"}
    assert "repro.sim.kernel.run" in targets
    assert "numpy.zeros" in targets


def test_rng_kinds():
    source = (
        "import os\n"
        "import random\n"
        "import numpy as np\n"
        "def bad():\n"
        "    random.random()\n"
        "    os.urandom(8)\n"
        "    np.random.default_rng()\n"
        "    np.random.default_rng(0)\n"
        "def ok(seed):\n"
        "    np.random.default_rng(seed)\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    kinds = sorted(r.kind for r in fn(facts, "bad").rng)
    assert kinds == ["entropy", "global", "literal_seed", "seedless"]
    assert fn(facts, "ok").rng == []


def test_import_time_rng_sites_belong_to_the_file():
    source = (
        "import random\n"
        "SEED = random.getrandbits(32)\n"
        "class Config:\n"
        "    jitter = random.random()\n"
        "    def draw(self, scale=random.uniform(0, 1)):\n"
        "        return random.gauss(0, scale)\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    assert [(r.line, r.kind, r.target) for r in facts.rng] == [
        (2, "global", "random.getrandbits"),
        (4, "global", "random.random"),
        (5, "global", "random.uniform"),
    ]
    assert [r.target for r in fn(facts, "draw").rng] == ["random.gauss"]


def test_self_callback_skips_a_self_attribute_delay():
    source = (
        "class Monitor:\n"
        "    def _tick(self):\n"
        "        self.sim.schedule(self.interval_ns, self._tick)\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    (site,) = fn(facts, "_tick").schedules
    assert (site.callback, site.callback_form) == ("_tick", "self")
    assert site.self_chain


def test_schedule_handle_fates():
    source = (
        "def helper(sim, cb):\n"
        "    return sim.schedule(1.0, cb)\n"
        "def local_cancelled(sim, cb):\n"
        "    h = sim.schedule(1.0, cb)\n"
        "    sim.cancel(h)\n"
        "def dropped(sim, cb):\n"
        "    sim.schedule(1.0, cb)\n"
        "def chain(sim):\n"
        "    def tick():\n"
        "        sim.schedule(1.0, tick)\n"
        "    sim.schedule(1.0, tick)\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    (returned,) = fn(facts, "helper").schedules
    assert returned.fate == "returned"
    assert fn(facts, "helper").returns_handle

    (local,) = fn(facts, "local_cancelled").schedules
    assert local.fate == "local" and local.cancelled_locally

    (drop,) = fn(facts, "dropped").schedules
    assert drop.fate == "discarded"

    (inner,) = fn(facts, "chain.tick").schedules
    assert inner.self_chain

    (outer,) = fn(facts, "x.chain").schedules
    assert outer.callback == "repro.x.chain.tick"
    assert not outer.self_chain


def test_global_write_kinds():
    source = (
        "_CACHE = {}\n"
        "_SESSION = None\n"
        "def put(k, v):\n"
        "    _CACHE[k] = v\n"
        "def install(s):\n"
        "    global _SESSION\n"
        "    _SESSION = s\n"
        "def uninstall():\n"
        "    global _SESSION\n"
        "    _SESSION = None\n"
        "def reset():\n"
        "    _CACHE.clear()\n"
        "def local_shadow(k):\n"
        "    _CACHE = {}\n"
        "    _CACHE[k] = 1\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    assert facts.globals["_CACHE"]["mutable"]
    assert [w.kind for w in fn(facts, "put").writes] == ["mutate"]
    assert [w.kind for w in fn(facts, "install").writes] == ["rebind"]
    assert [w.kind for w in fn(facts, "uninstall").writes] == ["reset"]
    assert [w.kind for w in fn(facts, "x.reset").writes] == ["reset"]
    assert fn(facts, "local_shadow").writes == []


def test_registry_dicts_resolve_their_values():
    source = (
        "from repro.experiments import table1\n"
        "def local_run():\n"
        "    pass\n"
        "REGISTRY = {'t1': table1.run, 'local': local_run}\n"
    )
    facts = extract_facts(source, path="src/repro/experiments/runner.py")
    assert sorted(facts.registries["REGISTRY"]) == [
        "repro.experiments.runner.local_run",
        "repro.experiments.table1.run",
    ]


def test_reduction_sites():
    source = (
        "def bad(samples):\n"
        "    rates = set(samples)\n"
        "    total = 0.0\n"
        "    for r in rates:\n"
        "        total += r\n"
        "    return sum(rates) + sum(r for r in rates)\n"
        "def ok(samples):\n"
        "    return sum(sorted(set(samples)))\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    kinds = sorted(r.kind for r in fn(facts, "bad").reductions)
    assert kinds == ["sum_over_set", "sum_over_set",
                     "unordered_accumulation"]
    assert fn(facts, "ok").reductions == []


def test_param_fates():
    source = (
        "def cancels(sim, handle):\n"
        "    sim.cancel(handle)\n"
        "def stores(self, handle):\n"
        "    self.pending = handle\n"
        "def returns(handle):\n"
        "    return handle\n"
        "def drops(handle):\n"
        "    pass\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    assert fn(facts, "cancels").param_fates.cancelled == ["handle"]
    assert fn(facts, "stores").param_fates.stored == ["handle"]
    assert fn(facts, "returns").param_fates.returned == ["handle"]
    fates = fn(facts, "drops").param_fates
    assert not (fates.cancelled or fates.stored or fates.returned)


def test_facts_round_trip_through_json_dict():
    source = (
        "import random\n"
        "_CACHE = {}\n"
        "class Sampler:\n"
        "    def start(self, sim):\n"
        "        self._h = sim.schedule(1.0, self._tick)\n"
        "    def _tick(self):\n"
        "        random.random()\n"
        "    def stop(self, sim):\n"
        "        sim.cancel(self._h)\n"
    )
    facts = extract_facts(source, path="src/repro/x.py")
    clone = FileFacts.from_dict(facts.to_dict())
    assert clone.to_dict() == facts.to_dict()
    assert [f.qualname for f in clone.functions] == \
        [f.qualname for f in facts.functions]


def test_parse_error_is_captured_not_raised():
    facts = extract_facts("def broken(:\n", path="src/repro/x.py")
    assert "line 1" in facts.parse_error
