"""Scope/symbol-table layer: bindings, resolution, canonical names."""

from __future__ import annotations

import ast

from repro.lint.scopes import (
    ASYNC_FUNCTION,
    COMPREHENSION,
    ScopeTable,
)


def table(code: str) -> ScopeTable:
    return ScopeTable.of(ast.parse(code))


def scope_named(t: ScopeTable, name: str):
    return next(s for s in t.module.walk() if s.name == name)


class TestBindings:
    def test_tuple_unpacking_aligns_elementwise(self):
        t = table("a, b = compute(), 2\n")
        a = t.module.bindings["a"][0]
        b = t.module.bindings["b"][0]
        assert (a.kind, a.node.id) == ("assign", "a")
        assert (b.kind, b.node.id) == ("assign", "b")

    def test_tuple_unpacking_of_opaque_rhs_marks_unpacked(self):
        t = table("a, b = pair()\n")
        a = t.module.bindings["a"][0]
        assert a.kind == "assign"

    def test_starred_target_is_unpacked(self):
        t = table("first, *rest = [1, 2, 3]\n")
        assert t.module.bindings["rest"][0].kind == "assign"

    def test_augmented_assignment_reads_and_rebinds(self):
        t = table("total = 0\ntotal += 1\n")
        kinds = [b.kind for b in t.module.bindings["total"]]
        assert kinds == ["assign", "augassign"]
        # The augmented assignment also counts as a load of the name.
        assert len(t.module.loads["total"]) == 1

    def test_for_loop_binds_element_of_iterable(self):
        t = table("for item in items():\n    pass\n")
        binding = t.module.bindings["item"][0]
        assert binding.kind == "for"


class TestResolution:
    CODE = """
def outer():
    total = 0
    def inner():
        nonlocal total
        total = 1
    def shadow():
        total = 2
    return inner, shadow

counter = 0
def bump():
    global counter
    counter = 1
"""

    def test_nonlocal_resolves_to_enclosing_function(self):
        t = table(self.CODE)
        inner = scope_named(t, "inner")
        assert t.resolving_scope(inner, "total") is scope_named(t, "outer")

    def test_local_shadow_resolves_locally(self):
        t = table(self.CODE)
        shadow = scope_named(t, "shadow")
        assert t.resolving_scope(shadow, "total") is shadow

    def test_global_resolves_to_module(self):
        t = table(self.CODE)
        bump = scope_named(t, "bump")
        assert t.resolving_scope(bump, "counter") is t.module

    def test_class_scope_is_skipped_by_methods(self):
        t = table("""
value = 1
class C:
    value = 2
    def method(self):
        return value
""")
        method = scope_named(t, "method")
        assert t.resolving_scope(method, "value") is t.module

    def test_class_body_sees_its_own_binding(self):
        t = table("""
class C:
    value = 2
    doubled = value * 2
""")
        c = scope_named(t, "C")
        assert t.resolving_scope(c, "value") is c


class TestComprehensions:
    def test_comprehension_gets_its_own_scope(self):
        t = table("xs = [item for item in range(3)]\n")
        comp = next(s for s in t.module.walk()
                    if s.kind == COMPREHENSION)
        assert comp.binds("item")
        assert not t.module.binds("item")

    def test_first_iterable_evaluates_in_enclosing_scope(self):
        t = table("xs = [a for a in source]\n")
        load = t.module.loads["source"][0]
        assert t.scope_of(load) is t.module

    def test_later_clauses_run_inside_the_comprehension(self):
        t = table("xs = [a for a in src for b in a.parts if b]\n")
        comp = next(s for s in t.module.walk()
                    if s.kind == COMPREHENSION)
        assert comp.binds("a") and comp.binds("b")
        # 'a.parts' (the second iterable) loads 'a' inside the comp.
        assert comp.loads.get("a")


class TestAsyncAndDecorators:
    CODE = """
import functools
import asyncio

@functools.wraps(print)
async def runner():
    await asyncio.sleep(0)
"""

    def test_decorated_async_def_scope_kind(self):
        t = table(self.CODE)
        runner = scope_named(t, "runner")
        assert runner.kind == ASYNC_FUNCTION

    def test_decorator_evaluates_in_defining_scope(self):
        t = table(self.CODE)
        load = t.module.loads["functools"][0]
        assert t.scope_of(load) is t.module

    def test_in_async_function(self):
        t = table(self.CODE)
        tree = t.module.node
        sleep_call = next(n for n in ast.walk(tree)
                          if isinstance(n, ast.Call)
                          and isinstance(n.func, ast.Attribute)
                          and n.func.attr == "sleep")
        assert t.in_async_function(sleep_call)


class TestLoadsAndCanonical:
    def test_loads_resolving_to_sees_closure_uses(self):
        t = table("""
def outer():
    task = make()
    def reader():
        return task
    return reader
""")
        outer = scope_named(t, "outer")
        assert len(t.loads_resolving_to(outer, "task")) == 1

    def test_loads_resolving_to_ignores_shadowed_uses(self):
        t = table("""
def outer():
    task = make()
    def shadow():
        task = other()
        return task
""")
        outer = scope_named(t, "outer")
        assert t.loads_resolving_to(outer, "task") == []

    def test_canonical_resolves_import_aliases(self):
        t = table("import numpy as np\nrng = np.random.default_rng(0)\n")
        call = next(n for n in ast.walk(t.module.node)
                    if isinstance(n, ast.Call))
        assert t.canonical(call.func) == "numpy.random.default_rng"

    def test_canonical_refuses_shadowed_imports(self):
        t = table("""
import time

def fake(stub):
    time = stub
    return time.sleep
""")
        fake = scope_named(t, "fake")
        load = fake.loads["time"][0]
        attribute = t.parent_of(load)
        assert t.canonical(attribute) is None

    def test_canonical_from_import(self):
        t = table("from time import sleep as snooze\nsnooze(1)\n")
        call = next(n for n in ast.walk(t.module.node)
                    if isinstance(n, ast.Call))
        assert t.canonical(call.func) == "time.sleep"


class TestPrecedingBindings:
    """A load run directly in a module or class body sees only the
    bindings made before it; a function body sees them all."""

    @staticmethod
    def canonicals(code: str) -> list:
        t = table(code)
        return [t.canonical(n.func) for n in ast.walk(t.module.node)
                if isinstance(n, ast.Call)]

    def test_parameter_shadows_the_module(self):
        assert self.canonicals(
            "import time\ndef f(time):\n    return time.time()\n") == [None]

    def test_module_use_before_a_rebinding_resolves(self):
        assert self.canonicals("""
import time
started = time.monotonic()
time = None
def later():
    return time.monotonic()
""") == ["time.monotonic", None]

    def test_class_default_before_same_named_method_resolves(self):
        t = table("""
import time
class Profile:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
    def time(self):
        return 0
""")
        (default,) = [n for n in ast.walk(t.module.node)
                      if isinstance(n, ast.Attribute)
                      and n.attr == "perf_counter"]
        assert t.canonical(default) == "time.perf_counter"

    def test_class_body_after_its_own_binding_does_not_fall_through(self):
        assert self.canonicals("""
import time
class C:
    time = None
    stamp = time.time()
""") == [None]

    def test_default_evaluates_before_its_function_is_bound(self):
        assert self.canonicals("""
import time
class C:
    def time(self, clock=time.monotonic()):
        return clock
""") == ["time.monotonic"]
