"""Symbol tables and scope resolution — the shared analysis substrate.

Every rule that reasons about *names* (rather than bare syntax) builds on
this layer: a :class:`ScopeTable` maps each AST node to the lexical scope
it executes in, records every binding a scope introduces (assignments —
including tuple unpacking and augmented assignment — imports, function
parameters, ``for``/``with``/``except`` targets, comprehension targets,
function and class definitions), and tracks every ``Load`` of a name per
scope.  Resolution follows Python's actual rules: ``global`` and
``nonlocal`` redirect lookups, class bodies are skipped by nested
functions, and comprehensions get their own scope while their *first*
iterable evaluates in the enclosing one.

The table also offers :meth:`ScopeTable.canonical`, the linter's one way
to resolve a dotted name through imports.  It is immune to shadowing:
after ``time = fake()``, ``time.sleep(1)`` does not resolve to
``time.sleep``, and neither does a parameter named ``time``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.source import SourceFile

__all__ = ["Binding", "Scope", "ScopeTable", "table_for"]

#: Scope kinds (Scope.kind values).
MODULE = "module"
FUNCTION = "function"
ASYNC_FUNCTION = "async function"
CLASS = "class"
LAMBDA = "lambda"
COMPREHENSION = "comprehension"


@dataclass
class Binding:
    """One introduction of a name into a scope."""

    name: str
    #: How the name was bound: "assign", "augassign", "annassign",
    #: "param", "def", "class", "import", "for", "with", "comp",
    #: "except", "walrus", "match".
    kind: str
    #: The binding site (the target Name / arg / def node).
    node: ast.AST
    #: Canonical dotted import target for "import" bindings.
    import_target: Optional[str] = None


@dataclass
class Scope:
    """One lexical scope and everything bound or read inside it."""

    kind: str
    node: ast.AST
    parent: Optional["Scope"] = None
    #: Display name ("<module>", function/class name, "<listcomp>"...).
    name: str = ""
    bindings: dict[str, list[Binding]] = field(default_factory=dict)
    #: Name -> every Load of it occurring directly in this scope.
    loads: dict[str, list[ast.Name]] = field(default_factory=dict)
    globals_: set[str] = field(default_factory=set)
    nonlocals: set[str] = field(default_factory=set)
    children: list["Scope"] = field(default_factory=list)

    @property
    def is_function(self) -> bool:
        return self.kind in (FUNCTION, ASYNC_FUNCTION)

    def bind(self, binding: Binding) -> None:
        self.bindings.setdefault(binding.name, []).append(binding)

    def binds(self, name: str) -> bool:
        return name in self.bindings

    def walk(self) -> Iterator["Scope"]:
        """This scope and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class ScopeTable:
    """The complete scope structure of one parsed module."""

    def __init__(self, module: Scope) -> None:
        self.module = module
        #: id(node) -> the scope the node executes in.
        self._scope_of: dict[int, Scope] = {}
        #: id(node) -> syntactic parent node.
        self._parent_of: dict[int, ast.AST] = {}
        #: id(Load) -> how many of its scope's bindings of the name were
        #: made before it, for loads run directly in a module/class body.
        self._preceding: dict[int, int] = {}

    # -- construction ---------------------------------------------------------
    @classmethod
    def of(cls, tree: ast.AST) -> "ScopeTable":
        """Build the scope table for a parsed module."""
        module = Scope(kind=MODULE, node=tree, name="<module>")
        table = cls(module)
        _Builder(table).build(tree, module)
        return table

    # -- structural queries ---------------------------------------------------
    def scope_of(self, node: ast.AST) -> Scope:
        """The scope ``node`` executes in (the module scope as fallback)."""
        return self._scope_of.get(id(node), self.module)

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parent_of.get(id(node))

    def enclosing_function(self, node: ast.AST) -> Optional[Scope]:
        """The nearest enclosing function/lambda scope, if any."""
        scope: Optional[Scope] = self.scope_of(node)
        while scope is not None:
            if scope.kind in (FUNCTION, ASYNC_FUNCTION, LAMBDA):
                return scope
            scope = scope.parent
        return None

    def in_async_function(self, node: ast.AST) -> bool:
        """True when ``node`` executes inside an ``async def`` body."""
        enclosing = self.enclosing_function(node)
        return enclosing is not None and enclosing.kind == ASYNC_FUNCTION

    # -- name resolution ------------------------------------------------------
    def resolving_scope(self, scope: Scope, name: str) -> Optional[Scope]:
        """The scope whose binding a Load of ``name`` in ``scope`` sees.

        Follows ``global``/``nonlocal`` declarations and skips class
        scopes for names referenced from nested functions (Python's
        class bodies are not part of the lexical chain).
        """
        if name in scope.globals_:
            return self._module_if_binds(name)
        if name in scope.nonlocals:
            outer = scope.parent
            while outer is not None and outer.kind != MODULE:
                if outer.is_function and outer.binds(name):
                    return outer
                outer = outer.parent
            return None
        current: Optional[Scope] = scope
        first = True
        while current is not None:
            if (first or current.kind != CLASS) and current.binds(name):
                # Redirections recorded in the binding scope also apply.
                if name in current.globals_ and current.kind != MODULE:
                    return self._module_if_binds(name)
                return current
            first = False
            current = current.parent
        return None

    def _module_if_binds(self, name: str) -> Optional[Scope]:
        return self.module if self.module.binds(name) else None

    def lookup(self, scope: Scope, name: str) -> list[Binding]:
        """Every binding a Load of ``name`` in ``scope`` may observe."""
        resolved = self.resolving_scope(scope, name)
        return resolved.bindings.get(name, []) if resolved is not None else []

    def loads_resolving_to(self, scope: Scope, name: str) -> list[ast.Name]:
        """Loads of ``name`` (anywhere in or under ``scope``) that resolve
        to ``scope``'s own binding — i.e. real uses of that binding,
        including from nested closures."""
        uses: list[ast.Name] = []
        for inner in scope.walk():
            for load in inner.loads.get(name, ()):  # pragma: no branch
                if self.resolving_scope(inner, name) is scope:
                    uses.append(load)
        return uses

    def _visible(self, load: ast.Name) -> list[Binding]:
        """The bindings ``load`` may observe when it runs.

        A load run directly in a module or class body sees only the
        bindings made before it; a class body that has made none falls
        through to its enclosing (non-class) scope.
        """
        scope = self.scope_of(load)
        seen = self._preceding.get(id(load))
        if seen is None or load.id in scope.globals_ | scope.nonlocals:
            return self.lookup(scope, load.id)
        if seen or scope.parent is None:
            return scope.bindings.get(load.id, [])[:seen]
        outer = scope.parent
        while outer.kind == CLASS and outer.parent is not None:
            outer = outer.parent
        return self.lookup(outer, load.id)

    # -- canonical dotted names ----------------------------------------------
    def canonical(self, node: ast.AST) -> Optional[str]:
        """Scope-aware canonical dotted path of a Name/Attribute chain.

        Resolves through import bindings only: a name with any non-import
        binding visible where it is loaded is *not* canonical.
        """
        if isinstance(node, ast.Name):
            targets = {b.import_target for b in self._visible(node)}
            if len(targets) == 1 and None not in targets:
                return next(iter(targets))
            return None
        if isinstance(node, ast.Attribute):
            base = self.canonical(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


def table_for(source: "SourceFile") -> ScopeTable:
    """The (cached) scope table of a parsed source file.

    Several rules walk the same module; the table is built once per file
    and memoized on the :class:`~repro.lint.source.SourceFile` itself.
    """
    assert source.tree is not None
    cached = getattr(source, "_scope_table", None)
    if isinstance(cached, ScopeTable):
        return cached
    table = ScopeTable.of(source.tree)
    source._scope_table = table  # type: ignore[attr-defined]
    return table


class _Builder:
    """Single-pass scope-tree builder."""

    def __init__(self, table: ScopeTable) -> None:
        self.table = table

    def build(self, node: ast.AST, scope: Scope) -> None:
        for child in ast.iter_child_nodes(node):
            self.table._parent_of[id(child)] = node
        self._dispatch(node, scope)

    # -- helpers --------------------------------------------------------------
    def _enter(self, node: ast.AST, scope: Scope) -> None:
        """Record ``node`` in ``scope`` and recurse into its children."""
        self.table._scope_of[id(node)] = scope
        for child in ast.iter_child_nodes(node):
            self.table._parent_of[id(child)] = node
            self._dispatch(child, scope)

    def _dispatch(self, node: ast.AST, scope: Scope) -> None:
        handler = getattr(self, f"_visit_{type(node).__name__}", None)
        if handler is not None:
            handler(node, scope)
        else:
            self._generic(node, scope)

    def _generic(self, node: ast.AST, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                scope.loads.setdefault(node.id, []).append(node)
                if scope.kind in (MODULE, CLASS):
                    self.table._preceding[id(node)] = len(
                        scope.bindings.get(node.id, ()))
            return
        for child in ast.iter_child_nodes(node):
            self.table._parent_of[id(child)] = node
            self._dispatch(child, scope)

    def _new_scope(self, kind: str, node: ast.AST, parent: Scope,
                   name: str) -> Scope:
        child = Scope(kind=kind, node=node, parent=parent, name=name)
        parent.children.append(child)
        return child

    def _bind_target(self, target: ast.AST, scope: Scope, kind: str) -> None:
        """Bind every name in one assignment target."""
        if isinstance(target, ast.Name):
            scope.bind(Binding(name=target.id, kind=kind, node=target))
            self.table._scope_of[id(target)] = scope
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub in target.elts:
                self._bind_target(sub, scope, kind)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, scope, kind)
        else:
            # Attribute / Subscript targets bind no name; still walk them
            # (their value expressions contain Loads).
            self._enter(target, scope)

    def _params(self, args: ast.arguments, scope: Scope) -> None:
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            scope.bind(Binding(name=arg.arg, kind="param", node=arg))
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                scope.bind(Binding(name=arg.arg, kind="param", node=arg))

    # -- statements that bind -------------------------------------------------
    def _visit_FunctionDef(self, node: ast.FunctionDef, scope: Scope,
                           kind: str = FUNCTION) -> None:
        self.table._scope_of[id(node)] = scope
        # Decorators, defaults, and annotations evaluate in the defining
        # scope, not the function's own, before the name is bound.
        outer_parts: list[ast.AST] = [*node.decorator_list,
                                      *node.args.defaults,
                                      *node.args.kw_defaults]
        if node.returns is not None:
            outer_parts.append(node.returns)
        for part in outer_parts:
            if part is not None:
                self.table._parent_of[id(part)] = node
                self._dispatch(part, scope)
        scope.bind(Binding(name=node.name, kind="def", node=node))
        inner = self._new_scope(kind, node, scope, node.name)
        self._params(node.args, inner)
        for stmt in node.body:
            self.table._parent_of[id(stmt)] = node
            self._dispatch(stmt, inner)

    def _visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef,
                                scope: Scope) -> None:
        self._visit_FunctionDef(node, scope, kind=ASYNC_FUNCTION)  # type: ignore[arg-type]

    def _visit_Lambda(self, node: ast.Lambda, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        for default in (*node.args.defaults, *node.args.kw_defaults):
            if default is not None:
                self.table._parent_of[id(default)] = node
                self._dispatch(default, scope)
        inner = self._new_scope(LAMBDA, node, scope, "<lambda>")
        self._params(node.args, inner)
        self.table._parent_of[id(node.body)] = node
        self._dispatch(node.body, inner)

    def _visit_ClassDef(self, node: ast.ClassDef, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        for part in (*node.decorator_list, *node.bases,
                     *[kw.value for kw in node.keywords]):
            self.table._parent_of[id(part)] = node
            self._dispatch(part, scope)
        inner = self._new_scope(CLASS, node, scope, node.name)
        for stmt in node.body:
            self.table._parent_of[id(stmt)] = node
            self._dispatch(stmt, inner)
        scope.bind(Binding(name=node.name, kind="class", node=node))

    def _visit_Assign(self, node: ast.Assign, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        self.table._parent_of[id(node.value)] = node
        self._dispatch(node.value, scope)
        for target in node.targets:
            self.table._parent_of[id(target)] = node
            self._bind_target(target, scope, "assign")

    def _visit_AnnAssign(self, node: ast.AnnAssign, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        self.table._parent_of[id(node.annotation)] = node
        self._dispatch(node.annotation, scope)
        if node.value is not None:
            self.table._parent_of[id(node.value)] = node
            self._dispatch(node.value, scope)
        self.table._parent_of[id(node.target)] = node
        self._bind_target(node.target, scope, "annassign")

    def _visit_AugAssign(self, node: ast.AugAssign, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        self.table._parent_of[id(node.value)] = node
        self._dispatch(node.value, scope)
        self.table._parent_of[id(node.target)] = node
        if isinstance(node.target, ast.Name):
            # An augmented assignment both reads and rebinds the name.
            scope.loads.setdefault(node.target.id, []).append(node.target)
            scope.bind(Binding(name=node.target.id, kind="augassign",
                               node=node.target))
            self.table._scope_of[id(node.target)] = scope
        else:
            self._enter(node.target, scope)

    def _visit_NamedExpr(self, node: ast.NamedExpr, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        self.table._parent_of[id(node.value)] = node
        self._dispatch(node.value, scope)
        # PEP 572: in a comprehension, the walrus binds in the enclosing
        # function/module scope, not the comprehension's own.
        owner = scope
        while owner.kind == COMPREHENSION and owner.parent is not None:
            owner = owner.parent
        owner.bind(Binding(name=node.target.id, kind="walrus",
                           node=node.target))
        self.table._scope_of[id(node.target)] = owner

    def _visit_For(self, node: Union[ast.For, ast.AsyncFor],
                   scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        self.table._parent_of[id(node.iter)] = node
        self._dispatch(node.iter, scope)
        self.table._parent_of[id(node.target)] = node
        self._bind_target(node.target, scope, "for")
        for stmt in (*node.body, *node.orelse):
            self.table._parent_of[id(stmt)] = node
            self._dispatch(stmt, scope)

    _visit_AsyncFor = _visit_For

    def _visit_With(self, node: Union[ast.With, ast.AsyncWith],
                    scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        for item in node.items:
            self.table._parent_of[id(item.context_expr)] = node
            self._dispatch(item.context_expr, scope)
            if item.optional_vars is not None:
                self.table._parent_of[id(item.optional_vars)] = node
                self._bind_target(item.optional_vars, scope, "with")
        for stmt in node.body:
            self.table._parent_of[id(stmt)] = node
            self._dispatch(stmt, scope)

    _visit_AsyncWith = _visit_With

    def _visit_ExceptHandler(self, node: ast.ExceptHandler,
                             scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        if node.name is not None:
            scope.bind(Binding(name=node.name, kind="except", node=node))
        for child in ast.iter_child_nodes(node):
            self.table._parent_of[id(child)] = node
            self._dispatch(child, scope)

    def _visit_Import(self, node: ast.Import, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = (alias.name if alias.asname
                      else alias.name.split(".")[0])
            scope.bind(Binding(name=local, kind="import", node=node,
                               import_target=target))

    def _visit_ImportFrom(self, node: ast.ImportFrom, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            target = (f"{node.module}.{alias.name}"
                      if node.module and not node.level else None)
            scope.bind(Binding(name=local, kind="import", node=node,
                               import_target=target))

    def _visit_Global(self, node: ast.Global, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        scope.globals_.update(node.names)

    def _visit_Nonlocal(self, node: ast.Nonlocal, scope: Scope) -> None:
        self.table._scope_of[id(node)] = scope
        scope.nonlocals.update(node.names)

    # -- comprehensions -------------------------------------------------------
    def _visit_comp(self, node: ast.AST, scope: Scope, name: str,
                    bodies: list[ast.AST]) -> None:
        generators = node.generators  # type: ignore[attr-defined]
        self.table._scope_of[id(node)] = scope
        inner = self._new_scope(COMPREHENSION, node, scope, name)
        for index, gen in enumerate(generators):
            # The first iterable evaluates eagerly in the enclosing
            # scope; later iterables and all conditions run inside.
            iter_scope = scope if index == 0 else inner
            self.table._parent_of[id(gen.iter)] = node
            self._dispatch(gen.iter, iter_scope)
            self.table._parent_of[id(gen.target)] = node
            self._bind_target(gen.target, inner, "comp")
            for cond in gen.ifs:
                self.table._parent_of[id(cond)] = node
                self._dispatch(cond, inner)
        for body in bodies:
            self.table._parent_of[id(body)] = node
            self._dispatch(body, inner)

    def _visit_ListComp(self, node: ast.ListComp, scope: Scope) -> None:
        self._visit_comp(node, scope, "<listcomp>", [node.elt])

    def _visit_SetComp(self, node: ast.SetComp, scope: Scope) -> None:
        self._visit_comp(node, scope, "<setcomp>", [node.elt])

    def _visit_GeneratorExp(self, node: ast.GeneratorExp,
                            scope: Scope) -> None:
        self._visit_comp(node, scope, "<genexpr>", [node.elt])

    def _visit_DictComp(self, node: ast.DictComp, scope: Scope) -> None:
        self._visit_comp(node, scope, "<dictcomp>", [node.key, node.value])
