"""AST-based concurrency/determinism lint for this codebase's invariants.

A deliberately small, dependency-free rule engine.  Each
:class:`Rule` walks a parsed module and yields :class:`Finding`\\ s;
the engine handles file discovery, per-line ``# repro: noqa[rule]``
suppressions, and an accepted-debt baseline file so existing findings
do not block CI while new ones do.

The rules encode contracts that the differential and chaos test suites
otherwise only catch *dynamically* (and only on sampled shapes):

``kernel-picklability``
    Anything registered as an execution kernel (``*_KERNELS`` tables,
    ``module:attr`` dotted chaos kernels) must be a module-level
    function: lambdas, closures and locals do not survive the pickle
    trip to a process-pool worker.
``kernel-purity``
    Worker kernels must not write module state (``global``/``nonlocal``
    or mutation of module-level bindings): a kernel whose effect
    depends on in-process shared state cannot be bit-identical across
    the serial/processes backends.
``pool-lifecycle``
    Every backend/pool acquisition must be released on all exit paths:
    a ``with`` statement, a ``try``/``finally`` that closes it, or an
    ownership transfer (returned / passed straight into an adopting
    wrapper).
``determinism``
    The byte-producing modules (``repro.codec``, ``repro.ebcot``,
    ``repro.wavelet``, ``repro.rate``) must not consult clocks,
    unseeded RNGs or the environment, and must not iterate unordered
    sets on paths that can feed output bytes.
``obs-zero-cost``
    Span/metric construction inside a loop must sit behind a
    tracer-guarded branch, so disabled observability costs nothing.
``exception-hygiene``
    A broad ``except Exception:``/bare ``except:`` must either
    re-raise or bind the exception and use it; silent swallows hide
    worker faults the supervision layer is supposed to see.

Suppression: appending ``# repro: noqa[rule-id]`` to the flagged line
silences exactly that rule on exactly that line (comma-separate to
silence several rules).  Accepted debt lives in a baseline file of
finding fingerprints (``file::rule::normalized-source-line``), immune
to line-number drift; ``--strict`` ignores it.
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DEFAULT_RULES",
    "Finding",
    "LintResult",
    "ModuleInfo",
    "ProjectContext",
    "Rule",
    "collect_modules",
    "load_baseline",
    "run_lint",
    "write_baseline",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([a-z0-9,\s-]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line."""

    path: str  # display path (as given to the engine), posix style
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    snippet: str = ""  # whitespace-normalized source of ``line``

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file."""
        return f"{self.path}::{self.rule}::{self.snippet}"

    def format(self) -> str:
        tail = f"  (fix: {self.hint})" if self.hint else ""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}{tail}"


@dataclass
class ModuleInfo:
    """One parsed source file plus the lookups every rule needs."""

    path: Path
    display: str  # path as reported in findings
    module: str  # dotted module name ("" when not in a package)
    source: str
    lines: List[str]
    tree: ast.Module
    toplevel_defs: Set[str] = field(default_factory=set)  # module-level funcs
    toplevel_names: Set[str] = field(default_factory=set)  # all module bindings


@dataclass
class ProjectContext:
    """Cross-module facts collected before the rules run."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: ``module:attr`` dotted kernel references seen anywhere in the
    #: project, resolved against :attr:`modules` by the rules.
    dotted_kernels: Set[Tuple[str, str]] = field(default_factory=set)


class Rule(ABC):
    """One lint rule.  Subclasses set ``id`` and ``hint``."""

    id: str = "?"
    hint: str = ""

    @abstractmethod
    def check(self, mod: ModuleInfo, ctx: ProjectContext) -> Iterator[Finding]:
        """Yield findings for ``mod``."""

    def finding(self, mod: ModuleInfo, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(mod.lines):
            snippet = " ".join(mod.lines[line - 1].split())
        return Finding(
            path=mod.display, line=line, col=col, rule=self.id,
            message=message, hint=self.hint if hint is None else hint,
            snippet=snippet,
        )


# ---------------------------------------------------------------------------
# Shared AST helpers.
# ---------------------------------------------------------------------------


def annotate_parents(tree: ast.AST) -> None:
    """Attach ``.parent`` to every node (engine runs this once per file)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    cur = getattr(node, "parent", None)
    while cur is not None:
        yield cur
        cur = getattr(cur, "parent", None)


def enclosing_function(node: ast.AST):
    for anc in ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc
    return None


def base_name(node: ast.AST) -> Optional[str]:
    """The root ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """The called function's simple name (``f(...)`` or ``m.f(...)``)."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def local_bindings(fn: ast.AST) -> Set[str]:
    """Parameter and locally-assigned names of a function."""
    out: Set[str] = set()
    args = fn.args
    for a in (args.posonlyargs + args.args + args.kwonlyargs):
        out.add(a.arg)
    if args.vararg:
        out.add(args.vararg.arg)
    if args.kwarg:
        out.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            tgt = node.target
            out |= names_in(tgt)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            out |= names_in(node.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
    return out


_DOTTED_KERNEL_RE = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_]\w*$")


# ---------------------------------------------------------------------------
# Rules.
# ---------------------------------------------------------------------------


class KernelPicklabilityRule(Rule):
    """Registered kernels must be module-level functions.

    Covers ``*_KERNELS`` table literals and updates, and ``module:attr``
    dotted references (resolved against the linted project, so a typo'd
    chaos kernel fails lint instead of a worker import at run time).
    """

    id = "kernel-picklability"
    hint = "register a module-level def; lambdas/closures don't survive pickling"

    def _check_value(self, mod: ModuleInfo, value: ast.AST) -> Iterator[Finding]:
        if isinstance(value, ast.Lambda):
            yield self.finding(mod, value, "lambda registered as an execution kernel")
        elif isinstance(value, ast.Name) and value.id not in mod.toplevel_names:
            yield self.finding(
                mod, value,
                f"kernel {value.id!r} is not a module-level binding "
                "(nested def or local); process workers cannot unpickle it",
            )

    def check(self, mod: ModuleInfo, ctx: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Assign):
                # ``X_KERNELS = {...}`` table literals.
                for tgt in node.targets:
                    if (isinstance(tgt, ast.Name) and tgt.id.endswith("_KERNELS")
                            and isinstance(node.value, ast.Dict)):
                        for value in node.value.values:
                            yield from self._check_value(mod, value)
                    # ``X_KERNELS["name"] = fn`` single registrations.
                    elif (isinstance(tgt, ast.Subscript)
                          and base_name(tgt) is not None
                          and base_name(tgt).endswith("_KERNELS")):
                        yield from self._check_value(mod, node.value)
            elif (isinstance(node, ast.Call) and call_name(node) == "update"
                  and isinstance(node.func, ast.Attribute)
                  and (base_name(node.func) or "").endswith("_KERNELS")):
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        for value in arg.values:
                            yield from self._check_value(mod, value)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
                if not _DOTTED_KERNEL_RE.match(text):
                    continue
                target_mod, attr = text.split(":", 1)
                info = ctx.modules.get(target_mod)
                if info is None:
                    continue  # outside the linted project; can't judge
                if attr not in info.toplevel_defs:
                    yield self.finding(
                        mod, node,
                        f"dotted kernel {text!r} does not resolve to a "
                        f"module-level function of {target_mod}",
                        hint="point it at a top-level def so workers can import it",
                    )


class KernelPurityRule(Rule):
    """Worker kernels must not write module state.

    A kernel that mutates a module-level binding produces results that
    depend on which process ran it (each process-pool worker has its own
    copy of the module), breaking cross-backend byte identity.
    """

    id = "kernel-purity"
    hint = "pass state in through the payload/extra dict instead of module globals"

    _MUTATORS = {
        "append", "add", "extend", "insert", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort", "fill",
    }

    def _kernel_functions(self, mod: ModuleInfo, ctx: ProjectContext) -> Set[str]:
        kernels: Set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id.endswith("_KERNELS"):
                        for value in node.value.values:
                            if isinstance(value, ast.Name):
                                kernels.add(value.id)
        for target_mod, attr in ctx.dotted_kernels:
            if target_mod == mod.module:
                kernels.add(attr)
        return kernels

    def check(self, mod: ModuleInfo, ctx: ProjectContext) -> Iterator[Finding]:
        kernels = self._kernel_functions(mod, ctx)
        if not kernels:
            return
        for node in mod.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in kernels:
                continue
            locals_ = local_bindings(node)

            def module_state(name: Optional[str]) -> bool:
                return (name is not None and name not in locals_
                        and name in mod.toplevel_names)

            for sub in ast.walk(node):
                if isinstance(sub, (ast.Global, ast.Nonlocal)):
                    yield self.finding(
                        mod, sub,
                        f"kernel {node.name!r} declares "
                        f"{'global' if isinstance(sub, ast.Global) else 'nonlocal'} "
                        f"{', '.join(sub.names)}",
                    )
                elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                    targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    for tgt in targets:
                        if isinstance(tgt, (ast.Subscript, ast.Attribute)):
                            name = base_name(tgt)
                            if module_state(name):
                                yield self.finding(
                                    mod, tgt,
                                    f"kernel {node.name!r} writes module-level "
                                    f"state {name!r}",
                                )
                elif (isinstance(sub, ast.Call)
                      and isinstance(sub.func, ast.Attribute)
                      and sub.func.attr in self._MUTATORS):
                    name = base_name(sub.func)
                    if module_state(name):
                        yield self.finding(
                            mod, sub,
                            f"kernel {node.name!r} mutates module-level "
                            f"state {name!r} via .{sub.func.attr}()",
                        )


class PoolLifecycleRule(Rule):
    """Backend/pool acquisitions must be released on all exit paths."""

    id = "pool-lifecycle"
    hint = "use `with`, or close it in a try/finally covering every exit path"

    #: Constructors/factories whose result owns pooled workers.
    ACQUIRERS = {
        "get_backend", "resolve_backend", "supervised",
        "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool",
        "ProcessesBackend", "SupervisedBackend",
        "FaultyBackend", "RaceDetectorBackend",
    }
    _CLOSERS = {"close", "shutdown", "terminate", "rebuild"}

    def _aliases(self, scope: ast.AST, name: str) -> Set[str]:
        """``name`` plus every local rebinding of it (``owned = bk`` /
        ``owned = bk if created else None``): closing any alias counts."""
        aliases = {name}
        changed = True
        while changed:
            changed = False
            for node in ast.walk(scope):
                if not isinstance(node, ast.Assign):
                    continue
                val = node.value
                sources: Set[str] = set()
                if isinstance(val, ast.Name):
                    sources.add(val.id)
                elif isinstance(val, ast.IfExp):
                    for part in (val.body, val.orelse):
                        if isinstance(part, ast.Name):
                            sources.add(part.id)
                if not (sources & aliases):
                    continue
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id not in aliases:
                        aliases.add(tgt.id)
                        changed = True
        return aliases

    def _closed_in_scope(self, scope: ast.AST, name: str) -> bool:
        aliases = self._aliases(scope, name)
        for node in ast.walk(scope):
            if isinstance(node, ast.Try):
                for fin in node.finalbody:
                    for sub in ast.walk(fin):
                        if (isinstance(sub, ast.Call)
                                and isinstance(sub.func, ast.Attribute)
                                and sub.func.attr in self._CLOSERS
                                and base_name(sub.func) in aliases):
                            return True
            elif isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id in aliases:
                        return True
            elif isinstance(node, ast.Return) and node.value is not None:
                if names_in(node.value) & aliases:
                    return True
        return False

    def check(self, mod: ModuleInfo, ctx: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in self.ACQUIRERS:
                continue
            parent = getattr(node, "parent", None)
            # Look through value containers: ``return backend, True``.
            while isinstance(parent, (ast.Tuple, ast.List, ast.Starred)):
                parent = getattr(parent, "parent", None)
            if isinstance(parent, ast.withitem):
                continue  # with Acquire(...) as x:
            if isinstance(parent, ast.Return):
                continue  # ownership transferred to the caller
            if isinstance(parent, (ast.Call, ast.Starred)):
                continue  # passed straight into an adopting wrapper
            if isinstance(parent, ast.Assign):
                tgt = parent.targets[0]
                if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                    continue  # stored on an object; its close() owns it
                names: List[str] = []
                if isinstance(tgt, ast.Name):
                    names = [tgt.id]
                elif isinstance(tgt, ast.Tuple):
                    # ``bk, owned = resolve_backend(...)`` -- the backend
                    # is the first element by convention.
                    for elt in tgt.elts:
                        if isinstance(elt, ast.Name):
                            names.append(elt.id)
                            break
                scope = enclosing_function(node) or mod.tree
                if names and all(self._closed_in_scope(scope, n) for n in names):
                    continue
                label = names[0] if names else "<unnamed>"
                yield self.finding(
                    mod, node,
                    f"pool acquired into {label!r} is not closed on all "
                    "exit paths (no with/try-finally close, not returned)",
                )
            else:
                yield self.finding(
                    mod, node,
                    "pool-owning object created without a binding; nothing "
                    "can ever close it",
                )


class DeterminismRule(Rule):
    """No clocks, unseeded RNGs, environment reads, or unordered-set
    iteration in the byte-producing modules."""

    id = "determinism"
    hint = "seed it, pass it in as a parameter, or iterate a sorted sequence"

    #: Module prefixes whose output feeds codestream bytes.
    SCOPE = ("repro.codec", "repro.ebcot", "repro.wavelet", "repro.rate")

    _CLOCKS = {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }
    _SEEDED_OK = {"default_rng", "RandomState", "Generator", "SeedSequence", "Random"}

    def _applies(self, mod: ModuleInfo) -> bool:
        return any(
            mod.module == p or mod.module.startswith(p + ".") for p in self.SCOPE
        )

    def _unordered_iter(self, mod: ModuleInfo, it: ast.AST) -> Iterator[Finding]:
        if isinstance(it, (ast.Set, ast.SetComp)):
            yield self.finding(
                mod, it, "iteration over a set literal/comprehension "
                "(unordered) in a byte-producing module",
            )
        elif isinstance(it, ast.Call):
            if isinstance(it.func, ast.Name) and it.func.id in ("set", "frozenset"):
                yield self.finding(
                    mod, it, f"iteration over {it.func.id}(...) (unordered) "
                    "in a byte-producing module",
                )
            elif isinstance(it.func, ast.Attribute) and it.func.attr == "keys":
                yield self.finding(
                    mod, it, "iteration over .keys() in a byte-producing "
                    "module; iterate the mapping itself (same order, "
                    "explicit intent)",
                    hint="drop the .keys() call",
                )

    def check(self, mod: ModuleInfo, ctx: ProjectContext) -> Iterator[Finding]:
        if not self._applies(mod):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                attr = node.func.attr
                if isinstance(base, ast.Name) and base.id == "time" and attr in self._CLOCKS:
                    yield self.finding(
                        mod, node, f"clock read time.{attr}() in a byte-producing module",
                        hint="keep timing in repro.obs / pass measurements in",
                    )
                elif isinstance(base, ast.Name) and base.id == "random":
                    yield self.finding(
                        mod, node, f"unseeded random.{attr}() in a byte-producing module",
                    )
                elif (isinstance(base, ast.Attribute) and base.attr == "random"
                      and isinstance(base.value, ast.Name)
                      and base.value.id in ("np", "numpy")):
                    if not (attr in self._SEEDED_OK and node.args):
                        yield self.finding(
                            mod, node,
                            f"np.random.{attr}(...) without an explicit seed "
                            "in a byte-producing module",
                        )
                elif (attr == "getenv" and isinstance(base, ast.Name)
                      and base.id == "os"):
                    yield self.finding(
                        mod, node, "os.getenv() read in a byte-producing module",
                    )
            elif (isinstance(node, ast.Attribute) and node.attr == "environ"
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                yield self.finding(
                    mod, node, "os.environ read in a byte-producing module",
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._unordered_iter(mod, node.iter)
            elif isinstance(node, ast.comprehension):
                yield from self._unordered_iter(mod, node.iter)


class ObsZeroCostRule(Rule):
    """Span/metric construction in loops must be tracer-guarded."""

    id = "obs-zero-cost"
    hint = "guard with `if tracer is not None:` (or early-return when it is None)"

    #: Observability constructors that allocate per call.
    _OBS_CALLS = {"phase", "task", "record", "counter"}
    _OBS_CTORS = {"Tracer", "MetricsRegistry", "PhaseRecorder"}

    @staticmethod
    def _mandatory_param(fn: ast.AST, recv: str) -> bool:
        """True when ``recv`` is a parameter with no ``None`` default --
        the function's contract already guarantees a live object, so the
        caller's guard is the zero-cost branch."""
        args = fn.args
        named = args.posonlyargs + args.args
        defaults = list(args.defaults)
        # Defaults right-align onto the positional parameter list.
        pad = [None] * (len(named) - len(defaults))
        for a, d in zip(named, pad + defaults):
            if a.arg == recv:
                return not (isinstance(d, ast.Constant) and d.value is None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if a.arg == recv:
                return not (isinstance(d, ast.Constant) and d.value is None)
        return False

    def _guarded(self, call: ast.Call, recv: str, loop: ast.AST) -> bool:
        # (a) an ancestor `if` mentioning the receiver, up to the function.
        for anc in ancestors(call):
            if isinstance(anc, ast.If) and recv in names_in(anc.test):
                return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = anc
                break
        else:
            return False
        if self._mandatory_param(fn, recv):
            return True
        # (b) an early-exit `if recv is None: return/continue/raise`
        # anywhere in the function before the loop.
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
                    and test.left.id == recv
                    and any(isinstance(op, ast.Is) for op in test.ops)
                    and node.body
                    and isinstance(node.body[-1], (ast.Return, ast.Continue,
                                                   ast.Raise, ast.Break))):
                return True
        return False

    def check(self, mod: ModuleInfo, ctx: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            loop = next(
                (a for a in ancestors(node) if isinstance(a, (ast.For, ast.While))),
                None,
            )
            if loop is None:
                continue
            fn_name = call_name(node)
            if fn_name in self._OBS_CTORS and isinstance(node.func, ast.Name):
                yield self.finding(
                    mod, node,
                    f"{fn_name}() constructed inside a loop; hoist it out",
                    hint="construct observability objects once, outside hot loops",
                )
                continue
            if (fn_name in self._OBS_CALLS and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)):
                recv = node.func.value.id
                if not self._guarded(node, recv, loop):
                    yield self.finding(
                        mod, node,
                        f"{recv}.{fn_name}(...) in a loop without a "
                        f"`{recv}`-guarded branch; costs cycles when "
                        "observability is off",
                    )


class ExceptionHygieneRule(Rule):
    """Broad excepts must re-raise or bind-and-use the exception."""

    id = "exception-hygiene"
    hint = "narrow the exception type, or bind it and use/re-raise it"

    _BROAD = {"Exception", "BaseException"}

    def check(self, mod: ModuleInfo, ctx: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    mod, node, "bare `except:` swallows everything, "
                    "KeyboardInterrupt and worker death included",
                )
                continue
            type_name = None
            if isinstance(node.type, ast.Name):
                type_name = node.type.id
            elif isinstance(node.type, ast.Attribute):
                type_name = node.type.attr
            if type_name not in self._BROAD:
                continue
            has_raise = any(isinstance(n, ast.Raise) for n in ast.walk(node))
            uses_binding = node.name is not None and any(
                isinstance(n, ast.Name) and n.id == node.name
                for stmt in node.body for n in ast.walk(stmt)
            )
            if not has_raise and not uses_binding:
                yield self.finding(
                    mod, node,
                    f"broad `except {type_name}:` swallows the failure "
                    "silently (no re-raise, exception unused)",
                )


DEFAULT_RULES: Tuple[Rule, ...] = (
    KernelPicklabilityRule(),
    KernelPurityRule(),
    PoolLifecycleRule(),
    DeterminismRule(),
    ObsZeroCostRule(),
    ExceptionHygieneRule(),
)


# ---------------------------------------------------------------------------
# Engine: discovery, suppression, baseline.
# ---------------------------------------------------------------------------


def _module_name(path: Path) -> str:
    """Dotted module name by walking up through ``__init__.py`` parents."""
    parts = [path.stem] if path.name != "__init__.py" else []
    cur = path.parent
    while (cur / "__init__.py").exists():
        parts.insert(0, cur.name)
        cur = cur.parent
    return ".".join(parts)


def _parse_module(path: Path, display: str) -> Optional[ModuleInfo]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    annotate_parents(tree)
    info = ModuleInfo(
        path=path, display=display, module=_module_name(path),
        source=source, lines=source.splitlines(), tree=tree,
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.toplevel_defs.add(node.name)
            info.toplevel_names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            info.toplevel_names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    info.toplevel_names.add(tgt.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                info.toplevel_names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                info.toplevel_names.add(alias.asname or alias.name)
    return info


def collect_modules(paths: Sequence[Path]) -> List[ModuleInfo]:
    """Parse every ``.py`` file under ``paths`` (files or directories)."""
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    seen: Set[Path] = set()
    modules: List[ModuleInfo] = []
    cwd = Path.cwd()
    for f in files:
        rf = f.resolve()
        if rf in seen:
            continue
        seen.add(rf)
        try:
            display = rf.relative_to(cwd).as_posix()
        except ValueError:
            display = f.as_posix()
        info = _parse_module(f, display)
        if info is not None:
            modules.append(info)
    return modules


def _build_context(modules: Sequence[ModuleInfo]) -> ProjectContext:
    ctx = ProjectContext()
    for mod in modules:
        if mod.module:
            ctx.modules[mod.module] = mod
    for mod in modules:
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _DOTTED_KERNEL_RE.match(node.value)):
                target_mod, attr = node.value.split(":", 1)
                if target_mod in ctx.modules:
                    ctx.dotted_kernels.add((target_mod, attr))
    return ctx


def _suppressed_rules(line_text: str) -> Set[str]:
    m = _NOQA_RE.search(line_text)
    if not m:
        return set()
    return {part.strip() for part in m.group(1).split(",") if part.strip()}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  # actionable
    suppressed: List[Finding] = field(default_factory=list)  # noqa'd
    baselined: List[Finding] = field(default_factory=list)  # accepted debt
    stale_baseline: List[str] = field(default_factory=list)  # fixed debt
    n_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        return (
            f"lint: {len(self.findings)} finding(s) in {self.n_files} file(s) "
            f"({len(self.suppressed)} suppressed, {len(self.baselined)} "
            f"baselined, {len(self.stale_baseline)} stale baseline entr"
            f"{'y' if len(self.stale_baseline) == 1 else 'ies'})"
        )


def load_baseline(path: Path) -> List[str]:
    """Fingerprints from a baseline file (``#`` comments / blanks skipped)."""
    entries: List[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def write_baseline(path: Path, findings: Iterable[Finding]) -> int:
    """Write the accepted-debt baseline for ``findings``; returns count."""
    prints = sorted({f.fingerprint for f in findings})
    header = (
        "# repro lint baseline -- accepted findings, one fingerprint per line.\n"
        "# Format: path::rule::normalized-source-line (immune to line drift).\n"
        "# Regenerate with: repro lint --write-baseline\n"
    )
    Path(path).write_text(header + "".join(p + "\n" for p in prints))
    return len(prints)


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Sequence[str]] = None,
    strict: bool = False,
) -> LintResult:
    """Lint ``paths``; apply noqa suppression and the baseline.

    ``strict=True`` ignores the baseline (every unsuppressed finding is
    actionable).  Suppression comments always apply: they are visible,
    per-line, per-rule judgements reviewed with the code.
    """
    rules = list(DEFAULT_RULES if rules is None else rules)
    modules = collect_modules([Path(p) for p in paths])
    ctx = _build_context(modules)
    result = LintResult(n_files=len(modules))
    raw: List[Finding] = []
    for mod in modules:
        for rule in rules:
            for finding in rule.check(mod, ctx):
                line_text = (
                    mod.lines[finding.line - 1]
                    if 1 <= finding.line <= len(mod.lines) else ""
                )
                if finding.rule in _suppressed_rules(line_text):
                    result.suppressed.append(finding)
                else:
                    raw.append(finding)
    base = list(baseline) if (baseline is not None and not strict) else []
    matched: Set[str] = set()
    for finding in raw:
        if finding.fingerprint in base:
            matched.add(finding.fingerprint)
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    result.stale_baseline = [fp for fp in base if fp not in matched]
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
