"""Flow-sensitive dimensional analysis (RPR006–RPR008 of ``repro lint``).

The paper's cost model (Eqs. 9-13, 25) mixes file sizes (MB), bandwidths
(MB/s), simulated times (s) and counts, all spelled ``float`` in Python.  A
swapped ``size_mb / bw`` vs ``size_mb * bw`` type-checks under strict mypy
and only surfaces as a plausible-but-wrong makespan.  This checker proves
the units statically:

========  =============================================================
RPR006    mixed-dimension arithmetic: ``+``/``-``/``%`` on operands of
          two different known dimensions (``MB + Seconds``).
RPR007    comparison across dimensions (``size_mb > deadline_s``), or
          ``min``/``max`` over mixed dimensions.
RPR008    return/assignment dimension mismatch: the inferred dimension
          of an expression contradicts its declared annotation.
========  =============================================================

The lattice is seeded from the :mod:`repro.analysis.dims` annotations on
function signatures and dataclass fields, plus the repo's naming
conventions (``*_mb``, ``*_bw``, ``*_s``, ``*_rate`` — see
:func:`repro.analysis.dims.convention_dim`), and propagated through
arithmetic: ``MB / MBps -> Seconds``, ``MB * SecondsPerMB -> Seconds``,
``Seconds * Dimensionless -> Seconds``.  Anything the checker cannot prove
(numpy arrays, dict lookups, opaque calls) degrades to *unknown* and is
never reported — the checker is deliberately zero-false-positive rather
than complete.

Abstract values:

* ``UNKNOWN``  — opaque; silences all checks downstream.
* ``POLY``     — numeric literals; unifies with any dimension.
* ``(d, t)``   — a known exponent vector over (data, time).
* ``Seq(elt)`` — a homogeneous container; ``sum``/``min``/``max``/indexing
  unwrap it, arithmetic on it is opaque (list concat is not addition).

Suppress with ``# repro: noqa[RPR006]`` on the first or last line of the
offending expression.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TypeGuard, Union, cast

from .common import (
    Finding,
    Rule,
    filter_findings,
    iter_py_files,
)
from .dims import DIMS_BY_NAME, convention_dim

__all__ = [
    "Finding",
    "Rule",
    "iter_rules",
    "check_source",
    "check_paths",
]

_RULES: tuple[Rule, ...] = (
    Rule("RPR006", "mixed-dimension arithmetic (e.g. MB + Seconds)"),
    Rule("RPR007", "comparison across dimensions (e.g. MB > Seconds)"),
    Rule("RPR008", "return/assignment dimension contradicts its annotation"),
)


def iter_rules() -> tuple[Rule, ...]:
    """The dimensional-analysis rules, in code order."""
    return _RULES


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

DimVec = tuple[int, int]  # exponents over (data, time)


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Opaque value: nothing is known, nothing is checked.
UNKNOWN = _Sentinel("UNKNOWN")
#: Polymorphic numeric literal: unifies with any dimension.
POLY = _Sentinel("POLY")


@dataclass(frozen=True)
class Seq:
    """A homogeneous container of abstract values."""

    elt: AbsVal


AbsVal = Union[_Sentinel, DimVec, Seq]

_ZERO: DimVec = (0, 0)

_VEC_LABELS: dict[DimVec, str] = {
    (1, 0): "MB",
    (1, -1): "MBps",
    (0, 1): "Seconds",
    (-1, 1): "SecondsPerMB",
    (0, 0): "dimensionless",
}


def _label(vec: DimVec) -> str:
    got = _VEC_LABELS.get(vec)
    if got is not None:
        return got
    return f"MB^{vec[0]}*s^{vec[1]}"


def _is_vec(val: AbsVal) -> TypeGuard[DimVec]:
    return isinstance(val, tuple)


# ---------------------------------------------------------------------------
# Annotation parsing
# ---------------------------------------------------------------------------


def _ann_vec(node: ast.expr | None) -> DimVec | None:
    """Dimension named by an annotation expression, or None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _ann_vec(node)
    if isinstance(node, ast.Name):
        dim = DIMS_BY_NAME.get(node.id)
        return (dim.data, dim.time) if dim is not None else None
    if isinstance(node, ast.Attribute):
        dim = DIMS_BY_NAME.get(node.attr)
        return (dim.data, dim.time) if dim is not None else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``X | None`` keeps X's dimension; ``X | Y`` must agree to count.
        sides = [_strip_none(node.left), _strip_none(node.right)]
        vecs = [_ann_vec(s) for s in sides if s is not None]
        if len(vecs) == 1:
            return vecs[0]
        if len(vecs) == 2 and vecs[0] == vecs[1]:
            return vecs[0]
        return None
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = (
            head.id if isinstance(head, ast.Name)
            else head.attr if isinstance(head, ast.Attribute)
            else None
        )
        if head_name in ("Optional", "Final"):
            return _ann_vec(node.slice)
        if head_name == "Annotated" and isinstance(node.slice, ast.Tuple):
            for meta in node.slice.elts[1:]:
                vec = _dim_call_vec(meta)
                if vec is not None:
                    return vec
        return None
    return None


def _strip_none(node: ast.expr) -> ast.expr | None:
    if isinstance(node, ast.Constant) and node.value is None:
        return None
    return node


def _dim_call_vec(node: ast.expr) -> DimVec | None:
    """``Dim(data=1, time=-1)`` metadata inside a raw ``Annotated``."""
    if not isinstance(node, ast.Call):
        return None
    fn = node.func
    fn_name = (
        fn.id if isinstance(fn, ast.Name)
        else fn.attr if isinstance(fn, ast.Attribute)
        else None
    )
    if fn_name != "Dim":
        return None
    data, time = 0, 0
    for i, arg in enumerate(node.args):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
            if i == 0:
                data = arg.value
            elif i == 1:
                time = arg.value
    for kw in node.keywords:
        if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, int):
            if kw.arg == "data":
                data = kw.value.value
            elif kw.arg == "time":
                time = kw.value.value
    return (data, time)


def _convention_vec(name: str) -> DimVec | None:
    dim = convention_dim(name)
    return (dim.data, dim.time) if dim is not None else None


# ---------------------------------------------------------------------------
# Pass 1: harvest dimensions declared anywhere in the checked tree
# ---------------------------------------------------------------------------


class Harvest:
    """Dimensions harvested from annotations, keyed by bare name.

    Names observed with *conflicting* dimensions are blocked entirely —
    the checker only trusts a name-keyed dimension when every declaration
    in the tree agrees.
    """

    def __init__(self) -> None:
        self.funcs: dict[str, DimVec] = {}  # callable name -> return dim
        self.attrs: dict[str, DimVec] = {}  # field/property name -> dim
        self.consts: dict[str, DimVec] = {}  # module-level constant -> dim
        self._blocked: dict[int, set[str]] = {0: set(), 1: set(), 2: set()}

    def _put(self, table: int, name: str, vec: DimVec) -> None:
        d = (self.funcs, self.attrs, self.consts)[table]
        blocked = self._blocked[table]
        if name in blocked:
            return
        if name in d and d[name] != vec:
            del d[name]
            blocked.add(name)
            return
        d[name] = vec

    def add_func(self, name: str, vec: DimVec) -> None:
        self._put(0, name, vec)

    def add_attr(self, name: str, vec: DimVec) -> None:
        self._put(1, name, vec)

    def add_const(self, name: str, vec: DimVec) -> None:
        self._put(2, name, vec)

    def harvest_module(self, tree: ast.Module) -> None:
        self._walk(tree.body, at_module=True, in_class=False)

    def _walk(self, body: Sequence[ast.stmt], at_module: bool, in_class: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                vec = _ann_vec(stmt.returns)
                if vec is not None:
                    if _is_property(stmt):
                        self.add_attr(stmt.name, vec)
                    else:
                        self.add_func(stmt.name, vec)
                self._walk(stmt.body, at_module=False, in_class=False)
            elif isinstance(stmt, ast.ClassDef):
                self._walk(stmt.body, at_module=False, in_class=True)
            elif isinstance(stmt, ast.AnnAssign):
                vec = _ann_vec(stmt.annotation)
                if vec is None:
                    continue
                target = stmt.target
                if isinstance(target, ast.Attribute):
                    self.add_attr(target.attr, vec)
                elif isinstance(target, ast.Name):
                    if in_class:
                        self.add_attr(target.id, vec)
                    elif at_module:
                        self.add_const(target.id, vec)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.stmt):
                        self._walk([sub], at_module, in_class)


def _is_property(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in fn.decorator_list:
        name = (
            dec.id if isinstance(dec, ast.Name)
            else dec.attr if isinstance(dec, ast.Attribute)
            else None
        )
        if name in ("property", "cached_property"):
            return True
    return False


# ---------------------------------------------------------------------------
# Pass 2: flow-sensitive checking
# ---------------------------------------------------------------------------

_MISSING = _Sentinel("MISSING")

# Functions whose result carries the dimension of their (unwrapped) input.
_PASSTHROUGH_FUNCS = frozenset({"abs", "float", "int", "round", "sorted"})


class _Checker:
    """Checks one module against a (possibly tree-wide) harvest."""

    def __init__(self, path: str, harvest: Harvest) -> None:
        self.path = path
        self.harvest = harvest
        self.findings: list[Finding] = []
        self.env: dict[str, AbsVal] = {}

    # -- plumbing ---------------------------------------------------------

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                code,
                message,
                getattr(node, "end_lineno", None),
            )
        )

    def check_module(self, tree: ast.Module) -> None:
        self.env = {}
        for stmt in tree.body:
            self._stmt(stmt)

    # -- statements -------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(stmt)
        elif isinstance(stmt, ast.ClassDef):
            outer = self.env
            self.env = dict(outer)
            for sub in stmt.body:
                self._stmt(sub)
            self.env = outer
        elif isinstance(stmt, ast.Assign):
            val = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, val, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            declared = _ann_vec(stmt.annotation)
            val = self._eval(stmt.value) if stmt.value is not None else UNKNOWN
            if (
                declared is not None
                and stmt.value is not None
                and _is_vec(val)
                and val != declared
            ):
                name = ast.unparse(stmt.target)
                self._add(
                    stmt,
                    "RPR008",
                    f"'{name}' is annotated {_label(declared)} but is assigned "
                    f"{_label(val)}",
                )
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = declared if declared is not None else val
        elif isinstance(stmt, ast.AugAssign):
            target_val = self._eval_load_of(stmt.target)
            rhs = self._eval(stmt.value)
            result = self._combine(stmt, stmt.op, target_val, rhs)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = result
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self._eval(stmt.value)
                declared = self._return_vec
                if declared is not None and _is_vec(val) and val != declared:
                    self._add(
                        stmt,
                        "RPR008",
                        f"returns {_label(val)} but the function is annotated "
                        f"-> {_label(declared)}",
                    )
        elif isinstance(stmt, ast.For):
            it = self._eval(stmt.iter)
            self._bind_loop_target(stmt.target, it)
            for sub in stmt.body:
                self._stmt(sub)
            for sub in stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            for sub in stmt.body:
                self._stmt(sub)
            for sub in stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_loop_target(item.optional_vars, UNKNOWN)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._stmt(sub)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = UNKNOWN
                for sub in handler.body:
                    self._stmt(sub)
            for sub in [*stmt.orelse, *stmt.finalbody]:
                self._stmt(sub)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(
            stmt,
            (
                ast.Pass, ast.Break, ast.Continue, ast.Raise,
                ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal,
            ),
        ):
            if isinstance(stmt, ast.Raise):
                if stmt.exc is not None:
                    self._eval(stmt.exc)
        else:
            # Generic fallback (match statements, future nodes): evaluate
            # child expressions and recurse into child statements.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._stmt(child)
                elif isinstance(child, ast.expr):
                    self._eval(child)

    _return_vec: DimVec | None = None

    def _check_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        outer_env, outer_ret = self.env, self._return_vec
        # Closures read enclosing bindings; parameters seed from annotations.
        self.env = dict(outer_env)
        a = fn.args
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
            vec = _ann_vec(arg.annotation)
            self.env[arg.arg] = vec if vec is not None else UNKNOWN
        if a.vararg is not None:
            self.env[a.vararg.arg] = UNKNOWN
        if a.kwarg is not None:
            self.env[a.kwarg.arg] = UNKNOWN
        self._return_vec = _ann_vec(fn.returns)
        for stmt in fn.body:
            self._stmt(stmt)
        self.env, self._return_vec = outer_env, outer_ret

    def _bind_target(self, target: ast.expr, val: AbsVal, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = val
        elif isinstance(target, ast.Attribute):
            declared = self.harvest.attrs.get(target.attr)
            if declared is not None and _is_vec(val) and val != declared:
                self._add(
                    value,
                    "RPR008",
                    f"assigns {_label(val)} to '.{target.attr}', "
                    f"declared {_label(declared)}",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, UNKNOWN, value)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)
            self._eval(target.slice)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, UNKNOWN, value)

    def _bind_loop_target(self, target: ast.expr, it: AbsVal) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = it.elt if isinstance(it, Seq) else UNKNOWN
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_loop_target(elt, UNKNOWN)
        elif isinstance(target, ast.Starred):
            self._bind_loop_target(target.value, UNKNOWN)

    # -- expression evaluation --------------------------------------------

    def _eval_load_of(self, target: ast.expr) -> AbsVal:
        """Current value of an AugAssign target, without re-binding."""
        if isinstance(target, ast.Name):
            return self._name_val(target.id)
        if isinstance(target, ast.Attribute):
            return self._attr_val(target)
        if isinstance(target, ast.Subscript):
            base = self._eval(target.value)
            self._eval(target.slice)
            return base.elt if isinstance(base, Seq) else UNKNOWN
        return UNKNOWN

    def _name_val(self, name: str) -> AbsVal:
        bound = self.env.get(name, _MISSING)
        if bound is not _MISSING and bound is not UNKNOWN:
            return bound
        vec = self.harvest.consts.get(name)
        if vec is not None:
            return vec
        conv = _convention_vec(name)
        return conv if conv is not None else UNKNOWN

    def _attr_val(self, node: ast.Attribute) -> AbsVal:
        base = node.value
        if isinstance(base, ast.Name) and base.id in ("math", "np", "numpy"):
            if node.attr in ("inf", "nan", "pi", "e", "tau", "euler_gamma"):
                return POLY
        else:
            self._eval(base)
        vec = self.harvest.attrs.get(node.attr)
        if vec is not None:
            return vec
        conv = _convention_vec(node.attr)
        return conv if conv is not None else UNKNOWN

    def _eval(self, node: ast.expr) -> AbsVal:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return UNKNOWN
            if isinstance(node.value, (int, float)):
                return POLY
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._name_val(node.id)
        if isinstance(node, ast.Attribute):
            return self._attr_val(node)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            return self._combine(node, node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            val = self._eval(node.operand)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return val
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            vals = [self._eval(v) for v in node.values]
            out: AbsVal = vals[0]
            for v in vals[1:]:
                out = _unify(out, v)
            return out
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _unify(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, (ast.List, ast.Set)):
            elt: AbsVal = UNKNOWN if not node.elts else self._eval(node.elts[0])
            for e in node.elts[1:]:
                elt = _unify(elt, self._eval(e))
            return Seq(elt)
        if isinstance(node, ast.Tuple):
            for e in node.elts:
                self._eval(e)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for k in node.keys:
                if k is not None:
                    self._eval(k)
            for v in node.values:
                self._eval(v)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            saved = dict(self.env)
            self._bind_generators(node.generators)
            elt = self._eval(node.elt)
            self.env = saved
            return Seq(elt)
        if isinstance(node, ast.DictComp):
            saved = dict(self.env)
            self._bind_generators(node.generators)
            self._eval(node.key)
            self._eval(node.value)
            self.env = saved
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)
            self._eval(node.slice)
            if isinstance(base, Seq):
                return base if isinstance(node.slice, ast.Slice) else base.elt
            return UNKNOWN
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            outer = self.env
            self.env = dict(outer)
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
                self.env[arg.arg] = UNKNOWN
            self._eval(node.body)
            self.env = outer
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            val = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = val
            return val
        if isinstance(node, ast.Starred):
            self._eval(node.value)
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                if isinstance(v, ast.FormattedValue):
                    self._eval(v.value)
            return UNKNOWN
        # Await / Yield / YieldFrom / anything new: evaluate children.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
        return UNKNOWN

    def _bind_generators(self, gens: Sequence[ast.comprehension]) -> None:
        for gen in gens:
            it = self._eval(gen.iter)
            self._bind_loop_target(gen.target, it)
            for cond in gen.ifs:
                self._eval(cond)

    # -- calls -------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> AbsVal:
        fn = node.func
        fn_name = (
            fn.id if isinstance(fn, ast.Name)
            else fn.attr if isinstance(fn, ast.Attribute)
            else None
        )
        if isinstance(fn, ast.Attribute):
            self._eval(fn.value)

        if isinstance(fn, ast.Name):
            if fn_name == "len" and node.args:
                self._eval(node.args[0])
                return _ZERO
            if fn_name == "sum" and node.args:
                vals = [_unwrap(self._eval(a)) for a in node.args]
                out: AbsVal = vals[0]
                for v in vals[1:]:
                    out = _unify(out, v)
                return out
            if fn_name in ("min", "max") and node.args:
                return self._eval_minmax(node, fn_name)
            if fn_name in _PASSTHROUGH_FUNCS and node.args:
                val = self._eval(node.args[0])
                for extra in node.args[1:]:
                    self._eval(extra)
                for kw in node.keywords:
                    self._eval(kw.value)
                if fn_name == "float" and val is UNKNOWN:
                    # float("inf") / float("nan") are polymorphic literals.
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, str
                    ):
                        return POLY
                return val

        for arg in node.args:
            self._eval(arg)
        for kw in node.keywords:
            self._eval(kw.value)
        if fn_name is not None:
            vec = self.harvest.funcs.get(fn_name)
            if vec is not None:
                return vec
            conv = _convention_vec(fn_name)
            if conv is not None:
                return conv
        return UNKNOWN

    def _eval_minmax(self, node: ast.Call, fn_name: str) -> AbsVal:
        vals: list[AbsVal] = []
        if len(node.args) == 1:
            vals.append(_unwrap(self._eval(node.args[0])))
        else:
            vals.extend(self._eval(a) for a in node.args)
        for kw in node.keywords:
            v = self._eval(kw.value)
            if kw.arg == "default":
                vals.append(v)
        distinct: set[DimVec] = set()
        for v in vals:
            if _is_vec(v):
                distinct.add(v)
        if len(distinct) > 1:
            labels = ", ".join(sorted(_label(v) for v in distinct))
            self._add(
                node,
                "RPR007",
                f"{fn_name}() over mixed dimensions ({labels})",
            )
            return UNKNOWN
        out: AbsVal = vals[0] if vals else UNKNOWN
        for v in vals[1:]:
            out = _unify(out, v)
        return out

    # -- arithmetic & comparisons ------------------------------------------

    def _combine(
        self, node: ast.AST, op: ast.operator, left: AbsVal, right: AbsVal
    ) -> AbsVal:
        if isinstance(left, Seq) or isinstance(right, Seq):
            return UNKNOWN  # list concat / repetition is not arithmetic
        if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
            if _is_vec(left) and _is_vec(right):
                if left != right:
                    sym = {ast.Add: "+", ast.Sub: "-", ast.Mod: "%"}[type(op)]
                    self._add(
                        node,
                        "RPR006",
                        f"`{sym}` mixes {_label(left)} and {_label(right)}",
                    )
                    return UNKNOWN
                return left
            if left is POLY and _is_vec(right):
                return right
            if right is POLY and _is_vec(left):
                return left
            if left is POLY and right is POLY:
                return POLY
            if _is_vec(left):
                return left  # unknown side assumed compatible
            if _is_vec(right):
                return right
            return UNKNOWN
        if isinstance(op, (ast.Mult, ast.Div, ast.FloorDiv)):
            if left is UNKNOWN or right is UNKNOWN:
                return UNKNOWN
            if left is POLY and right is POLY:
                return POLY
            lv = _ZERO if left is POLY else cast(DimVec, left)
            rv = _ZERO if right is POLY else cast(DimVec, right)
            if isinstance(op, ast.Mult):
                return (lv[0] + rv[0], lv[1] + rv[1])
            return (lv[0] - rv[0], lv[1] - rv[1])
        if isinstance(op, ast.Pow):
            if left is POLY:
                return POLY
            if _is_vec(left):
                exp = node.right if isinstance(node, ast.BinOp) else None
                if (
                    isinstance(exp, ast.Constant)
                    and isinstance(exp.value, int)
                    and not isinstance(exp.value, bool)
                ):
                    return (left[0] * exp.value, left[1] * exp.value)
                if left == _ZERO:
                    return _ZERO
            return UNKNOWN
        return UNKNOWN

    def _check_compare(self, node: ast.Compare) -> None:
        vals = [self._eval(v) for v in [node.left, *node.comparators]]
        for op, left, right in zip(node.ops, vals, vals[1:], strict=False):
            if not isinstance(
                op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
            ):
                continue
            if _is_vec(left) and _is_vec(right) and left != right:
                self._add(
                    node,
                    "RPR007",
                    f"comparison between {_label(left)} and {_label(right)}",
                )


def _unwrap(val: AbsVal) -> AbsVal:
    return val.elt if isinstance(val, Seq) else val


def _unify(a: AbsVal, b: AbsVal) -> AbsVal:
    """Join for branches: equal values keep, POLY yields, else UNKNOWN-ish."""
    if a == b:
        return a
    if a is POLY:
        return b
    if b is POLY:
        return a
    if a is UNKNOWN:
        return b
    if b is UNKNOWN:
        return a
    return UNKNOWN


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _parse(source: str, path: str) -> tuple[ast.Module | None, Finding | None]:
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(
            path, exc.lineno or 1, exc.offset or 0, "RPR000",
            f"syntax error: {exc.msg}",
        )


def check_source(
    source: str,
    path: str | Path = "<string>",
    select: Sequence[str] | None = None,
    harvest: Harvest | None = None,
) -> list[Finding]:
    """Check one module's source text; returns surviving findings.

    With no explicit ``harvest``, the lattice is seeded from this module's
    own annotations only (plus naming conventions).
    """
    p = str(path)
    tree, err = _parse(source, p)
    if tree is None:
        return [err] if err is not None else []
    if harvest is None:
        harvest = Harvest()
        harvest.harvest_module(tree)
    checker = _Checker(p, harvest)
    checker.check_module(tree)
    return filter_findings(checker.findings, source.splitlines(), select)


def check_paths(
    paths: Sequence[str | Path], select: Sequence[str] | None = None
) -> list[Finding]:
    """Check every ``.py`` file under ``paths`` with a shared harvest.

    Two-phase: first harvest dimension annotations across *all* files (so
    e.g. ``runtime.py`` sees ``platform.py``'s declared return dimensions),
    then check each file against the combined lattice.
    """
    sources: list[tuple[str, str, ast.Module]] = []
    findings: list[Finding] = []
    harvest = Harvest()
    for file in iter_py_files(paths):
        text = file.read_text()
        tree, err = _parse(text, str(file))
        if tree is None:
            if err is not None:
                findings.append(err)
            continue
        harvest.harvest_module(tree)
        sources.append((str(file), text, tree))
    for path, text, tree in sources:
        checker = _Checker(path, harvest)
        checker.check_module(tree)
        findings.extend(
            filter_findings(checker.findings, text.splitlines(), select)
        )
    return findings
