"""SA203 — machine-checked docstring shape contracts.

The array kernels (``mds/incremental.py``, ``trajectory/histograms.py``,
``core/model_health.py``) annotate array parameters with a symbolic
shape in their numpydoc docstrings — ``starts: (S, D)``,
``anchors: (N, D)``, ``deltas: (N,)`` — where each letter names a
dimension (S stacked starts, N anchors, D map dimensions, B bins, W
window length). Those annotations are the contract between a kernel
and its callers, but nothing checked them: transposing an
``np.add.at`` argument or broadcasting an ``(S, D)`` row block against
an ``(N, D)`` one is silent until the numbers disagree.

This rule parses the annotations into a symbolic shape environment and
runs a miniature abstract interpreter over the function body:

* shape-preserving constructors propagate (``np.zeros_like(x)``,
  ``x.copy()``, ``x.astype(...)``, ``np.where``/``minimum``/``maximum``
  over known operands, ``np.zeros(n)`` where ``n = x.shape[0]``);
* integer fancy-indexing gathers (``share[host_index]`` with
  ``host_index: (C,)`` turns ``(H, R)`` into ``(C, R)``); boolean
  masks erase the axis to *unknown* (mask length is data-dependent);
* ``x[:, cols]`` keeps axis 0 and erases the rest.

Two contracts are then enforced wherever every involved symbol is
known (*unknown dimensions match anything* — the rule
under-approximates, like the rest of sacheck v2):

* ``np.add.at(target, index, value)`` — ``index`` and ``value`` must
  agree on axis 0, and ``value``'s trailing axes must match
  ``target``'s trailing axes;
* symbolic broadcasting — two known dimension symbols aligned from the
  right must be equal (no numeric sizes exist at analysis time, so two
  *different* letters on the same axis is the error).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tools.sacheck.engine import FileContext, Finding, Rule, RuleWalker

#: Layers whose kernels carry shape-annotated docstrings.
SHAPE_LAYERS = {"sim", "core", "mds", "trajectory"}

#: ``demand:`` or ``demands / weights / host_index:`` — a numpydoc
#: parameter heading (possibly several names sharing one description).
_PARAM_HEAD_RE = re.compile(r"^\s*([A-Za-z_][\w]*(?:\s*/\s*[A-Za-z_][\w]*)*)\s*:\s*$")
#: ``(C, R)`` / ``(C,)`` / ``(H,)`` inside the description text.
_SHAPE_RE = re.compile(r"\(\s*([A-Z][A-Za-z0-9_]*)\s*(?:,\s*([A-Z][A-Za-z0-9_]*)\s*)?,?\s*\)")

#: A symbolic shape: tuple of dim symbols, ``None`` = unknown dim.
Shape = Tuple[Optional[str], ...]


def parse_docstring_shapes(docstring: Optional[str]) -> Dict[str, Shape]:
    """``{param name: symbolic shape}`` from a numpydoc docstring."""
    if not docstring:
        return {}
    shapes: Dict[str, Shape] = {}
    lines = docstring.splitlines()
    for i, line in enumerate(lines):
        head = _PARAM_HEAD_RE.match(line)
        if not head:
            continue
        # The shape token lives in the first description line(s).
        description = " ".join(lines[i + 1 : i + 3])
        match = _SHAPE_RE.search(description)
        if not match:
            continue
        dims = tuple(g for g in match.groups() if g is not None)
        for name in re.split(r"\s*/\s*", head.group(1)):
            shapes[name] = dims
    return shapes


def _broadcast(
    left: Shape, right: Shape
) -> Tuple[Optional[Shape], Optional[Tuple[int, str, str]]]:
    """Symbolically broadcast two shapes (NumPy right-alignment).

    Returns ``(result, conflict)``; ``conflict`` is ``(axis_from_right,
    left_sym, right_sym)`` when two *known, different* symbols collide.
    """
    result: List[Optional[str]] = []
    for axis in range(1, max(len(left), len(right)) + 1):
        l = left[-axis] if axis <= len(left) else None
        r = right[-axis] if axis <= len(right) else None
        if l is not None and r is not None and l != r:
            return None, (axis, l, r)
        result.append(l if l is not None else r)
    return tuple(reversed(result)), None


class _ShapeInterpreter:
    """Flow-insensitive symbolic shape tracking for one function body."""

    def __init__(self, shapes: Dict[str, Shape]) -> None:
        #: name -> (shape, is_boolean_mask)
        self.env: Dict[str, Tuple[Shape, bool]] = {
            name: (shape, False) for name, shape in shapes.items()
        }
        #: scalar name -> dim symbol (``rows = demands.shape[0]``)
        self.dims: Dict[str, str] = {}

    # -- expression shapes ------------------------------------------------
    def shape_of(self, expr: ast.expr) -> Optional[Shape]:
        entry = self.entry_of(expr)
        return entry[0] if entry is not None else None

    def entry_of(self, expr: ast.expr) -> Optional[Tuple[Shape, bool]]:
        """(shape, is_bool) of an expression, or None when unknown."""
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Compare):
            left = self.entry_of(expr.left)
            return (left[0], True) if left is not None else None
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Invert):
            return self.entry_of(expr.operand)
        if isinstance(expr, ast.BinOp):
            return self._binop_entry(expr)
        if isinstance(expr, ast.Call):
            return self._call_entry(expr)
        if isinstance(expr, ast.Subscript):
            return self._subscript_entry(expr)
        return None

    def _binop_entry(self, expr: ast.BinOp) -> Optional[Tuple[Shape, bool]]:
        left = self.entry_of(expr.left)
        right = self.entry_of(expr.right)
        if left is None or right is None:
            # scalar operand (constant) keeps the known side's shape
            known = left or right
            if known is not None and isinstance(
                expr.left if left is None else expr.right, ast.Constant
            ):
                return known
            return None
        result, conflict = _broadcast(left[0], right[0])
        if conflict is not None or result is None:
            return None
        is_bool = left[1] and right[1] and isinstance(
            expr.op, (ast.BitAnd, ast.BitOr, ast.BitXor)
        )
        return result, is_bool

    def _call_entry(self, expr: ast.Call) -> Optional[Tuple[Shape, bool]]:
        func = expr.func
        # x.copy() / x.astype(...) / x.clip(...) keep x's shape; chains
        # like capacity.astype(np.float64).copy() recurse naturally.
        if isinstance(func, ast.Attribute) and func.attr in ("copy", "astype", "clip"):
            return self.entry_of(func.value)
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in ("zeros_like", "empty_like", "ones_like") and expr.args:
            base = self.entry_of(expr.args[0])
            return (base[0], False) if base is not None else None
        if name in ("where",) and len(expr.args) == 3:
            return self._broadcast_args(expr.args[1:], bool_result=False) or (
                self._promote(expr.args[0], bool_result=False)
            )
        if name in ("minimum", "maximum") and len(expr.args) == 2:
            return self._broadcast_args(expr.args, bool_result=False)
        if name in ("zeros", "empty", "ones") and expr.args:
            return self._constructor_shape(expr.args[0])
        return None

    def _promote(
        self, expr: ast.expr, bool_result: bool
    ) -> Optional[Tuple[Shape, bool]]:
        entry = self.entry_of(expr)
        return (entry[0], bool_result) if entry is not None else None

    def _broadcast_args(
        self, args: Sequence[ast.expr], bool_result: bool
    ) -> Optional[Tuple[Shape, bool]]:
        entries = [self.entry_of(arg) for arg in args]
        known = [e for e in entries if e is not None]
        if not known:
            return None
        shape = known[0][0]
        for other in known[1:]:
            merged, conflict = _broadcast(shape, other[0])
            if conflict is not None or merged is None:
                return None
            shape = merged
        return shape, bool_result

    def _constructor_shape(self, arg: ast.expr) -> Optional[Tuple[Shape, bool]]:
        """np.zeros(n) / np.zeros((a, b)) / np.empty((x.shape[0], k))."""
        dims: List[Optional[str]] = []
        elements = arg.elts if isinstance(arg, ast.Tuple) else [arg]
        for element in elements:
            dims.append(self._dim_of(element))
        return tuple(dims), False

    def _dim_of(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.dims.get(expr.id)
        # x.shape[0] inline
        sym = self._shape_index_dim(expr)
        return sym

    def _shape_index_dim(self, expr: ast.expr) -> Optional[str]:
        """Dim symbol of an ``x.shape[i]`` expression, if x is known."""
        if not (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Attribute)
            and expr.value.attr == "shape"
        ):
            return None
        base = self.entry_of(expr.value.value)
        index = expr.slice
        if base is None or not isinstance(index, ast.Constant):
            return None
        axis = index.value
        if isinstance(axis, int) and 0 <= axis < len(base[0]):
            return base[0][axis]
        return None

    def _subscript_entry(self, expr: ast.Subscript) -> Optional[Tuple[Shape, bool]]:
        base = self.entry_of(expr.value)
        if base is None:
            return None
        base_shape, base_bool = base
        index = expr.slice
        # x[name] — gather or mask
        if isinstance(index, ast.Name):
            idx = self.env.get(index.id)
            if idx is None:
                return None
            idx_shape, idx_bool = idx
            if idx_bool:
                # boolean mask: result length is data-dependent
                return (None,) + base_shape[1:], base_bool
            if len(idx_shape) == 1:
                # integer gather: axis 0 becomes the index's axis
                return (idx_shape[0],) + base_shape[1:], base_bool
            return None
        # x[:, cols] — axis 0 preserved, trailing axes unknown
        if isinstance(index, ast.Tuple) and index.elts:
            first = index.elts[0]
            if isinstance(first, ast.Slice) and first.lower is None and first.upper is None:
                return (base_shape[0],) + (None,) * (len(index.elts) - 1), base_bool
            return None
        return None

    # -- statement effects ------------------------------------------------
    def bind(self, stmt: ast.stmt) -> None:
        if not isinstance(stmt, ast.Assign):
            return
        value = stmt.value
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            dim = self._shape_index_dim(value)
            if dim is not None:
                self.dims[target.id] = dim
                self.env.pop(target.id, None)
                continue
            entry = self.entry_of(value)
            if entry is not None:
                self.env[target.id] = entry
            else:
                self.env.pop(target.id, None)


class SA203ShapeContractRule(Rule):
    """SA203 — docstring shape annotations are checked, not prose."""

    id = "SA203"
    name = "shape-contracts"
    rationale = (
        "docstring shape annotations ((C,R)/(H,R)) are the scalar/vector "
        "equivalence contract; axis mismatches in np.add.at or broadcasts "
        "between annotated arrays are silent numeric corruption"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer in SHAPE_LAYERS

    def visit_functiondef(
        self, node: ast.AST, ctx: FileContext, walker: RuleWalker
    ) -> Iterable[Finding]:
        if isinstance(node, ast.Lambda):
            return
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        shapes = parse_docstring_shapes(ast.get_docstring(node))
        if not shapes:
            return
        interp = _ShapeInterpreter(shapes)
        # Statement order matters for bindings; walk top-level statements
        # in order, checking expressions as we pass them.
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.stmt):
                interp.bind(stmt)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
                continue
            if isinstance(sub, ast.Call):
                yield from self._check_add_at(sub, interp, ctx)
            elif isinstance(sub, ast.BinOp):
                yield from self._check_binop(sub, interp, ctx)

    def _check_add_at(
        self, call: ast.Call, interp: _ShapeInterpreter, ctx: FileContext
    ) -> Iterable[Finding]:
        func = call.func
        # np.add.at / np.subtract.at / np.maximum.at ...
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and isinstance(func.value, ast.Attribute)
        ):
            return
        if len(call.args) != 3:
            return
        target, index, value = (interp.shape_of(arg) for arg in call.args)
        if index is not None and value is not None:
            if index[0] is not None and value[0] is not None and index[0] != value[0]:
                yield self.make_finding(
                    ctx, call,
                    f"np.{func.value.attr}.at index axis is ({index[0]},) but "
                    f"value axis 0 is ({value[0]},); the index must enumerate "
                    "the value's rows",
                )
                return
        if target is not None and value is not None and len(target) > 1:
            for axis in range(1, min(len(target), len(value))):
                t, v = target[axis], value[axis]
                if t is not None and v is not None and t != v:
                    yield self.make_finding(
                        ctx, call,
                        f"np.{func.value.attr}.at value trailing axis {axis} "
                        f"is {v} but target axis {axis} is {t}; scattered "
                        "rows must match the target's row shape",
                    )
                    return

    def _check_binop(
        self, expr: ast.BinOp, interp: _ShapeInterpreter, ctx: FileContext
    ) -> Iterable[Finding]:
        if not isinstance(
            expr.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.BitAnd, ast.BitOr)
        ):
            return
        left = interp.shape_of(expr.left)
        right = interp.shape_of(expr.right)
        if left is None or right is None:
            return
        _, conflict = _broadcast(left, right)
        if conflict is not None:
            axis, l, r = conflict
            yield self.make_finding(
                ctx, expr,
                f"broadcast mismatch: operands have dims ({l}) vs ({r}) on "
                f"axis -{axis} per the docstring shape contract "
                f"({self._fmt(left)} vs {self._fmt(right)})",
            )

    @staticmethod
    def _fmt(shape: Shape) -> str:
        return "(" + ", ".join(d if d is not None else "?" for d in shape) + ")"
