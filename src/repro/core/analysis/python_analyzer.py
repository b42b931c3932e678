"""Static analysis of Python data-science scripts (paper §3.2).

Given a script's source text and the database it runs against, the
analyzer parses it (via :mod:`ast`), tracks what each variable holds
along every execution path, and builds the plan SQL analysis builds —
the logical algebra:

* constructor calls of known data-science classes become estimator objects
  (``Pipeline([...])`` is rebuilt structurally — never ``eval``-ed),
* ``table('x')`` is a ``Scan`` with the catalog's schema; ``df[pred]`` a
  ``Filter``; ``df[[cols]]`` and ``df.drop(columns=...)`` a ``Project``;
  ``df.head(n)`` a ``Limit``; ``a.merge(b, on=k)`` a ``Join`` that keeps
  pandas' single key column,
* ``m = load_model('name')`` then ``m.predict(df)`` is a ``Predict`` that
  appends a ``prediction`` column; the model is resolved exactly as SQL's
  ``DECLARE @m = (SELECT model FROM scoring_models ...)`` is,
* conditionals fork the analysis — one plan per execution path,
* code it cannot translate (a loop, an unknown frame method or subscript,
  a call that takes a frame) adds no operator: the frames it may touch
  carry a diagnostic naming its line and source instead, and a path whose
  result depends on one yields that diagnostic rather than a plan.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from repro.errors import StaticAnalysisError
from repro.core.analysis.knowledge_base import DEFAULT_KNOWLEDGE_BASE
from repro.ml.pipeline import Pipeline
from repro.relational.algebra import logical
from repro.relational.database import Database
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    UnaryOp,
)
from repro.relational.types import DataType

#: The column ``model.predict(df)`` appends to ``df``.
PREDICTION = "prediction"

#: AST operator -> SQL operator. pandas combines boolean masks with the
#: bitwise ``&`` / ``|`` (and negates one with ``~``).
_OPERATORS = {
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Eq: "=",
    ast.NotEq: "<>",
    ast.BitAnd: "AND",
    ast.BitOr: "OR",
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
}


@dataclass
class AnalyzedValue:
    """Abstract value tracked per variable during analysis."""

    # "estimator" | "model" | "frame" | "literal" | "untranslated" | "unknown"
    kind: str
    # estimator object / model name / _Frame / literal value / diagnostic
    payload: object = None


_UNKNOWN = AnalyzedValue("unknown")


@dataclass(frozen=True)
class _Frame:
    """A dataframe: the plan that computes it, and which plan column each
    of its pandas columns is. Narrowing only edits ``columns``; the
    ``Project`` is built when the frame is scored or returned, so a merge
    of narrowed frames still joins the scans directly."""

    plan: logical.LogicalOp
    columns: tuple[tuple[str, str], ...]  # (pandas name, plan column name)

    def ref(self, name: str) -> ColumnRef | None:
        for short, full in self.columns:
            if short == name:
                return ColumnRef(full)
        return None

    def materialize(self) -> logical.LogicalOp:
        """The plan, projected to the visible columns under their pandas
        names unless it already is exactly that."""
        names = tuple(short for short, _ in self.columns)
        fulls = tuple(full for _, full in self.columns)
        if names == fulls == self.plan.schema.names:
            return self.plan
        return logical.Project(
            self.plan,
            tuple((ColumnRef(full), short) for short, full in self.columns),
        )


@dataclass
class AnalysisResult:
    """Output of analyzing one script.

    ``plans`` holds one plan per execution path that ends in a frame;
    ``diagnostics`` one entry per path whose frame depends on code the
    analyzer could not translate (that path has no plan).
    """

    plans: list[logical.LogicalOp] = field(default_factory=list)
    pipelines: dict[str, object] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def plan(self) -> logical.LogicalOp:
        """The single plan; raises if a path was not translated or
        conditionals produced several."""
        if self.diagnostics:
            raise StaticAnalysisError(
                f"script not translated: {self.diagnostics[0]}"
            )
        if len(self.plans) != 1:
            raise StaticAnalysisError(
                f"script has {len(self.plans)} plans; use .plans"
            )
        return self.plans[0]


class PythonStaticAnalyzer:
    """AST-based analyzer for straight-line-plus-conditionals scripts."""

    def analyze(self, source: str, database: Database | None) -> AnalysisResult:
        """Analyze a script against ``database``'s tables and models;
        returns one logical plan per execution path. Without a database
        only estimator constructions are recovered."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            raise StaticAnalysisError(f"cannot parse script: {exc}") from exc
        result = AnalysisResult()
        paths = _Path(source, database, set()).run_block(tree.body)
        for path in paths:
            if path.result is None:
                continue
            if path.result.kind == "frame":
                result.plans.append(path.result.payload.materialize())
            elif path.result.payload not in result.diagnostics:
                result.diagnostics.append(path.result.payload)
        result.pipelines = {
            name: value.payload
            for name, value in paths[0].scope.items()
            if value.kind == "estimator"
        }
        return result

    def extract_pipeline(self, source: str):
        """Convenience: the single estimator a model script constructs."""
        result = self.analyze(source, None)
        if len(result.pipelines) == 1:
            return next(iter(result.pipelines.values()))
        for value in result.pipelines.values():
            if isinstance(value, Pipeline):
                return value
        raise StaticAnalysisError(
            f"expected one pipeline, found {sorted(result.pipelines)}"
        )


def resolve_predict(database: Database, op: logical.Predict) -> logical.Predict:
    """``op`` with its model looked up in ``database``'s catalog.

    The resolved plan is self-contained: it names the qualified ``name:vN``
    it was compiled against and carries the model itself. ``ml.pipeline``
    models ride as the fitted pipeline object, ``tensor.graph`` models as
    the graph; ``python.script`` models are sent through
    the static analyzer first and stay opaque scripts (run by the external
    runtime) when it cannot translate them. SQL and script analysis both
    resolve every ``Predict`` here.
    """
    entry = database.get_model(op.model_ref)
    features = entry.metadata.get("feature_names")
    flavor, payload, extra = entry.flavor, entry.payload, ()
    if flavor == "python.script":
        payload = str(payload)
        try:
            pipeline = PythonStaticAnalyzer().extract_pipeline(payload)
        except StaticAnalysisError:
            pipeline = None
        if pipeline is not None and _is_fitted(pipeline):
            flavor, payload = "ml.pipeline", pipeline
        else:
            # Untranslatable or unfitted: out-of-process execution.
            extra = (("name", entry.qualified_name),)
    elif flavor not in ("ml.pipeline", "tensor.graph"):
        raise StaticAnalysisError(
            f"unknown model flavor {flavor!r} for {entry.name!r}"
        )
    return replace(
        op,
        model_ref=entry.qualified_name,
        flavor=flavor,
        payload=payload,
        # () means "zero features" (a fully-pruned model); it must
        # stay distinct from None ("all columns").
        feature_names=None if features is None else tuple(features),
        extra=extra,
    )


def _is_fitted(pipeline) -> bool:
    """Best-effort check that a reconstructed pipeline carries weights."""
    estimator = getattr(pipeline, "final_estimator", pipeline)
    for attr in ("tree_", "coef_", "coefs_", "estimators_", "cluster_centers_"):
        if getattr(estimator, attr, None) is not None:
            return True
    return False


class _Path:
    """One execution path: what each name holds, and the frame it ends in.

    Plans are immutable, so forking on a conditional copies the scope.
    """

    def __init__(self, source: str, database: Database | None, aliases: set):
        self.source = source
        self.database = database
        self.aliases = aliases  # scan aliases, shared by every path
        self.scope: dict[str, AnalyzedValue] = {}
        self.imports: dict[str, str] = {}  # local name -> qualified path
        self.result: AnalyzedValue | None = None

    def fork(self) -> "_Path":
        clone = _Path(self.source, self.database, self.aliases)
        clone.scope = dict(self.scope)
        clone.imports = dict(self.imports)
        clone.result = self.result
        return clone

    # -- statement walk --------------------------------------------------

    def run_block(self, statements: list[ast.stmt]) -> list["_Path"]:
        paths = [self]
        for statement in statements:
            paths = [
                forked for path in paths for forked in path._run(statement)
            ]
            if len(paths) > 16:
                raise StaticAnalysisError(
                    "too many execution paths (deeply nested conditionals)"
                )
        return paths

    def _run(self, statement: ast.stmt) -> list["_Path"]:
        if isinstance(statement, ast.If):
            # One plan per execution path (paper §3.2, conditionals).
            return self.fork().run_block(statement.body) + self.fork().run_block(
                statement.orelse
            )
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            self._handle_import(statement)
        elif (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
        ):
            self.scope[statement.targets[0].id] = self._eval(statement.value)
        elif isinstance(statement, (ast.Expr, ast.Return)):
            if statement.value is not None:
                value = self._eval(statement.value)
                if value.kind == "untranslated":
                    # An untranslated call may have changed any frame.
                    self._poison(value)
                if value.kind in ("frame", "untranslated"):
                    self.result = value
        elif isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            self.scope[statement.name] = _UNKNOWN
        elif not isinstance(statement, ast.Pass):
            # Loops (the paper cites them as hard), augmented assignments,
            # with/try blocks...: what they may change is not translated.
            reason = (
                "loop"
                if isinstance(statement, (ast.For, ast.While, ast.AsyncFor))
                else "unsupported statement"
            )
            stored = {
                node.id
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            self._poison(self._untranslated(statement, reason), stored)
        return [self]

    def _poison(self, value: AnalyzedValue, names=()) -> None:
        """Every frame (and every name in ``names``) now holds ``value``."""
        for name, held in self.scope.items():
            if held.kind == "frame":
                self.scope[name] = value
        for name in names:
            self.scope[name] = value
        if self.result is not None and self.result.kind == "frame":
            self.result = value

    def _untranslated(self, node: ast.AST, reason: str) -> AnalyzedValue:
        source = ast.get_source_segment(self.source, node) or ast.dump(node)
        first_line = source.splitlines()[0]
        return AnalyzedValue(
            "untranslated", f"line {node.lineno}: {reason}: {first_line!r}"
        )

    def _handle_import(self, statement: ast.Import | ast.ImportFrom) -> None:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                local = alias.asname or alias.name.split(".")[0]
                self.imports[local] = alias.name
        else:
            module = statement.module or ""
            for alias in statement.names:
                local = alias.asname or alias.name
                self.imports[local] = f"{module}.{alias.name}"

    # -- expression evaluation ---------------------------------------------

    def _eval(self, node: ast.expr) -> AnalyzedValue:
        if isinstance(node, ast.Constant):
            return AnalyzedValue("literal", node.value)
        if isinstance(node, ast.Name):
            return self.scope.get(node.id, _UNKNOWN)
        if isinstance(node, (ast.List, ast.Tuple)):
            items = [self._eval(el) for el in node.elts]
            return AnalyzedValue("literal", items)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value)
            if base.kind == "frame":
                # df.column — a column reference wrapped as a literal expr.
                ref = base.payload.ref(node.attr)
                if ref is not None:
                    return AnalyzedValue("literal", ref)
            return base if base.kind == "untranslated" else _UNKNOWN
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            return self._combine(node.ops[0], node.left, node.comparators[0])
        if isinstance(node, ast.BinOp):
            return self._combine(node.op, node.left, node.right)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand)
            if isinstance(node.op, ast.Invert) and isinstance(
                operand.payload, Expression
            ):
                return AnalyzedValue("literal", UnaryOp("NOT", operand.payload))
            if isinstance(node.op, ast.USub) and type(operand.payload) in (
                int,
                float,
            ):
                return AnalyzedValue("literal", -operand.payload)
            return operand if operand.kind == "untranslated" else _UNKNOWN
        return _UNKNOWN

    def _combine(self, op, left: ast.expr, right: ast.expr) -> AnalyzedValue:
        """``left op right`` as an expression over frame columns."""
        if type(op) not in _OPERATORS:
            return _UNKNOWN
        operands = []
        for side in (self._eval(left), self._eval(right)):
            if side.kind == "untranslated":
                return side
            if isinstance(side.payload, Expression):
                operands.append(side.payload)
            elif side.kind == "literal" and isinstance(
                side.payload, (int, float, str)
            ):
                operands.append(Literal(side.payload))
            else:
                return _UNKNOWN
        if all(isinstance(operand, Literal) for operand in operands):
            return _UNKNOWN  # plain Python arithmetic, not a frame expression
        return AnalyzedValue("literal", BinaryOp(_OPERATORS[type(op)], *operands))

    def _eval_call(self, node: ast.Call) -> AnalyzedValue:
        callee = self._callee_name(node.func)
        # Known estimator constructor?
        if callee is not None:
            qualified = self.imports.get(callee, callee)
            entry = DEFAULT_KNOWLEDGE_BASE.lookup(qualified)
            if entry is not None:
                estimator = self._construct(entry, node)
                if estimator is not None:
                    return AnalyzedValue("estimator", estimator)
        # Method calls on tracked values.
        if isinstance(node.func, ast.Attribute):
            base = self._eval(node.func.value)
            method = node.func.attr
            if base.kind == "untranslated":
                return base
            if base.kind == "frame":
                return self._frame_method(base.payload, method, node)
            if base.kind == "model" and method == "predict":
                return self._predict(base.payload, node)
        # table('name') / read_table('name') — the data source hook;
        # load_model('name') — the model store's.
        if callee in ("table", "read_table", "read_sql", "load_model"):
            name = self._eval(node.args[0]).payload if node.args else None
            if isinstance(name, str) and len(node.args) == 1:
                if callee == "load_model":
                    return AnalyzedValue("model", name)
                return self._scan(node, name)
        # Any other call that takes a frame may reshape it arbitrarily.
        arguments = [self._eval(arg) for arg in node.args] + [
            self._eval(keyword.value) for keyword in node.keywords
        ]
        for argument in arguments:
            if argument.kind == "untranslated":
                return argument
        if any(argument.kind == "frame" for argument in arguments):
            return self._untranslated(node, "unsupported call")
        return _UNKNOWN

    def _scan(self, node: ast.Call, name: str) -> AnalyzedValue:
        catalog = None if self.database is None else self.database.catalog
        if catalog is None or not catalog.has_table(name):
            return self._untranslated(node, f"no table {name!r} in the database")
        # Each scan gets its own alias, so a merge condition is qualified.
        alias, suffix = name, 1
        while alias.lower() in self.aliases:
            suffix += 1
            alias = f"{name}_{suffix}"
        self.aliases.add(alias.lower())
        schema = catalog.table_schema(name)
        columns = tuple((c.name, f"{alias}.{c.name}") for c in schema)
        return AnalyzedValue(
            "frame", _Frame(logical.Scan(name, schema, alias), columns)
        )

    def _predict(self, model: str, node: ast.Call) -> AnalyzedValue:
        data = self._eval(node.args[0]) if len(node.args) == 1 else _UNKNOWN
        if data.kind == "untranslated":
            return data
        if (
            data.kind != "frame"
            or node.keywords
            or data.payload.ref(PREDICTION) is not None
        ):
            return self._untranslated(node, "unsupported predict")
        # Score the plan as it is when it shows every column, in order.
        frame = data.payload
        if tuple(full for _, full in frame.columns) != frame.plan.schema.names:
            child = frame.materialize()
            frame = _Frame(child, tuple((n, n) for n in child.schema.names))
        predict = logical.Predict(frame.plan, model, ((PREDICTION, DataType.FLOAT),))
        columns = frame.columns + ((PREDICTION, PREDICTION),)
        return AnalyzedValue(
            "frame", _Frame(resolve_predict(self.database, predict), columns)
        )

    def _frame_method(
        self, frame: _Frame, method: str, node: ast.Call
    ) -> AnalyzedValue:
        if method == "merge":
            return self._merge(frame, node)
        if method in ("head", "limit") and len(node.args) == 1:
            count = self._eval(node.args[0]).payload
            if type(count) is int and not node.keywords:
                return AnalyzedValue(
                    "frame", replace(frame, plan=logical.Limit(frame.plan, count))
                )
        if method == "drop" and not node.args and len(node.keywords) == 1:
            keyword = node.keywords[0]
            names = self._column_names(frame, keyword.value)
            if keyword.arg == "columns" and names is not None:
                return AnalyzedValue(
                    "frame",
                    replace(
                        frame,
                        columns=tuple(c for c in frame.columns if c[0] not in names),
                    ),
                )
        return self._untranslated(node, f"unsupported frame method .{method}()")

    def _merge(self, left: _Frame, node: ast.Call) -> AnalyzedValue:
        right = self._eval(node.args[0]) if len(node.args) == 1 else _UNKNOWN
        if right.kind == "untranslated":
            return right
        on = None
        if [keyword.arg for keyword in node.keywords] == ["on"]:
            on = self._eval(node.keywords[0].value).payload
        if right.kind == "frame" and isinstance(on, str):
            right = right.payload
            shared = {c[0] for c in left.columns} & {c[0] for c in right.columns}
            left_names = {name.lower() for name in left.plan.schema.names}
            # pandas would suffix any other shared column (``_x``/``_y``).
            if shared == {on} and not any(
                name.lower() in left_names for name in right.plan.schema.names
            ):
                condition = BinaryOp("=", left.ref(on), right.ref(on))
                join = logical.Join(left.plan, right.plan, "INNER", condition)
                # pandas keeps one key column: the left one.
                columns = left.columns + tuple(
                    c for c in right.columns if c[0] != on
                )
                return AnalyzedValue("frame", _Frame(join, columns))
        return self._untranslated(node, "unsupported merge")

    def _eval_subscript(self, node: ast.Subscript) -> AnalyzedValue:
        base = self._eval(node.value)
        if base.kind != "frame":
            return base if base.kind == "untranslated" else _UNKNOWN
        frame = base.payload
        index = self._eval(node.slice)
        if index.kind == "untranslated":
            return index
        payload = index.payload
        # df[mask] -> filter
        schema = frame.plan.schema
        if (
            isinstance(payload, Expression)
            and payload.columns() <= set(schema.names)
            and payload.output_type(schema) is DataType.BOOL
        ):
            return AnalyzedValue(
                "frame", replace(frame, plan=logical.Filter(frame.plan, payload))
            )
        # df['a'] -> column reference
        if isinstance(payload, str) and frame.ref(payload) is not None:
            return AnalyzedValue("literal", frame.ref(payload))
        # df[['a', 'b']] -> project
        names = self._column_names(frame, node.slice)
        if isinstance(payload, list) and names is not None:
            by_name = dict(frame.columns)
            return AnalyzedValue(
                "frame",
                replace(frame, columns=tuple((n, by_name[n]) for n in names)),
            )
        return self._untranslated(node, "unsupported subscript")

    def _column_names(self, frame: _Frame, node: ast.expr) -> list[str] | None:
        """The literal column name(s) ``node`` lists, if ``frame`` has them."""
        value = self._eval(node)
        items = value.payload if isinstance(value.payload, list) else [value]
        names = [item.payload for item in items]
        if all(isinstance(n, str) and frame.ref(n) is not None for n in names):
            return names
        return None

    @staticmethod
    def _callee_name(func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            parts = []
            current: ast.expr = func
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if isinstance(current, ast.Name):
                parts.append(current.id)
                return ".".join(reversed(parts))
        return None

    def _construct(self, entry, node: ast.Call):
        """Structurally rebuild a known estimator from its literal args."""
        args = [self._literal(self._eval(a)) for a in node.args]
        kwargs = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                return None
            kwargs[keyword.arg] = self._literal(self._eval(keyword.value))
        if any(a is _UNRESOLVED for a in args) or any(
            v is _UNRESOLVED for v in kwargs.values()
        ):
            return None
        try:
            return entry.constructor(*args, **kwargs)
        except Exception:
            return None

    def _literal(self, value: AnalyzedValue):
        if value.kind == "estimator":
            return value.payload
        if value.kind == "literal":
            payload = value.payload
            if isinstance(payload, list):
                resolved = [self._literal(v) if isinstance(v, AnalyzedValue) else v for v in payload]
                if any(v is _UNRESOLVED for v in resolved):
                    return _UNRESOLVED
                # Pipeline steps arrive as [ [name, estimator], ... ] lists.
                if all(isinstance(v, list) and len(v) in (2, 3) for v in resolved):
                    return [tuple(v) for v in resolved]
                return resolved
            return payload
        return _UNRESOLVED


_UNRESOLVED = object()
