"""Machine-readable catalogue of matrix identities with evaluation and audit.

Identity statements are data, not code: each side of a relation is an
expression tree over the matrix symbols of a structure bundle and a
utilization bundle, so the catalogue serializes to JSON and external users
can evaluate relations of their own without touching this module.

An expression is either a symbol name or an (op, lhs, rhs) triple with op
one of "had" (Hadamard product), "add", "sub".  Relations are "eq" (exact
cell equality) or "leq" (elementwise order).

Every operator and relation acts cell by cell, so each spec compiles once,
on its first evaluation and onto the spec, into one form over flat cell
columns: a table holds one list per symbol and, beside them, each entry's
row-major cell.  ``evaluate_identity`` reads the full table, one entry per
cell, whose columns are made on first read, so it makes only the hats its
spec names; an audit reads the distinct table, exactly one entry per
distinct vector of the fifteen matrices' values at one cell, in order of
first occurrence, with no padding.  Every column has its table's length:
before the full table is made, every count matrix of both bundles is
checked to have A's dimension (DimensionMismatch, A's size first).  A
node maps the plain operator (``operator.mul``, ``add``, ``sub``) over its
two columns; an INF operand (TypeError) or a negative difference sends it
to ``netmat.matrices``' cell walk, whose cell rules give the exact values
or raise at the first such entry.  An UndefinedProduct is re-raised
prefixed with the spec id.  Both sides are computed in full before any
cell is compared, so such an exception wins over an earlier witness.  A
relation that fails its whole-column test is witnessed at its first
failing entry, found by the finder the ``build_utilization`` cross-checks
use.  A cell's values depend only on its vector, and entries come in order
of first occurrence, so on either table the first entry that raises or
fails is the first such cell in row-major order.

A verdict is its spec plus the outcome: its id is the spec's id, so reports
read catalogue specs and specs from elsewhere alike.  A relation that holds
returns its spec's one shared, immutable verdict.

Catalogue classes:

    UNIVERSAL             holds on every dataset; an audit failure means a bug
    MUTUAL_EXCLUSIVITY    zero-product relations; also universal
    FULLY_UTILIZED_ONLY   Fhat = A holds iff every edge carries a trajectory;
                          Dhat = Phat iff every reachable pair is travelled
    CLAIMED_AUDIT         count-level claims that fail under multiplicity >= 2;
                          reported as machine verdicts, never asserted
    NEGATIVE              known-false forms kept for counterexample demos
"""

from __future__ import annotations

import json
import operator
import random
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain, count

from .errors import DimensionMismatch, ParseError, UndefinedProduct, UnknownIdentity
from .fileio import cell_to_json
from .generators import GenConfig, gen_dataset
from .matrices import CountMatrix, _add_cell, _first_failing, _mul_cell, _sub_cell, _walk
from .structure import Graph, StructureBundle, build_structure
from .utilization import Dataset, UtilizationBundle, build_utilization, is_fully_utilized


class IdentityClass(str, Enum):
    UNIVERSAL = "UNIVERSAL"
    FULLY_UTILIZED_ONLY = "FULLY_UTILIZED_ONLY"
    MUTUAL_EXCLUSIVITY = "MUTUAL_EXCLUSIVITY"
    CLAIMED_AUDIT = "CLAIMED_AUDIT"
    NEGATIVE = "NEGATIVE"


# The classes that hold on every dataset; a failure of one means a bug.
GATED = (IdentityClass.UNIVERSAL, IdentityClass.MUTUAL_EXCLUSIVITY)

_GLYPH = {
    "A": "A",
    "P": "P",
    "Phat": "P̂",
    "E": "E",
    "Ehat": "Ê",
    "F": "F",
    "D": "D",
    "L": "L",
    "T": "T",
    "Tc": "Tᶜ",
    "Fhat": "F̂",
    "Dhat": "D̂",
    "Lhat": "L̂",
    "That": "T̂",
    "Tchat": "T̂ᶜ",
    "0": "0",
}

SYMBOLS = tuple(_GLYPH)

# The structure bundle's symbols, which lead _GLYPH; the rest but "0" are
# the utilization bundle's.
_STRUCTURE_SYMBOLS = frozenset(SYMBOLS[:5])

# Each bundle's matrices in SYMBOLS order, read by one call per bundle.
_STRUCTURE_MATRICES = operator.attrgetter(*SYMBOLS[:5])
_UTILIZATION_MATRICES = operator.attrgetter(*SYMBOLS[5:-1])

# Per operator: its glyph, its plain operator on finite cells and its cell
# rule, which decides INF operands and negative differences.
_OPS = {
    "had": ("∘", operator.mul, _mul_cell),
    "add": ("+", operator.add, _add_cell),
    "sub": ("-", operator.sub, _sub_cell),
}


def _le_column(lc, rc) -> bool:
    return all(map(operator.le, lc, rc))


# Per relation: its glyph, the whole-column test and the failing-cell test.
_RELATIONS = {"eq": ("=", operator.eq, operator.ne), "leq": ("≤", _le_column, operator.gt)}


def render_expr(expr) -> str:
    """Human-readable form of an expression tree."""
    if isinstance(expr, str):
        return _GLYPH[expr]
    op, lhs, rhs = expr
    left = render_expr(lhs)
    right = render_expr(rhs)
    if not isinstance(lhs, str):
        left = f"({left})"
    if not isinstance(rhs, str):
        right = f"({right})"
    return f"{left} {_OPS[op][0]} {right}"


def _expr_from_obj(obj):
    # The checked form of an expression, with lists turned into tuples.
    if isinstance(obj, str):
        if obj not in SYMBOLS:
            raise ValueError(f"unknown symbol {obj!r}")
        return obj
    if isinstance(obj, (list, tuple)) and len(obj) == 3:
        op = obj[0]
        # A JSON operator may be a list, which no dict lookup can take.
        if not isinstance(op, str) or op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        return (op, _expr_from_obj(obj[1]), _expr_from_obj(obj[2]))
    raise ValueError(f"malformed expression {obj!r}")


@dataclass(frozen=True)
class IdentitySpec:
    """One catalogued relation between two matrix expressions.

    Construction raises ValueError for an id or group that is not a string,
    a relation other than "eq" or "leq", an unknown class, an unknown
    symbol or operator, or a malformed expression.  A class given by name
    is stored as its IdentityClass and list expressions as tuples, so every
    spec is hashable.
    """

    id: str
    kind: IdentityClass
    relation: str
    lhs: object
    rhs: object
    group: str

    def __post_init__(self):
        for key, value in (("id", self.id), ("group", self.group)):
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
        if not isinstance(self.relation, str) or self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        try:
            object.__setattr__(self, "kind", IdentityClass(self.kind))
        except ValueError:
            raise ValueError(f"unknown class {self.kind!r}") from None
        object.__setattr__(self, "lhs", _expr_from_obj(self.lhs))
        object.__setattr__(self, "rhs", _expr_from_obj(self.rhs))

    def statement(self) -> str:
        return f"{render_expr(self.lhs)} {_RELATIONS[self.relation][0]} {render_expr(self.rhs)}"

    @cached_property
    def _compiled(self):
        # Both sides compiled, the one verdict every holding evaluation
        # returns, and the relation's tests.  Kept in the instance dict, out
        # of ==, hash and repr; __getstate__ keeps it out of pickles too.
        lhs, rhs = _compile_expr(self.lhs), _compile_expr(self.rhs)
        return (lhs, rhs, IdentityVerdict(self, True), *_RELATIONS[self.relation][1:])

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Witness:
    """First cell at which a relation fails, with both side values."""

    row: int
    col: int
    lhs: object
    rhs: object

    def _labels(self, labels) -> tuple[str, str]:
        # An index past the label list shows as the number itself.
        return tuple(labels[k] if k < len(labels) else str(k) for k in (self.row, self.col))

    def to_json_obj(self, labels) -> dict:
        """JSON-ready form: indices, node labels and both cells (INF as null)."""
        row_label, col_label = self._labels(labels)
        return {
            "row": self.row,
            "col": self.col,
            "row_label": row_label,
            "col_label": col_label,
            "lhs": cell_to_json(self.lhs),
            "rhs": cell_to_json(self.rhs),
        }

    def describe(self, labels) -> str:
        """One-line form ``(row, col): lhs=... rhs=...`` with node labels."""
        row_label, col_label = self._labels(labels)
        return f"({row_label}, {col_label}): lhs={self.lhs!r} rhs={self.rhs!r}"


@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of evaluating one relation on one dataset.

    ``spec`` is the evaluated relation, in or outside the catalogue; a
    spec that is not an IdentitySpec raises TypeError.
    """

    spec: IdentitySpec
    holds: bool
    witness: Witness | None = None

    def __post_init__(self):
        if not isinstance(self.spec, IdentitySpec):
            raise TypeError(f"verdict spec must be an IdentitySpec, got {self.spec!r}")

    @property
    def id(self) -> str:
        return self.spec.id


@dataclass(frozen=True)
class AuditReport:
    """All catalogue verdicts for one dataset."""

    descriptor: dict
    verdicts: tuple[IdentityVerdict, ...]
    fully_utilized: bool

    @property
    def sound(self) -> bool:
        """True iff every UNIVERSAL and MUTUAL_EXCLUSIVITY relation holds."""
        return all(v.holds for v in self.verdicts if v.spec.kind in GATED)


def _had(a, b):
    return ("had", a, b)


def _add(a, b):
    return ("add", a, b)


def _sub(a, b):
    return ("sub", a, b)


_U = IdentityClass.UNIVERSAL
_ME = IdentityClass.MUTUAL_EXCLUSIVITY
_FU = IdentityClass.FULLY_UTILIZED_ONLY
_CL = IdentityClass.CLAIMED_AUDIT
_NEG = IdentityClass.NEGATIVE

CATALOGUE: tuple[IdentitySpec, ...] = tuple(
    IdentitySpec(ident, kind, rel, lhs, rhs, group)
    for ident, kind, rel, lhs, rhs, group in [
        # Structure and flow facts inherited from the base model.
        ("T1.EHAT_FIXED", _U, "eq", "Ehat", _had("Phat", "Ehat"), "base-model"),
        ("T1.A_FIXED", _U, "eq", "A", _had("Phat", "A"), "base-model"),
        ("T1.F_MASKED", _U, "eq", "F", _had("A", "F"), "base-model"),
        ("T1.D_MASKED", _U, "eq", "D", _had("Phat", "D"), "base-model"),
        ("T1.T_FROM_L", _U, "eq", "T", _had("A", "L"), "base-model"),
        ("T1.THAT_FROM_LHAT", _U, "eq", "That", _had("A", "Lhat"), "base-model"),
        ("T1.FT_SUM", _U, "eq", _add("F", "T"), _had("A", "D"), "base-model"),
        ("T1.AD_COMPLEMENT", _U, "eq", _had("A", "D"), _sub("D", "Tc"), "base-model"),
        ("T1.T_FROM_AD", _U, "eq", "T", _sub(_had("A", "D"), "F"), "base-model"),
        ("T1.TC_FROM_D", _U, "eq", "Tc", _had("Ehat", "D"), "base-model"),
        ("T1.L_SUM", _U, "eq", "L", _add("T", _had("Ehat", "D")), "base-model"),
        ("T1.FHAT_LEQ_A", _U, "leq", "Fhat", "A", "base-model"),
        ("T1.DHAT_LEQ_PHAT", _U, "leq", "Dhat", "Phat", "base-model"),
        ("T1.F_LEQ_D", _U, "leq", "F", "D", "base-model"),
        ("T1.FHAT_LEQ_DHAT", _U, "leq", "Fhat", "Dhat", "base-model"),
        # Zero products: structure vs structure.
        ("ME.A_EHAT", _ME, "eq", _had("A", "Ehat"), "0", "mutual-exclusivity"),
        # Zero products: structure vs usage.
        ("ME.A_TC", _ME, "eq", _had("A", "Tc"), "0", "mutual-exclusivity"),
        ("ME.A_TCHAT", _ME, "eq", _had("A", "Tchat"), "0", "mutual-exclusivity"),
        ("ME.F_EHAT", _ME, "eq", _had("F", "Ehat"), "0", "mutual-exclusivity"),
        ("ME.FHAT_EHAT", _ME, "eq", _had("Fhat", "Ehat"), "0", "mutual-exclusivity"),
        ("ME.T_EHAT", _ME, "eq", _had("T", "Ehat"), "0", "mutual-exclusivity"),
        ("ME.THAT_EHAT", _ME, "eq", _had("That", "Ehat"), "0", "mutual-exclusivity"),
        # Zero products: usage vs usage.
        ("ME.F_TC", _ME, "eq", _had("F", "Tc"), "0", "mutual-exclusivity"),
        ("ME.F_TCHAT", _ME, "eq", _had("F", "Tchat"), "0", "mutual-exclusivity"),
        ("ME.FHAT_TC", _ME, "eq", _had("Fhat", "Tc"), "0", "mutual-exclusivity"),
        ("ME.FHAT_TCHAT", _ME, "eq", _had("Fhat", "Tchat"), "0", "mutual-exclusivity"),
        ("ME.T_TC", _ME, "eq", _had("T", "Tc"), "0", "mutual-exclusivity"),
        ("ME.THAT_TCHAT", _ME, "eq", _had("That", "Tchat"), "0", "mutual-exclusivity"),
        ("ME.THAT_TC", _ME, "eq", _had("That", "Tc"), "0", "mutual-exclusivity"),
        ("ME.T_TCHAT", _ME, "eq", _had("T", "Tchat"), "0", "mutual-exclusivity"),
        # Absorptions around the substitute route matrix.
        ("B.DHAT_TC", _U, "eq", _had("Dhat", "Tc"), "Tc", "substitute-route"),
        ("B.LHAT_TC", _U, "eq", _had("Lhat", "Tc"), "Tc", "substitute-route"),
        ("B.EHAT_TC", _U, "eq", _had("Ehat", "Tc"), "Tc", "substitute-route"),
        ("B.TCHAT_TC", _U, "eq", _had("Tchat", "Tc"), "Tc", "substitute-route"),
        ("B.EHAT_L", _U, "eq", _had("Ehat", "L"), "Tc", "substitute-route"),
        ("B.EHAT_LHAT", _U, "eq", _had("Ehat", "Lhat"), "Tchat", "substitute-route"),
        ("B.EHAT_DHAT", _U, "eq", _had("Ehat", "Dhat"), "Tchat", "substitute-route"),
        ("B.L_DECOMP", _U, "eq", "L", _add("T", "Tc"), "substitute-route"),
        ("B.D_DECOMP", _U, "eq", "D", _add("F", _add("T", "Tc")), "substitute-route"),
        # Absorptions around the alternative route matrix.
        ("C.L_THAT", _U, "eq", _had("L", "That"), "T", "alternative-route"),
        ("C.DHAT_T", _U, "eq", _had("Dhat", "T"), "T", "alternative-route"),
        ("C.LHAT_T", _U, "eq", _had("Lhat", "T"), "T", "alternative-route"),
        ("C.DHAT_THAT", _U, "eq", _had("Dhat", "That"), "That", "alternative-route"),
        ("C.LHAT_THAT", _U, "eq", _had("Lhat", "That"), "That", "alternative-route"),
        ("C.A_T", _U, "eq", _had("A", "T"), "T", "alternative-route"),
        ("C.A_THAT", _U, "eq", _had("A", "That"), "That", "alternative-route"),
        # Absorptions around the indirect flow matrix.
        ("D.DHAT_L", _U, "eq", _had("Dhat", "L"), "L", "indirect-flow"),
        ("D.DHAT_LHAT", _U, "eq", _had("Dhat", "Lhat"), "Lhat", "indirect-flow"),
        ("D.LHAT_L", _U, "eq", _had("Lhat", "L"), "L", "indirect-flow"),
        # Absorptions around the flow and OD matrices.
        ("E.FHAT_F", _U, "eq", _had("Fhat", "F"), "F", "flow-and-od"),
        ("E.DHAT_D", _U, "eq", _had("Dhat", "D"), "D", "flow-and-od"),
        ("E.DHAT_F", _U, "eq", _had("Dhat", "F"), "F", "flow-and-od"),
        ("E.DHAT_FHAT", _U, "eq", _had("Dhat", "Fhat"), "Fhat", "flow-and-od"),
        ("E.A_FHAT", _U, "eq", _had("A", "Fhat"), "Fhat", "flow-and-od"),
        # Fhat = A iff every edge is travelled, Dhat = Phat iff every reachable pair.
        ("FU.FHAT_EQ_A", _FU, "eq", "Fhat", "A", "fully-utilized"),
        ("FU.DHAT_EQ_PHAT", _FU, "eq", "Dhat", "Phat", "fully-utilized"),
        # Count-level absorption claims; fail once a cell reaches 2.
        ("CLAIMED.D_TC", _CL, "eq", _had("D", "Tc"), "Tc", "count-level-audit"),
        ("CLAIMED.L_TC", _CL, "eq", _had("L", "Tc"), "Tc", "count-level-audit"),
        # Known-false form kept for counterexample demonstrations.
        ("X.EHAT_L_NEQ_L", _NEG, "eq", _had("Ehat", "L"), "L", "known-false"),
    ]
)

_BY_ID = {spec.id: spec for spec in CATALOGUE}


def list_identities() -> list[IdentitySpec]:
    """The full fixed catalogue, in stable order."""
    return list(CATALOGUE)


def get_identity(identity_id: str) -> IdentitySpec:
    try:
        return _BY_ID[identity_id]
    except KeyError:
        raise UnknownIdentity(f"no catalogued identity named {identity_id!r}") from None


def symbol_matrix(s: StructureBundle, u: UtilizationBundle, symbol: str) -> CountMatrix:
    """The matrix a symbol other than ``0`` names on the two bundles.

    A hat is made the first time it is read (``netmat.matrices.hat``).
    """
    return getattr(s if symbol in _STRUCTURE_SYMBOLS else u, symbol)


class _CellTable(dict):
    # One flat list per symbol: entry k holds the symbol's value at the
    # cell with row-major index cells[k] of the n x n matrices.  A column
    # missing from the table is read off its bundle (and "0" made) the first
    # time its symbol is looked up, so an evaluation makes only the hats
    # its spec reads.  Computed columns are lists too: a list never equals
    # a tuple of the same entries.
    __slots__ = ("n", "cells", "bundles")

    def __init__(self, n: int, cells: range | list[int], bundles: tuple):
        self.n = n
        self.cells = cells
        self.bundles = bundles

    def __missing__(self, symbol: str) -> list:
        if symbol == "0":
            column = [0] * len(self.cells)
        else:
            column = list(chain.from_iterable(symbol_matrix(*self.bundles, symbol).cells))
        self[symbol] = column
        return column


def _full_table(s: StructureBundle, u: UtilizationBundle) -> _CellTable:
    # One entry per cell, in row-major order; a hat has its count's size.
    n = len(s.A.cells)
    for m in (s.P, s.E, u.F, u.D, u.L, u.T, u.Tc):
        if len(m.cells) != n:
            raise DimensionMismatch(n, len(m.cells))
    return _CellTable(n, range(n * n), (s, u))


def _distinct_table(s: StructureBundle, u: UtilizationBundle) -> _CellTable:
    # One entry per distinct vector of every matrix's value at one cell, in
    # order of first occurrence in row-major order, with that first cell,
    # built with no Python frame per cell.  Symbols the builders make
    # redundant (hats, E, D) stay in the key: an audit exists to catch a
    # builder that breaks them.  Lists, not tuples: CPython keeps up to 2000
    # freed tuples of each length from 1 to 20 on free lists for the life
    # of the process, and a sweep of small audits would fill them.
    first = {}
    matrices = _STRUCTURE_MATRICES(s) + _UTILIZATION_MATRICES(u)
    chains = [chain.from_iterable(m.cells) for m in matrices]
    deque(map(first.setdefault, zip(*chains), count()), 0)
    table = _CellTable(s.A.n, list(first.values()), (s, u))
    table.update(zip(SYMBOLS[:-1], map(list, zip(*first))))
    return table


def _compile_expr(expr):
    # A compiled expression maps a table to the column of its values.
    if isinstance(expr, str):
        return operator.itemgetter(expr)
    op, lhs, rhs = expr
    left, right = _compile_expr(lhs), _compile_expr(rhs)
    _, plain, cell_rule = _OPS[op]
    signed = op == "sub"

    def node(table):
        x, y = left(table), right(table)
        try:
            column = list(map(plain, x, y))
        except TypeError:  # an INF operand
            return _walk(cell_rule, x, y, table.n, table.cells)
        if signed and min(column) < 0:
            # Raises at the first negative cell.
            return _walk(cell_rule, x, y, table.n, table.cells)
        return column

    return node


def _decide(spec: IdentitySpec, table: _CellTable) -> IdentityVerdict:
    lhs_fn, rhs_fn, holds, test, bad = spec._compiled
    try:
        lhs = lhs_fn(table)
        rhs = rhs_fn(table)
    except UndefinedProduct as e:
        raise UndefinedProduct(f"{spec.id}: {e}") from e
    if test(lhs, rhs):
        return holds
    k = _first_failing(bad, lhs, rhs)
    return IdentityVerdict(spec, False, Witness(*divmod(table.cells[k], table.n), lhs[k], rhs[k]))


def evaluate_identity(
    spec: IdentitySpec, s: StructureBundle, u: UtilizationBundle
) -> IdentityVerdict:
    """Evaluate both sides of one relation; report the first bad cell if any.

    Bundles of different dimension raise DimensionMismatch, whatever
    symbols the relation reads.  Both sides are computed in full before
    any cell is compared, so an exception anywhere in either side wins
    over a witness in an earlier cell.
    """
    return _decide(spec, _full_table(s, u))


def audit_dataset(
    d: Dataset, *, name: str = "", specs: tuple[IdentitySpec, ...] = CATALOGUE
) -> AuditReport:
    """Build both bundles and evaluate every relation of ``specs``.

    ``specs`` defaults to the catalogue; any spec list, such as the output
    of ``specs_from_json``, goes through the same evaluator.  Each relation
    is decided over the dataset's distinct cells, with the verdicts and
    exceptions of ``evaluate_identity`` on the two bundles.
    """
    s = build_structure(d.graph)
    u = build_utilization(d, s)
    table = _distinct_table(s, u)
    verdicts = tuple(_decide(spec, table) for spec in specs)
    descriptor = {
        "name": name,
        "n": d.graph.n,
        "labels": list(d.graph.labels),
        "edge_count": len(d.graph.edges),
        "trajectory_count": len(d.trajectories),
    }
    return AuditReport(descriptor, verdicts, is_fully_utilized(u, s))


def evaluate_on_dataset(spec: IdentitySpec, d: Dataset) -> IdentityVerdict:
    """Build both bundles of a dataset and evaluate one relation on them."""
    s = build_structure(d.graph)
    return evaluate_identity(spec, s, build_utilization(d, s))


def _shrink(spec: IdentitySpec, d: Dataset) -> Dataset:
    # Greedy minimization: drop trajectories, then edges no trajectory uses,
    # keeping each removal only while the dataset still falsifies the
    # relation; repeat until a pass changes nothing.  Dropping trajectories
    # keeps the graph, so that pass builds its structure once.  d is valid,
    # and either removal leaves it valid, so candidates skip validation.
    changed = True
    while changed:
        changed = False
        trajs = list(d.trajectories)
        s = build_structure(d.graph)
        i = 0
        while i < len(trajs):
            candidate = Dataset._trusted(d.graph, tuple(trajs[:i] + trajs[i + 1 :]))
            if not evaluate_identity(spec, s, build_utilization(candidate, s)).holds:
                del trajs[i]
                d = candidate
                changed = True
            else:
                i += 1
        used = {
            pair
            for t in d.trajectories
            for pair in zip(t.nodes, t.nodes[1:])
        }
        for edge in sorted(d.graph.edges - used):
            candidate = Dataset._trusted(
                Graph._trusted(d.graph.labels, d.graph.edges - {edge}), d.trajectories
            )
            if not evaluate_on_dataset(spec, candidate).holds:
                d = candidate
                changed = True
    return d


def search_counterexample(
    identity_id: str,
    budget: int,
    seed: int,
    *,
    allow_duplicates: bool = True,
) -> Dataset | None:
    """Hunt for a dataset falsifying the identity within a budget of instances.

    Random datasets are generated until one falsifies the relation; the hit
    is greedily minimized before being returned.  None means every instance
    in the budget satisfied the relation.  Deterministic for fixed
    (identity_id, budget, seed).  A negative seed raises ValueError, since
    random.Random would draw the same datasets for seed and -seed.
    """
    spec = get_identity(identity_id)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    for _ in range(budget):
        n = rng.randint(3, 8)
        cfg = GenConfig(
            n=n,
            edge_prob=rng.uniform(0.15, 0.9),
            max_traj=rng.randint(1, 10),
            max_len=rng.randint(2, n),
            allow_duplicates=allow_duplicates,
            seed=rng.getrandbits(63),
        )
        candidate = gen_dataset(cfg)
        if not evaluate_on_dataset(spec, candidate).holds:
            return _shrink(spec, candidate)
    return None


def _spec_to_obj(spec: IdentitySpec) -> dict:
    # The catalogue JSON entry of one spec, read back by _spec_from_obj.
    return {
        "id": spec.id,
        "class": spec.kind.value,
        "relation": spec.relation,
        "lhs": spec.lhs,
        "rhs": spec.rhs,
        "group": spec.group,
        "quote": spec.statement(),
    }


def catalogue_to_json() -> str:
    """Serialize the catalogue for external consumers; expression triples
    become JSON arrays."""
    entries = [_spec_to_obj(spec) for spec in CATALOGUE]
    return json.dumps(entries, indent=2, ensure_ascii=False) + "\n"


def _spec_from_obj(entry) -> IdentitySpec:
    if not isinstance(entry, dict):
        raise ValueError(f"expected an object, got {entry!r}")
    for key in ("id", "class", "lhs", "rhs"):
        if key not in entry:
            raise ValueError(f"missing field {key!r}")
    return IdentitySpec(
        entry["id"],
        entry["class"],
        entry.get("relation", "eq"),
        entry["lhs"],
        entry["rhs"],
        entry.get("group", ""),
    )


def specs_from_json(text: str) -> tuple[IdentitySpec, ...]:
    """Parse identity specs serialized by catalogue_to_json.

    Any malformed input raises ParseError, naming the entry at fault.
    """
    try:
        entries = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid catalogue JSON: {e}") from e
    if not isinstance(entries, list):
        raise ParseError("catalogue JSON must be a list of entries")
    specs = []
    for i, entry in enumerate(entries):
        try:
            specs.append(_spec_from_obj(entry))
        except (ValueError, RecursionError) as e:
            raise ParseError(f"catalogue entry {i}: {e}") from e
    return tuple(specs)


def report_to_json_obj(report: AuditReport) -> dict:
    """JSON-ready form of an audit report (INF encoded as null)."""
    labels = report.descriptor.get("labels", [])
    verdicts = []
    for v in report.verdicts:
        spec = v.spec
        verdicts.append({
            "id": v.id,
            "class": spec.kind.value,
            "statement": spec.statement(),
            "holds": v.holds,
            "witness": None if v.witness is None else v.witness.to_json_obj(labels),
        })
    return {
        "descriptor": report.descriptor,
        "fully_utilized": report.fully_utilized,
        "sound": report.sound,
        "verdicts": verdicts,
    }


def render_table(report: AuditReport) -> str:
    """Fixed-width verdict table plus a short dataset footer."""
    labels = report.descriptor.get("labels", [])
    rows = []
    for v in report.verdicts:
        spec = v.spec
        witness = "" if v.witness is None else v.witness.describe(labels)
        rows.append(
            (v.id, spec.kind.value, spec.statement(), "holds" if v.holds else "FAILS", witness)
        )
    headers = ("identity", "class", "statement", "verdict", "witness")
    widths = [
        max(len(headers[c]), max((len(r[c]) for r in rows), default=0))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[c] for c in range(len(headers))),
    ]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(r))).rstrip())
    dsc = report.descriptor
    lines.append("")
    lines.append(
        f"dataset: {dsc.get('name') or '<in-memory>'} "
        f"(n={dsc.get('n')}, edges={dsc.get('edge_count')}, "
        f"trajectories={dsc.get('trajectory_count')})"
    )
    lines.append(f"fully utilized: {'yes' if report.fully_utilized else 'no'}")
    lines.append(
        "universal + mutual-exclusivity relations: "
        + ("all hold" if report.sound else "VIOLATED")
    )
    return "\n".join(lines) + "\n"
