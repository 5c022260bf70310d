import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmat import (
    INF,
    Dataset,
    Graph,
    NegativeResult,
    NetmatError,
    ParseError,
    Trajectory,
    UndefinedProduct,
    audit_dataset,
    build_structure,
    build_utilization,
    catalogue_to_json,
    evaluate_identity,
    get_identity,
    list_identities,
)
from netmat.errors import DimensionMismatch, UnknownIdentity
from netmat.identities import (
    CATALOGUE,
    SYMBOLS,
    AuditReport,
    IdentityClass,
    IdentitySpec,
    IdentityVerdict,
    Witness,
    _spec_to_obj,
    _symbol_table,
    evaluate_on_dataset,
    render_table,
    report_to_json_obj,
    search_counterexample,
    specs_from_json,
)
from netmat.matrices import ew_sub, hadamard

from oracles import evaluate_identity_materialized, is_zero, mutually_exclusive
from test_utilization import dataset_from_seed

seeds = st.integers(0, 2**32 - 1)


def _had(a, b):
    return ("had", a, b)


def _add(a, b):
    return ("add", a, b)


def _sub(a, b):
    return ("sub", a, b)


UNIVERSAL_MINIMUM = {
    ("eq", "Ehat", _had("Phat", "Ehat")),
    ("eq", "A", _had("Phat", "A")),
    ("eq", "F", _had("A", "F")),
    ("eq", "D", _had("Phat", "D")),
    ("eq", "T", _had("A", "L")),
    ("eq", "That", _had("A", "Lhat")),
    ("eq", _add("F", "T"), _had("A", "D")),
    ("eq", _had("A", "D"), _sub("D", "Tc")),
    ("eq", "T", _sub(_had("A", "D"), "F")),
    ("eq", "Tc", _had("Ehat", "D")),
    ("eq", "L", _add("T", _had("Ehat", "D"))),
    ("eq", _had("Ehat", "L"), "Tc"),
    ("eq", _had("Ehat", "Lhat"), "Tchat"),
    ("eq", _had("Ehat", "Dhat"), "Tchat"),
    ("leq", "Fhat", "A"),
    ("leq", "Dhat", "Phat"),
    ("leq", "F", "D"),
    ("leq", "Fhat", "Dhat"),
    ("eq", _had("Dhat", "Tc"), "Tc"),
    ("eq", _had("Lhat", "Tc"), "Tc"),
    ("eq", _had("Ehat", "Tc"), "Tc"),
    ("eq", _had("Tchat", "Tc"), "Tc"),
    ("eq", _had("L", "That"), "T"),
    ("eq", _had("Dhat", "T"), "T"),
    ("eq", _had("Lhat", "T"), "T"),
    ("eq", _had("Dhat", "That"), "That"),
    ("eq", _had("Lhat", "That"), "That"),
    ("eq", _had("A", "T"), "T"),
    ("eq", _had("A", "That"), "That"),
    ("eq", _had("Dhat", "L"), "L"),
    ("eq", _had("Dhat", "Lhat"), "Lhat"),
    ("eq", _had("Lhat", "L"), "L"),
    ("eq", _had("Fhat", "F"), "F"),
    ("eq", _had("Dhat", "D"), "D"),
    ("eq", _had("Dhat", "F"), "F"),
    ("eq", _had("Dhat", "Fhat"), "Fhat"),
    ("eq", _had("A", "Fhat"), "Fhat"),
}

ME_MINIMUM = {
    ("A", "Ehat"),
    ("A", "Tc"),
    ("A", "Tchat"),
    ("F", "Ehat"),
    ("Fhat", "Ehat"),
    ("T", "Ehat"),
    ("That", "Ehat"),
    ("F", "Tc"),
    ("F", "Tchat"),
    ("Fhat", "Tc"),
    ("Fhat", "Tchat"),
    ("T", "Tc"),
    ("That", "Tchat"),
    ("That", "Tc"),
    ("T", "Tchat"),
}


def _empty_dataset():
    return Dataset(Graph(("a", "b", "c"), frozenset()), ())


def _expr_symbols(expr):
    if isinstance(expr, str):
        yield expr
    else:
        yield from _expr_symbols(expr[1])
        yield from _expr_symbols(expr[2])


class TestCatalogue:
    def test_size_and_unique_ids(self):
        specs = list_identities()
        assert len(specs) >= 40
        assert len({s.id for s in specs}) == len(specs)

    def test_every_expression_uses_catalogued_symbols(self):
        for spec in CATALOGUE:
            for symbol in _expr_symbols(spec.lhs):
                assert symbol in SYMBOLS
            for symbol in _expr_symbols(spec.rhs):
                assert symbol in SYMBOLS

    def test_universal_minimum_present(self):
        universal = {
            (s.relation, s.lhs, s.rhs)
            for s in CATALOGUE
            if s.kind is IdentityClass.UNIVERSAL
        }
        missing = UNIVERSAL_MINIMUM - universal
        assert not missing

    def test_mutual_exclusivity_set(self):
        me = {
            (s.lhs[1], s.lhs[2])
            for s in CATALOGUE
            if s.kind is IdentityClass.MUTUAL_EXCLUSIVITY
        }
        assert me == ME_MINIMUM
        for s in CATALOGUE:
            if s.kind is IdentityClass.MUTUAL_EXCLUSIVITY:
                assert s.rhs == "0"

    def test_class_assignments(self):
        assert get_identity("FU.FHAT_EQ_A").kind is IdentityClass.FULLY_UTILIZED_ONLY
        assert get_identity("FU.DHAT_EQ_PHAT").kind is IdentityClass.FULLY_UTILIZED_ONLY
        assert get_identity("CLAIMED.D_TC").kind is IdentityClass.CLAIMED_AUDIT
        assert get_identity("CLAIMED.L_TC").kind is IdentityClass.CLAIMED_AUDIT
        assert get_identity("X.EHAT_L_NEQ_L").kind is IdentityClass.NEGATIVE
        claimed = {
            (s.relation, s.lhs, s.rhs)
            for s in CATALOGUE
            if s.kind is IdentityClass.CLAIMED_AUDIT
        }
        assert claimed == {
            ("eq", _had("D", "Tc"), "Tc"),
            ("eq", _had("L", "Tc"), "Tc"),
        }

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownIdentity):
            get_identity("NOPE")


class TestEvaluate:
    def test_structure_exclusivity_holds_on_fixture(
        self, shortcut_structure, shortcut_utilization
    ):
        v = evaluate_identity(
            get_identity("ME.A_EHAT"), shortcut_structure, shortcut_utilization
        )
        assert v.holds and v.witness is None

    def test_known_false_form_fails_on_fixture(
        self, shortcut_structure, shortcut_utilization
    ):
        v = evaluate_identity(
            get_identity("X.EHAT_L_NEQ_L"), shortcut_structure, shortcut_utilization
        )
        assert not v.holds
        assert (v.witness.row, v.witness.col) == (1, 3)
        assert (v.witness.lhs, v.witness.rhs) == (0, 1)

    def test_inf_times_zero_raises_with_spec_id(self):
        # a -> b plus an isolated c: P(0, 2) is INF while F(0, 2) is 0.
        d = Dataset(Graph(("a", "b", "c"), frozenset({(0, 1)})), ())
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        spec = IdentitySpec("EXT.1", IdentityClass.UNIVERSAL, "eq", _had("P", "F"), "0", "")
        with pytest.raises(UndefinedProduct, match=r"^EXT\.1: INF \* 0 at cell \(0, 2\)$"):
            evaluate_identity(spec, s, u)

    def test_leq_witness_is_first_bad_cell(self, chain3_graph):
        d = Dataset(chain3_graph, (Trajectory((0, 1, 2)),) * 2)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        spec = IdentitySpec("EXT.3", IdentityClass.UNIVERSAL, "leq", "D", "Phat", "")
        v = evaluate_identity(spec, s, u)
        assert not v.holds
        assert (v.witness.row, v.witness.col, v.witness.lhs, v.witness.rhs) == (0, 1, 2, 1)

    def test_every_spec_holds_on_empty_dataset(self):
        d = _empty_dataset()
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        for spec in CATALOGUE:
            assert evaluate_identity(spec, s, u).holds, spec.id


# P and E are drawn as often as the other 14 symbols together, so INF
# cells reach nested operators and not only the leaves.
expressions = st.recursive(
    st.one_of(st.sampled_from(("P", "E")), st.sampled_from(SYMBOLS)),
    lambda inner: st.tuples(st.sampled_from(("had", "add", "sub")), inner, inner),
    max_leaves=5,
)


def _outcome(evaluate, spec, s, u):
    try:
        v = evaluate(spec, s, u)
    except NetmatError as e:
        return type(e), str(e)
    return v.holds, v.witness


class TestCompiledEvaluator:
    @settings(max_examples=300, deadline=None)
    @given(seeds, st.sampled_from(("eq", "leq")), expressions, expressions)
    def test_matches_materializing_oracle(self, seed, relation, lhs, rhs):
        # Small random graphs leave pairs unreachable, so P and E carry INF.
        d = dataset_from_seed(seed, max_n=6)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        spec = IdentitySpec("EXT.H", IdentityClass.UNIVERSAL, relation, lhs, rhs, "")
        assert _outcome(evaluate_identity, spec, s, u) == _outcome(
            evaluate_identity_materialized, spec, s, u
        )

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_catalogue_matches_materializing_oracle(self, seed):
        d = dataset_from_seed(seed, max_n=8)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        for spec in CATALOGUE:
            assert evaluate_identity(spec, s, u) == evaluate_identity_materialized(spec, s, u)

    def test_inf_times_zero_in_a_later_row_beats_an_earlier_witness(self):
        # a -> b, a -> c, one trajectory a b: A and Phat o F differ at (0, 2),
        # while P(1, 0) is INF where F(1, 0) is 0.
        d = Dataset(Graph(("a", "b", "c"), frozenset({(0, 1), (0, 2)})), (Trajectory((0, 1)),))
        finite = IdentitySpec("EXT.4", IdentityClass.UNIVERSAL, "eq", "A", _had("Phat", "F"), "")
        assert evaluate_on_dataset(finite, d).witness == Witness(0, 2, 1, 0)
        spec = IdentitySpec("EXT.4", IdentityClass.UNIVERSAL, "eq", "A", _had("P", "F"), "")
        with pytest.raises(UndefinedProduct, match=r"^EXT\.4: INF \* 0 at cell \(1, 0\)$"):
            evaluate_on_dataset(spec, d)

    def test_negative_difference_in_a_later_row_beats_an_earlier_witness(self, chain3_graph):
        # A - F goes negative at (1, 2), where two trajectories use the edge;
        # A and A - Fhat already differ at (0, 1).
        d = Dataset(chain3_graph, (Trajectory((0, 1)), Trajectory((1, 2)), Trajectory((1, 2))))
        finite = IdentitySpec("EXT.5", IdentityClass.UNIVERSAL, "eq", "A", _sub("A", "Fhat"), "")
        assert evaluate_on_dataset(finite, d).witness == Witness(0, 1, 1, 0)
        spec = IdentitySpec("EXT.5", IdentityClass.UNIVERSAL, "eq", "A", _sub("A", "F"), "")
        with pytest.raises(NegativeResult, match=r"^1 - 2 at cell \(1, 2\)$"):
            evaluate_on_dataset(spec, d)

    def test_bundles_of_different_dimension(self, chain3_graph, shortcut_utilization):
        s = build_structure(chain3_graph)
        spec = IdentitySpec("EXT.9", IdentityClass.UNIVERSAL, "eq", _had("A", "F"), "0", "")
        with pytest.raises(DimensionMismatch, match=r"^3x3 vs 4x4$"):
            evaluate_identity(spec, s, shortcut_utilization)

    def test_spec_with_list_expressions(self, shortcut_structure, shortcut_utilization):
        spec = IdentitySpec("EXT.6", IdentityClass.NEGATIVE, "eq", ["had", "Ehat", "L"], "L", "")
        v = evaluate_identity(spec, shortcut_structure, shortcut_utilization)
        assert (v.holds, v.witness) == (False, Witness(1, 3, 0, 1))


class TestAudit:
    def test_fixture_report(self, shortcut_dataset):
        report = audit_dataset(shortcut_dataset, name="fixture")
        assert report.sound
        assert not report.fully_utilized
        byid = {v.id: v for v in report.verdicts}
        assert len(byid) == len(CATALOGUE)
        assert not byid["FU.FHAT_EQ_A"].holds
        assert not byid["X.EHAT_L_NEQ_L"].holds
        assert byid["CLAIMED.D_TC"].holds  # multiplicity 1 everywhere

    def test_duplicate_chain_falsifies_count_level_claims(self, chain3_graph):
        d = Dataset(chain3_graph, (Trajectory((0, 1, 2)),) * 2)
        report = audit_dataset(d)
        byid = {v.id: v for v in report.verdicts}
        assert report.sound
        for ident in ("CLAIMED.D_TC", "CLAIMED.L_TC"):
            v = byid[ident]
            assert not v.holds
            assert (v.witness.row, v.witness.col) == (0, 2)
            assert (v.witness.lhs, v.witness.rhs) == (4, 2)

    def test_report_json_shape(self, shortcut_dataset):
        report = audit_dataset(shortcut_dataset, name="fixture")
        obj = report_to_json_obj(report)
        assert obj["sound"] is True
        assert obj["fully_utilized"] is False
        x = next(v for v in obj["verdicts"] if v["id"] == "X.EHAT_L_NEQ_L")
        assert x["witness"] == {
            "row": 1,
            "col": 3,
            "row_label": "B",
            "col_label": "D",
            "lhs": 0,
            "rhs": 1,
        }
        json.dumps(obj)  # must be JSON-serializable as-is

    def test_external_spec_list_audits_and_renders(self, shortcut_dataset):
        specs = specs_from_json(json.dumps([
            {"id": "EXT.7", "class": "UNIVERSAL", "lhs": "Fhat", "rhs": "A"},
            {"id": "EXT.8", "class": "MUTUAL_EXCLUSIVITY", "lhs": ["had", "A", "Ehat"], "rhs": "0"},
        ]))
        report = audit_dataset(shortcut_dataset, name="ext", specs=specs)
        assert [v.id for v in report.verdicts] == ["EXT.7", "EXT.8"]
        assert not report.sound
        obj = report_to_json_obj(report)
        assert [(v["id"], v["statement"], v["holds"]) for v in obj["verdicts"]] == [
            ("EXT.7", "F̂ = A", False),
            ("EXT.8", get_identity("ME.A_EHAT").statement(), True),
        ]
        assert obj["verdicts"][0]["witness"]["row_label"] == "B"
        text = render_table(report)
        assert "EXT.7" in text and "F̂ = A" in text and "(B, D): lhs=0 rhs=1" in text
        assert "VIOLATED" in text

    def test_render_table_mentions_failures(self, shortcut_dataset):
        text = render_table(audit_dataset(shortcut_dataset, name="fixture"))
        assert "X.EHAT_L_NEQ_L" in text
        assert "FAILS" in text
        assert "(B, D)" in text

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_universal_and_me_hold_on_random_datasets(self, seed):
        report = audit_dataset(dataset_from_seed(seed))
        assert report.sound


class TestMutualExclusivityAgreement:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_predicate_matches_zero_product(self, seed):
        d = dataset_from_seed(seed, max_n=8)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        env = _symbol_table(s, u)
        for spec in CATALOGUE:
            if spec.kind is not IdentityClass.MUTUAL_EXCLUSIVITY:
                continue
            _, left, right = spec.lhs
            x, y = env[left], env[right]
            assert mutually_exclusive(x, y) == is_zero(hadamard(x, y))
            assert evaluate_identity(spec, s, u).holds == mutually_exclusive(x, y)


class TestDerivationReplays:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_flow_substitute_product_decomposition(self, seed):
        d = dataset_from_seed(seed, max_n=8)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        lhs = hadamard(u.F, u.Tc)
        rhs = hadamard(hadamard(s.A, u.F), hadamard(s.Ehat, u.D))
        assert lhs == rhs
        assert is_zero(lhs)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_adjacency_external_product_expansion(self, seed):
        d = dataset_from_seed(seed, max_n=8)
        s = build_structure(d.graph)
        direct = hadamard(s.A, s.Ehat)
        factored = hadamard(hadamard(s.Phat, s.A), ew_sub(s.Phat, s.A))
        expanded = ew_sub(
            hadamard(hadamard(s.Phat, s.Phat), s.A),
            hadamard(hadamard(s.Phat, s.A), s.A),
        )
        assert direct == factored == expanded
        assert is_zero(direct)


class TestSearch:
    def test_finds_falsifier_for_known_false_form(self):
        found = search_counterexample("X.EHAT_L_NEQ_L", 1000, 11)
        assert found is not None
        s = build_structure(found.graph)
        u = build_utilization(found, s)
        assert not evaluate_identity(get_identity("X.EHAT_L_NEQ_L"), s, u).holds
        # Greedy shrink to a fixpoint leaves a single essential trajectory.
        assert len(found.trajectories) == 1

    def test_finds_falsifier_for_count_level_claim(self):
        found = search_counterexample("CLAIMED.D_TC", 1000, 11)
        assert found is not None
        # A cell needs multiplicity 2, so exactly two trajectories remain.
        assert len(found.trajectories) == 2

    def test_duplicate_free_search_still_falsifies_count_level_claim(self):
        # Two distinct trajectories can share an indirect pair, so the claim
        # can fall without literal duplicates; just check the verdict logic.
        found = search_counterexample("CLAIMED.D_TC", 1000, 11, allow_duplicates=True)
        s = build_structure(found.graph)
        u = build_utilization(found, s)
        v = evaluate_identity(get_identity("CLAIMED.D_TC"), s, u)
        assert not v.holds
        assert v.witness.rhs >= 2
        assert v.witness.lhs == v.witness.rhs * v.witness.rhs

    def test_sound_identities_survive(self):
        assert search_counterexample("ME.A_EHAT", 300, 5) is None
        assert search_counterexample("B.DHAT_TC", 300, 5) is None

    def test_deterministic_for_fixed_arguments(self):
        a = search_counterexample("X.EHAT_L_NEQ_L", 500, 123)
        b = search_counterexample("X.EHAT_L_NEQ_L", 500, 123)
        assert a == b

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            search_counterexample("NOPE", 10, 0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            search_counterexample("X.EHAT_L_NEQ_L", -1, 0)


class TestSpecValidation:
    VALID = dict(id="EXT.V", kind=IdentityClass.UNIVERSAL, relation="eq", lhs="F", rhs="Fhat",
                 group="")

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"id": 5}, "id must be a string, got 5"),
            ({"group": None}, "group must be a string, got None"),
            ({"relation": "geq"}, "unknown relation 'geq'"),
            ({"kind": "MAYBE"}, "unknown class 'MAYBE'"),
            ({"lhs": "Zz"}, "unknown symbol 'Zz'"),
            ({"rhs": ("mul", "A", "A")}, "unknown operator 'mul'"),
            ({"lhs": ("had", "A")}, r"malformed expression \('had', 'A'\)"),
        ],
    )
    def test_rejected_at_construction(self, override, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IdentitySpec(**{**self.VALID, **override})

    def test_class_by_name_reports(self, shortcut_dataset):
        spec = IdentitySpec("EXT.K", "UNIVERSAL", "eq", "Fhat", "A", "")
        assert spec.kind is IdentityClass.UNIVERSAL
        report = audit_dataset(shortcut_dataset, specs=(spec,))
        assert not report.sound
        assert report_to_json_obj(report)["verdicts"][0]["class"] == "UNIVERSAL"

    def test_list_expressions_equal_their_tuple_form(self):
        tupled = ("had", "Ehat", ("add", "T", "Tc"))
        listed = ["had", "Ehat", ["add", "T", "Tc"]]
        spec = IdentitySpec("EXT.L", IdentityClass.NEGATIVE, "eq", listed, "L", "")
        assert spec == IdentitySpec("EXT.L", IdentityClass.NEGATIVE, "eq", tupled, "L", "")
        assert spec.lhs == tupled and hash(spec)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("relation", [], r"unknown relation \[\]"),
            ("lhs", [["had"], "A", "A"], r"unknown operator \['had'\]"),
        ],
    )
    def test_unhashable_json_values_are_parse_errors(self, field, value, message):
        entry = {"id": "Q", "class": "UNIVERSAL", "lhs": "A", "rhs": "A", field: value}
        with pytest.raises(ParseError, match=f"entry 0: {message}"):
            specs_from_json(json.dumps([entry]))


class TestSerialization:
    def test_round_trip(self):
        text = catalogue_to_json()
        parsed = specs_from_json(text)
        assert parsed == CATALOGUE

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.sampled_from(IdentityClass), st.sampled_from(("eq", "leq")),
           expressions, expressions, st.text())
    def test_random_spec_round_trips(self, ident, kind, relation, lhs, rhs, group):
        spec = IdentitySpec(ident, kind, relation, lhs, rhs, group)
        assert specs_from_json(json.dumps([_spec_to_obj(spec)])) == (spec,)

    def test_entries_carry_class_group_and_statement(self):
        entries = json.loads(catalogue_to_json())
        byid = {e["id"]: e for e in entries}
        assert byid["ME.A_EHAT"]["class"] == "MUTUAL_EXCLUSIVITY"
        assert byid["ME.A_EHAT"]["quote"] == "A ∘ Ê = 0"
        assert byid["CLAIMED.D_TC"]["group"] == "count-level-audit"

    def test_parsed_specs_evaluate(self, shortcut_structure, shortcut_utilization):
        spec = specs_from_json(catalogue_to_json())[0]
        assert evaluate_identity(spec, shortcut_structure, shortcut_utilization).holds

    def test_external_spec_reports(self, shortcut_dataset):
        # EXT.2 is not in the catalogue; its verdict carries the spec itself.
        (spec,) = specs_from_json(
            json.dumps([{"id": "EXT.2", "class": "UNIVERSAL", "lhs": "Fhat", "rhs": "A"}])
        )
        s = build_structure(shortcut_dataset.graph)
        u = build_utilization(shortcut_dataset, s)
        v = evaluate_identity(spec, s, u)
        assert not v.holds and v.identity() is spec
        descriptor = {"name": "ext", "n": 4, "labels": ["A", "B", "C", "D"],
                      "edge_count": 4, "trajectory_count": 1}
        report = AuditReport(descriptor, (v,), False)
        assert not report.sound
        (entry,) = report_to_json_obj(report)["verdicts"]
        assert entry["id"] == "EXT.2" and entry["statement"] == "F̂ = A"
        assert entry["class"] == "UNIVERSAL"
        assert entry["witness"]["row_label"] == "B" and entry["witness"]["col_label"] == "D"
        assert "EXT.2" in render_table(report) and "F̂ = A" in render_table(report)

    def test_rejects_malformed(self):
        with pytest.raises(ParseError):
            specs_from_json(json.dumps([{"id": "Q", "class": "UNIVERSAL", "lhs": "Zz", "rhs": "A"}]))
        with pytest.raises(ParseError):
            specs_from_json(json.dumps([{"id": "Q", "class": "UNIVERSAL", "lhs": ["mul", "A", "A"], "rhs": "A"}]))

    def test_non_json_text(self):
        with pytest.raises(ParseError, match="invalid catalogue JSON"):
            specs_from_json("[{")

    def test_non_object_entry(self):
        with pytest.raises(ParseError, match="entry 0: expected an object, got 5"):
            specs_from_json("[5]")

    def test_empty_entry(self):
        with pytest.raises(ParseError, match="entry 0: missing field 'id'"):
            specs_from_json("[{}]")

    def test_entry_missing_rhs(self):
        good = {"id": "Q", "class": "UNIVERSAL", "lhs": "A", "rhs": "A"}
        bad = {"id": "R", "class": "UNIVERSAL", "lhs": "A"}
        with pytest.raises(ParseError, match="entry 1: missing field 'rhs'"):
            specs_from_json(json.dumps([good, bad]))

    def test_unknown_class(self):
        entry = {"id": "Q", "class": "MAYBE", "lhs": "A", "rhs": "A"}
        with pytest.raises(ParseError, match="entry 0: unknown class 'MAYBE'"):
            specs_from_json(json.dumps([entry]))

    def test_non_string_id(self):
        entry = {"id": 5, "class": "UNIVERSAL", "lhs": "A", "rhs": "A"}
        with pytest.raises(ParseError, match="entry 0: id must be a string, got 5"):
            specs_from_json(json.dumps([entry]))


class TestWitness:
    def test_labelled_forms(self):
        w = Witness(1, 0, INF, 2)
        assert w.describe(("a", "b")) == "(b, a): lhs=INF rhs=2"
        assert w.to_json_obj(("a", "b")) == {
            "row": 1, "col": 0, "row_label": "b", "col_label": "a", "lhs": None, "rhs": 2,
        }

    def test_index_past_labels_prints_as_number(self):
        w = Witness(3, 0, 1, 0)
        assert w.describe(("a",)) == "(3, a): lhs=1 rhs=0"
        assert w.to_json_obj(("a",))["row_label"] == "3"
        report = AuditReport({"labels": ["a"]}, (IdentityVerdict("ME.A_EHAT", False, w),), False)
        assert "(3, a): lhs=1 rhs=0" in render_table(report)
