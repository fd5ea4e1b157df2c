import dataclasses
import json
import math
from functools import lru_cache

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covext.cli
import covext.io
import covext.pipeline
from covext.cli import build_parser, main
from covext.covdata import CovarianceSequence
from covext.errors import DataError
from covext.io import (
    CovarianceProblem,
    InterpolationProblem,
    covariance_problem_doc,
    dump_solution,
    interpolation_problem_doc,
    load_problem,
    load_solution,
    read_series_csv,
    solution_doc,
)
from covext.nevpick import InterpolationData
from covext.pipeline import (
    run_extend,
    run_nevpick,
    spectrum_rows,
    verification_report,
)
from covext.polyalg import SchurPolynomial


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


@pytest.fixture
def cov_problem_n1(tmp_path):
    p = tmp_path / "cov1.json"
    write_json(p, {"kind": "covariance", "c": [1.0, 0.5], "sigma": [0.0]})
    return p


@pytest.fixture
def cov_problem_geo(tmp_path):
    p = tmp_path / "geo.json"
    write_json(p, {"kind": "covariance", "c": [1.0, 0.5, 0.25],
                   "sigma": [0.0, 0.0]})
    return p


@pytest.fixture
def np_problem(tmp_path):
    p = tmp_path / "np1.json"
    write_json(p, {
        "kind": "interpolation",
        "nodes": [[2.0, 0.0], [3.0, 0.0]],
        "values": [[5.0 / 6.0, 0.0], [0.7, 0.0]],
        "sigma": [0.0],
    })
    return p


class TestProblemFiles:
    def test_load_covariance(self, cov_problem_n1):
        prob = load_problem(cov_problem_n1)
        assert prob.kind == "covariance"
        assert prob.c.n == 1
        assert prob.sigma.degree == 1

    def test_load_interpolation(self, np_problem):
        prob = load_problem(np_problem)
        assert prob.kind == "interpolation"
        assert prob.data.n == 1

    def test_schema_violation(self, tmp_path):
        p = tmp_path / "bad.json"
        write_json(p, {"kind": "covariance", "sigma": [0.0]})  # missing c
        with pytest.raises(DataError, match="schema"):
            load_problem(p)

    def test_length_mismatch(self, tmp_path):
        p = tmp_path / "bad2.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 0.5, 0.1],
                       "sigma": [0.0]})
        with pytest.raises(DataError, match="mismatch"):
            load_problem(p)

    def test_unnormalized_input_rescaled(self, tmp_path):
        p = tmp_path / "raw.json"
        write_json(p, {"kind": "covariance", "c": [4.0, 2.0], "sigma": [0.0]})
        prob = load_problem(p)
        assert prob.c.c[1] == pytest.approx(0.5)
        assert prob.c.scale == pytest.approx(4.0)


@pytest.fixture
def fresh_validators():
    """Empty the per-process validator cache around a test, so the test
    sees each schema's first build."""
    covext.io._validator.cache_clear()
    yield
    covext.io._validator.cache_clear()


def _schema_message(doc, schema_name, path):
    """The DataError text for ``doc``: jsonschema.validate's own error, the
    one best_match picks, behind the file path and schema name."""
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(doc, covext.io._schema(schema_name))
    return f"{path} violates {schema_name}: {exc.value.message}"


class TestSchemaValidation:
    @pytest.mark.parametrize("doc", [
        {"kind": "covariance", "sigma": [0.0]},  # missing c
        {"kind": "covariance", "c": "1, 0.5", "sigma": [0.0]},
        {"kind": "covariance", "c": [1.0, 0.5], "sigma": []},
        {"kind": "interpolation", "nodes": [[2.0, 0.0], [3.0, 0.0]],
         "values": [[0.5, 0.0], [0.5]], "sigma": [0.0]},
        {"kind": "spectrum", "c": [1.0, 0.5], "sigma": [0.0]},
    ])
    def test_problem_message(self, tmp_path, doc):
        p = tmp_path / "bad.json"
        write_json(p, doc)
        with pytest.raises(DataError) as exc:
            load_problem(p)
        assert str(exc.value) == _schema_message(doc, "problem.schema.json", p)

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(P="0.5"),  # wrongly typed P
        lambda d: d.update(P=[0.5, "x", 0.0, 0.5]),
        lambda d: d.update(interp_residual=0.0),  # extra match: oneOf fails
        lambda d: d.pop("rho"),
        lambda d: d["provenance"].pop("tol"),
        lambda d: d.update(rank=-1),
    ])
    def test_solution_message(self, cov_problem_geo, tmp_path, edit):
        out = tmp_path / "sol.json"
        assert main(["extend", str(cov_problem_geo), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        edit(doc)
        write_json(out, doc)
        with pytest.raises(DataError) as exc:
            load_solution(out)
        assert str(exc.value) == _schema_message(doc, "solution.schema.json", out)

    def test_dump_solution_message(self, cov_problem_geo, tmp_path):
        out = tmp_path / "sol.json"
        main(["extend", str(cov_problem_geo), "--out", str(out)])
        record = dataclasses.replace(load_solution(out), rho=-1.0)
        with pytest.raises(DataError) as exc:
            dump_solution(record, out)
        doc = covext.io.solution_doc(record)
        assert str(exc.value) == _schema_message(doc, "solution.schema.json", out)

    def test_free_extra_property_accepted(self, tmp_path):
        p = tmp_path / "extra.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 0.5], "sigma": [0.0],
                       "comment": "not in the schema"})
        assert load_problem(p).c.n == 1

    def test_metaschema_checked_once_per_schema(
        self, cov_problem_geo, tmp_path, monkeypatch, fresh_validators
    ):
        cls = jsonschema.validators.validator_for(
            covext.io._schema("problem.schema.json"))
        check_schema = cls.check_schema
        checked = []

        def spy(schema, *args, **kwargs):
            checked.append(schema["$id"].rsplit("/", 1)[-1])
            return check_schema(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", spy)
        out = tmp_path / "sol.json"
        for _ in range(3):
            problem = load_problem(cov_problem_geo)
            record, _ = run_extend(problem)
            dump_solution(record, out)
            load_solution(out)
        assert main(["extend", str(cov_problem_geo), "--out", str(out)]) == 0
        assert main(["verify", str(out), str(cov_problem_geo)]) == 0
        assert sorted(checked) == ["problem.schema.json", "solution.schema.json"]

    def test_broken_schema_raises_schema_error(
        self, cov_problem_n1, monkeypatch, fresh_validators
    ):
        broken = {"$schema": "https://json-schema.org/draft/2020-12/schema",
                  "type": "object", "required": "c"}
        monkeypatch.setattr(covext.io, "_schema", lambda name: broken)
        with pytest.raises(jsonschema.SchemaError):
            covext.io._validator("problem.schema.json")
        with pytest.raises(jsonschema.SchemaError):
            load_problem(cov_problem_n1)


@lru_cache(maxsize=None)
def _written_docs():
    """Valid documents from covext's own writers, as (schema name, JSON
    text): problems of both kinds and the solutions of both pipelines."""
    cov = CovarianceProblem(c=CovarianceSequence.from_raw([2.0, 1.0, 0.5]),
                            sigma=SchurPolynomial([0.0, 0.0]))
    interp = InterpolationProblem(
        data=InterpolationData(nodes=[2.0, 3.0], values=[5.0 / 6.0, 0.7]),
        sigma=SchurPolynomial([0.0]))
    docs = [
        ("problem.schema.json", covariance_problem_doc(
            [2.0, 1.0, 0.5], [0.0, 0.0], diagnostics={"lambda_min": 0.5},
            options={"tol": 1e-10})),
        ("problem.schema.json", interpolation_problem_doc(
            [2 + 1j, 2 - 1j, -3.0], [1 + 0.5j, 1 - 0.5j, 0.7], [0.1, 0.0])),
        ("solution.schema.json", solution_doc(run_extend(cov)[0])),
        ("solution.schema.json", solution_doc(run_nevpick(interp)[0])),
    ]
    return [(name, json.dumps(doc)) for name, doc in docs]


_LEAVES = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-3, 8),
    st.sampled_from([3.0, 0.0, -0.0, -1e-300, -2.5, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.sampled_from(["covariance", "interpolation", "spectrum", "newton", ""]),
)
_KEYS = st.sampled_from(["a", "c", "n", "rho", "kind", "nodes", "values", "sigma",
                         "rank", "residual", "covariance_match", "interp_residual",
                         "provenance", "tol", "extra"])


def _values(leaves):
    pairs = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3)
    return st.one_of(leaves, st.lists(leaves, max_size=3), st.lists(pairs, max_size=3),
                     st.dictionaries(_KEYS, leaves, max_size=2))


# values json.load never produces: jsonschema takes np.float64 and np.int64
# for numbers (np.int64 for no integer) and a tuple for no array
_FOREIGN = st.one_of(
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-3, 8).map(np.int64),
    st.lists(st.floats(-3.0, 3.0), max_size=3).map(tuple),
)


def _mutated(data, values):
    """A written document with one to three random edits: a member or
    element replaced, deleted or added, anywhere in the document."""
    name, text = data.draw(st.sampled_from(_written_docs()))
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if type(node) is dict else list(range(len(node)))
            inner = [k for k in keys if type(node[k]) in (dict, list)]
            if not inner or not data.draw(st.booleans()):
                break
            node = node[data.draw(st.sampled_from(inner))]
        op = data.draw(st.sampled_from(["set", "drop", "add"]))
        if op != "add" and keys:
            key = data.draw(st.sampled_from(keys))
            if op == "set":
                node[key] = data.draw(values)
            else:
                del node[key]
        elif type(node) is dict:
            node[data.draw(_KEYS)] = data.draw(values)
        else:
            node.append(data.draw(values))
    return name, doc


class TestCompiledCheck:
    """The acceptance predicate compiled from each shipped schema agrees
    with jsonschema on plain JSON and accepts nothing jsonschema rejects."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_jsonschema_on_plain_json(self, data):
        name, doc = _mutated(data, _values(_LEAVES))
        validator, accepts = covext.io._validator(name)
        assert accepts(doc) == validator.is_valid(doc)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_sound_on_other_types(self, data):
        name, doc = _mutated(data, _values(st.one_of(_LEAVES, _FOREIGN)))
        validator, accepts = covext.io._validator(name)
        assert accepts(doc) <= validator.is_valid(doc)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("rho"),
        lambda d: d.update(rho=True),
        lambda d: d.update(n=3.0),
        lambda d: d.update(rank=2.0),
        lambda d: d.update(n=2.5),
        lambda d: d.update(rho=math.nan),
        lambda d: d.update(residual=math.nan),
        lambda d: d.update(rho=math.inf),
        lambda d: d.update(residual=-math.inf),
        lambda d: d.update(rho=0.0),
        lambda d: d.update(rank=-1),
        lambda d: d.update(residual=-1e-300),
        lambda d: d.update(interp_residual=0.0),
        lambda d: d.pop("covariance_match"),
        lambda d: d["provenance"].update(kind="spectrum"),
        lambda d: d.update(extra={"any": [1, "x"]}),
    ])
    def test_solution_edits(self, edit):
        doc = json.loads(_written_docs()[2][1])
        edit(doc)
        validator, accepts = covext.io._validator("solution.schema.json")
        assert accepts(doc) == validator.is_valid(doc)

    @pytest.mark.parametrize("edit, valid", [
        (lambda d: d.update(rank=np.int64(2)), False),  # not an int to jsonschema
        (lambda d: d.update(rho=np.float64(0.5)), True),
        (lambda d: d.update(P=tuple(d["P"])), False),
    ])
    def test_other_types_go_to_jsonschema(self, edit, valid):
        doc = json.loads(_written_docs()[2][1])
        edit(doc)
        validator, accepts = covext.io._validator("solution.schema.json")
        assert not accepts(doc)
        assert validator.is_valid(doc) == valid

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("sigma"),
        lambda d: d.pop("values"),
        lambda d: d.update(kind="spectrum"),
        lambda d: d.update(sigma=[True]),
        lambda d: d.update(sigma=[math.nan, -math.inf]),
        lambda d: d["nodes"].__setitem__(0, [2.0]),
        lambda d: d["nodes"].__setitem__(0, [2.0, 1.0, 0.0]),
        lambda d: d.update(c=[1.0, 0.5]),
        lambda d: d.update(extra=None),
    ])
    def test_problem_edits(self, edit):
        doc = json.loads(_written_docs()[1][1])
        edit(doc)
        validator, accepts = covext.io._validator("problem.schema.json")
        assert accepts(doc) == validator.is_valid(doc)

    def test_unsupported_keyword_raises(self, monkeypatch, fresh_validators):
        schema = {"$schema": "https://json-schema.org/draft/2020-12/schema",
                  "type": "object",
                  "properties": {"kind": {"type": "string", "pattern": "^c"}}}
        monkeypatch.setattr(covext.io, "_schema", lambda name: schema)
        with pytest.raises(ValueError, match="'pattern'"):
            covext.io._validator("problem.schema.json")

    def test_cli_roundtrip_documents_accepted(self, cov_problem_geo, np_problem,
                                              tmp_path, monkeypatch):
        built = covext.io._validator
        verdicts = []

        def spy(name):
            validator, accepts = built(name)

            def recorded(doc):
                verdicts.append(accepts(doc))
                return verdicts[-1]

            return validator, recorded

        monkeypatch.setattr(covext.io, "_validator", spy)
        for command, problem in (("extend", cov_problem_geo), ("nevpick", np_problem)):
            out = tmp_path / f"{command}.json"
            assert main([command, str(problem), "--out", str(out)]) == 0
            assert main(["verify", str(out), str(problem)]) == 0
        # each command reads or writes a problem and a solution
        assert verdicts == [True] * 8


class TestExtendCommand:
    def test_worked_case(self, cov_problem_n1, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["extend", str(cov_problem_n1), "--out", str(out)])
        assert code == 0
        record = load_solution(out)
        assert record.a[0] == pytest.approx(-0.5, abs=1e-10)
        assert record.rho == pytest.approx(np.sqrt(0.75), abs=1e-10)
        assert record.rank == 1
        assert record.match <= 1e-10
        assert record.provenance["kind"] == "covariance"
        assert len(record.provenance["input_sha256"]) == 64

    def test_white_noise(self, tmp_path):
        p = tmp_path / "wn.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 0.0, 0.0],
                       "sigma": [0.3, 0.1]})
        out = tmp_path / "sol.json"
        assert main(["extend", str(p), "--out", str(out)]) == 0
        record = load_solution(out)
        assert np.allclose(record.a, [0.3, 0.1], atol=1e-12)
        assert record.rho == pytest.approx(1.0, abs=1e-12)

    def test_singular_sequence_exit_2(self, tmp_path):
        p = tmp_path / "sing.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 1.0], "sigma": [0.0]})
        assert main(["extend", str(p)]) == 2

    def test_interpolation_file_rejected(self, np_problem):
        assert main(["extend", str(np_problem)]) == 2

    def test_solver_failure_exit_3(self, tmp_path):
        # pure fixed-point with a starved iteration budget cannot converge
        p = tmp_path / "slow.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 0.5],
                       "sigma": [0.5]})
        assert main(["extend", str(p), "--method", "fixed-point",
                     "--max-iter", "2"]) == 3

    def test_unnormalized_scale_recorded(self, tmp_path):
        p = tmp_path / "raw.json"
        write_json(p, {"kind": "covariance", "c": [4.0, 2.0], "sigma": [0.0]})
        out = tmp_path / "sol.json"
        assert main(["extend", str(p), "--out", str(out)]) == 0
        record = load_solution(out)
        assert record.provenance["scale"] == pytest.approx(4.0)
        assert record.provenance["rho_unnormalized"] == pytest.approx(
            record.rho * 2.0
        )


class TestNevpickCommand:
    def test_worked_case(self, np_problem, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["nevpick", str(np_problem), "--out", str(out)]) == 0
        record = load_solution(out)
        assert record.a[0] == pytest.approx(-0.5, abs=1e-10)
        assert record.match_kind == "interp_residual"
        assert record.match <= 1e-10

    def test_all_half_values(self, tmp_path):
        p = tmp_path / "half.json"
        write_json(p, {
            "kind": "interpolation",
            "nodes": [[2.0, 0.0], [-3.0, 0.0], [4.0, 0.0]],
            "values": [[0.5, 0.0]] * 3,
            "sigma": [0.1, 0.02],
        })
        out = tmp_path / "sol.json"
        assert main(["nevpick", str(p), "--out", str(out)]) == 0
        record = load_solution(out)
        assert np.allclose(record.a, [0.1, 0.02], atol=1e-12)
        assert record.rho == pytest.approx(1.0)

    def test_paper_factor_regression_lock(self, np_problem, tmp_path, capsys):
        # alternative factor produces a verification failure (exit 4) with
        # the locked divergent parameters
        code = main(["nevpick", str(np_problem), "--paper-factor"])
        assert code == 4
        err = capsys.readouterr().err
        assert "unsolvable" in err

    def test_inconsistent_data_exit_4(self, tmp_path):
        p = tmp_path / "bad.json"
        write_json(p, {
            "kind": "interpolation",
            "nodes": [[2.0, 0.0], [3.0, 0.0]],
            "values": [[0.95, 0.0], [0.7, 0.0]],
            "sigma": [0.0],
        })
        assert main(["nevpick", str(p)]) == 4

    def test_clustered_nodes_structural_exit_5(self, tmp_path):
        p = tmp_path / "clustered.json"
        write_json(p, {
            "kind": "interpolation",
            "nodes": [[2.0, 0.0], [2.0000000001, 0.0], [-3.0, 0.0]],
            "values": [[0.6, 0.0], [5.0, 0.0], [1.0, 0.0]],
            "sigma": [0.0, 0.0],
        })
        assert main(["nevpick", str(p)]) == 5


class TestEstimateCommand:
    def test_worked_record(self, tmp_path):
        series = tmp_path / "y.csv"
        series.write_text("y\n1.0\n-1.0\n1.0\n", encoding="utf-8")
        out = tmp_path / "prob.json"
        assert main(["estimate", str(series), "--lags", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "covariance"
        assert doc["c"][0] == pytest.approx(1.0)
        assert doc["c"][1] == pytest.approx(-2.0 / 3.0)
        assert doc["c"][2] == pytest.approx(1.0 / 3.0)
        assert doc["diagnostics"]["raw_c0"] == pytest.approx(1.0)

    def test_constant_series_biased_near_singular(self, tmp_path):
        # the biased divisor keeps a constant record barely positive:
        # lambda_min = 1/(N+1)
        series = tmp_path / "y.csv"
        series.write_text("1\n1\n1\n1\n", encoding="utf-8")
        out = tmp_path / "prob.json"
        assert main(["estimate", str(series), "--lags", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["diagnostics"]["toeplitz_min_eig"] == pytest.approx(0.25)

    def test_constant_series_unbiased_singular_warns(self, tmp_path, capsys):
        series = tmp_path / "y.csv"
        series.write_text("1\n1\n1\n1\n", encoding="utf-8")
        out = tmp_path / "prob.json"
        with pytest.warns(UserWarning):
            assert main(["estimate", str(series), "--lags", "1",
                         "--unbiased", "--out", str(out)]) == 0
        assert "not strictly positive" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["diagnostics"]["toeplitz_min_eig"] == pytest.approx(
            0.0, abs=1e-15
        )

    def test_ar1_series_ratio(self, tmp_path):
        rng = np.random.default_rng(1234)
        N = 100_000
        y = np.empty(N)
        y[0] = 0.0
        e = rng.standard_normal(N)
        for t in range(1, N):
            y[t] = 0.5 * y[t - 1] + e[t]
        series = tmp_path / "ar1.csv"
        series.write_text("\n".join(repr(float(v)) for v in y) + "\n",
                          encoding="utf-8")
        out = tmp_path / "prob.json"
        assert main(["estimate", str(series), "--lags", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["c"][1] == pytest.approx(0.5, abs=0.02)

    def test_empty_input(self, tmp_path):
        series = tmp_path / "empty.csv"
        series.write_text("", encoding="utf-8")
        assert main(["estimate", str(series), "--lags", "1"]) == 2

    def test_non_numeric_input(self, tmp_path):
        series = tmp_path / "bad.csv"
        series.write_text("a\nb\nc\n", encoding="utf-8")
        assert main(["estimate", str(series), "--lags", "1"]) == 2


class TestPosdegCommand:
    def test_white_noise(self, tmp_path):
        p = tmp_path / "wn.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 0.0, 0.0],
                       "sigma": [0.0, 0.0]})
        out = tmp_path / "deg.json"
        assert main(["posdeg", str(p), "--grid", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["algebraic_degree"] == 0
        assert doc["positive_degree_upper_bound"] == 0

    def test_geometric(self, cov_problem_geo, tmp_path):
        out = tmp_path / "deg.json"
        assert main(["posdeg", str(cov_problem_geo), "--grid", "9",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["algebraic_degree"] == 1
        assert doc["positive_degree_upper_bound"] == 1

    def test_degenerate_instance(self, tmp_path):
        p = tmp_path / "deg2.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 0.2, 0.5],
                       "sigma": [0.0, 0.0]})
        out = tmp_path / "deg.json"
        assert main(["posdeg", str(p), "--grid", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["algebraic_degree"] == 1
        assert doc["positive_degree_upper_bound"] == 2
        # the report is written as every document is: two-space indented
        # JSON and one trailing newline
        assert out.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


class TestVerifyCommand:
    def test_fresh_solution_passes(self, cov_problem_geo, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["extend", str(cov_problem_geo), "--out", str(out)]) == 0
        assert main(["verify", str(out), str(cov_problem_geo)]) == 0

    def test_perturbed_P_fails(self, cov_problem_geo, tmp_path):
        out = tmp_path / "sol.json"
        main(["extend", str(cov_problem_geo), "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["P"][0] += 1e-3
        write_json(out, doc)
        assert main(["verify", str(out), str(cov_problem_geo)]) == 4

    def test_wrong_problem_fails(self, cov_problem_geo, tmp_path):
        out = tmp_path / "sol.json"
        main(["extend", str(cov_problem_geo), "--out", str(out)])
        other = tmp_path / "other.json"
        write_json(other, {"kind": "covariance", "c": [1.0, 0.4, 0.25],
                           "sigma": [0.0, 0.0]})
        assert main(["verify", str(out), str(other)]) == 4

    def test_roundtrip_identical_residuals(self, cov_problem_geo, tmp_path):
        out = tmp_path / "sol.json"
        main(["extend", str(cov_problem_geo), "--out", str(out)])
        problem = load_problem(cov_problem_geo)
        record = load_solution(out)
        report = verification_report(problem, record)
        by_name = {c.name: c for c in report.checks}
        assert by_name["residual_matches_recorded"].value <= 1e-14
        assert by_name["match_value_matches_recorded"].value <= 1e-14
        assert by_name["pr_min_matches_recorded"].value <= 1e-14

    def test_schur_checks_test_each_polynomial_once(self, cov_problem_geo,
                                                    tmp_path, monkeypatch):
        out = tmp_path / "sol.json"
        main(["extend", str(cov_problem_geo), "--out", str(out)])
        record = load_solution(out)
        tested = []
        is_schur = covext.pipeline.is_schur
        monkeypatch.setattr(covext.pipeline, "is_schur",
                            lambda p: tested.append(p) or is_schur(p))
        report = verification_report(load_problem(cov_problem_geo), record)
        by_name = {c.name: c for c in report.checks}
        assert [list(p) for p in tested] == [list(record.a), list(record.b)]
        assert by_name["a_is_schur"].passed and by_name["b_is_schur"].passed
        assert by_name["a_is_schur"].value == 0.0 == by_name["b_is_schur"].value

    def test_nevpick_solution_verifies(self, np_problem, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["nevpick", str(np_problem), "--out", str(out)]) == 0
        assert main(["verify", str(out), str(np_problem)]) == 0


class TestSpectrumCommand:
    def test_white_filter_constant(self, tmp_path):
        p = tmp_path / "wn.json"
        write_json(p, {"kind": "covariance", "c": [1.0, 0.0], "sigma": [0.3]})
        sol = tmp_path / "sol.json"
        main(["extend", str(p), "--out", str(sol)])
        out = tmp_path / "spectrum_out.csv"
        assert main(["spectrum", str(sol), "--samples", "33",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,spectral_density,re_f"
        assert len(lines) == 34
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 0.0
        assert last[0] == pytest.approx(np.pi)
        vals = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert np.allclose(vals[:, 1], 1.0, atol=1e-12)

    def test_worked_case_value_at_pi(self, cov_problem_n1, tmp_path):
        sol = tmp_path / "sol.json"
        main(["extend", str(cov_problem_n1), "--out", str(sol)])
        out = tmp_path / "spectrum_out.csv"
        assert main(["spectrum", str(sol), "--samples", "9",
                     "--out", str(out)]) == 0
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.read_text().strip().split("\n")[1:]])
        # spectral density at theta = pi is 1/3; Re f there is 1/6
        assert rows[-1, 1] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rows[-1, 2] == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert np.max(np.abs(rows[:, 1] - 2.0 * rows[:, 2])) <= 1e-10


class TestParserReuse:
    """``main`` parses every call with one parser built once per process;
    no option may carry over from one call to the next."""

    def test_build_parser_returns_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert covext.cli._parser() is covext.cli._parser()

    def test_paper_factor_does_not_carry_over(self, np_problem, tmp_path):
        # values four times f(z_k) make the (1/2) coupling factor solve the
        # problem; --interp-tol lets its interpolation mismatch be written
        scaled = tmp_path / "np4.json"
        write_json(scaled, {
            "kind": "interpolation",
            "nodes": [[2.0, 0.0], [3.0, 0.0]],
            "values": [[10.0 / 3.0, 0.0], [2.8, 0.0]],
            "sigma": [0.0],
        })
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        main(["nevpick", str(scaled), "--paper-factor", "--interp-tol", "10",
              "--out", str(first)])
        assert load_solution(first).provenance["paper_factor"] is True
        assert main(["nevpick", str(np_problem), "--out", str(second)]) == 0
        assert load_solution(second).provenance["paper_factor"] is False

    def test_samples_do_not_carry_over(self, cov_problem_geo, tmp_path,
                                       monkeypatch):
        seen = []
        report = covext.cli.verification_report

        def spy(problem, record, tols):
            seen.append(tols.pr_samples)
            return report(problem, record, tols)

        monkeypatch.setattr(covext.cli, "verification_report", spy)
        out = tmp_path / "sol.json"
        assert main(["extend", str(cov_problem_geo), "--samples", "64",
                     "--out", str(out)]) == 0
        assert load_solution(out).provenance["samples"] == 64
        assert main(["verify", str(out), str(cov_problem_geo)]) == 0
        assert seen == [4096]

    def test_spectrum_default_rows(self, cov_problem_n1, tmp_path):
        sol = tmp_path / "sol.json"
        main(["extend", str(cov_problem_n1), "--out", str(sol)])
        few, default = tmp_path / "few.csv", tmp_path / "default.csv"
        assert main(["spectrum", str(sol), "--samples", "9",
                     "--out", str(few)]) == 0
        assert main(["spectrum", str(sol), "--out", str(default)]) == 0
        assert len(default.read_text().splitlines()) == 1 + 512

    def test_identical_runs_identical_files(self, cov_problem_geo, tmp_path):
        other = tmp_path / "other.json"
        default = cov_problem_geo.with_name("geo.solution.json")
        assert main(["extend", str(cov_problem_geo), "--out", str(other)]) == 0
        assert main(["extend", str(cov_problem_geo)]) == 0
        first = default.read_bytes()
        assert main(["extend", str(cov_problem_geo)]) == 0
        assert default.read_bytes() == first == other.read_bytes()


class TestSeriesCSV:
    def test_header_detection(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n1.5\n2.5\n", encoding="utf-8")
        assert np.allclose(read_series_csv(p), [1.5, 2.5])

    def test_no_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.5\n2.5\n", encoding="utf-8")
        assert np.allclose(read_series_csv(p), [1.5, 2.5])
