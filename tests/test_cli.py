"""Tests for the command-line interface (repro.cli)."""

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, load_database, load_dependencies, load_query, main
from repro.datamodel import Constant
from repro.evaluation import evaluate_generic, resolve_route
from repro.service import QueryService


EXAMPLE1_QUERY = "q(x, y) :- Interest(x, z), Class(y, z), Owns(x, y)"
EXAMPLE1_TGD = "Interest(x, z), Class(y, z) -> Owns(x, y)"


def run_cli(argv):
    """Run the CLI and capture its output and exit code."""
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInputLoading:
    def test_load_dependencies_from_file_and_inline(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("A(x, y) -> B(x, y)\n% a comment\nB(x, y) -> C(y, z)\n")
        dependencies = load_dependencies(str(rules), ["R(x, y), R(x, z) -> y = z"])
        assert len(dependencies) == 3

    def test_load_database(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\nE('b', 'c')\n% comment line\n\n")
        database = load_database(str(data))
        assert len(database) == 2

    def test_a_percent_sign_inside_a_constant_starts_no_comment(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('50%', 'b')  % it's a comment\nE('a.', 'c').\n")
        database = load_database(str(data))
        assert {atom.terms[0] for atom in database} == {Constant("50%"), Constant("a.")}
        query_file = tmp_path / "query.txt"
        query_file.write_text("q(x) :- E(x, '50%')  % anchored\n")
        assert load_query(None, str(query_file)).body[0].terms[1] == Constant("50%")

    def test_load_query_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            load_query(None, None)
        with pytest.raises(SystemExit):
            load_query("E(x, y)", str(tmp_path / "missing.txt"))

    def test_load_query_from_file(self, tmp_path):
        query_file = tmp_path / "query.txt"
        query_file.write_text("q(x) :- E(x, y)\n")
        query = load_query(None, str(query_file))
        assert len(query.head) == 1


class TestParserConstruction:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["classify", "--dependency", "A(x) -> B(x)"])
        assert args.command == "classify"
        for command in ("decide", "chase", "rewrite", "approximate"):
            args = parser.parse_args([command, "--query", "E(x, y)"])
            assert args.command == command

    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestClassify:
    def test_classify_inline_tgds(self):
        code, output = run_cli(
            ["classify", "--dependency", "R(x, y) -> S(x, y)"]
        )
        assert code == 0
        assert "tgds: 1" in output
        assert "guarded" in output

    def test_classify_without_dependencies_fails(self):
        code, output = run_cli(["classify"])
        assert code == 1
        assert "no dependencies" in output

    def test_classify_reports_egds(self):
        code, output = run_cli(
            ["classify", "--dependency", "R(x, y), R(x, z) -> y = z"]
        )
        assert code == 0
        assert "egds: 1" in output


class TestDecide:
    def test_example1_is_semantically_acyclic(self):
        code, output = run_cli(
            ["decide", "--query", EXAMPLE1_QUERY, "--dependency", EXAMPLE1_TGD]
        )
        assert code == 0
        assert "semantically acyclic: True" in output
        assert "witness:" in output

    def test_triangle_without_constraints_is_not(self):
        code, output = run_cli(["decide", "--query", "E(x, y), E(y, z), E(z, x)"])
        assert code == 2
        assert "semantically acyclic: False" in output

    def test_decide_with_constraint_file(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text(EXAMPLE1_TGD + "\n")
        code, output = run_cli(
            ["decide", "--query", EXAMPLE1_QUERY, "--constraints", str(rules)]
        )
        assert code == 0
        assert "semantically acyclic: True" in output

    def test_decide_rejects_mixed_constraint_kinds(self):
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "decide",
                    "--query",
                    EXAMPLE1_QUERY,
                    "--dependency",
                    EXAMPLE1_TGD,
                    "--dependency",
                    "Owns(x, y), Owns(x, z) -> y = z",
                ]
            )


class TestChase:
    def test_chase_a_query(self):
        code, output = run_cli(
            [
                "chase",
                "--query",
                "A(x, y)",
                "--dependency",
                "A(x, y) -> B(x, y)",
                "--print-atoms",
            ]
        )
        assert code == 0
        assert "terminated: True" in output
        assert "atoms: 2" in output
        assert "B(" in output

    def test_chase_a_data_file(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\nE('b', 'c').\n")
        code, output = run_cli(
            [
                "chase",
                "--data",
                str(data),
                "--dependency",
                "E(x, y), E(y, z) -> E(x, z)",
            ]
        )
        assert code == 0
        assert "atoms: 3" in output

    def test_chase_reports_budget_exhaustion(self):
        code, output = run_cli(
            [
                "chase",
                "--query",
                "E(x, y)",
                "--dependency",
                "E(x, y) -> E(y, z)",
                "--max-steps",
                "5",
            ]
        )
        assert code == 3
        assert "terminated: False" in output

    def test_chase_with_egds(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("R('a', 'b').\nR('a', 'c').\n")
        code, output = run_cli(
            ["chase", "--data", str(data), "--dependency", "R(x, y), R(x, z) -> y = z"]
        )
        # Two distinct constants cannot be merged: the chase fails.
        assert code == 3
        assert "terminated: False" in output


class TestRewriteApproximateEvaluate:
    def test_rewrite_under_inclusion_dependency(self):
        code, output = run_cli(
            [
                "rewrite",
                "--query",
                "Owns(x, y)",
                "--dependency",
                "Premium(x, y) -> Owns(x, y)",
            ]
        )
        assert code == 0
        assert "disjuncts: 2" in output

    def test_rewrite_rejects_egds(self):
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "rewrite",
                    "--query",
                    "R(x, y)",
                    "--dependency",
                    "R(x, y), R(x, z) -> y = z",
                ]
            )

    def test_approximate_cyclic_query(self):
        code, output = run_cli(
            ["approximate", "--query", "E(x, y), E(y, z), E(z, x)"]
        )
        assert code == 0
        assert "approximations:" in output

    def test_evaluate_acyclic_query(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\nE('b', 'c').\n")
        code, output = run_cli(
            ["evaluate", "--query", "q(x, z) :- E(x, y), E(y, z)", "--data", str(data)]
        )
        assert code == 0
        assert "evaluation: yannakakis" in output
        assert "answers: 1" in output

    def test_evaluate_reformulates_under_constraints(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text(
            "Interest('c1', 's1').\nClass('r1', 's1').\nOwns('c1', 'r1').\n"
        )
        code, output = run_cli(
            [
                "evaluate",
                "--query",
                EXAMPLE1_QUERY,
                "--data",
                str(data),
                "--dependency",
                EXAMPLE1_TGD,
            ]
        )
        assert code == 0
        assert "reformulated+yannakakis" in output
        assert "answers: 1" in output

    def test_evaluate_cyclic_query_without_constraints_uses_decomposition(
        self, tmp_path
    ):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\nE('b', 'c').\nE('c', 'a').\n")
        code, output = run_cli(
            ["evaluate", "--query", "E(x, y), E(y, z), E(z, x)", "--data", str(data)]
        )
        assert code == 0
        assert "evaluation: decomposition" in output
        assert "answers: 1" in output


class TestEvaluateEngineAndLimit:
    def write_path(self, tmp_path, n=5):
        data = tmp_path / "facts.txt"
        data.write_text("".join(f"E('n{i}', 'n{i + 1}').\n" for i in range(n)))
        return data

    def test_engine_generic_is_selectable(self, tmp_path):
        data = self.write_path(tmp_path)
        code, output = run_cli(
            [
                "evaluate",
                "--query",
                "q(x, z) :- E(x, y), E(y, z)",
                "--data",
                str(data),
                "--engine",
                "generic",
            ]
        )
        assert code == 0
        assert "evaluation: generic" in output
        assert "answers: 4" in output

    def test_engine_plan_forces_the_plan_route_on_acyclic_queries(self, tmp_path):
        data = self.write_path(tmp_path)
        code, output = run_cli(
            [
                "evaluate",
                "--query",
                "q(x, z) :- E(x, y), E(y, z)",
                "--data",
                str(data),
                "--engine",
                "plan",
            ]
        )
        assert code == 0
        assert "evaluation: plan" in output
        assert "answers: 4" in output

    def test_engine_yannakakis_refuses_cyclic_queries(self, tmp_path):
        data = self.write_path(tmp_path)
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "evaluate",
                    "--query",
                    "E(x, y), E(y, z), E(z, x)",
                    "--data",
                    str(data),
                    "--engine",
                    "yannakakis",
                ]
            )

    def test_engine_reformulation_requires_a_reformulation(self, tmp_path):
        data = self.write_path(tmp_path)
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "evaluate",
                    "--query",
                    "E(x, y), E(y, z), E(z, x)",
                    "--data",
                    str(data),
                    "--engine",
                    "reformulation",
                ]
            )

    def test_limit_streams_a_prefix_of_the_answers(self, tmp_path):
        data = self.write_path(tmp_path, n=6)
        code, output = run_cli(
            [
                "evaluate",
                "--query",
                "q(x, z) :- E(x, y), E(y, z)",
                "--data",
                str(data),
                "--limit",
                "2",
            ]
        )
        assert code == 0
        assert "limit: 2" in output
        assert "answers: 2" in output

    def test_limit_larger_than_output_yields_everything(self, tmp_path):
        data = self.write_path(tmp_path)
        code, output = run_cli(
            [
                "evaluate",
                "--query",
                "q(x, z) :- E(x, y), E(y, z)",
                "--data",
                str(data),
                "--limit",
                "99",
            ]
        )
        assert code == 0
        assert "answers: 4" in output


class TestExplain:
    def test_explain_acyclic_query_shows_estimates_and_observations(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\nE('b', 'c').\n")
        code, output = run_cli(
            ["explain", "--query", "q(x, z) :- E(x, y), E(y, z)", "--data", str(data)]
        )
        assert code == 0
        assert "route: yannakakis" in output
        assert "Scan[E(x, y)]" in output
        assert "est=" in output and "obs=" in output

    def test_explain_cyclic_query_uses_the_decomposition_route(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\nE('b', 'c').\nE('c', 'a').\n")
        code, output = run_cli(
            ["explain", "--query", "E(x, y), E(y, z), E(z, x)", "--data", str(data)]
        )
        assert code == 0
        assert "route: decomposition" in output
        assert "decomposition: width" in output

    def test_explain_cyclic_query_can_force_the_plan_route(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\nE('b', 'c').\nE('c', 'a').\n")
        code, output = run_cli(
            [
                "explain",
                "--query",
                "E(x, y), E(y, z), E(z, x)",
                "--data",
                str(data),
                "--engine",
                "plan",
            ]
        )
        assert code == 0
        assert "route: plan" in output
        assert "HashJoin" in output

    def test_explain_reformulated_query_names_the_reformulation(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text(
            "Interest('c1', 's1').\nClass('r1', 's1').\nOwns('c1', 'r1').\n"
        )
        code, output = run_cli(
            [
                "explain",
                "--query",
                EXAMPLE1_QUERY,
                "--data",
                str(data),
                "--dependency",
                EXAMPLE1_TGD,
            ]
        )
        assert code == 0
        assert "route: reformulated" in output
        assert "reformulation:" in output

    def test_explain_no_execute_skips_observed_cardinalities(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\n")
        code, output = run_cli(
            [
                "explain",
                "--query",
                "q(x, y) :- E(x, y)",
                "--data",
                str(data),
                "--no-execute",
            ]
        )
        assert code == 0
        assert "obs=?" in output

    def test_explain_matches_evaluate_on_egd_only_constraints(self, tmp_path):
        """Egd-only sets go through the decision procedure: explain must
        report the same reformulated route that evaluate executes."""
        data = tmp_path / "facts.txt"
        data.write_text("A('x1', 'y1').\nB('y1', 'y1').\n")
        arguments = [
            "--query",
            "q() :- A(x, y), A(x, z), B(y, z)",
            "--data",
            str(data),
            "--dependency",
            "A(x, y), A(x, z) -> y = z",
        ]
        code, evaluated = run_cli(["evaluate", *arguments])
        assert code == 0
        assert "evaluation: reformulated+yannakakis" in evaluated
        code, explained = run_cli(["explain", *arguments])
        assert code == 0
        assert "route: reformulated" in explained
        assert "reformulation:" in explained

    def test_explain_forced_impossible_route_fails_cleanly(self, tmp_path):
        data = tmp_path / "facts.txt"
        data.write_text("E('a', 'b').\n")
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "explain",
                    "--query",
                    "E(x, y), E(y, z), E(z, x)",
                    "--data",
                    str(data),
                    "--engine",
                    "yannakakis",
                ]
            )


class TestOneRoute:
    """``evaluate``, ``explain`` and ``check`` resolve the same route."""

    EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "checks" / "key_collapse"

    def arguments(self):
        return [
            "--query-file",
            f"{self.EXAMPLE}.cq",
            "--constraints",
            f"{self.EXAMPLE}.rules",
            "--data",
            f"{self.EXAMPLE}.facts",
        ]

    def test_check_verifies_the_egd_reformulation_evaluate_runs(self):
        code, evaluated = run_cli(["evaluate", *self.arguments()])
        assert code == 0
        assert "evaluation: reformulated+yannakakis" in evaluated
        assert "answers: 2" in evaluated
        code, explained = run_cli(["explain", "--verify", *self.arguments()])
        assert code == 0
        assert "route: reformulated" in explained
        assert "verification: clean" in explained
        code, checked = run_cli(["check", *self.arguments()])
        assert code == 0
        assert "plan verified: reformulated route" in checked

    def test_the_library_and_the_service_take_the_route_the_cli_takes(self):
        query = load_query(None, f"{self.EXAMPLE}.cq")
        keys = load_dependencies(f"{self.EXAMPLE}.rules", [])
        database = load_database(f"{self.EXAMPLE}.facts")
        route, evaluator = resolve_route(query, tgds=keys)
        assert route == "reformulated"
        service = QueryService(database)
        answers = service.submit(query, tgds=keys)
        assert [entry.kind for entry in service._plans.values()] == ["reformulated"]
        assert answers == evaluator.evaluate(database) == evaluate_generic(query, database)

    def test_approximate_keeps_the_egds(self):
        code, output = run_cli(
            [
                "approximate",
                "--query-file",
                f"{self.EXAMPLE}.cq",
                "--constraints",
                f"{self.EXAMPLE}.rules",
            ]
        )
        assert code == 0
        assert output.splitlines() == [
            "approximations: 1",
            "q_img(Q0) :- R(Q0, Q1) ∧ S(Q1, Q1)",
        ]


class TestMixedConstraints:
    """A Σ mixing tgds and egds is refused with one message by every
    subcommand that takes one class; ``classify`` and ``check`` accept it."""

    EXAMPLE = TestOneRoute.EXAMPLE
    MESSAGE = "mixing tgds and egds in one decision is not supported"

    @pytest.fixture
    def rules(self, tmp_path):
        rules = tmp_path / "mixed.rules"
        key = Path(f"{self.EXAMPLE}.rules").read_text(encoding="utf-8")
        rules.write_text(key + "S(x, y) -> T(x)\n", encoding="utf-8")
        return str(rules)

    @pytest.mark.parametrize(
        "command", ["decide", "chase", "approximate", "evaluate", "explain", "serve"]
    )
    def test_one_class_subcommands_exit_with_one_message(self, command, rules, tmp_path):
        data = ["--data", f"{self.EXAMPLE}.facts"]
        if command == "serve":
            session = tmp_path / "session.txt"
            query = Path(f"{self.EXAMPLE}.cq").read_text(encoding="utf-8").splitlines()[-1]
            session.write_text(f"? {query}\n", encoding="utf-8")
            arguments = [*data, "--session", str(session)]
        else:
            arguments = ["--query-file", f"{self.EXAMPLE}.cq"]
            if command in ("evaluate", "explain"):
                arguments += data
        with pytest.raises(SystemExit, match=self.MESSAGE):
            run_cli([command, *arguments, "--constraints", rules])

    def test_classify_accepts_the_mix(self, rules):
        code, output = run_cli(["classify", "--constraints", rules])
        assert code == 0
        assert "tgds: 1" in output and "egds: 1" in output

    def test_check_reports_the_mix_after_its_workload_diagnostics(self, rules):
        code, output = run_cli(
            [
                "check",
                "--query-file",
                f"{self.EXAMPLE}.cq",
                "--data",
                f"{self.EXAMPLE}.facts",
                "--constraints",
                rules,
            ]
        )
        assert code == 2
        assert "WKL006 info" in output
        assert f"WKL009 error: no route: {self.MESSAGE}" in output
        assert "plan verified" not in output


class TestFlatPlanRoute:
    """``--engine plan`` on the checked-in workloads: the EXPLAIN text (its
    estimates, observed rows and probe counts) and the answers are pinned,
    so a change to how the flat plan route is reached cannot change what it
    runs."""

    CHECKS = Path(__file__).resolve().parent.parent / "examples" / "checks"

    EXPECTED = {
        "anchored_path": (
            """\
Project[y]  (est=3, obs=3)
  HashJoin[x]  (est=3, obs=4, probes=2)
    Scan[S1(a, x)]  (est=2, obs=2)
    Scan[S2(x, y)]  (est=5, obs=5)""",
            ["(c1)", "(c2)", "(c3)"],
        ),
        "key_collapse": (
            """\
Project[x]  (est=3, obs=2)
  HashJoin[y, z]  (est=3, obs=2, probes=3)
    HashJoin[x]  (est=3, obs=3, probes=3)
      Scan[R(x, y)]  (est=3, obs=3)
      Scan[R(x, z)]  (est=3, obs=3)
    Scan[S(y, z)]  (est=3, obs=3)""",
            ["(a)", "(e)"],
        ),
        "pentagon": (
            """\
Project[v0]  (est=9, obs=9)
  HashJoin[v0]  (est=72, obs=90, probes=18)
    Scan[E(v0, p)]  (est=18, obs=18)
    HashJoin[v0, v3]  (est=36, obs=35, probes=79)
      HashJoin[v2]  (est=72, obs=79, probes=39)
        HashJoin[v1]  (est=36, obs=39, probes=18)
          Scan[E(v0, v1)]  (est=18, obs=18)
          Scan[E(v1, v2)]  (est=18, obs=18)
        Scan[E(v2, v3)]  (est=18, obs=18)
      HashJoin[v4]  (est=36, obs=39, probes=18)
        Scan[E(v3, v4)]  (est=18, obs=18)
        Scan[E(v4, v0)]  (est=18, obs=18)""",
            ["(a0)", "(a1)", "(a2)", "(a3)", "(a4)", "(b1)", "(b2)", "(b3)", "(b4)"],
        ),
    }

    def arguments(self, name):
        workload = self.CHECKS / name
        arguments = ["--query-file", f"{workload}.cq", "--data", f"{workload}.facts"]
        if Path(f"{workload}.rules").exists():
            arguments += ["--constraints", f"{workload}.rules"]
        return arguments + ["--engine", "plan"]

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_explain_and_answers_are_pinned(self, name):
        plan, answers = self.EXPECTED[name]
        code, explained = run_cli(["explain", "--verify", *self.arguments(name)])
        assert code == 0
        lines = explained.splitlines()
        assert lines[1] == "route: plan"
        assert "\n".join(lines[2:-1]) == plan
        assert lines[-1] == "verification: clean"
        code, evaluated = run_cli(["evaluate", *self.arguments(name)])
        assert code == 0
        assert evaluated.splitlines() == [
            "evaluation: plan", f"answers: {len(answers)}", *answers
        ]
        code, checked = run_cli(["check", *self.arguments(name)])
        assert code == 0
        assert "plan verified: plan route" in checked
