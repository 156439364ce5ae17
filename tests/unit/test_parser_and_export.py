"""The DDlog-style text parser and the graph exporters."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import DatalogApp, MaybeRule, AggregateRule, Rule, choice_tuple
from repro.datalog.parser import parse_program, parse_rules
from repro.model import Tup
from repro.provgraph.export import to_dot, to_json
from repro.util.errors import ConfigurationError

MINCOST_TEXT = """
# MinCost (paper Section 3.3)
R1: cost(@X, Y, Y, K) :- link(@X, Y, K).
R2: cost(@C, D, X, K1+K2) :- link(@X, C, K1), bestCost(@X, D, K2),
    C != D, K1+K2 <= 255.
R3: bestCost(@X, D, min<K>) :- cost(@X, D, Z, K).
"""


class TestParser:
    def test_parses_all_rules(self):
        rules = parse_rules(MINCOST_TEXT)
        assert [r.name for r in rules] == ["R1", "R2", "R3"]
        assert isinstance(rules[0], Rule)
        assert isinstance(rules[2], AggregateRule)
        assert rules[2].func == "min"

    def test_parsed_program_computes_mincost(self):
        program = parse_program(MINCOST_TEXT)
        apps = {n: DatalogApp(n, program) for n in "bcd"}

        def drive(outputs, t):
            from repro.model import Snd
            for out in outputs:
                if isinstance(out, Snd):
                    m = out.msg
                    drive(apps[m.dst].handle_receive(m, t), t)

        links = [("b", "d", 3), ("d", "b", 3), ("b", "c", 2),
                 ("c", "b", 2), ("c", "d", 5), ("d", "c", 5)]
        for index, (x, y, k) in enumerate(links):
            drive(apps[x].handle_insert(Tup("link", x, y, k),
                                        float(index)), float(index))
        assert apps["c"].has_tuple(Tup("bestCost", "c", "d", 5))

    def test_parsed_program_matches_handwritten(self):
        from repro.apps.mincost import mincost_program
        parsed = parse_program(MINCOST_TEXT)
        hand = mincost_program()

        def run(program):
            app = DatalogApp("n", program)
            app.handle_insert(Tup("link", "n", "m", 3), 0.0)
            app.handle_insert(Tup("link", "n", "p", 1), 1.0)
            return set(app.tuples_of("cost")) | set(app.tuples_of("bestCost"))

        assert run(parsed) == run(hand)

    def test_maybe_rule_syntax(self):
        program = parse_program(
            "M: sel(@X, K) :~ opt(@X, K).\n"
        )
        rule = program.rules[0]
        assert isinstance(rule, MaybeRule)
        app = DatalogApp("n", program)
        app.handle_insert(Tup("opt", "n", 1), 0.0)
        assert not app.has_tuple(Tup("sel", "n", 1))
        app.handle_insert(choice_tuple("M", "n", 1), 1.0)
        assert app.has_tuple(Tup("sel", "n", 1))

    def test_string_and_numeric_constants(self):
        program = parse_program(
            "R: out(@X, 'hello', 42) :- trigger(@X).\n"
        )
        app = DatalogApp("n", program)
        app.handle_insert(Tup("trigger", "n"), 0.0)
        assert app.has_tuple(Tup("out", "n", "hello", 42))

    def test_guard_operators(self):
        program = parse_program(
            "R: big(@X, K) :- v(@X, K), K >= 10, K != 13.\n"
        )
        app = DatalogApp("n", program)
        app.handle_insert(Tup("v", "n", 5), 0.0)
        app.handle_insert(Tup("v", "n", 13), 1.0)
        app.handle_insert(Tup("v", "n", 20), 2.0)
        assert app.tuples_of("big") == [Tup("big", "n", 20)]

    def test_lowercase_name_is_constant(self):
        program = parse_program("R: out(@X, foo) :- t(@X, foo).\n")
        app = DatalogApp("n", program)
        app.handle_insert(Tup("t", "n", "foo"), 0.0)
        assert app.has_tuple(Tup("out", "n", "foo"))
        app2 = DatalogApp("n", program)
        app2.handle_insert(Tup("t", "n", "bar"), 0.0)
        assert not app2.tuples_of("out")

    def test_syntax_errors_rejected(self):
        for bad in (
            "R: head(@X) :- .",                 # empty body clause
            "R: head(@X)",                      # missing arrow
            "R head(@X) :- b(@X).",             # missing colon
            "R: min<K>(@X) :- b(@X, K).",       # agg outside atom args
        ):
            with pytest.raises(ConfigurationError):
                parse_program(bad)

    def test_comments_and_whitespace_ignored(self):
        rules = parse_rules("""
            # leading comment
            R1: a(@X) :- b(@X).   # trailing comment

            R2: c(@X) :- a(@X).
        """)
        assert len(rules) == 2


MINCOST_NDL = (Path(__file__).resolve().parents[2] / "examples"
               / "mincost.ndl").read_text()

#: The DSL's vocabulary, plus a few characters it has no token for.
SOUP = ["R1", "R2", ":", ":-", ":~", "(", ")", "@", ",", ".", "X", "Y",
        "_Z", "K1", "link", "cost", "min", "sum", "count", "<", ">", "<=",
        "!=", "==", "+", "-", "*", "/", "0", "1", "-2", "2.5", "'s'", '"t"',
        "input", "output", "#", "\n", " ", "$", "'", "\u00e9"]


def parses_or_fails_as_configuration(text):
    """The property: a program text either parses or raises a
    ConfigurationError (ParseError / ProgramAnalysisError included)."""
    try:
        parse_program(text)
    except ConfigurationError:
        pass


class TestParserFuzz:
    """Hostile program text meets exactly one error type."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(SOUP), max_size=40),
           st.sampled_from([" ", ""]))
    def test_token_soup(self, tokens, separator):
        parses_or_fails_as_configuration(separator.join(tokens))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_mincost(self, data):
        text = MINCOST_NDL
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(text)))
            end = data.draw(st.integers(at, min(len(text), at + 12)))
            patch = data.draw(st.one_of(
                st.sampled_from(SOUP), st.text(max_size=3), st.just(""),
                st.just(text[at:end] * 2)))
            text = text[:at] + patch + text[end:]
        parses_or_fails_as_configuration(text)


class TestExport:
    @pytest.fixture
    def result(self, mincost_query):
        dep, nodes, qp = mincost_query
        from repro.apps.mincost import best_cost
        return qp.why(best_cost("c", "d", 5))

    def test_dot_contains_every_vertex(self, result):
        dot = to_dot(result.graph, title="fig2")
        assert dot.startswith("digraph provenance")
        assert dot.count("[label=") == len(result.graph)
        assert "->" in dot

    def test_dot_colors_track_verdicts(self, result):
        dot = to_dot(result.graph)
        assert "color=black" in dot
        assert "color=red3" not in dot  # healthy run

    def test_json_round_trips(self, result):
        blob = json.loads(to_json(result.graph))
        assert len(blob["vertices"]) == len(result.graph)
        assert len(blob["edges"]) == result.graph.edge_count()
        ids = {v["id"] for v in blob["vertices"]}
        for a, b in blob["edges"]:
            assert a in ids and b in ids

    def test_json_marks_colors(self, result):
        blob = json.loads(to_json(result.graph))
        assert all(v["color"] == "black" for v in blob["vertices"])
