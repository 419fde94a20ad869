"""Tests for the script-task statement language."""

import pytest

from repro.expr import EvaluationError, ParseError, run_script
from repro.expr import script as script_module


class TestAssignments:
    def test_simple_assignment(self):
        env = {}
        run_script("x = 1", env)
        assert env == {"x": 1}

    def test_multiline_script(self):
        env = {"amount": 100}
        run_script("fee = amount * 0.1\ntotal = amount + fee", env)
        assert env["fee"] == 10.0
        assert env["total"] == 110.0

    def test_semicolon_separated(self):
        env = {}
        run_script("a = 1; b = a + 1", env)
        assert env == {"a": 1, "b": 2}

    def test_comments_and_blanks(self):
        env = {}
        run_script("# setup\n\nx = 5  # five", env)
        assert env["x"] == 5

    def test_returns_same_mapping(self):
        env = {}
        assert run_script("x = 1", env) is env

    def test_later_statements_see_earlier_results(self):
        env = {}
        run_script("a = 2\nb = a * a\nc = b * a", env)
        assert env["c"] == 8


class TestAugmented:
    def test_all_augmented_ops(self):
        env = {"x": 10}
        run_script("x += 5", env)
        assert env["x"] == 15
        run_script("x -= 3", env)
        assert env["x"] == 12
        run_script("x *= 2", env)
        assert env["x"] == 24
        run_script("x /= 4", env)
        assert env["x"] == 6

    def test_augmented_on_undefined_raises(self):
        with pytest.raises(EvaluationError, match="undefined"):
            run_script("missing += 1", {})

    def test_augmented_division_by_zero(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            run_script("x /= 0", {"x": 1})


class TestRejection:
    def test_non_assignment_rejected(self):
        with pytest.raises(ParseError):
            run_script("1 + 1", {})

    def test_assignment_to_keyword_rejected(self):
        with pytest.raises(ParseError, match="keyword"):
            run_script("true = 1", {})

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            run_script("x = 1\n???", {})

    def test_comparison_not_treated_as_assignment(self):
        with pytest.raises(ParseError):
            run_script("x == 1", {"x": 1})

    def test_attribute_assignment_rejected(self):
        with pytest.raises(ParseError):
            run_script("obj.field = 1", {"obj": {}})

    def test_no_access_to_builtins(self):
        with pytest.raises(EvaluationError):
            run_script("x = __import__('os')", {})


class TestParsedScriptCache:
    def test_complete_script_is_parsed_once(self):
        source = "cache_probe_a = 1\ncache_probe_b = cache_probe_a + 1"
        script_module._SCRIPT_CACHE.pop(source, None)
        first, second = {}, {}
        run_script(source, first)
        parsed = script_module._SCRIPT_CACHE[source]
        run_script(source, second)
        assert script_module._SCRIPT_CACHE[source] is parsed
        assert first == second == {"cache_probe_a": 1, "cache_probe_b": 2}

    def test_unparsable_script_runs_lazily_and_is_not_cached(self):
        source = "kept = 1\n???\nnever = 2"
        for _ in range(2):  # the second run must not come from a cache
            env = {}
            with pytest.raises(ParseError, match="line 2"):
                run_script(source, env)
            # earlier statements have executed when the bad one is reached
            assert env == {"kept": 1}
        assert source not in script_module._SCRIPT_CACHE

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(script_module, "_SCRIPT_CACHE", {})
        monkeypatch.setattr(script_module, "_SCRIPT_CACHE_LIMIT", 8)
        for n in range(30):
            run_script(f"bounded_{n} = {n}", {})
            assert len(script_module._SCRIPT_CACHE) <= 8
        assert "bounded_29 = 29" in script_module._SCRIPT_CACHE
