"""The project AST lint (``tools/lint_repro.py``).

The linter is a CI gate, so its rules are pinned here twice over: the
shipped tree must be clean, and each rule must still fire on a minimal
synthetic offender (and stay quiet on the sanctioned exemptions).
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint_repro", REPO_ROOT / "tools" / "lint_repro.py"
)
lint_repro = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spec and lint_repro)


def findings_for(
    tmp_path,
    source,
    *,
    name="module.py",
    observability=False,
    in_src=True,
    in_engine=False,
    in_service=False,
    in_planner=False,
    package="",
):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return [(rule, lineno) for _, lineno, rule, _ in lint_repro.check_file(
        path,
        observability=observability,
        in_src=in_src,
        in_engine=in_engine,
        in_service=in_service,
        in_planner=in_planner,
        package=package,
    )]


def rules_for(tmp_path, source, **kwargs):
    return [rule for rule, _ in findings_for(tmp_path, source, **kwargs)]


class TestShippedTreeIsClean:
    def test_src_repro_has_no_findings(self):
        findings = lint_repro.lint_paths([REPO_ROOT / "src" / "repro"], REPO_ROOT)
        rendered = [f"{path}:{lineno}: {rule} {message}" for path, lineno, rule, message in findings]
        assert rendered == []

    def test_tests_have_no_findings(self):
        findings = lint_repro.lint_paths([REPO_ROOT / "tests"], REPO_ROOT)
        rendered = [f"{path}:{lineno}: {rule} {message}" for path, lineno, rule, message in findings]
        assert rendered == []

    def test_main_exits_zero_on_the_repo(self, capsys):
        assert lint_repro.main([]) == 0

    def test_main_exits_one_on_a_finding(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("__all__ = ['missing']\n")
        assert lint_repro.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ALL-EXPORTS" in out and "1 finding(s)" in out


class TestLayering:
    @pytest.mark.parametrize(
        "package, imported",
        [
            ("repro.graph", "repro.pgq.scans"),
            ("repro.graph", "repro.planner"),
            ("repro.graph", "repro.engine.database"),
            ("repro.graph", "repro.matching.endpoint"),
            ("repro.graph", "repro.sqlpgq.catalog"),
            ("repro.pgq", "repro.planner.stats"),
            ("repro.pgq", "repro.engine"),
            ("repro.logic", "repro.translations.fotc_to_pgq"),
        ],
    )
    def test_an_upward_import_is_flagged(self, tmp_path, package, imported):
        source = f"def late():\n    import {imported}\n    return {imported}\n"
        assert rules_for(tmp_path, source, package=package) == ["LAYERING"]
        source = f"from {imported} import thing\n\nTHING = thing\n"
        assert rules_for(tmp_path, source, package=package) == ["LAYERING"]

    @pytest.mark.parametrize(
        "package, imported",
        [
            ("repro.graph", "repro.observability.tracing"),
            ("repro.pgq", "repro.graph.compact"),
            ("repro.pgq", "repro.matching.endpoint"),
            ("repro.logic", "repro.relational.database"),
            ("repro.graph", "repro.pgqx"),  # a longer name is another package
            ("repro.planner", "repro.engine"),  # no rule for this layer
            ("", "repro.engine"),
        ],
    )
    def test_downward_and_unlisted_imports_pass(self, tmp_path, package, imported):
        source = f"import {imported}\n\nMODULE = {imported}\n"
        assert rules_for(tmp_path, source, package=package) == []

    def test_the_package_comes_from_the_path(self):
        package_of = lint_repro._package_of
        assert package_of("/x/src/repro/graph/compact.py") == "repro.graph"
        assert package_of("/x/src/repro/pgq/scans.py") == "repro.pgq"
        assert package_of("/x/src/repro/errors.py") == ""
        assert package_of("/x/tests/graph/test.py") == ""


class TestObsImport:
    def test_observability_must_not_import_engine_modules(self, tmp_path):
        source = "import repro.engine.connection\n\nCONNECTION = repro.engine.connection\n"
        assert rules_for(tmp_path, source, observability=True) == ["OBS-IMPORT"]
        assert rules_for(tmp_path, source, observability=False) == []

    def test_lazy_function_level_import_is_also_flagged(self, tmp_path):
        source = "def peek():\n    from repro.planner.rules import optimize\n    return optimize\n"
        assert rules_for(tmp_path, source, observability=True) == ["OBS-IMPORT"]

    def test_observability_may_import_leaf_modules(self, tmp_path):
        source = "import repro.errors\n\nERRORS = repro.errors\n"
        assert "OBS-IMPORT" not in rules_for(tmp_path, source, observability=True)


class TestServiceLayering:
    SOURCE = "from repro.service import Server\n\nSERVER = Server\n"

    def test_library_module_importing_the_service_is_flagged(self, tmp_path):
        assert rules_for(tmp_path, self.SOURCE) == ["SERVICE-LAYERING"]

    def test_submodule_imports_are_flagged_too(self, tmp_path):
        source = "import repro.service.pool\n\nPOOL = repro.service.pool\n"
        assert rules_for(tmp_path, source) == ["SERVICE-LAYERING"]

    def test_lazy_function_level_import_is_also_flagged(self, tmp_path):
        source = (
            "def serve():\n"
            "    from repro.service.http import Server\n"
            "    return Server\n"
        )
        assert rules_for(tmp_path, source) == ["SERVICE-LAYERING"]

    def test_the_service_package_itself_is_exempt(self, tmp_path):
        assert rules_for(tmp_path, self.SOURCE, in_service=True) == []

    def test_code_outside_src_is_exempt(self, tmp_path):
        # Benchmarks, examples and tests consume the service freely.
        assert rules_for(tmp_path, self.SOURCE, in_src=False) == []

    def test_the_service_may_import_the_engine(self, tmp_path):
        source = "import repro.engine.connection\n\nCONNECTION = repro.engine.connection\n"
        assert rules_for(tmp_path, source, in_service=True) == []

    def test_similarly_named_modules_are_untouched(self, tmp_path):
        source = "import repro.services_v2\n\nX = repro.services_v2\n"
        assert "SERVICE-LAYERING" not in rules_for(tmp_path, source)


class TestSnapshotMutation:
    SOURCE = "def warm(snapshot):\n    snapshot.fingerprint = None\n"

    def test_snapshot_attribute_assignment_is_flagged(self, tmp_path):
        assert rules_for(tmp_path, self.SOURCE) == ["SNAPSHOT-MUTATION"]

    def test_the_owning_module_is_exempt(self, tmp_path):
        assert rules_for(tmp_path, self.SOURCE, name="database.py") == []

    def test_other_objects_are_untouched(self, tmp_path):
        assert rules_for(tmp_path, "def f(cursor):\n    cursor.position = 0\n") == []


class TestAllExports:
    def test_undefined_all_entry_is_flagged(self, tmp_path):
        assert rules_for(tmp_path, "__all__ = ['missing']\n") == ["ALL-EXPORTS"]

    def test_defined_and_imported_entries_pass(self, tmp_path):
        source = "import os\n\ndef helper():\n    return os\n\n__all__ = ['helper', 'os']\n"
        assert rules_for(tmp_path, source) == []


class TestUndefinedName:
    def test_a_name_bound_nowhere_is_flagged(self, tmp_path):
        # A builder moved to another module, its import left behind.
        source = "def build(sources):\n    return graph_from_scans(sources)\n"
        assert findings_for(tmp_path, source) == [("UNDEFINED-NAME", 2)]

    def test_names_bound_in_any_scope_and_builtins_pass(self, tmp_path):
        source = (
            "import os.path\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.graph.compact import CompactGraph\n"
            "def f(rows, *args, key=None, **options) -> 'CompactGraph':\n"
            "    global LATE\n"
            "    LATE = [x for x in rows if (y := x)]\n"
            "    with open(os.path.join(*args)) as handle:\n"
            "        return handle, key, options, y, __name__\n"
            "class C:\n"
            "    def g(self):\n"
            "        try:\n"
            "            return f, C, LATE, __file__\n"
            "        except OSError as error:\n"
            "            raise ValueError(error)\n"
        )
        assert rules_for(tmp_path, source) == []

    def test_a_star_import_turns_the_rule_off(self, tmp_path):
        assert rules_for(tmp_path, "from os import *\n\nSEP = sep\n") == []


class TestUnusedImport:
    def test_unused_module_import_is_flagged(self, tmp_path):
        assert rules_for(tmp_path, "import os\n") == ["UNUSED-IMPORT"]

    def test_used_import_passes(self, tmp_path):
        assert rules_for(tmp_path, "import os\n\nHOME = os.environ\n") == []

    def test_init_py_reexport_surface_is_exempt(self, tmp_path):
        assert rules_for(tmp_path, "import os\n", name="__init__.py") == []

    def test_type_checking_block_is_exempt(self, tmp_path):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import os\n"
        )
        assert rules_for(tmp_path, source) == []

    def test_name_listed_in_all_counts_as_used(self, tmp_path):
        assert rules_for(tmp_path, "import os\n\n__all__ = ['os']\n") == []


class TestIsLiteral:
    @pytest.mark.parametrize("test", ["x is 'a'", "x is not 0", "(1, 'a') is x", "0 < x is 1.5"])
    def test_identity_against_a_literal_is_flagged(self, tmp_path, test):
        source = f"def f(x):\n    return {test}\n"
        assert findings_for(tmp_path, source) == [("IS-LITERAL", 2)]

    def test_singletons_and_names_pass(self, tmp_path):
        source = (
            "SENTINEL = object()\n"
            "def f(x, y):\n"
            "    return x is None or x is not True or x is False or x is ... "
            "or x is SENTINEL or x is y or x == 'a'\n"
        )
        assert rules_for(tmp_path, source) == []


class TestRedefinedUnused:
    def test_a_method_defined_twice_is_flagged(self, tmp_path):
        source = (
            "class C:\n"
            "    def size(self):\n"
            "        return 1\n"
            "\n"
            "    def size(self):\n"
            "        return 2\n"
        )
        assert findings_for(tmp_path, source) == [("REDEFINED-UNUSED", 5)]

    def test_an_import_shadowed_by_a_def_is_flagged(self, tmp_path):
        source = "from os import sep\n\ndef sep():\n    return '/'\n\nSEP = sep()\n"
        assert findings_for(tmp_path, source) == [("REDEFINED-UNUSED", 3)]

    def test_a_read_between_overloads_and_other_blocks_pass(self, tmp_path):
        source = (
            "from typing import overload\n"
            "import os\n"
            "HOME = os.environ\n"
            "import os\n"
            "@overload\n"
            "def f(x: int) -> int: ...\n"
            "def f(x):\n"
            "    return x\n"
            "class C:\n"
            "    @property\n"
            "    def value(self):\n"
            "        return 1\n"
            "    @value.setter\n"
            "    def value(self, new):\n"
            "        pass\n"
            "try:\n"
            "    from json import loads\n"
            "except ImportError:\n"
            "    def loads(text):\n"
            "        return text\n"
            "PATH = os.sep, f, loads\n"
        )
        assert rules_for(tmp_path, source) == []


class TestReadBeforeAssignment:
    @pytest.mark.parametrize(
        "body",
        ["print(LIMIT)\n    LIMIT = 2", "LIMIT += 1", "LIMIT = LIMIT + 1"],
        ids=["read-then-assign", "augmented", "read-in-own-value"],
    )
    def test_a_module_name_read_before_the_local_binding_is_flagged(self, tmp_path, body):
        source = f"LIMIT = 1\n\ndef f():\n    {body}\n    return LIMIT\n"
        assert findings_for(tmp_path, source, in_src=False) == [("READ-BEFORE-ASSIGNMENT", 4)]

    def test_globals_parameters_closures_and_comprehensions_pass(self, tmp_path):
        source = (
            "LIMIT = 1\n"
            "def f(LIMIT=LIMIT):\n"
            "    return LIMIT\n"
            "def g():\n"
            "    global LIMIT\n"
            "    LIMIT += 1\n"
            "def h(rows):\n"
            "    first = [LIMIT for LIMIT in rows]\n"
            "    later = lambda: LIMIT\n"
            "    LIMIT = 3\n"
            "    return first, later, LIMIT\n"
            "def k():\n"
            "    return LIMIT\n"
        )
        assert rules_for(tmp_path, source) == []


class TestMutableDefault:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()"])
    def test_mutable_literal_default_is_flagged(self, tmp_path, default):
        source = f"def f(items={default}):\n    return items\n"
        assert rules_for(tmp_path, source) == ["MUTABLE-DEFAULT"]

    def test_none_guard_idiom_passes(self, tmp_path):
        source = "def f(items=None):\n    return items or []\n"
        assert rules_for(tmp_path, source) == []


class TestFactoryCatchAll:
    SOURCE = "def make_fast_engine(database, *, max_repetitions=None, **_options):\n    return None\n"

    def test_catch_all_on_an_engine_factory_is_flagged(self, tmp_path):
        assert rules_for(tmp_path, self.SOURCE, in_engine=True) == ["FACTORY-CATCH-ALL"]

    def test_explicit_options_pass(self, tmp_path):
        source = "def make_fast_engine(database, *, max_repetitions=None, verify_plans=None):\n    return None\n"
        assert rules_for(tmp_path, source, in_engine=True) == []

    def test_other_functions_and_layers_are_exempt(self, tmp_path):
        assert rules_for(tmp_path, self.SOURCE) == []  # outside the engine package
        helper = "def connect(engine, **engine_options):\n    return engine_options\n"
        assert rules_for(tmp_path, helper, in_engine=True) == []


class TestResultOrder:
    OWNER = "def result_order(rows):\n    return sorted(rows, key=repr)\n"

    @pytest.mark.parametrize("layer", ["in_engine", "in_planner"])
    @pytest.mark.parametrize("call", ["sorted(rows, key=repr)", "rows.sort(key=repr)"])
    def test_repr_sort_is_flagged_in_engine_and_planner(self, tmp_path, layer, call):
        source = f"def rows_of(rows):\n    {call}\n    return rows\n"
        assert rules_for(tmp_path, source, **{layer: True}) == ["RESULT-ORDER"]

    def test_the_owning_function_is_the_one_exemption(self, tmp_path):
        owner = "engine/result.py"
        assert rules_for(tmp_path, self.OWNER, name=owner, in_engine=True) == []
        # ... by file and by name: a second sort beside it still fires,
        # and so does the same function in another module.
        second = self.OWNER + "\ndef rows(self):\n    return sorted(self.fetched, key=repr)\n"
        assert findings_for(tmp_path, second, name=owner, in_engine=True) == [("RESULT-ORDER", 5)]
        assert rules_for(tmp_path, self.OWNER, name="engine/cursor.py", in_engine=True) == [
            "RESULT-ORDER"
        ]

    def test_other_keys_and_other_layers_pass(self, tmp_path):
        source = "def f(rows, keys):\n    return sorted(rows, key=keys.__getitem__), sorted(rows)\n"
        assert rules_for(tmp_path, source, in_planner=True) == []
        assert rules_for(tmp_path, "x = sorted([], key=repr)\n") == []  # e.g. relational/


class TestBareBroadExcept:
    @pytest.mark.parametrize("clause", ["except Exception:", "except BaseException:", "except:"])
    def test_swallowing_broad_handler_is_flagged_in_engine(self, tmp_path, clause):
        source = f"def f(g):\n    try:\n        g()\n    {clause}\n        pass\n"
        assert rules_for(tmp_path, source, in_engine=True) == ["BARE-BROAD-EXCEPT"]

    def test_cleanup_then_reraise_is_allowed(self, tmp_path):
        source = (
            "def f(g, cleanup):\n"
            "    try:\n"
            "        g()\n"
            "    except BaseException:\n"
            "        cleanup()\n"
            "        raise\n"
        )
        assert rules_for(tmp_path, source, in_engine=True) == []

    def test_narrow_handler_is_allowed(self, tmp_path):
        source = "def f(g):\n    try:\n        g()\n    except ValueError:\n        pass\n"
        assert rules_for(tmp_path, source, in_engine=True) == []

    def test_rule_only_applies_to_the_engine_layer(self, tmp_path):
        source = "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n"
        assert rules_for(tmp_path, source, in_engine=False) == []


class TestPrintCall:
    def test_print_in_library_code_is_flagged(self, tmp_path):
        assert rules_for(tmp_path, "print('dbg')\n") == ["PRINT-CALL"]

    def test_print_outside_src_is_allowed(self, tmp_path):
        assert rules_for(tmp_path, "print('cli')\n", in_src=False) == []


class TestSnapshotCacheLockDiscipline:
    """LOCK-DISCIPLINE owns ``engine/snapshot_cache.py``: the pin counts
    are cross-connection state like the entries themselves."""

    UNGUARDED = (
        "class SnapshotCache:\n"
        "    def pin(self, fingerprint):\n"
        "        self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1\n"
    )
    GUARDED = (
        "class SnapshotCache:\n"
        "    def unpin(self, fingerprint):\n"
        "        with self._lock:\n"
        "            self._pins.pop(fingerprint, 0)\n"
        "            del self._entries[fingerprint]\n"
    )

    def test_pins_touched_outside_the_cache_lock_are_flagged(self, tmp_path):
        found = findings_for(tmp_path, self.UNGUARDED, name="engine/snapshot_cache.py")
        assert found == [("LOCK-DISCIPLINE", 3)]

    def test_pins_under_the_cache_lock_pass(self, tmp_path):
        assert rules_for(tmp_path, self.GUARDED, name="engine/snapshot_cache.py") == []

    def test_the_rule_is_scoped_to_the_cache_module(self, tmp_path):
        assert rules_for(tmp_path, self.UNGUARDED, name="engine/other.py") == []


class TestSizeBudget:
    """SIZE-BUDGET holds ``src/`` to the checked-in line budget: a ceiling
    is a bound both ways — never passed, never more than 20 lines slack."""

    @staticmethod
    def budget_findings(tmp_path, modules, ceilings, total):
        for name, lines in modules.items():
            path = tmp_path / "src" / "pkg" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x = 1\n" * lines)
        budget = tmp_path / "size_budget.json"
        budget.write_text(json.dumps({"total": total, "modules": ceilings}))
        return [
            message
            for _, _, rule, message in lint_repro.check_size_budget(tmp_path / "src", budget)
            if rule == "SIZE-BUDGET"
        ]

    def test_the_shipped_tree_is_within_its_budget(self):
        budget = REPO_ROOT / "tools" / "size_budget.json"
        assert lint_repro.check_size_budget(REPO_ROOT / "src", budget) == []

    def test_a_module_one_line_over_its_ceiling_fails(self, tmp_path):
        found = self.budget_findings(
            tmp_path, {"big.py": 601}, {"src/pkg/big.py": 600}, total=601
        )
        assert found == ["src/pkg/big.py has 601 lines, over its ceiling of 600"]

    def test_a_stale_ceiling_fails(self, tmp_path):
        found = self.budget_findings(
            tmp_path, {"big.py": 579}, {"src/pkg/big.py": 600}, total=579
        )
        assert len(found) == 1 and "21 under its ceiling of 600" in found[0]
        assert self.budget_findings(
            tmp_path, {"big.py": 580}, {"src/pkg/big.py": 600}, total=580
        ) == []

    def test_code_moved_between_two_unlisted_modules_passes(self, tmp_path):
        before = self.budget_findings(tmp_path, {"a.py": 300, "b.py": 100}, {}, total=400)
        after = self.budget_findings(tmp_path, {"a.py": 100, "b.py": 300}, {}, total=400)
        assert before == after == []

    def test_a_large_unlisted_module_and_a_grown_total_fail(self, tmp_path):
        found = self.budget_findings(tmp_path, {"a.py": 500}, {}, total=499)
        assert found == [
            "src/pkg/a.py has 500 lines and no ceiling in size_budget.json",
            "src/ has 500 lines, over its ceiling of 499",
        ]
