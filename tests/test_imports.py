"""No module of the package imports a top-level name it never reads, and no
module defines a top-level function or class that the package never reads.

`__init__.py` is exempt from both (its imports are the package's
re-exports, and a re-export is no reader), and so is any name imported on
a line marked `# noqa: F401`.  A definition counts as read when another
top-level statement of any package module reads its name, as a name or as
an attribute.  The only other exemption is a function that the
benchmark's tracer wraps by name (bench/tracing.py), which that file reads.

A cold start of the package imports neither `dataclasses` nor `inspect`:
their imports and the code a dataclass decoration generates and compiles
cost every fresh start tens of milliseconds.  Nor does it import `hashlib`,
whose OpenSSL backend adds about 3 MB to every process: the report digests
come from the interpreter's builtin SHA-256, and where an interpreter lacks
it, from hashlib with the same bytes.

Every keyed cache is `records.Memo`: outside `records.py` no module defines
a `cached_property` that returns an empty dict, calls `id(...)` or reads
`._memo`.
"""
import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

from hopfcoh.jobfile import JobSpec, render
from hopfcoh.report import run, run_suite

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfcoh"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACING = ROOT / "bench" / "tracing.py"


def unused_imports(source: str) -> list:
    """(line, name) of each top-level import binding that nothing else in source reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if any("# noqa: F401" in lines[n - 1] for n in {node.lineno, alias.lineno}):
                continue
            bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from typing import Optional, Tuple  # keep\nimport os\nfrom x import y  # noqa: F401\n\nz: Tuple = ()\n"
    assert unused_imports(source) == [(1, "Optional"), (2, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def _names_read(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unreached_definitions(sources: dict, exempt=frozenset()) -> list:
    """(module, name) of each top-level function or class of the sources ({module: text})
    whose name no other top-level statement of any of them reads, unless (module, name)
    is exempt."""
    statements = [(m, node) for m, text in sorted(sources.items()) for node in ast.parse(text).body]
    reads = [(node, _names_read(node)) for _, node in statements]
    return [
        (m, node.name)
        for m, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (m, node.name) not in exempt
        and not any(node.name in names for other, names in reads if other is not node)
    ]


def tracer_targets() -> set:
    """(module file, top-level name) of every function bench/tracing.py wraps by name."""
    spec = importlib.util.spec_from_file_location("hopfcoh_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = chain(chain.from_iterable(tracing.TIME_LAYERS.values()), chain.from_iterable(tracing.CALL_COUNTS.values()))
    return {(f"{m}.py", qualname.split(".")[0]) for m, qualname in (t.split(":") for t in chain(targets, tracing.ELIMINATIONS))}


def test_the_check_sees_an_unreached_definition():
    sources = {
        "a.py": "def used():\n    pass\n\ndef unused():\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\nclass Traced:\n    pass\n\nclass Method:\n    pass\n",
        "b.py": "from a import used, unused\nimport a\n\nx = a.Method\n",
    }
    assert unreached_definitions(sources) == [("a.py", "unused"), ("a.py", "recursive"), ("a.py", "Traced")]
    assert unreached_definitions(sources, {("a.py", "Traced")}) == [("a.py", "unused"), ("a.py", "recursive")]


def test_every_top_level_definition_is_read():
    sources = {m: (PACKAGE / m).read_text(encoding="utf-8") for m in MODULES}
    assert unreached_definitions(sources, tracer_targets()) == []


def hand_made_caches(source: str) -> list:
    """(line, what) of each keyed cache in source that is not records.Memo's: a cached_property
    returning an empty dict, a call of id(...) and a read of ._memo."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "cached_property"
            for d in node.decorator_list
        ):
            returns = [n.value for n in ast.walk(node) if isinstance(n, ast.Return)]
            if any(isinstance(v, ast.Dict) and not v.keys for v in returns):
                found.append((node.lineno, "cached_property dict"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id":
            found.append((node.lineno, "id("))
        elif isinstance(node, ast.Attribute) and node.attr == "_memo":
            found.append((node.lineno, "._memo"))
    return sorted(found)


def test_the_check_sees_a_hand_made_cache():
    source = (
        "from functools import cached_property\nimport functools\n\nclass A:\n"
        "    @cached_property\n    def tests(self) -> dict:\n        return {}\n\n"
        "    @functools.cached_property\n    def more(self):\n        return {}\n\n"
        "    @cached_property\n    def unit(self):\n        return {0: 1}\n\n"
        "    def span(self, c):\n        return self.tests.setdefault((id(c), 1), c)\n\n"
        "    def read(self, k):\n        return self._memo.get(k), identity(k)\n"
    )
    assert hand_made_caches(source) == [
        (6, "cached_property dict"), (10, "cached_property dict"), (18, "id("), (21, "._memo")
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "records.py"])
def test_every_keyed_cache_is_the_memo(module):
    assert hand_made_caches((PACKAGE / module).read_text(encoding="utf-8")) == []


def fresh_interpreter(code: str) -> str:
    """What a new interpreter that imports the package from src/ prints running code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


COLD_START = "import sys, hopfcoh, hopfcoh.report, hopfcoh.jobfile, hopfcoh.cli\n"


def test_a_cold_start_imports_neither_dataclasses_nor_inspect():
    assert fresh_interpreter(COLD_START + "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") == "[]\n"


def test_a_cold_start_loads_no_openssl():
    assert fresh_interpreter(COLD_START + "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))") == "[]\n"


DIGESTS = """
import json, sys
from hopfcoh import report
from hopfcoh.jobfile import JobSpec
job = JobSpec(algebra="group:Z3", tasks=("axioms", "saturation"))
suite = report.run_suite(["group:Z2", "function:Z2"], tasks=("axioms", "counit"))
print(json.dumps([report.run(job)["input_digest"], suite["suite_digest"], "_hashlib" in sys.modules]))
"""
# hides the builtin SHA-256 modules, so report falls back to hashlib
NO_BUILTIN_SHA256 = "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"


def test_every_digest_path_gives_the_same_bytes():
    builtin = json.loads(fresh_interpreter(DIGESTS))
    fallback = json.loads(fresh_interpreter(NO_BUILTIN_SHA256 + DIGESTS))
    assert builtin[2] is False and fallback[2] is True
    job = JobSpec(algebra="group:Z3", tasks=("axioms", "saturation"))
    suite = run_suite(["group:Z2", "function:Z2"], tasks=("axioms", "counit"))
    expected = [
        hashlib.sha256(render(job).encode()).hexdigest(),
        hashlib.sha256(json.dumps(suite["suite"], sort_keys=True).encode()).hexdigest(),
    ]
    assert builtin[:2] == fallback[:2] == expected == [run(job)["input_digest"], suite["suite_digest"]]
