"""Package-level promises: README's library example runs, and the runtime
imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import supercon

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out == "True 1456 1456\n"  # verify_main(13, 1)


def test_runtime_imports_are_stdlib_only():
    src = Path(supercon.__file__).resolve().parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)
