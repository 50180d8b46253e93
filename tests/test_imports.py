import ast
import pathlib

import carnot

PACKAGE = pathlib.Path(carnot.__file__).parent


def test_no_private_cross_module_imports():
    # each module keeps its underscored names to itself; other modules go
    # through the public API
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and \
                    (node.level > 0 or (node.module or "").startswith("carnot")):
                found.extend("%s:%d %s" % (path.name, node.lineno, a.name)
                             for a in node.names if a.name.startswith("_"))
    assert not found, found
