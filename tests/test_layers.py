"""The package's modules import in one direction: each only from earlier ones."""

import ast
import pathlib

import transmute

# errors at the bottom, cli at the top; __init__ imports them all and is exempt
LAYERS = ("errors", "specfun", "expr", "operators", "kernels", "quadrature", "conditions", "goursat", "cli")
PACKAGE = pathlib.Path(transmute.__file__).parent


def _relative_imports(path):
    """(line, module) of each relative import in ``path``; a name that is no
    module of the package (``from . import __version__``) is read from __init__."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from ((node.lineno, name if name in LAYERS else "__init__") for name in names)


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted((*LAYERS, "__init__"))


def test_modules_import_only_earlier_layers():
    wrong = [
        f"{name}.py:{line} imports {target}"
        for name in LAYERS
        for line, target in _relative_imports(PACKAGE / f"{name}.py")
        if target != "__init__" and LAYERS.index(target) >= LAYERS.index(name)
    ]
    assert not wrong, wrong
