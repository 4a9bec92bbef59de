"""Ownership rules of the package: an underscore name stays inside its module,
the solver and norm modules stay on the rfft2 half-plane, and so do the run
driver and the command line; rfft2/irfft2 are the only whole-plane transform
pair, and only spectral decides whether a full plane is a real field's spectrum."""

import ast
from pathlib import Path

import fraclab

PACKAGE = Path(fraclab.__file__).parent
# the full-plane conversions, which only the SpectralField boundary needs
FULL_PLANE_NAMES = {"forward_transform", "inverse_transform", "full_plane"}
HALF_PLANE_MODULES = ("sqg", "keller_segel", "littlewood_paley")


def package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each `from <fraclab module> import name` in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("fraclab")):
            found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [f"{path.name}:{line} imports {name}" for path in modules for line, name in package_imports(path)
            if name.startswith("_") and not name.endswith("__")] == []


def imports_of(modules, names) -> list[str]:
    """Each import of one of names by one of the package modules."""
    paths = [PACKAGE / f"{module}.py" for module in modules]
    assert all(package_imports(path) for path in paths)
    return [f"{path.name}:{line} imports {name}" for path in paths for line, name in package_imports(path)
            if name in names]


def test_solver_and_norm_modules_import_no_full_plane_conversion():
    assert imports_of(HALF_PLANE_MODULES, FULL_PLANE_NAMES) == []


def test_the_run_driver_and_command_line_import_no_full_plane_transform():
    # NumericalAbort.last_good is a half-plane too, so evolution needs no full_plane either
    assert imports_of(("evolution", "cli"), FULL_PLANE_NAMES) == []


def names_used(path: Path) -> set[str]:
    """Every attribute, bare name and imported name in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_no_module_names_a_complex_whole_plane_transform():
    assert [path.name for path in sorted(PACKAGE.glob("*.py")) if names_used(path) & {"fft2", "ifft2"}] == []


def test_only_spectral_decides_hermitian_symmetry():
    assert [path.name for path in sorted(PACKAGE.glob("*.py")) if "check_hermitian" in names_used(path)] == [
        "spectral.py"
    ]


# imported for perfbench's tracer only, which wraps fraclab.cli.spectral_besov_norm
KEPT_FOR_THE_TRACER = {"cli.spectral_besov_norm"}


def unused_imports(path: Path) -> list[str]:
    """Each name one source file imports (``__future__`` features aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.{name}" for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    found = [name for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(path)]
    assert [name for name in found if name not in KEPT_FOR_THE_TRACER] == []
