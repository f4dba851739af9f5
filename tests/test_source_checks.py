"""Checks on the package source itself."""

import ast
from pathlib import Path

import wulffkit


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a production check
    # written as one silently disappears; raise AssertionError instead
    found = []
    for path in sorted(Path(wulffkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


# the names of `oracles` the package may read: its sphere sampling, which
# the sampled route, the dilation-identity check and the suites use
_SAMPLING = {"sphere_grid", "grid_cells", "GridCells", "uniform_sphere_points", "COVERING_COEFF"}


def test_oracles_stay_off_the_production_path():
    # no package module but `oracles.py` itself reads a test oracle, as
    # `oracles.<name>` or through `from .oracles import <name>`
    found = []
    for path in sorted(Path(wulffkit.__file__).parent.glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "oracles"
            ):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oracles"):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n not in _SAMPLING]
    assert found == []


def _callers(name):
    # "module.function" of every top-level package function (or class)
    # whose body calls `name`, plainly or as an attribute
    found = set()
    for path in sorted(Path(wulffkit.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_certificate_call_sites():
    # the solver-backed certificates are called from these places only,
    # so swapping the primitive touches no other code
    assert _callers("pointed_witness") == {"cones._pointed_extreme"}
    assert _callers("linprog") <= {"cones.pointed_witness", "metric.separate"}


def test_nonnegative_fit_call_sites():
    # the least-distance program is the deep witness's last resort, and
    # the nonnegative fit serves only it and the nearest point of a cone:
    # construction makes no fit
    assert _callers("least_distance") == {"metric._deep_witness"}
    assert _callers("nonneg_lstsq") == {"cones.least_distance", "cones.project_onto_cone"}


def test_one_dual_conversion_per_body():
    # a body's normals come from one conversion at construction, and its
    # generators from a second one only for raw rows without a pointed
    # witness, which `extreme_rays` reads off their dual; nothing in
    # `transforms` converts, since the polar swaps the stored arrays
    assert _callers("dual_cone_rays") == {"body.from_generators", "cones.extreme_rays"}


def test_oracles_read_no_private_cone_name():
    # the oracles judge the cone layer, so they may not lean on its
    # internals: `oracles.py` reads only public `cones` names, as
    # `cones.<name>` or through `from .cones import <name>`
    path = Path(wulffkit.__file__).parent / "oracles.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cones":
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("cones"):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {n}" for n in names if n.startswith("_")]
    assert found == []


def test_body_predicates_call_no_solver():
    # bodies and transforms read the stored generators and normals; the
    # solvers stay in the cone layer, the metric and the oracles
    solvers = ("linprog", "least_distance", "pointed_witness", "nonneg_lstsq")
    found = {
        caller
        for name in solvers
        for caller in _callers(name)
        if caller.split(".")[0] in ("body", "transforms")
    }
    assert found == set()


def _unused_imports(path):
    # names an import binds that the module never reads
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read
    ]


def test_no_unused_imports():
    package = Path(wulffkit.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = [entry for path in paths for entry in _unused_imports(path)]
    assert found == []


def _names_read(path):
    # names a module loads, attributes and keyword arguments it reads and
    # its __all__ entries
    tree = ast.parse(path.read_text(), filename=str(path))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            read.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return read


def _module_definitions(path):
    # (line, name) of the module-level functions, classes and assigned names
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id
        if isinstance(node, ast.ClassDef):
            yield from _class_members(node)


def _class_members(cls):
    # (line, name) of the methods and properties a class body defines and
    # of the attributes its methods assign through `self.<name> =`
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.lineno, node.name
    for node in ast.walk(cls):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield node.lineno, target.attr


def test_every_package_definition_is_used():
    # a module-level function, class or constant, or a class's method,
    # property or self-assigned attribute, that neither the package nor the
    # tests read is dead code; dunder names are read by Python
    package = Path(wulffkit.__file__).parent
    modules = sorted(package.glob("*.py"))
    read = set()
    for path in modules + sorted(Path(__file__).parent.glob("*.py")):
        read |= _names_read(path)
    unused = [
        f"{path.name}:{line} {name}"
        for path in modules
        for line, name in _module_definitions(path)
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
