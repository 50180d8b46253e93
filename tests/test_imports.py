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


# parameters kept unread on purpose, with the reason
UNREAD_ALLOWED = {
    # passed positionally by the benchmark workloads; the sampler carries
    # the base point
    ("pdiff.py", "tangent_cone_samples", "xbar"),
    # passed by keyword by the benchmark workloads; no classifier tier
    # searches at random any more, so neither budget nor seed has a use
    ("subgroups.py", "classify_monomorphism", "budget"),
    ("subgroups.py", "classify_monomorphism", "seed"),
    ("subgroups.py", "find_complement", "budget"),
    ("subgroups.py", "find_complement", "seed"),
}


def test_every_parameter_is_read():
    # a parameter that the body never reads is an option that does nothing
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            found.extend((path.name, node.name, p) for p in params
                         if p not in read and p not in ("self", "cls")
                         and (path.name, node.name, p) not in UNREAD_ALLOWED)
    assert not found, found


def test_every_assignment_is_read():
    # a plain `name = expr` whose name the function never reads is dead
    # work; tuple targets and loop targets are exempt
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = [n for stmt in node.body for n in ast.walk(stmt)]
            read = {n.id for n in nodes
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend("%s:%d %s.%s" % (path.name, n.lineno, node.name, t.id)
                         for n in nodes if isinstance(n, ast.Assign)
                         for t in n.targets
                         if isinstance(t, ast.Name) and t.id not in read)
    assert not found, found


# the independent product routes of carnot.bch, and what they must not run
ORACLE_ROUTES = ("series_oracle_product", "exp_differential_oracle", "_dynkin_evaluate")
LAW_NAMES = {"_law", "_bch_terms", "_exact_terms", "_exact_kernels", "_float_kernels"}


def test_oracles_do_not_read_the_compiled_law():
    # the series oracles check the compiled BCH law only while nothing they
    # run, directly or through other functions of the module, reads the
    # law's table or its recursion
    tree = ast.parse((PACKAGE / "bch.py").read_text())
    defs = {n.name: n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    found = []
    for root in ORACLE_ROUTES:
        seen, todo = set(), [root]
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            refs = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
            refs |= {n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)}
            found.extend((root, name, r) for r in sorted(refs & LAW_NAMES))
            todo.extend(refs & defs.keys())
        assert {"_dynkin_evaluate", "bch_word_polynomial"} & seen, root
    assert not found, found


def _unread_imports(source, filename):
    """The names that `source` imports, at any depth, and never reads."""
    tree = ast.parse(source, filename)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return ["%s:%d %s" % (filename, line, name)
            for name, line in sorted(bound.items()) if name not in read]


def test_every_import_is_read():
    # an imported name that its module never reads is dead coupling; the
    # package __init__ imports to re-export, so it is exempt
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found.extend(_unread_imports(path.read_text(), path.name))
    assert not found, found


def test_unread_import_check_sees_each_form():
    src = ("import numpy as np\nimport os.path\nfrom . import linalg\n"
           "from .algebra import Polynomial as P, bracket\n"
           "def f():\n    from .bch import group_product\n    return bracket\n")
    assert [e.split()[1] for e in _unread_imports(src, "m.py")] == \
        ["P", "group_product", "linalg", "np", "os"]


def test_library_runs_without_sympy():
    # sympy is a test-only reference: importing every module and reaching
    # the unit-ideal tier leaves it unimported
    import os
    import subprocess
    import sys
    script = (
        "import sys\n"
        "import carnot, carnot.cli, carnot.curves, carnot.pdiff\n"
        "from carnot import catalog, subgroups\n"
        "h1 = catalog.get('h1')\n"
        "g = catalog.direct_product(h1, h1)\n"
        "sub = subgroups.span_subalgebra(g, *[[int(k == i) for k in range(6)]\n"
        "                                    for i in (3, 4, 2, 5)])\n"
        "assert subgroups.find_complement(sub).witness.reason == 'unit_ideal'\n"
        "assert 'sympy' not in sys.modules\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert run.returncode == 0, run.stderr


def test_package_has_no_assert():
    # python -O compiles assert statements out; every input check and
    # self-check of the package raises explicitly instead
    found = ["%s:%d" % (path.name, n.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Assert)]
    assert not found, found


# the functions of subgroups.py that build Fractions, where values leave the
# integer rows: the basis of a subalgebra, the witness of a span that is not
# homogeneous and the rational parameter scan of h21_complement.  The
# induced structure tables and the quotient projection are integer forms.
FRACTION_BUILDERS = {"layered_bases", "layered_decomposition", "h21_complement"}


def _fraction_builders(source):
    """The innermost functions of `source` that read the name Q or Fraction."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id in ("Q", "Fraction") \
                    and isinstance(child.ctx, ast.Load) and function:
                found.add(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


# the functions of bch.py that build Fractions: the one-time tables (the
# Bernoulli numbers, the recursion on polynomial coordinates, the free tensor
# algebra and the multilinear decomposition), the exact scalars of
# cn_remainder, and the matrices of d exp.  The law and the series oracle
# run on integer forms and are not here.
BCH_FRACTION_BUILDERS = {"bernoulli", "_k_coefficient", "_bch_terms", "letter", "add",
                         "mul", "commutator", "_exp_series", "_log_series",
                         "dexp_word_polynomial", "_decompose_cn_universal",
                         "cn_remainder", "exp_differential", "exp_differential_oracle"}
# the functions of algebra.py that build Fractions: the coefficients of a
# Polynomial (its __init__), the views struct of a table and coords of an
# exact vector, the coordinate operations on Fraction tuples, and the exact
# scalar of __rmul__ and dilate.  Tables and vectors are read into integer
# forms by linalg.int_form; validation, vector arithmetic and the bracket
# norm bound run on them.
ALGEBRA_FRACTION_BUILDERS = {"__init__", "zero_coords", "bracket_coords", "struct",
                             "coords", "__rmul__", "dilate"}
# the functions of morphism.py that build Fractions: the public matrix view
# of the integer form, and the image coordinates of an exact map whose
# denominator is not 1.  Input is read by linalg.int_form; the flags, ranks,
# kernels, images, compositions and the determinant run on the integer form.
MORPHISM_FRACTION_BUILDERS = {"matrix", "apply_coords"}


def test_fraction_builders_of_the_law_and_the_vectors():
    # a new Fraction site in the law, the oracle or the vector arithmetic
    # is a conversion that these lists have to name
    assert _fraction_builders((PACKAGE / "bch.py").read_text()) == BCH_FRACTION_BUILDERS
    assert _fraction_builders((PACKAGE / "algebra.py").read_text()) == \
        ALGEBRA_FRACTION_BUILDERS
    assert _fraction_builders((PACKAGE / "morphism.py").read_text()) == \
        MORPHISM_FRACTION_BUILDERS


def _struct_readers(source):
    """The functions of `source` that read an attribute named struct."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "struct":
                found.add(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_struct_is_read_only_by_the_group_file():
    # every table is kept as its integer form; the Fraction view `struct`,
    # which its own property keeps in the algebra's memo, is read by the
    # group-file writer alone
    found = {(path.name, f) for path in sorted(PACKAGE.glob("*.py"))
             for f in _struct_readers(path.read_text())}
    assert found == {("io.py", "group_to_dict")}, found
    assert _struct_readers("def f(a):\n    return a.struct_num, a.struct\n"
                           "def g(a):\n    return a.structure\n") == {"f"}


def test_fraction_builders_of_subgroups():
    # the classifiers compute on integer rows; a new Fraction site is a
    # conversion that this list has to name
    assert _fraction_builders((PACKAGE / "subgroups.py").read_text()) == FRACTION_BUILDERS
    assert _fraction_builders("Q = Fraction\ndef f(v):\n    return list(map(Q, v))\n"
                              "def g():\n    def h():\n        return Fraction(1, 2)\n"
                              "    return 0\n") == {"f", "h"}


def _private_fields():
    """The underscored attributes that GradedAlgebra._init sets on self, by
    assignment or by `_set(self, name, value)`."""
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    init = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_init")
    return {t.attr for n in ast.walk(init) if isinstance(n, ast.Assign) for t in n.targets
            if isinstance(t, ast.Attribute) and t.attr.startswith("_")} | {
        n.args[1].value for n in ast.walk(init) if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name) and n.func.id == "_set"
        and n.args[1].value.startswith("_")}


def test_only_the_algebra_module_touches_an_algebras_private_fields():
    # the memo dict and the eager basis are read and written in algebra.py
    # alone: other modules keep their tables through per_algebra (and build
    # algebras through the `_induced` constructor, which is no field)
    private = _private_fields()
    assert private == {"_basis", "_memo"}, private
    found = ["%s:%d %s" % (path.name, n.lineno, n.attr) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "algebra.py" for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Attribute) and n.attr in private]
    assert not found, found


def _metadata_reads_of_builders(source):
    """(builder, function, attribute) for each read of .tags or .basis_names
    by a function that per_algebra decorates in `source`, or by a function
    or class of `source` that it runs, directly or through others."""
    defs = {n.name: n for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    roots = [name for name, n in defs.items() if isinstance(n, ast.FunctionDef)
             and any(isinstance(d, ast.Name) and d.id == "per_algebra" for d in n.decorator_list)]
    found = []
    for root in roots:
        seen, todo = set(), [root]
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            attrs = {n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)}
            found.extend((root, name, a) for a in sorted(attrs & {"tags", "basis_names"}))
            refs = attrs | {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
            todo.extend(refs & defs.keys())
    return roots, found


def test_memoised_builders_read_no_tags_or_basis_names():
    # a memoised table depends on the structure constants alone, so that
    # equal tables give equal results whatever their tags and names
    roots, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        r, f = _metadata_reads_of_builders(path.read_text())
        roots.update(r)
        found.extend((path.name,) + x for x in f)
    assert roots == {"struct", "_key", "float_ops", "is_stratified", "_law", "_exact_kernels",
                     "_float_kernels", "_forms", "_heisenberg_n", "_is_h12", "_isotropic_bound",
                     "_supports"}, roots
    assert not found, found
    assert _metadata_reads_of_builders(
        "@per_algebra\ndef f(a):\n    return g(a)\ndef g(a):\n    return a.tags\n"
        "def h(a):\n    return a.basis_names\n") == (["f"], [("f", "g", "tags")])
