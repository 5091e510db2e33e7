"""Where the package factorizes a matrix: every inverse takes the condition
test of ``hermitian_algebra._checked_inverse``, and the few sites exempt from
it are pinned here, read from the source with ``ast``."""

import ast
from pathlib import Path

import hermiton

#: numpy.linalg names the package may use anywhere: no factorization
UNRESTRICTED = {"norm", "LinAlgError"}
#: every (numpy.linalg name, module.function) site of a factorization
SITES = {
    ("inv", "hermitian_algebra._checked_inverse"),   # the condition test itself
    ("inv", "integrate._stage_inverse"),             # the midpoint Newton matrix
    ("solve", "hermitian_algebra.matrix_exp"),       # the scaled Pade denominator
    ("solve", "cli._exact_solution"),                # gamma0, tested at load
    ("cholesky", "canonical.darboux_reduce"),        # the chart's positivity test
}


def linalg_sites() -> set:
    """(name, module.function) of every ``<expr>.linalg.<name>`` in the
    package, with the innermost enclosing function; an import that names
    linalg is ("<import>", its site), so an alias cannot hide a call."""
    found = set()
    for path in sorted(Path(hermiton.__file__).parent.glob("*.py")):
        module = path.stem

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{module}.{node.name}"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "linalg":
                found.add((node.attr, where))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "linalg" in name for name in
                    [getattr(node, "module", None) or "", *(a.name for a in node.names)]):
                found.add(("<import>", where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(), str(path)), f"{module}.<module>")
    return found


def test_factorizations_only_at_their_pinned_sites():
    sites = {(name, where) for name, where in linalg_sites() if name not in UNRESTRICTED}
    assert sites == SITES


def test_no_spectral_or_least_squares_routines():
    names = {name for name, _ in linalg_sites()}
    refused = {"svd", "pinv", "lstsq", "det", "slogdet"} | {n for n in names if n.startswith("eig")}
    assert not names & refused
