"""Route independence and reachability, read statically from the source.

The routes that compute one quantity check each other only if they share no
route logic: an agreement between routes that call the same helper proves
less than it claims.  They may share the kernel (``algebra``) and the
partition primitives below.  And every module-level name in the package is
reached from the public surface or the CLI, so no dead code stays behind.

The scan is static.  A class counts as one node with all of its methods,
which covers the one dynamic dispatch in the package: ``FockEngine._operator``
looks its operators up with ``getattr``, so those methods count with the
engine.
"""

from __future__ import annotations

import ast
from itertools import combinations
from pathlib import Path

import onckesten

SRC = Path(onckesten.__file__).parent

R_N = ("moments.r_by_enumeration", "moments.sequences_by_recursion", "moments.r_by_closed_form",
       "moments.r_by_jacobi", "moments.r_by_delaney")
# quantity -> the routes that compute it independently
ROUTE_GROUPS = {
    "r_n": R_N,
    "compound": ("moments.poisson_moment", "fock.poisson_moment_by_operators"),
    "mixed": ("moments.mixed_moment_brownian", "fock.position_moment"),
    # the CLT leading term is r_(n/2), summed over letterings: it shares nothing with the r_n routes
    "clt": ("discrete.clt_leading_term",) + R_N,
}
# the partition primitives; the kernel, size guard included, is the algebra module
SHARED = {"partitions.SetPartition", "partitions.IntervalSignature", "partitions.enumerate_nc",
          "partitions._nc_pairings"}
# defined but reached by nothing in the package, with the reason it stays
UNREACHED = {"partitions._set_partitions": "perfbench binds it through moments to count set partitions"}


def _graph() -> dict:
    """(module.name) -> the package's module-level names its definition refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.stem != "__init__"}
    defs, aliases = {}, {}  # module -> {name: nodes}; module -> {local name: qualified name or module}
    for mod, tree in trees.items():
        defs[mod], aliases[mod] = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defs[mod].setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defs[mod].setdefault(target.id, []).append(node)
        for node in ast.walk(tree):  # imports inside functions too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    aliases[mod][local] = f"{node.module}.{alias.name}" if node.module else alias.name

    def resolve(mod: str, name: str):
        while name not in defs[mod]:
            target = aliases[mod].get(name)
            if target is None or "." not in target:
                return None
            mod, name = target.split(".")
        return f"{mod}.{name}"

    graph = {}
    for mod, names in defs.items():
        for name, nodes in names.items():
            refs = set()
            for node in (n for top in nodes for n in ast.walk(top)):
                if isinstance(node, ast.Name):
                    refs.add(resolve(mod, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    target = aliases[mod].get(node.value.id)
                    if target in defs:  # module.attr through an imported module
                        refs.add(resolve(target, node.attr))
            refs.discard(None)
            refs.discard(f"{mod}.{name}")
            graph[f"{mod}.{name}"] = refs
    return graph


GRAPH = _graph()


def _closure(roots, stop=frozenset()) -> set:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen or name in stop:
            continue
        seen.add(name)
        todo.extend(GRAPH[name])
    return seen


def test_routes_share_only_the_kernel_and_the_partition_primitives():
    kernel = {name for name in GRAPH if name.startswith("algebra.")} | SHARED
    for group, routes in ROUTE_GROUPS.items():
        reach = {route: _closure([route], stop=kernel) for route in routes}
        for a, b in combinations(routes, 2):
            assert not reach[a] & reach[b], (group, a, b, sorted(reach[a] & reach[b]))


def test_every_module_level_name_is_reached_from_the_public_surface_or_the_cli():
    roots = [f"{mod}.{name}" for name, mod in onckesten._HOME.items()] + ["cli.main"]
    reached = _closure(roots)
    assert sorted(set(GRAPH) - reached) == sorted(UNREACHED)
