"""Only ``_workspace`` knows the replicate buffer plan.

The stage modules ask one of its accessors for their buffers and hand a workspace on
only by the ``workspace=`` keyword: none of them reads a ``Workspace`` attribute,
indexes what an accessor returns, or tests whether it was given a workspace.
"""
import ast
import pathlib

import pytest

import residualdep

STAGES = ["copulas", "pseudo", "bias", "estimators", "simulate"]
ACCESSORS = {"sampling", "ranking", "second_order", "kernel"}
SOURCE = pathlib.Path(residualdep.__file__).parent


def is_accessor_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
        node.func.id in ACCESSORS


def workspace_misuses(source):
    """Each line where a workspace is used otherwise than as an accessor's first argument
    or a ``workspace=`` keyword, or where an accessor's result is indexed."""
    tree = ast.parse(source)
    parents = {child: parent for parent in ast.walk(tree)
               for child in ast.iter_child_nodes(parent)}
    misuses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "_workspace":
            misuses += [node.lineno for alias in node.names
                        if alias.name not in ACCESSORS | {"Workspace"}]
        elif isinstance(node, ast.Subscript) and is_accessor_call(node.value):
            misuses.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "workspace" and \
                isinstance(node.ctx, ast.Load):
            parent = parents[node]
            if not (isinstance(parent, ast.keyword) and parent.arg == "workspace" or
                    is_accessor_call(parent) and parent.args[:1] == [node]):
                misuses.append(node.lineno)
    return misuses


@pytest.mark.parametrize("module", STAGES)
def test_stage_asks_an_accessor_for_its_buffers(module):
    assert workspace_misuses((SOURCE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("snippet", [
    "out = None if workspace is None else workspace.tied",
    "ranks = workspace.ranks[0]",
    "ordered_out = ranking(workspace, n, 'x')[0]",
    "from ._workspace import floats",
    "buffers = workspace",
])
def test_misuses_are_found(snippet):
    assert set(workspace_misuses(snippet)) == {1}
