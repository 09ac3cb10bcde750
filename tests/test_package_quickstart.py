"""The package docstring's ``Quickstart::`` block calls only what exists:
every name it imports exists, and every call of ``generate_dataset``,
``DASSA`` or a method of the ``DASSA`` it builds binds to that callable's
signature."""

import ast
import importlib
import inspect
import textwrap

import repro
from repro.core.framework import DASSA
from repro.synthetic import generate_dataset


def quickstart_tree() -> ast.Module:
    doc = repro.__doc__
    block = doc[doc.index("Quickstart::") + len("Quickstart::") :]
    return ast.parse(textwrap.dedent(block))


def literal_call_args(call: ast.Call) -> tuple[list, dict]:
    """The call's arguments, each as a placeholder: binding checks names
    and arity, not values."""
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(k.arg is not None for k in call.keywords)
    return [object() for _ in call.args], {k.arg: object() for k in call.keywords}


def test_quickstart_calls_bind_to_their_signatures():
    tree = quickstart_tree()
    instances = {
        node.targets[0].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "DASSA"
    }
    assert instances, "the quickstart builds no DASSA"
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            assert all(hasattr(module, alias.name) for alias in node.names)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "generate_dataset":
            target = generate_dataset
        elif isinstance(func, ast.Name) and func.id == "DASSA":
            target = DASSA
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in instances
        ):
            target = getattr(DASSA, func.attr)
            node = ast.Call(func, [ast.Constant(None), *node.args], node.keywords)
        else:
            continue
        args, kwargs = literal_call_args(node)
        inspect.signature(target).bind(*args, **kwargs)
        bound.append(target.__name__)
    assert "generate_dataset" in bound and "DASSA" in bound
