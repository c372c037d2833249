"""No enum member loads on the interpreter's per-event paths.

Inside a function, ``MessageClass.REQUEST`` is a global load plus a class
attribute lookup that goes through ``EnumType`` (over 100 ns on CPython
3.11, against about 10 ns for a module global), and cProfile books that
cost to the caller's own time without showing a frame.  So the miss path
reads every enum member it needs from a module constant bound at import
(``_REQUEST = MessageClass.REQUEST``), and nothing but this test keeps
such loads from coming back.

The test walks the bytecode of every function (nested code objects
included) defined in the modules below and fails, naming the function and
the member, on a load of an ``Enum`` member through the class's global
name.  Constructors run once per object and are exempt, as are the few
inspection helpers in ``EXEMPT``.
"""

from __future__ import annotations

import dis
import enum
import importlib
import inspect
import types
from typing import Iterator, List, Tuple

import pytest

from repro.noc.traffic import MessageClass

#: Every module on the interpreter's per-access, per-miss or per-message path.
MODULES = (
    "repro.cache.l1",
    "repro.cache.llc",
    "repro.coherence.l1_controller",
    "repro.coherence.llc_controller",
    "repro.core.adaptive",
    "repro.core.discovery",
    "repro.core.stash_directory",
    "repro.core.stash_policy",
    "repro.directory.cuckoo",
    "repro.directory.hierarchical",
    "repro.directory.sparse",
)

CONSTRUCTORS = ("__init__", "__new__", "__post_init__")

#: Inspection helpers: called by checkers and tables, never per event.
EXEMPT = frozenset({
    "repro.cache.l1:L1Cache.state_of",
})

#: Opcodes that can sit between a global load and its attribute load.
_TRANSPARENT = frozenset({"EXTENDED_ARG", "CACHE", "NOP"})


def _functions(module) -> Iterator[Tuple[str, types.FunctionType]]:
    """``(qualname, function)`` for every function the module defines."""
    def members(namespace):
        for obj in vars(namespace).values():
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            if isinstance(obj, property):
                yield from (f for f in (obj.fget, obj.fset, obj.fdel) if f)
            elif inspect.isfunction(obj) or inspect.isclass(obj):
                yield obj

    stack = list(members(module))
    while stack:
        obj = stack.pop()
        if obj.__module__ != module.__name__:
            continue  # imported names are checked in their own module
        if inspect.isclass(obj):
            stack.extend(members(obj))
        else:
            yield obj.__qualname__, obj


def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_member_loads(function: types.FunctionType) -> List[str]:
    """``Class.MEMBER`` for each enum member loaded through a global name.

    Follows ``LOAD_GLOBAL`` + ``LOAD_ATTR`` chains, so a load through a
    module alias (``traffic.MessageClass.REQUEST``) counts too.
    """
    found = []
    namespace = function.__globals__
    builtins = namespace.get("__builtins__", {})
    if isinstance(builtins, types.ModuleType):
        builtins = vars(builtins)
    for code in _code_objects(function.__code__):
        target = None
        for ins in dis.get_instructions(code):
            if ins.opname in _TRANSPARENT:
                continue
            if ins.opname == "LOAD_GLOBAL":
                target = namespace.get(ins.argval, builtins.get(ins.argval))
                continue
            if ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and target is not None:
                if (
                    isinstance(target, type)
                    and issubclass(target, enum.Enum)
                    and ins.argval in target.__members__
                ):
                    found.append(f"{target.__name__}.{ins.argval}")
                    target = None
                else:
                    target = getattr(target, ins.argval, None)
                continue
            target = None
    return found


def _load_member():  # the pattern the guard exists to catch
    return MessageClass.REQUEST


def _load_constant():
    return _REQUEST


_REQUEST = MessageClass.REQUEST


def test_detector_sees_a_member_load():
    # On every supported CPython the bytecode differs; the detector must
    # still see the plain pattern, or the module scan below proves nothing.
    assert enum_member_loads(_load_member) == ["MessageClass.REQUEST"]
    assert enum_member_loads(_load_constant) == []


def test_exempt_helpers_exist():
    names = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        names.update(f"{module_name}:{qualname}" for qualname, _ in _functions(module))
    assert EXEMPT <= names, sorted(EXEMPT - names)


@pytest.mark.parametrize("module_name", MODULES)
def test_no_enum_member_loads(module_name):
    module = importlib.import_module(module_name)
    offenders = []
    for qualname, function in _functions(module):
        if qualname.rpartition(".")[2] in CONSTRUCTORS:
            continue
        if f"{module_name}:{qualname}" in EXEMPT:
            continue
        offenders.extend(
            f"{qualname}: {member}" for member in enum_member_loads(function)
        )
    assert not offenders, (
        f"{module_name} loads enum members inside functions; bind each to a "
        f"module constant instead: {sorted(offenders)}"
    )
