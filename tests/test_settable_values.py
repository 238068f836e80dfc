"""The count of settable values in the package (ROADMAP aim 2): every option
should have a caller that sets it, so the count may only fall, and the test
holds it to the recorded count exactly.

Three kinds of value are counted over the eight package modules:

* dataclass fields with ``init=True``;
* parameters with a default, of module functions and of methods (an
  ``lru_cache`` wrapper is unwrapped; a dataclass-generated ``__init__`` is
  skipped, since its fields are counted already);
* command-line flags other than ``-h``, over ``build_parser()``'s
  subcommands.

A change that adds or removes settable values updates ``BOUND`` to the new
count and says in CHANGES.md which values it added or removed, and why.
"""

import argparse
import dataclasses
import inspect

from sonicauth import adversary, channel, cli, evaluation, pcm, protocol, signal, spectrum

MODULES = (signal, spectrum, channel, protocol, adversary, evaluation, pcm, cli)

# 74 dataclass fields + 19 defaulted parameters + 40 flags.
BOUND = 133


def _defined_in(module, obj) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _defaulted(func) -> int:
    func = inspect.unwrap(func)
    params = inspect.signature(func).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def _methods(cls):
    for name, member in vars(cls).items():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if not inspect.isfunction(member):
            continue
        if name == "__init__" and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.init:
            continue
        yield member


def count_fields_and_parameters() -> tuple[int, int]:
    fields = parameters = 0
    for module in MODULES:
        for obj in vars(module).values():
            if not _defined_in(module, obj):
                continue
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    fields += sum(f.init for f in dataclasses.fields(obj))
                parameters += sum(_defaulted(m) for m in _methods(obj))
            elif callable(obj) and inspect.isfunction(inspect.unwrap(obj)):
                parameters += _defaulted(obj)
    return fields, parameters


def count_flags() -> int:
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sum(
        not isinstance(action, argparse._HelpAction)
        for sub in subparsers.choices.values()
        for action in sub._actions
    )


def test_settable_values_within_bound():
    fields, parameters = count_fields_and_parameters()
    flags = count_flags()
    total = fields + parameters + flags
    print(f"\nsettable values: {fields} + {parameters} + {flags} = {total}")
    assert total == BOUND, f"{fields} + {parameters} + {flags} = {total} settable values, recorded {BOUND}"
