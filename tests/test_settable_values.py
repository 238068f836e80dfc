"""The count of settable values in the package (ROADMAP aim 2): every option
should have a caller that sets it, so the count may only fall, and the test
holds it to the recorded count exactly.

Three kinds of value are counted over the package's modules:

* dataclass fields with ``init=True``;
* parameters with a default, of module functions and of methods (an
  ``lru_cache`` wrapper is unwrapped; a dataclass-generated ``__init__`` is
  skipped, since its fields are counted already);
* command-line flags other than ``-h``, over ``build_parser()``'s
  subcommands.

A change that adds or removes settable values updates ``BOUND`` to the new
count and says in CHANGES.md which values it added or removed, and why.

``OPTIONAL`` counts the subset a caller can leave out: dataclass fields with a
default or a default factory, the defaulted parameters, and the flags that
are not required. Making a value required lowers it, not ``BOUND``.
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import sonicauth
from sonicauth import cli

# Every module of the package, found as ``test_caches`` finds the caches, so a
# module added or deleted cannot drop out of the count unnoticed.
MODULES = tuple(importlib.import_module(f"sonicauth.{info.name}") for info in pkgutil.iter_modules(sonicauth.__path__))

# 49 dataclass fields + 14 defaulted parameters + 33 flags. The last removal
# took 2 values, ``AuthDecision.estimated_distance_m`` and ``.raw_distance_m``:
# a decision holds the verdict alone, and the session's transcript is the one
# record of both distances. The one before took 15: the 13
# ``SessionTranscript`` fields a session writes (now ``init=False``),
# ``fit_sigma(detect_range_m=)`` and ``fit-sigma --ds``.
BOUND = 96
# 13 defaulted dataclass fields + 14 defaulted parameters + 30 flags not
# required (--sigma, --frr and --kind are). Both ``AuthDecision`` fields
# above had a default. The removal before also took the defaults of
# ``SessionTranscript.sample_rates``, ``.threshold_m`` and
# ``ExperimentReport.meta``: every caller sets them.
OPTIONAL = 57


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


def _has_default(f: dataclasses.Field) -> bool:
    return f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING


def count_fields_and_parameters(optional: bool = False) -> tuple[int, int]:
    """Init fields (only those with a default when ``optional``) and
    defaulted parameters."""
    fields = parameters = 0
    for module in MODULES:
        for obj in vars(module).values():
            if not _defined_in(module, obj):
                continue
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    fields += sum(f.init and (_has_default(f) or not optional) for f in dataclasses.fields(obj))
                parameters += sum(_defaulted(m) for m in _methods(obj))
            elif callable(obj) and inspect.isfunction(inspect.unwrap(obj)):
                parameters += _defaulted(obj)
    return fields, parameters


def count_flags(optional: bool = False) -> int:
    """Flags other than ``-h`` (only those not required when ``optional``)."""
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sum(
        not isinstance(action, argparse._HelpAction) and not (optional and action.required)
        for sub in subparsers.choices.values()
        for action in sub._actions
    )


def test_settable_values_within_bound():
    fields, parameters = count_fields_and_parameters()
    flags = count_flags()
    total = fields + parameters + flags
    print(f"\nsettable values: {fields} + {parameters} + {flags} = {total}")
    assert total == BOUND, f"{fields} + {parameters} + {flags} = {total} settable values, recorded {BOUND}"


def test_optional_values():
    fields, parameters = count_fields_and_parameters(optional=True)
    flags = count_flags(optional=True)
    total = fields + parameters + flags
    print(f"\nvalues a caller can leave out: {fields} + {parameters} + {flags} = {total}")
    assert total == OPTIONAL, f"{fields} + {parameters} + {flags} = {total} optional values, recorded {OPTIONAL}"
