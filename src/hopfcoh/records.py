"""Frozen records: the package's one class decorator for immutable value types.

    @record
    class CohomologyResult:
        dim_kernel: int
        dim_image_prev: int

A record's fields are the annotated names of the class and of its bases,
base fields first, and a class attribute of the same name is the field's
default.  `record` gives the class the methods of a frozen dataclass, built
from closures, so that no method source is generated and compiled at import:

- `__init__(*fields, **fields)`, which then calls `self.__post_init__()`
  when the class has one, looked up on the instance at each construction;
- `__setattr__` and `__delattr__` that refuse every change;
- `__eq__` and `__hash__` over the fields, equal only within one class;
- `__repr__` as `Name(field=value, ...)`.

A per-instance cache that is no field (not an `__init__` argument, not
compared, hashed or printed) is a `functools.cached_property`, which writes
to the instance's `__dict__` past the frozen `__setattr__`; every keyed
cache is a `Memo`, which a class inherits.  `replace` copies a record with
some fields changed, an empty memo and its `__post_init__` re-run.
"""
from functools import cached_property
from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


def record(cls):
    """Make cls a frozen record (module docstring): fields, methods and __record_fields__."""
    defaults = {}
    for klass in reversed(cls.__mro__):
        for name in klass.__dict__.get("__annotations__", {}):
            defaults[name] = klass.__dict__.get(name, _MISSING)
    names = tuple(defaults)
    size = len(names)
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        # one pass over the fields past args, each popped from kwargs (the call's own dict) or defaulted
        values = list(args)
        for name in names[len(args) :]:
            if (value := kwargs.pop(name, defaults[name])) is _MISSING:
                break
            values.append(value)
        if kwargs or len(values) != size:
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}; got {args!r}, {kwargs!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            args = bind(args, kwargs)
        # one attribute at a time, in field order: reading self.__dict__ would give the
        # instance a dict of its own, and every later attribute read would be slower
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    fields_of = attrgetter(*names)
    key = fields_of if size > 1 else lambda self: (fields_of(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = names
    return cls


class Memo:
    """The package's one keyed cache, per instance of the class that inherits it.

    once(key, make): make() the first time key is asked for, the same object after that.
    once_for(obj, key, make): once per object, keyed on (id(obj), key); the entry holds obj,
    so its id stays its own (a freed object's id may go to a new one).  holds(obj, key) makes
    nothing: is obj the value once(key, ...) made, or has once_for(obj, key, ...) made an entry?
    """

    @cached_property
    def _memo(self) -> dict:
        return {}

    def once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def once_for(self, obj, key, make):
        return self.once((id(obj), key), lambda: (obj, make()))[1]

    def holds(self, obj, key) -> bool:
        return self._memo.get(key) is obj or (id(obj), key) in self._memo


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed, built (and checked) anew."""
    return obj.__class__(**{**{n: getattr(obj, n) for n in obj.__record_fields__}, **changes})
