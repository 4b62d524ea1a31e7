"""Frozen records: the immutable value classes of toridyn.

`Record` gives a class with annotated fields a constructor, equality,
hashing, a repr and immutability.  It generates and compiles no code when
a class is defined, so defining the library's records costs next to
nothing at import.
"""

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """Base of an immutable record.

    The fields are the names annotated in the class body, in order; a class
    attribute of the same name is the field's default.  Instances take
    fields by position or keyword and call `__post_init__` when the class
    defines one.  Two records are equal when they are of the same class and
    their compared fields are equal, and the hash is that of the compared
    fields.  These are all fields, or the names given by the class keyword
    `compare`; only they appear in the repr.  Assignment raises
    AttributeError; `functools.cached_property` still works, as it writes
    the instance dictionary directly."""

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        cls._compared = fields if compare is None else tuple(compare)
        cls._key = attrgetter(*cls._compared)
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ keeps the values inline, where reads are
        # faster than from a materialised instance dictionary
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        if self._post_init is not None:
            self._post_init()

    @classmethod
    def _bind(cls, args, kwargs):
        """All field values in order, from positional and keyword arguments
        and the defaults."""
        name, rest = cls.__name__, cls._fields[len(args):]
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} fields, "
                            f"{len(args)} given")
        unknown = kwargs.keys() - rest
        if unknown:
            raise TypeError(f"{name}() got unknown or repeated fields {sorted(unknown)}")
        missing = [f for f in rest if f not in kwargs and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing fields {missing}")
        return args + tuple(kwargs[f] if f in kwargs else cls._defaults[f] for f in rest)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
