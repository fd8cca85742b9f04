"""Frozen value classes without code generation.

record(cls) gives a class the parts of the standard library's frozen
data classes that this package uses.  They are closures over the
annotated field names rather than generated source run through exec,
so importing the package loads neither the data class module nor
inspect, which that module imports.  The fields are the names in the
class body's __annotations__, in order; a class attribute of the same
name is that field's default.  The class gains:

  __init__      by position or keyword, then self.__post_init__() when
                the class has one;
  __eq__        the field tuples of two instances of the same class,
                NotImplemented for any other operand;
  __hash__      the hash of the field tuple;
  __repr__      QualName(field=value!r, ...);
  __setattr__   and __delattr__, raising AttributeError.

Instances keep a __dict__, which cached_property writes into.  A
method written in the class body wins over the generated one, so a hot
class can write its fields straight into self.__dict__ in its own
__init__.
"""

from operator import attrgetter


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(cls):
    body = cls.__dict__
    names = tuple(body.get("__annotations__", {}))
    defaults = {n: body[n] for n in names if n in body}
    if len(names) == 1:
        get = attrgetter(names[0])
        values = lambda obj: (get(obj),)
    else:
        values = attrgetter(*names) if names else lambda obj: ()
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given")
        d = self.__dict__
        d.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if name in d:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            d[name] = value
        for name in names[len(args):]:
            if name not in d:
                if name not in defaults:
                    raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
                d[name] = defaults[name]
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    # Python sets __hash__ to None in a body that defines only __eq__.
    written = {n for n, v in body.items() if not (n == "__hash__" and v is None)}
    methods = {
        "__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
        "__repr__": __repr__, "__setattr__": _frozen, "__delattr__": _frozen,
    }
    for name, method in methods.items():
        if name not in written:
            setattr(cls, name, method)
    return cls
