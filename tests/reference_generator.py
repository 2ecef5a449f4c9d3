"""Reference generator parsing: ``parse_generator`` as it was before it
took partials only for the generators a text names.

It takes the partial derivative of the text by each of the seven
generators, named or not, and always checks the span by the exact zero
test of the text minus the rebuilt combination, which expands it. It
keeps nothing between calls. Its errors are the kernel's, so raised
messages compare directly with ``liealg.parse_generator``.
"""

from walkerkit.expr import (
    Coord, ExprError, Param, add, free_atoms, is_zero_symbolic, mul, neg,
    param, parse, partial,
)
from walkerkit.liealg import GENERATOR_NAMES


def parse_generator(text):
    e = parse(text, functions={}, extra_params=set(GENERATOR_NAMES))
    coeffs = []
    for name in GENERATOR_NAMES:
        cf = partial(e, param(name))
        atoms = free_atoms(cf)
        if any(isinstance(a, Param) and a.name in GENERATOR_NAMES
               for a in atoms):
            raise ExprError(f"{text!r} is not linear in the generators")
        if any(isinstance(a, Coord) for a in atoms):
            raise ExprError(f"{text!r} has a coordinate in the coefficient "
                            f"of {name}; coefficients are constants")
        coeffs.append(cf)
    rebuilt = add(*[mul(cf, param(name))
                    for cf, name in zip(coeffs, GENERATOR_NAMES)])
    if not is_zero_symbolic(add(e, neg(rebuilt))):
        raise ExprError(f"{text!r} has terms outside the generator span")
    return tuple(coeffs)
