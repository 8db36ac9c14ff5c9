import inspect

import polaray
from polaray import gauge, rays, symbols, wavepacket

import oracles


def test_oracles_stay_out_of_the_library():
    # an oracle that is also library code no longer checks the library independently
    functions = inspect.getmembers(oracles, inspect.isfunction)
    names = [name for name, f in functions if f.__module__ == "oracles"]
    assert len(names) == 12
    for owner in (polaray, rays, gauge, wavepacket, symbols, symbols.MatrixSymbol):
        assert not [n for n in names if hasattr(owner, n)], owner
