"""The benchmark's tracer wraps roer's functions by name: every site it
names must resolve in src/roer, so that a rename fails here and not only
in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # read only: no bytecode cache is written under perfbench/
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("name", sorted(TRACER.OPS))
def test_every_site_resolves_to_one_function_in_src(name):
    sites = TRACER.OPS[name]
    resolved = [TRACER.resolve(site) for site in sites]
    owner, attr = resolved[0]
    # the tracer patches the attribute where it is defined
    original = vars(owner).get(attr)
    assert callable(original), f"{sites[0]} does not name a function"
    module = importlib.import_module(sites[0].split(":")[0])
    assert Path(module.__file__).resolve().parent == ROOT / "src" / "roer"
    for site, (owner, attr) in zip(sites, resolved):
        assert vars(owner).get(attr) is original, f"{site} is not {sites[0]}"
