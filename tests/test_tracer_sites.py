"""The benchmark's tracer wraps roer's functions by name: every site it
names must resolve in src/roer, and every observer's positional reads
must name the parameters it means, so that a rename or a signature change
fails here and not only in a traced benchmark run."""

import importlib.util
import inspect
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


# the leading positional parameters that each observer reads from a call's
# args; the update's observer reads only the result
OBSERVED_PARAMETERS = {
    **{name: ("params", "x") for name in TRACER.MATMUL_OPS},
    "replay.update_priorities": ("self", "indices"),
    "schemes.roer_update": ("td_errors", "current_priorities", "cfg"),
    "schemes.per_priority": ("td_errors", "cfg"),
    "binio.write_envelope": ("path_or_stream", "kind", "payload"),
    "agents.SacAgent.update": (),
}


def test_every_observer_is_listed():
    assert sorted(OBSERVED_PARAMETERS) == sorted(TRACER.OBSERVERS)


@pytest.mark.parametrize("name", sorted(OBSERVED_PARAMETERS))
def test_observer_reads_the_parameters_it_names(name):
    owner, attr = TRACER.resolve(TRACER.OPS[name][0])
    expected = OBSERVED_PARAMETERS[name]
    leading = list(inspect.signature(vars(owner)[attr]).parameters.values())[:len(expected)]
    assert tuple(p.name for p in leading) == expected
    assert all(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in leading)
