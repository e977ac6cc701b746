"""The benchmark's traced run wraps fockbox functions by name; a rename or a
changed signature would break it only at benchmark time, so pin both here."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import fockbox.displace
import fockbox.fockspace

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attr):
    """The same lookup SpanRecorder.install performs, without wrapping."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[leaf]


def test_every_traced_target_resolves():
    spans = load_spans()
    assert len(spans.TARGETS) == 21
    for module_name, attr in spans.TARGETS:
        assert callable(resolve(module_name, attr)), (module_name, attr)


def test_observed_argument_names_exist():
    spans = load_spans()
    params = inspect.signature(resolve("fockbox.fockspace", "displacement_block")).parameters
    assert {"cutoff", "amplitude"} <= set(params)
    writers = [t for t in spans.TARGETS if t[1].startswith("write_") and t[1].endswith("_csv")]
    assert len(writers) == 3
    for module_name, attr in writers:
        assert "path" in inspect.signature(resolve(module_name, attr)).parameters, attr


def test_siblings_call_the_public_block_provider():
    """The traced block counts see a request only through the public name."""
    assert fockbox.displace.displacement_block is fockbox.fockspace.displacement_block
    private = fockbox.fockspace._displacement_block
    for name, module in sys.modules.items():
        if name.startswith("fockbox.") and module is not fockbox.fockspace:
            assert all(value is not private for value in vars(module).values()), name
