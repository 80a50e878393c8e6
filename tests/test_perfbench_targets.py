"""The library names perfbench's traced run wraps must exist.

``perfbench.layers.instrument`` registers about sixty ``owner.attr`` targets,
and ``Tracer.active`` looks each one up.  A refactor that renames or drops one
(say ``io.save_tensor_dir``) would otherwise fail only in a ``--trace 1``
benchmark run.
"""

import sys

from bisource import cli, io
from perfbench import layers
from perfbench.tracing import Tracer


def test_every_traced_target_resolves_and_is_restored():
    tracer = Tracer()
    layers.instrument(tracer)
    targets = [(owner, attr) for owner, attr, _ in tracer._targets]
    modules = [m for n, m in sys.modules.items() if m is not None and n.split(".")[0] == "bisource"]
    before = [getattr(owner, attr) for owner, attr in targets]
    bound = {(m, attr): getattr(m, attr) for m in modules for _, attr in targets if hasattr(m, attr)}
    original = io.save_tensor_dir
    with tracer.active():
        assert io.save_tensor_dir is not original
        assert cli.save_tensor_dir is io.save_tensor_dir  # bound by name in cli, wrapped there too
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(targets, before))
    assert all(getattr(m, attr) is fn for (m, attr), fn in bound.items())
