"""The benchmark tracer sees every call of each function it traces.

perfbench/tracer.py replaces a traced function on each module that binds it,
but skips an owner whose binding differs.  A module that keeps the original
under some name would call it unseen, and the per-layer counts would come out
short without an error.  So after install() no laneemden module, and no class
defined in one, may still bind the original of a tracer wrapper, and the
verify check table must reach its check functions through the module.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from laneemden.verify import CHECKS

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))

SCRIPT = r"""
import importlib, inspect, pkgutil, sys
import laneemden
for info in pkgutil.iter_modules(laneemden.__path__):
    importlib.import_module("laneemden." + info.name)
import tracer
tracer.install()
wrapper_code = tracer.Recorder().wrap("", "", len).__code__


def bindings(mod):
    for attr, value in vars(mod).items():
        yield f"{mod.__name__}.{attr}", value
        if inspect.isclass(value) and value.__module__ == mod.__name__:
            for cattr, cvalue in vars(value).items():
                yield f"{mod.__name__}.{attr}.{cattr}", cvalue


mods = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "laneemden"]
bound = [(name, value) for mod in mods for name, value in bindings(mod)]
originals = [v.__wrapped__ for _, v in bound if getattr(v, "__code__", None) is wrapper_code]
assert originals, "tracer.install() wrapped nothing"
for name, value in bound:
    if any(value is fn for fn in originals):
        print(name)
"""


def test_no_module_keeps_an_untraced_original():
    res = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=ENV,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "", "untraced bindings:\n" + res.stdout


def test_tracer_spans_every_check():
    """perfbench's map of traced check functions names exactly the table's checks."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(CHECKS) == set(tracer.CHECK_FUNCTIONS.values())


SUITE = r"""
import collections
import tracer
from laneemden import cli
from laneemden.params import ProblemParams
rec = tracer.install()
# the params-only checks read no profile, so none is solved
cli._ground_state = lambda cfg: (ProblemParams(n=cfg.n, p=cfg.p, alpha=cfg.alpha,
                                                beta=cfg.beta), None)
cli.run_suite(cli.RunConfig(checks=("exponent_taylor", "scaling_table")))
spans = collections.Counter(span[0] for span in rec.spans)
print(spans["verify.scaling_table"], spans["verify.exponent_taylor"],
      rec.counts["constants.calls"])
"""


def test_run_suite_calls_the_traced_checks():
    """A table entry that kept a function object would bypass the tracer's wrapper."""
    res = subprocess.run([sys.executable, "-c", SUITE], cwd=ROOT, env=ENV,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["3", "1", "0"]
