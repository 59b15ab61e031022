import importlib.util
import random
from pathlib import Path

from edsm.ap_engine import APSolver
from edsm.eds_core import BitVector

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_wraps_and_restores_every_target():
    # The tracer wraps functions at the names ap_engine holds, so renaming
    # or dropping one of them breaks only the traced benchmark runs.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = [getattr(owner, attr) for owner, attr, _ in spans._TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        rng = random.Random(1)
        p = "".join(rng.choice("ab") for _ in range(64))
        APSolver(p, naive_cutoff=23).solve(BitVector(64, (1 << 64) - 1), [p[10:40]])
    finally:
        tracer.uninstall()
    restored = [getattr(owner, attr) for owner, attr, _ in spans._TARGETS]
    assert restored == originals
    assert tracer.calls["ap_engine.solve"] == 1
    assert tracer.calls["text_indexes.build_suffix_tree"] == 2
    assert tracer.calls["text_indexes.build_anchor_structure"] >= 1
