"""bench/bench.py measures sample_ensemble + solve over the public API and
assembles the BENCH file's keys."""

import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_measure_tiny_case_and_document_keys(monkeypatch):
    # loaded from its file: the directory bench/ would import as a namespace
    # package.  Its dataclass looks its module up in sys.modules
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "bench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    cases = {"tiny": bench.Case("example1", 2, 4, 200, 2)}
    start = time.perf_counter()
    result = bench.measure(cases)
    assert time.perf_counter() - start < 2.0
    figures = result["tiny"]
    assert set(figures) == {"samples_s", "best_of_3_s", "median_of_5_s", "traced_peak_mb",
                            "y0", "z0"}
    assert len(figures["samples_s"]) == bench.REPEATS
    assert figures["best_of_3_s"] == min(figures["samples_s"][:3])
    assert figures["traced_peak_mb"] > 0
    doc = json.loads(json.dumps(bench.document(
        "tiny", {"nproc": 1}, cases, [["a", "b"], ["b", "a"]],
        {"a": [result, result], "b": [result, result]})))
    assert set(doc) == {"tag", "machine", "cases", "order", "results"}
    assert doc["cases"]["tiny"] == {"problem": "example1", "m": 2, "N": 4, "M": 200,
                                    "degree": 2, "seed": 5}
    column = doc["results"]["tiny"]["b"]
    assert set(column) == {"best_of_3_s", "median_of_5_s", "traced_peak_mb",
                           "best_of_3_s_median", "median_of_5_s_median",
                           "traced_peak_mb_median", "y0", "z0"}
    assert column["best_of_3_s"] == [figures["best_of_3_s"]] * 2
    assert column["y0"] == figures["y0"] == repr(float(figures["y0"]))
