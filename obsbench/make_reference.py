#!/usr/bin/env python3
"""Regenerate the committed reference outputs in obsbench/reference/.

    python3 obsbench/make_reference.py [paper_grid|embed_serve|analyze_jobs]...

Run from the repository root, on a commit whose outputs are known good.
Every name in the inputs is a fixed relative name, so the reference holds
for any checkout location. A benchmark run fails on any difference from
these files; regenerate them only when a change is meant to alter outputs.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import harness  # noqa: E402
import workloads as w  # noqa: E402


def write(root, name, data):
    path = os.path.join(root, w.REFERENCE, f"{name}.json")
    with open(path, "w") as f:
        json.dump(data, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def paper_grid(root, exe):
    w.fresh_dir(root, "paper_grid")
    cells = {}
    for prop, model, ds in common.grid_cells():
        export = os.path.join(w.WORK, "paper_grid", "ref", f"{prop}_{model}")
        c = harness.run_child(w.characterize_args(exe, prop, model, ds, w.GRID_PERMUTATIONS,
                                                  export=export), cwd=root)
        if c.code != 0:
            raise harness.BenchError(f"{prop}/{model} exited {c.code}: {c.stderr}")
        cells[w.cell_key(prop, model)] = w.read_bundle(os.path.join(root, export))
    write(root, f"paper_grid_p{w.GRID_PERMUTATIONS}", {
        "cells": {k: w.bundle_reference(b, k.startswith("P4/")) for k, b in cells.items()},
        "empty_cells": w.empty_cells(cells),
    })


def embed_serve(root, exe):
    server = harness.Server(exe, [], root)
    http = harness.Http(server.port)
    ref = {}
    try:
        for i in range(common.EMBED_POOL):
            status, _, data = http.request("POST", "/v1/embed", common.embed_body(i))
            if status != 200:
                raise harness.BenchError(f"t{i}: HTTP {status}")
            ref[f"t{i}"] = common.digest(data)
    finally:
        http.close()
        server.stop()
    write(root, "embed_serve", ref)


def analyze_jobs(root, exe):
    server = harness.Server(exe, ["--store-dir", w.fresh_dir(root, "analyze_jobs", "ref")], root)
    ref = {}
    try:
        ids = w.ingest_fixtures(server.port)
        worker = w.JobWorker(server.port, ids, {}, False)
        worker.check = lambda phase, key, prop, got: ref.__setitem__(
            key, w.job_reference_value(prop, got))
        specs = [(path, prop, model) for ds in common.FIXTURE_TABLES
                 for path in common.fixture_paths(ds)
                 for prop in common.properties_of(ds) for model in common.models_for(prop)]
        phase = w.Phase("cold")
        w.run_phases([phase], worker, {"cold": specs})
        if phase.failed:
            raise harness.BenchError(f"reference jobs failed: {phase.failures}")
    finally:
        server.stop()
    write(root, "analyze_jobs", ref)


def main():
    root = os.getcwd()
    harness.cargo_build(root, bin_name="observatory")
    exe = harness.binary(root, "observatory")
    names = sys.argv[1:] or ["paper_grid", "embed_serve", "analyze_jobs"]
    for name in names:
        globals()[name](root, exe)


if __name__ == "__main__":
    main()
