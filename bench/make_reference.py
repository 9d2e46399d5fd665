"""Record the reference outputs the benchmark checks against.

Usage (from the repository root): python3 bench/make_reference.py

Runs the mainswitch in ``src/`` once, untimed, and writes ``bench/reference``:

* ``catalog_report.json``, ``catalog_certs.jsonl.gz``: the report and the
  certificate file of ``verify-conjecture --max-n 7 --json``;
* ``family_outputs.jsonl.gz``: the certificate line (or ``rejected``) of
  every family-construct shape, including the whole random shape pool;
* ``construction_certs.jsonl.gz``: one snr and one multipartite
  construction certificate for each size up to n = 60, cert-recheck's large
  records;
* ``spectrum_pool.jsonl.gz``: random connected graphs with their exact
  distinct and main eigenvalue counts, the pool spectrum-batch draws from.

The files were recorded at the commit that added the benchmark; rerunning
this on a later commit would measure the program against itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import inputs

ROOT = inputs.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import mainswitch.cli  # noqa: E402
from mainswitch import MultipartiteParams, make_certificate, verify_certificate  # noqa: E402
from mainswitch.construct import multipartite_all_main_switching, snr_all_main_switching  # noqa: E402
from mainswitch.exact import main_profile  # noqa: E402
from mainswitch.graphs import Graph, adjacency_matrix  # noqa: E402

from child import family_output  # noqa: E402


def record_catalog() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        certs = Path(tmp) / "certs.jsonl"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = mainswitch.cli.run(["verify-conjecture", "--max-n", "7", "--workers", "1",
                                     "--json", "--certificates", str(certs)])
        assert rc == 0, rc
        inputs.CATALOG_REPORT.write_text(out.getvalue(), encoding="utf-8")
        inputs.write_gz_lines(inputs.CATALOG_CERTS, certs.read_text(encoding="utf-8").splitlines())


def record_family() -> None:
    items = inputs.fixed_family_items()
    items += [inputs.shape_item(b) for b in inputs.random_shape_pool()]
    outputs = {}
    for item in items:
        key = inputs.item_key(item)
        if key not in outputs:
            outputs[key] = family_output(item)
            assert not outputs[key].startswith("error"), (key, outputs[key])
    inputs.write_gz_lines(inputs.FAMILY_OUTPUTS,
                          [json.dumps({"key": k, "out": v}) for k, v in outputs.items()])


def record_construction_certs() -> None:
    rng = random.Random("construction-certs")
    records = []
    for n in inputs.CERT_NS:
        records.append((n, "snr", snr_all_main_switching(n, rng.randrange(1, n - 2))))
        params = MultipartiteParams.of(inputs.random_blocks_of_order(rng, n))
        records.append((n, "multipartite", multipartite_all_main_switching(params)))
    lines = []
    for n, kind, res in records:
        cert = make_certificate(res.graph, res.switching, res.method, res.profile)
        assert cert.all_main and verify_certificate(cert), cert
        lines.append(json.dumps({"n": n, "kind": kind, "line": cert.to_json()}))
    inputs.write_gz_lines(inputs.CONSTRUCTION_CERTS, lines)


def record_spectrum_pool() -> None:
    rng = random.Random("spectrum-pool")
    make = {"gnp": inputs.random_connected_gnp, "twins": inputs.random_connected_twins}
    records = []
    for n in inputs.SPECTRUM_NS:
        for kind in inputs.SPECTRUM_KINDS:
            for _ in range(inputs.SPECTRUM_POOL_PER_KIND):
                edges = make[kind](rng, n)
                profile = main_profile(adjacency_matrix(Graph(n, frozenset(edges))))
                records.append(json.dumps({
                    "n": n, "kind": kind, "graph6": inputs.g6_encode(n, edges),
                    "distinct_count": profile.distinct_count,
                    "main_count": profile.main_count,
                }))
    inputs.write_gz_lines(inputs.SPECTRUM_POOL, records)


def main() -> None:
    inputs.REFERENCE_DIR.mkdir(exist_ok=True)
    for step in (record_catalog, record_family, record_construction_certs, record_spectrum_pool):
        step()
        print(f"{step.__name__}: done", flush=True)


if __name__ == "__main__":
    main()
