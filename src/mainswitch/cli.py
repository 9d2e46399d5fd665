"""Batch command-line interface.

Subcommands: spectrum, main-profile, find-switching, construct (snr /
multipartite), verify-conjecture, check-cert.  Graph inputs are a graph6
string, @file.g6 (one record per line) or @file.sel (signed edge list).

Exit codes: 0 success, 1 verification failure or an unexpected exception
graph, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .construct import (
    NoAllMainSwitchingError,
    multipartite_all_main_switching,
    one_per_part_switching,
    snr_all_main_switching,
)
from .exact import main_profile
from .graphs import (
    Graph,
    GraphFormatError,
    MultipartiteParams,
    SignedGraph,
    _adjacency_array,
    is_connected,
    parse_graph6,
    parse_signed_edge_list,
)
from .search import (
    CATALOG_CAP,
    Certificate,
    DisconnectedGraphError,
    canonical_graph6,
    find_all_main_switching,
    make_certificate,
    switching_main_counts,
    verify_certificate,
    verify_conjecture,
)
from .spectral import classify_main, eigen_sym

WORKERS_ENV = "MAINSWITCH_WORKERS"


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        print(f"warning: ignoring {WORKERS_ENV}={raw!r}, not an integer; using 1 worker",
              file=sys.stderr)
        return 1


def _graph6_file(path: str, connected: bool = False) -> list[Graph]:
    """Every graph6 record of a file.  A bad record, or with ``connected`` a
    disconnected one, raises an error that names its line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, line) for i, line in enumerate(fh, start=1) if line.strip()]
    graphs = []
    for i, line in lines:
        try:
            g = parse_graph6(line)
        except GraphFormatError as exc:
            raise GraphFormatError(f"graph6 record {i}: {exc}") from None
        if connected and not is_connected(g):
            raise DisconnectedGraphError(
                f"graph6 record {i}: the switching search requires a connected graph")
        graphs.append(g)
    return graphs


def _load_inputs(arg: str, connected: bool = False) -> list[Graph | SignedGraph]:
    if arg.startswith("@"):
        path = arg[1:]
        if path.endswith(".sel"):
            with open(path, "r", encoding="utf-8") as fh:
                return [parse_signed_edge_list(fh.read())]
        graphs = _graph6_file(path, connected)
        if not graphs:
            raise GraphFormatError(f"no graph6 records in {path}")
        return graphs
    return [parse_graph6(arg)]


def _as_search_graph(g: Graph | SignedGraph) -> Graph:
    if isinstance(g, SignedGraph):
        if g.negative:
            raise ValueError("the switching search takes an unsigned graph")
        return g.graph
    return g


def _parse_blocks(spec: str) -> MultipartiteParams:
    blocks = []
    for item in spec.split(","):
        parts = item.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"block {item!r} must look like COUNTxSIZE, e.g. 2x3")
        blocks.append((int(parts[0]), int(parts[1])))
    return MultipartiteParams.of(blocks)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_spectrum(args: argparse.Namespace) -> int:
    for g in _load_inputs(args.input):
        es = eigen_sym(_adjacency_array(g))
        report = classify_main(es, group_eps=args.group_eps, main_eps=args.main_eps)
        if args.json:
            print(json.dumps({
                "n": report.n,
                "groups": [
                    {"value": grp.value, "multiplicity": grp.multiplicity,
                     "is_main": grp.is_main, "main_mass": grp.main_mass}
                    for grp in report.groups
                ],
            }))
        else:
            print(f"n={report.n}")
            print(f"{'value':>20}  {'mult':>4}  {'main':>5}  {'main_mass':>12}")
            for grp in report.groups:
                flag = "yes" if grp.is_main else "no"
                print(f"{grp.value:>20.12f}  {grp.multiplicity:>4}  {flag:>5}  "
                      f"{grp.main_mass:>12.6f}")
    return 0


def _cmd_main_profile(args: argparse.Namespace) -> int:
    for g in _load_inputs(args.input):
        profile = main_profile(_adjacency_array(g))
        if args.json:
            print(json.dumps({
                "main_count": profile.main_count,
                "distinct_count": profile.distinct_count,
                "all_main": profile.all_main,
            }))
        else:
            print(f"main_count={profile.main_count} "
                  f"distinct_count={profile.distinct_count} "
                  f"all_main={str(profile.all_main).lower()}")
    return 0


def _cmd_find_switching(args: argparse.Namespace) -> int:
    status = 0
    for g in _load_inputs(args.input, connected=True):
        graph = _as_search_graph(g)
        cert = find_all_main_switching(graph)
        if cert is None:
            if args.json:
                print(json.dumps({
                    "all_main_switching": None,
                    "main_counts": switching_main_counts(graph),
                }))
            else:
                print("NO SWITCHING (exception)")
            status = 1
        else:
            print(cert.to_json())
    return status


def _cmd_construct(args: argparse.Namespace) -> int:
    params = _parse_blocks(args.blocks) if args.family == "multipartite" else None
    if (args.n if params is None else params.n) > 62:
        # The certificate names the graph in graph6: refuse before building it.
        raise ValueError("graph6 emission supports n <= 62 only")
    if params is None:
        res = snr_all_main_switching(args.n, args.r)
    elif args.one_per_part:
        res = one_per_part_switching(params)
    else:
        res = multipartite_all_main_switching(params)
    print(make_certificate(res.graph, res.switching, res.method, res.profile).to_json())
    return 0 if res.verified else 1


def _is_known_exception(graph6: str) -> bool:
    # K2 and K4-e, by their canonical graph6, have no all-main switching.
    g = parse_graph6(graph6)
    return g.n in (2, 4) and canonical_graph6(g) in {"A_", "C^"}


def _cmd_verify_conjecture(args: argparse.Namespace) -> int:
    workers = args.workers if args.workers is not None else _default_workers()
    graphs = _graph6_file(args.graph6_file, connected=True) if args.graph6_file else None
    report = verify_conjecture(args.max_n, workers=workers, graphs=graphs)
    if args.certificates:
        with open(args.certificates, "w", encoding="utf-8") as fh:
            for cert in report.certificates:
                fh.write(cert.to_json() + "\n")
    if args.json:
        print(report.to_json())
    else:
        print(report.summary_text())
    if any(not _is_known_exception(e.graph6) for e in report.exceptions):
        return 1
    return 0


def _cmd_check_cert(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        records = [(i, ln) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not records:
        print("no certificates found", file=sys.stderr)
        return 2
    bad = 0
    for i, line in records:
        try:
            cert = Certificate.from_json_dict(json.loads(line))
            ok = verify_certificate(cert)
        except ValueError as exc:  # also JSONDecodeError and GraphFormatError
            raise ValueError(f"certificate {i}: {exc}") from None
        if not ok:
            print(f"certificate {i}: FAILED re-check ({cert.graph6})", file=sys.stderr)
            bad += 1
    print(f"{len(records) - bad}/{len(records)} certificates verified")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mainswitch",
        description="Main eigenvalues of signed graphs: spectra, switching "
                    "search, constructions, certificates.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("spectrum", help="float spectrum with per-eigenvalue main flags")
    sp.add_argument("input", help="graph6 string, @file.g6, or @file.sel")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--group-eps", type=float, default=None)
    sp.add_argument("--main-eps", type=float, default=None)
    sp.set_defaults(fn=_cmd_spectrum)

    mp = sub.add_parser("main-profile", help="exact main/distinct eigenvalue counts")
    mp.add_argument("input")
    mp.add_argument("--json", action="store_true")
    mp.set_defaults(fn=_cmd_main_profile)

    fs = sub.add_parser("find-switching", help="brute-force all-main switching search")
    fs.add_argument("input")
    fs.add_argument("--json", action="store_true")
    fs.set_defaults(fn=_cmd_find_switching)

    co = sub.add_parser("construct", help="constructive all-main switching")
    cosub = co.add_subparsers(dest="family", required=True)
    snr = cosub.add_parser("snr", help="clique with pendant edges")
    snr.add_argument("--n", type=int, required=True)
    snr.add_argument("--r", type=int, required=True)
    snr.set_defaults(fn=_cmd_construct)
    multi = cosub.add_parser("multipartite", help="complete multipartite graph")
    multi.add_argument("--blocks", required=True,
                       help="comma list COUNTxSIZE, e.g. 2x3,1x1")
    multi.add_argument("--one-per-part", action="store_true",
                       help="force the one-vertex-per-part switching "
                            "(single parts of size >= 2 only)")
    multi.set_defaults(fn=_cmd_construct)

    vc = sub.add_parser("verify-conjecture",
                        help="exhaustive catalog verification with certificates")
    vc.add_argument("--max-n", type=int, default=CATALOG_CAP)
    vc.add_argument("--graph6-file", default=None,
                    help="verify these graphs instead of the built-in catalog")
    vc.add_argument("--workers", type=int, default=None,
                    help=f"parallel workers (default ${WORKERS_ENV} or 1)")
    vc.add_argument("--certificates", default=None,
                    help="write newline-delimited certificate JSON here")
    vc.add_argument("--json", action="store_true")
    vc.set_defaults(fn=_cmd_verify_conjecture)

    cc = sub.add_parser("check-cert", help="re-check a certificate file")
    cc.add_argument("file")
    cc.set_defaults(fn=_cmd_check_cert)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NoAllMainSwitchingError as exc:
        print(f"NO SWITCHING (exception): {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # also GraphFormatError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
