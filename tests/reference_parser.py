"""The argparse command line that grasstrata.cli's command table replaced,
kept unchanged as the reference for the parser oracle test.

parse(argv) returns argparse's namespace as a dict, or raises ValueError
where the old command line refused argv.  It imports nothing from the
package, so it runs on any Python that has argparse.
"""

import argparse


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, which collides with the
    counterexample exit code; raise instead and let main map it to 1."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="grasstrata",
                     description="stratum labels for subspaces relative to "
                                 "a rational hyperplane arrangement")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("arrangement", help="arrangement file")
        p.add_argument("-o", "--output", default=None,
                       help="write output here instead of stdout")

    p = sub.add_parser("lattice", help="flats by rank and the chain count")
    common(p)

    p = sub.add_parser("adjoint", help="coefficient table of the k-adjoint")
    common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("label", help="all three labels of one subspace")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--subspace", required=True, help="subspace file")

    p = sub.add_parser("restrict", help="restriction to a subspace, as an "
                                        "arrangement file")
    common(p)
    p.add_argument("--subspace", required=True, help="subspace file")

    p = sub.add_parser("verify", help="sample subspaces and verify that the "
                                      "three labelings agree")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-flats", action="store_true",
                   help="inject flats and other structured subspaces")
    p.add_argument("--jobs", type=int, default=1,
                   help="label samples on this many worker processes")
    return parser


def parse(argv):
    return vars(_build_parser().parse_args(argv))
