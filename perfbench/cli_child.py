"""Run one ncu2 command the way the ``ncu2`` console script does.

    python3 perfbench/cli_child.py [--trace PATH] -- ARGS...

Without ``--trace`` this imports ``ncu2.cli`` from the checkout and
exits with ``main(ARGS)``, like the installed entry point.  With
``--trace`` the benchmark's tracer times the package import and wraps
the layers before ``main`` runs, then writes its aggregates to PATH.
"""

import sys


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: cli_child.py [--trace PATH] -- ARGS...", file=sys.stderr)
        return 2
    argv = argv[1:]

    from common import MissingSource, use_checkout_source

    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"cli_child: {exc}", file=sys.stderr)
        return 2
    if trace_path is None:
        from ncu2.cli import main as cli_main

        return cli_main(argv)

    from spans import CLI_IMPORT, Tracer

    tracer = Tracer()
    with tracer.span(CLI_IMPORT):
        import ncu2.cli
    tracer.install()
    try:
        return ncu2.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
