"""One set-up sample: a fresh process that imports hermevp and runs one
warm-up op.  run.py times it from outside, start to exit.

    python3 bench/setup_probe.py OUT_DIR COMMAND [ARGS...]
"""

import sys

import harness

if __name__ == "__main__":
    harness.pin_blas_threads()
    cli = harness.import_cli()
    _, rc, error = harness.run_op(cli.main, sys.argv[2:], sys.argv[1])
    if rc != 0:
        print(f"warm-up op failed: {error}", file=sys.stderr)
    sys.exit(0 if rc == 0 else 1)
