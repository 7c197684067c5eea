"""Set-up probe, run in a fresh interpreter: import deriv_audit and make one
call.  Prints the seconds the two took.

    python3 setup_child.py '{"mode": "analyze", "text": ..., "lo": .., "hi": ..}'
    python3 setup_child.py '{"mode": "cli", "argv": [...]}'
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import deriv_audit
    if spec["mode"] == "analyze":
        deriv_audit.analyze(spec["text"], deriv_audit.Interval(spec["lo"], spec["hi"]))
        rc = 0
    else:
        from deriv_audit.cli import main as cli_main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(spec["argv"])
    elapsed = time.perf_counter() - start
    print(repr(elapsed))
    return rc


if __name__ == "__main__":
    sys.exit(main())
