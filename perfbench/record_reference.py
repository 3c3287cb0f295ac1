"""Record the digests the benchmark's correctness gate compares outputs with.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are taken as correct.  It
builds every basis and expansion that any seed can draw, runs the whole
certification suite and the setup command once, and rewrites
perfbench/reference.json.  It refuses to record a failing check.
"""

import hashlib
import json
import os
import subprocess
import sys

import run

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import workloads as W  # noqa: E402  (needs the paths above)
from cuspbase import basis, verify  # noqa: E402


def main():
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    setup = subprocess.run([sys.executable, "-c", run.SETUP_CODE] + run.SETUP_ARGS,
                           cwd=run.ROOT, env=env, capture_output=True, check=True)
    results, ok = verify.run_suite(None, "all")
    if not ok:
        sys.exit("record_reference: the certification suite fails")
    ref = {
        "setup": hashlib.sha256(setup.stdout).hexdigest(),
        "certify": {r.check_id: W.digest(f"{r.ok} {r.detail}") for r in results},
        "basis": {},
        "expand": {},
    }
    for N, k, space in W.basis_builds():
        build = basis.m_basis if space == "full" else basis.s_basis
        ref["basis"][W.basis_key(N, k, space)] = W.digest(W.basis_text(build(N, k)))
        verify.clear_caches()
    for key, (call, _) in W.expand_pool().items():
        ref["expand"][key] = W.digest(W.series_text(call(W.EXPAND_PREC)))
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(ref['certify'])} checks, {len(ref['basis'])} bases, "
          f"{len(ref['expand'])} expansions")


if __name__ == "__main__":
    main()
