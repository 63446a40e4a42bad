"""Wall time of each CLI task as a fresh process, import included.

    python3 bench/startup.py [--size {full,tiny}] [--parent DIR] [--out FILE]

Runs ``python -m weyltriplets.cli TASK --config CFG`` once per task and
repeat, at one BLAS thread, on the tiny configs of CI's installed
entry-point step (``validate`` on an empty config), and times each
process from start to exit: interpreter start-up and import are what
these short tasks mostly cost.  The sizes differ in repeats only (9
full, 2 tiny).  Reported per task: median and quartiles (inclusive
method) of the wall time, and the md5 of its stdout, which must be the
same on every run of a side.

With ``--parent DIR`` the checkout at DIR (its ``src/``) is timed too:
every repeat runs the sides in the order parent, change, change, parent,
so drift spreads over both.  ``--out`` writes the document as JSON, with
``perfbench``'s environment record and whether PYTHONDONTWRITEBYTECODE
is set (then every process compiles the library's sources afresh); the
last line on stdout is always the whole document.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# one BLAS thread in every timed process and in the environment record
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from scaling import ROOT, summary  # noqa: E402  (its neighbour in bench/)

SIZES = {"full": {"repeats": 9}, "tiny": {"repeats": 2}}
_X3 = "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n"
_JC = "jc.alpha = 0\njc.beta = 1\njc.tau = 0.5\njc.N = 2\n"
CONFIGS = {
    "weyl-sample": "model.family = schrodinger-right\ngrid.z_list = 1j, -1+0.5j\n",
    "gamma-sample": "model.family = full-line-contact\ngamma.z = 1j\n" + _X3,
    "spectrum": _JC,
    "krein-kernel": "model.family = full-line-contact\nkrein.z = -1+0.5j\n"
                    "krein.variant = theta1\n" + _X3,
    "jc-run": _JC,
    "validate": "",
}


def run_task(src, task, cfg, workdir):
    """Wall time and stdout md5 of one fresh ``weyltriplets.cli`` process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-m", "weyltriplets.cli", task, "--config", cfg],
                         cwd=workdir, env=env, capture_output=True, timeout=600)
    elapsed = perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError("%s under %s exited %d: %s"
                           % (task, src, out.returncode, out.stderr.decode()))
    return elapsed, hashlib.md5(out.stdout).hexdigest()


def environment():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from worker import environment as perfbench_environment

    env = perfbench_environment()
    env["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/startup.py")
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--parent", type=Path, default=None,
                        help="a checkout to measure against this one")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    sides = {"change": ROOT / "src"}
    order = ["change"]
    if args.parent is not None:
        sides = {"parent": args.parent.resolve() / "src", **sides}
        order = ["parent", "change", "change", "parent"]
    times = {name: {task: [] for task in CONFIGS} for name in sides}
    digests = {name: {task: set() for task in CONFIGS} for name in sides}
    with tempfile.TemporaryDirectory() as workdir:
        cfgs = {}
        for task, text in CONFIGS.items():
            cfgs[task] = os.path.join(workdir, task + ".cfg")
            Path(cfgs[task]).write_text(text)
        for _ in range(SIZES[args.size]["repeats"]):
            for name in order:
                for task in CONFIGS:
                    elapsed, digest = run_task(sides[name], task, cfgs[task], workdir)
                    times[name][task].append(elapsed)
                    digests[name][task].add(digest)
    for name in sides:
        for task, found in digests[name].items():
            if len(found) != 1:
                raise RuntimeError("%s: stdout of %s differs between runs" % (name, task))
    tasks = {}
    for task in CONFIGS:
        row = {name: summary(times[name][task]) for name in sides}
        row["stdout_md5"] = {name: digests[name][task].pop() for name in sides}
        row["same_stdout"] = len(set(row["stdout_md5"].values())) == 1
        tasks[task] = row
    doc = {
        "what": "wall time of `python -m weyltriplets.cli TASK` as a fresh process, "
                "import included, on CI's tiny configs, one BLAS thread",
        # the parent checkout's path is a local detail, left out
        "command": "python3 bench/startup.py --size %s%s"
                   % (args.size, " --parent PARENT" if args.parent else ""),
        "size": args.size,
        "repeats": SIZES[args.size]["repeats"],
        "order": order,
        "environment": environment(),
        "tasks": tasks,
    }
    text = json.dumps(doc, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    for task, row in tasks.items():
        print("%-13s %s%s" % (task, "  ".join(
            "%s %.3f s [%.3f, %.3f]" % (name, row[name]["median"], row[name]["q1"],
                                        row[name]["q3"]) for name in sides),
            "" if len(sides) == 1 else "  stdout " + ("same" if row["same_stdout"] else "DIFFERS")))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
