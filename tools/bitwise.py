"""Bitwise check of a change against a revision: the outcome records of this
tree and of REV must be byte-equal.

    python3 tools/bitwise.py [REV]        # REV defaults to HEAD

REV's files are unpacked with ``git archive`` into a temporary directory,
which is removed again; the repository itself is left as it was.
``outcomes.py`` imports layeropt from the ``src/`` beside its own directory,
so this tree's ``tools/outcomes.py`` is copied into the checkout's
``tools/``: the same script then measures this tree's ``src/`` and REV's. The
two runs go side by side, each with BLAS on one thread. Their outputs are
compared byte for byte. The verdict line also gives each tree's line count
of ``src/layeropt/*.py``, the tracked size of the library.

Exit status: 0 when the outputs are byte-equal, 1 when they differ (the
first differing record is printed), 2 when a run fails.
"""

import argparse
import filecmp
import itertools
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
OUTCOMES = Path("tools") / "outcomes.py"


def unpack(rev, dest):
    """Write the files of `rev` into the directory `dest`."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(TREE), "archive", "--format=tar",
                    "-o", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)


def src_lines(root):
    """Lines in the library's modules under `root`, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "layeropt").glob("*.py"))


def first_difference(path_a, path_b):
    """(index, record of a, record of b) of the first records that differ; a
    missing record reads None, and an index of None means the records are
    equal and only the bytes around them differ."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for i, (ra, rb) in enumerate(itertools.zip_longest(a, b)):
        if ra != rb:
            return i, ra, rb
    return None, None, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD",
                        help="revision to compare this tree with (default: HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bitwise-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "rev"
        unpack(args.rev, checkout)
        (checkout / OUTCOMES).parent.mkdir(exist_ok=True)
        shutil.copyfile(TREE / OUTCOMES, checkout / OUTCOMES)
        outs = {"this tree": (TREE, tmp / "tree.json"),
                args.rev: (checkout, tmp / "rev.json")}
        runs = {name: subprocess.Popen([sys.executable, str(root / OUTCOMES),
                                        str(out)])
                for name, (root, out) in outs.items()}
        failed = [name for name, run in runs.items() if run.wait()]
        if failed:
            print(f"outcomes.py failed on {', '.join(failed)}", file=sys.stderr)
            return 2
        (_, tree_out), (_, rev_out) = outs.values()
        lines = ", ".join(f"{name} {src_lines(root):,}"
                          for name, (root, _) in outs.items())
        lines = f"(src/layeropt/*.py lines: {lines})"
        if filecmp.cmp(tree_out, rev_out, shallow=False):
            print(f"byte-equal: this tree and {args.rev} {lines}")
            return 0
        index, mine, theirs = first_difference(tree_out, rev_out)
        print(f"DIFFERENT from {args.rev} {lines}, first at record {index}:\n"
              f"  this tree: {json.dumps(mine, sort_keys=True)[:400]}\n"
              f"  {args.rev}: {json.dumps(theirs, sort_keys=True)[:400]}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
