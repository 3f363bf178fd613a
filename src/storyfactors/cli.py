"""Command-line front end: one subcommand per pipeline stopping point.

Every subcommand reads the same flat config file and executes the
pipeline from the start up to its stage, so ``corpus`` is ``prep`` plus
table building, and ``run`` is the whole batch.  Exit status is 0 on
success and 1 on failure, with a stage-tagged diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline

# subcommand -> last pipeline stage it executes
_COMMANDS = {
    "prep": ("tokenize", "segment the text and report token counts"),
    "corpus": ("aggregate", "build and filter the document-term table"),
    "ca": ("fit_ca", "fit the factor space and export coordinates"),
    "cluster": ("cut", "cluster the rows and cut a partition"),
    "vtest": ("vtest", "describe the partition's significant words"),
    "plot": ("plot", "render the SVG factor plane and dendrogram"),
    "run": ("plot", "execute the full pipeline"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storyfactors",
        description="Chronological text analytics over a document-term table.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, type=Path,
                         help="flat key = value config file")
        sub.add_argument("--out", type=Path, default=None,
                         help="output directory (overrides the config's out_dir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    upto = _COMMANDS[args.command][0]
    try:
        config = pipeline.parse_config(args.config)
        result = pipeline.run_pipeline(config, out_dir=args.out, upto=upto)
    except pipeline.StageError as err:
        print(f"error {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in result.summary:
        print(line)
    print(f"wrote {len(result.files)} files to {result.out_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
