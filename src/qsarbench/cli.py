"""Command-line interface.

A failure prints one line to stderr and exits with the code of its type
(the table in `errors`):

    exit  raised                                    stderr
    0     nothing                                   -
    1     ConfigError or a usage error              config error: ...
    2     DataError (SmilesParseError is one),      data error: ...
          OSError or ValueError
    3     InvariantViolation or another             internal error: ...
          QsarBenchError
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from functools import partial

import numpy as np

from .clustering import DEFAULT_CUTOFF, butina_cluster
from .data import (SCHEMA_PRESETS, DatasetSchema, _parse_texts, load_dataset, open_input,
                   read_table, undersample)
from .errors import ConfigError, DataError, QsarBenchError
from .fingerprint import (DEFAULT_NBITS, DEFAULT_RADIUS, Fingerprint, check_morgan_settings,
                          from_hex, morgan_fingerprints, to_hex)
from .harness import (
    ExperimentConfig,
    run_cluster_protocol,
    run_fraction_sweep,
    run_protocol,
    write_report_files,
)
from .pca import fit_pca, transform

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
FINGERPRINT_COLUMN = "fingerprint_hex"   # written by `fingerprint`, read by `cluster`


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the config exit code
        raise ConfigError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="qsarbench",
                             description="QSAR classical-vs-quantum classifier benchmark")
    parser.add_argument("--log-level", default="INFO", type=str.upper, choices=LOG_LEVELS,
                        help="logging threshold (default INFO)")
    # each subcommand names its handler, which `main` calls with the parsed arguments
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext, runner, stem in (
        ("run", "feature-sweep protocol from a config file", run_protocol, "features"),
        ("fractions", "training-fraction sweep from a config file", run_fraction_sweep,
         "fractions"),
        ("clusters", "cluster-sampled training protocol from a config file",
         run_cluster_protocol, "clusters"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--output", default="results", help="directory for report files")
        cmd.set_defaults(handler=partial(_cmd_protocol, runner=runner, protocol_name=stem))

    fp = sub.add_parser("fingerprint", help="hex fingerprints for a CSV of SMILES")
    fp.add_argument("--input", required=True)
    fp.add_argument("--smiles-col", required=True)
    fp.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    fp.add_argument("--bits", type=int, default=DEFAULT_NBITS)
    fp.add_argument("--output", required=True)
    fp.set_defaults(handler=_cmd_fingerprint)

    pca_cmd = sub.add_parser("pca", help="fit on selected rows, project all rows")
    pca_cmd.add_argument("--input", required=True, help="CSV of numeric columns with header")
    pca_cmd.add_argument("--k", type=int, required=True)
    pca_cmd.add_argument("--fit-rows", required=True, help="file of row indices, one per line")
    pca_cmd.add_argument("--output", required=True)
    pca_cmd.add_argument("--model-out", help="optional flat-CSV model dump")
    pca_cmd.set_defaults(handler=_cmd_pca)

    cl = sub.add_parser("cluster", help="Butina-cluster hex fingerprints")
    cl.add_argument("--fingerprints", required=True, help=f"CSV with a {FINGERPRINT_COLUMN} column")
    cl.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    cl.add_argument("--output", required=True)
    cl.set_defaults(handler=_cmd_cluster)

    ing = sub.add_parser("ingest", help="load, validate and optionally balance a dataset")
    ing.add_argument("--dataset", required=True, help="CSV path")
    ing.add_argument("--schema", required=True,
                     help="one of %s or 'custom'" % (", ".join(SCHEMA_PRESETS)))
    ing.add_argument("--smiles-col", help="required with --schema custom")
    ing.add_argument("--label-col", help="required with --schema custom")
    ing.add_argument("--undersample", action="store_true")
    ing.add_argument("--seed", type=int, default=0)
    ing.add_argument("--output", help="optional normalized CSV (id,smiles,label)")
    ing.set_defaults(handler=_cmd_ingest)
    return parser


def _cmd_protocol(args, runner, protocol_name: str) -> int:
    config = ExperimentConfig.from_file(args.config)
    report = runner(config)
    stem = f"{protocol_name}_{config.dataset}_{config.embedding}"
    paths = write_report_files(report, args.output, stem)
    for cell in report.summaries:
        print(f"{cell.model:>9}  n={cell.n}  x={cell.x}  "
              f"acc={cell.mean_accuracy:.4f} +/- {cell.spread:.4f}")
    print(f"wrote {paths['json']} and {paths['csv']}")
    return EXIT_OK


def _cmd_fingerprint(args) -> int:
    check_morgan_settings(args.radius, args.bits)
    if args.bits < 4:
        raise ConfigError(f"--bits must be at least 4, got {args.bits}: hex holds four bits "
                          "per digit")
    with open_input(args.input) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or args.smiles_col not in reader.fieldnames:
            raise DataError(f"{args.input} lacks column {args.smiles_col!r}")
        texts = [(row[args.smiles_col] or "").strip() for row in reader]
    kept, bits = _parse_texts(texts, partial(morgan_fingerprints, radius=args.radius,
                                             nbits=args.bits))
    rows = np.flatnonzero(kept).tolist()
    skipped = len(texts) - len(rows)
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", FINGERPRINT_COLUMN])
        writer.writerows(zip(rows, map(to_hex, bits)))
    if skipped:
        logger.warning("skipped %d unparseable rows", skipped)
    print(f"wrote {len(rows)} fingerprints to {args.output} ({skipped} rows skipped)")
    return EXIT_OK


_MATRIX_MESSAGES = {
    "empty": "{path} is empty",
    "width": "{path} row {index} has {count} values; the header names {width} columns",
    "number": "{path} row {index} has a non-numeric entry: {error}",
    "finite": "{path} row {index} holds a value that is not finite",
}


def _read_matrix(path: str) -> np.ndarray:
    _, matrix = read_table(path, _MATRIX_MESSAGES)
    if not len(matrix):
        raise DataError(f"{path} holds no data rows")
    return matrix


def _read_fit_rows(path: str) -> list[int]:
    """One row index per non-blank line: an optional sign and ASCII digits, so
    `int()`'s underscores and non-ASCII digits are no row index."""
    fit_rows = []
    with open_input(path) as handle:
        for number, line in enumerate(handle, 1):
            text = line.strip()
            if text:
                digits = text[1:] if text[0] in "+-" else text
                if not (digits.isascii() and digits.isdigit()):
                    raise DataError(f"{path} line {number} is no row index: {text!r}")
                fit_rows.append(int(text))
    return fit_rows


def _cmd_pca(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    matrix = _read_matrix(args.input)
    fit_rows = _read_fit_rows(args.fit_rows)
    for index in fit_rows:
        if not 0 <= index < matrix.shape[0]:
            raise DataError(f"--fit-rows index {index} is outside the {matrix.shape[0]} rows "
                            f"of {args.input}")
    model = fit_pca(matrix[fit_rows], args.k)
    scores = transform(model, matrix)
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{i}" for i in range(args.k)])
        for row in scores:
            writer.writerow([repr(float(v)) for v in row])
    if args.model_out:
        model.to_csv(args.model_out)
    print(f"projected {scores.shape[0]} rows onto {args.k} components -> {args.output}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    fps = []
    with open_input(args.fingerprints) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or FINGERPRINT_COLUMN not in reader.fieldnames:
            raise DataError(f"{args.fingerprints} lacks column {FINGERPRINT_COLUMN!r}")
        for index, row in enumerate(reader):
            text = row[FINGERPRINT_COLUMN] or ""
            if fps and 4 * len(text) != fps[0].size:
                raise DataError(f"{args.fingerprints} row {index} holds a {4 * len(text)}-bit "
                                f"fingerprint; row 0 holds {fps[0].size} bits")
            try:
                fps.append(from_hex(text))
            except ValueError as exc:
                raise DataError(f"{args.fingerprints} row {index}: {exc}") from exc
    if not fps:
        raise DataError(f"{args.fingerprints} holds no fingerprints to cluster")
    clustering = butina_cluster([Fingerprint.from_bit_array(bits) for bits in fps], args.cutoff)
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "cluster_id", "is_centroid"])
        for cluster_id, members in enumerate(clustering.clusters):
            for position, index in enumerate(members):
                writer.writerow([index, cluster_id, int(position == 0)])
    print(f"{len(fps)} fingerprints -> {len(clustering.clusters)} clusters at cutoff {args.cutoff}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    if args.schema == "custom":
        if not args.smiles_col or not args.label_col:
            raise ConfigError("--schema custom needs --smiles-col and --label-col")
        schema = DatasetSchema(smiles_col=args.smiles_col, label_col=args.label_col)
    elif args.schema in SCHEMA_PRESETS:
        schema = SCHEMA_PRESETS[args.schema]
    else:
        raise ConfigError(f"unknown schema {args.schema!r}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")

    data = load_dataset(args.dataset, schema)
    if args.undersample:
        data = undersample(data, args.seed)
    positives = int(np.sum(data.labels == 1))
    print(f"rows: {len(data)}  skipped: {data.skipped_rows}  "
          f"positives: {positives}  negatives: {len(data) - positives}")
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "smiles", "label"])
            for i in range(len(data)):
                writer.writerow([data.ids[i], data.smiles[i], int(data.labels[i])])
        print(f"wrote normalized dataset to {args.output}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        # set apart from basicConfig, which changes nothing when the root
        # logger already has a handler
        logging.getLogger().setLevel(args.log_level)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except QsarBenchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
