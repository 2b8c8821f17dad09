"""``repro-obs`` — summarize, diff, validate, assemble, and tail.

Works over the files `repro-bench --trace` (and
:func:`repro.obs.export.write_artifacts`) produce, and over live
daemons exposing the telemetry endpoint::

    repro-obs summarize BENCH_table4.trace.json
    repro-obs diff run_a.summary.json run_b.summary.json
    repro-obs validate BENCH_table4.trace.json
    repro-obs assemble driver.trace.json outer.trace.json inner.trace.json \\
        -o run.trace.json
    repro-obs tail 127.0.0.1:9464 --count 10

Exit codes are uniform across subcommands so scripts and CI can branch
on them: **0** success (or ``diff`` found no differences), **1** a
semantic failure (summaries differ, trace fails the schema check),
**2** an input that could not be read at all
(missing file, empty file, truncated/corrupt JSON, wrong format) —
always with a one-line diagnostic naming the file and the reason —
and **3** a live endpoint that stayed unreachable through the whole
retry budget (``tail`` reconnects with capped backoff when an endpoint
restarts, e.g. a drained fleet worker).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import urllib.request
from typing import Any

from repro.obs.assemble import assemble
from repro.obs.export import (
    CHROME_FORMAT_TAG,
    _flatten,
    diff_summaries,
    dumps,
    summarize,
    validate_chrome_trace,
)

__all__ = ["main", "EXIT_OK", "EXIT_DIFFERS", "EXIT_UNREADABLE",
           "EXIT_RETRIES"]

#: ``diff`` clean / everything fine.
EXIT_OK = 0
#: Semantic failure: summaries differ, schema check failed.
EXIT_DIFFERS = 1
#: Input unusable: missing, empty, truncated, or not an obs artifact.
EXIT_UNREADABLE = 2
#: A live endpoint stayed unreachable through the full retry budget
#: (distinct from :data:`EXIT_UNREADABLE` so scripts can tell "the
#: daemon went away and never came back" from "bad input").
EXIT_RETRIES = 3

#: Cap (seconds) on ``tail``'s exponential retry backoff.
MAX_BACKOFF_S = 8.0


class Unreadable(Exception):
    """An input file that cannot be used at all (exit code 2)."""


def _load(path: str) -> Any:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise Unreadable(f"{path}: cannot read ({exc.strerror or exc})")
    if not text.strip():
        raise Unreadable(f"{path}: empty file (truncated write or wrong path?)")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Unreadable(
            f"{path}: corrupt or truncated JSON "
            f"(line {exc.lineno} col {exc.colno}: {exc.msg})"
        )


def _as_summary(obj: Any, path: str) -> "dict[str, Any]":
    if isinstance(obj, dict) and "traceEvents" in obj:
        return summarize(obj)
    if isinstance(obj, dict) and str(obj.get("format", "")).startswith(
        "repro-obs-summary"
    ):
        return obj
    raise Unreadable(
        f"{path}: not a repro-obs trace or summary file "
        "(no traceEvents array, no repro-obs-summary format tag)"
    )


def _cmd_summarize(args: argparse.Namespace) -> int:
    summ = _as_summary(_load(args.path), args.path)
    print(f"{args.path}: {summ['total_events']} events")
    cats = summ.get("categories", {})
    if cats:
        width = max(len(k) for k in cats)
        print(f"  {'category'.ljust(width)}  events  spans  span_total_s")
        for key, agg in cats.items():
            print(
                f"  {key.ljust(width)}  {agg['events']:6d}  {agg['spans']:5d}"
                f"  {agg['span_total_s']:.6f}"
            )
    reg = summ.get("registry", {})
    if reg:
        print(f"  registry: {len(reg)} entries")
        if args.verbose:
            print(json.dumps(reg, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    a = _as_summary(_load(args.a), args.a)
    b = _as_summary(_load(args.b), args.b)
    diff = diff_summaries(a, b)
    changed = diff["changed"]
    if not changed:
        print("identical")
        return EXIT_OK
    for key, change in changed.items():
        if "delta" in change:
            print(f"{key}: {change['a']} -> {change['b']} ({change['delta']:+g})")
        else:
            print(f"{key}: {change['a']!r} -> {change['b']!r}")
    return EXIT_DIFFERS


def _cmd_validate(args: argparse.Namespace) -> int:
    obj = _load(args.path)
    errors = validate_chrome_trace(obj)
    if errors:
        print(f"{args.path}: INVALID")
        for err in errors:
            print(f"  {err}")
        return EXIT_DIFFERS
    n = sum(1 for ev in obj["traceEvents"] if ev.get("ph") != "M")
    print(f"{args.path}: OK ({CHROME_FORMAT_TAG}, {n} events)")
    return EXIT_OK


def _cmd_assemble(args: argparse.Namespace) -> int:
    inputs: list[tuple[str, dict[str, Any]]] = []
    for path in args.paths:
        obj = _load(path)
        if not isinstance(obj, dict) or "traceEvents" not in obj:
            raise Unreadable(f"{path}: not a Chrome trace file")
        errors = validate_chrome_trace(obj)
        if errors:
            print(f"{path}: INVALID", file=sys.stderr)
            for err in errors:
                print(f"  {err}", file=sys.stderr)
            return EXIT_DIFFERS
        label = args.labels[len(inputs)] if args.labels else path
        inputs.append((label, obj))
    merged = assemble(inputs)
    text = dumps(merged) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    info = merged["otherData"]["assembled"]
    print(
        f"assembled {len(inputs)} files: {info['flows']} causal links, "
        f"{len(info['traces'])} traces, "
        f"{info['unresolved_parents']} unresolved parents",
        file=sys.stderr,
    )
    return EXIT_OK


def _fetch_snapshot(url: str, timeout: float) -> "dict[str, Any]":
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read().decode())
    except (OSError, ValueError) as exc:
        raise Unreadable(f"{url}: {exc}")


def _endpoint_url(endpoint: str) -> str:
    target = endpoint
    if "://" not in target:
        target = f"http://{target}"
    return target.rstrip("/") + "/metrics.json"


def _fetch_with_retry(url: str, timeout: float, retries: int) -> "dict[str, Any]":
    """Fetch a live endpoint, retrying with capped exponential backoff.

    A telemetry endpoint restarting (a fleet worker drained and
    replaced, a daemon bounced) looks like a connection refusal for a
    moment — the tail should ride through it, not die on the first
    error.  Raises :class:`Unreadable` only after ``retries``
    consecutive failures.
    """
    attempt = 0
    while True:
        try:
            return _fetch_snapshot(url, timeout)
        except Unreadable as exc:
            attempt += 1
            if attempt > retries:
                raise
            backoff = min(MAX_BACKOFF_S, 0.25 * (2 ** (attempt - 1)))
            stamp = time.strftime("%H:%M:%S")
            print(
                f"[{stamp}] {exc} — retry {attempt}/{retries} "
                f"in {backoff:.2g}s",
                file=sys.stderr,
            )
            time.sleep(backoff)


def _cmd_tail(args: argparse.Namespace) -> int:
    url = _endpoint_url(args.endpoint)
    prev: dict[str, Any] = {}
    polls = 0
    while True:
        try:
            snap = _fetch_with_retry(url, args.timeout, args.retries)
        except Unreadable as exc:
            print(f"repro-obs: {exc} (retries exhausted)", file=sys.stderr)
            return EXIT_RETRIES
        flat: dict[str, Any] = {}
        _flatten("", snap.get("registry", {}), flat)
        polls += 1
        changed = {
            k: v for k, v in flat.items()
            if isinstance(v, (int, float)) and prev.get(k) != v
        }
        stamp = time.strftime("%H:%M:%S")
        if polls == 1:
            print(f"[{stamp}] {url}: {len(flat)} series")
        for key in sorted(changed):
            old = prev.get(key)
            if isinstance(old, (int, float)):
                print(f"[{stamp}] {key} {old} -> {changed[key]}")
            else:
                print(f"[{stamp}] {key} = {changed[key]}")
        if not changed and polls > 1:
            print(f"[{stamp}] (no change)")
        prev = flat
        if args.count is not None and polls >= args.count:
            return EXIT_OK
        time.sleep(args.interval)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs", description="Inspect repro observability artifacts."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="print per-category aggregates")
    p.add_argument("path")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also dump the registry snapshot")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("diff", help="compare two runs (exit 1 if they differ)")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("validate", help="schema-check a Chrome trace file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "assemble",
        help="stitch per-process traces into one causally-linked trace",
    )
    p.add_argument("paths", nargs="+", metavar="TRACE")
    p.add_argument("-o", "--out", default="-",
                   help="output path (default: stdout)")
    p.add_argument("--labels", nargs="*", default=None,
                   help="display label per input (default: the file path)")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser(
        "tail", help="stream registry changes from a live telemetry endpoint"
    )
    p.add_argument("endpoint", help="host:port or URL of a daemon's "
                   "--telemetry-port listener")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--count", type=int, default=None,
                   help="stop after N polls (default: run until "
                   "interrupted)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-request timeout in seconds")
    p.add_argument("--retries", type=int, default=5,
                   help="consecutive fetch failures to ride through "
                   "with capped backoff before giving up "
                   f"(exit {EXIT_RETRIES}; default 5)")
    p.set_defaults(func=_cmd_tail)

    args = parser.parse_args(argv)
    if args.command == "assemble" and args.labels and \
            len(args.labels) != len(args.paths):
        parser.error("--labels must match the number of TRACE inputs")
    try:
        return args.func(args)
    except Unreadable as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except KeyboardInterrupt:
        return EXIT_OK
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-stream: the Unix
        # convention is a quiet exit, not a traceback.
        import os

        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
