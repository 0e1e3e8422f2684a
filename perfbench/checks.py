"""Output checks and result digests.

Every session a pass runs is checked: byte conservation from its
DeliveryLog, full coverage of its radio timeline, and finite numbers in its
summary.  The simulated outputs (summaries and artifacts) are folded into a
SHA-256 digest per pass, so a speed-only change can show identical results.
The simulated values themselves are not gated.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

from streamsim import analysis, cli, session

from tracing import EXCLUDED, Tracer, patched


class CheckError(Exception):
    """A session's outputs break an invariant."""


def check_session(res) -> str:
    """Check one SessionResult; return its summary as canonical JSON."""
    log = res.dlog
    delivered = log.bytes_delivered
    accounted = log.bytes_consumed + log.bytes_buffered_end + log.bytes_wasted
    if abs(delivered - accounted) > max(2.0, 1e-6 * delivered):
        raise CheckError(f"{res.scenario.name}: bytes delivered {delivered:.1f}"
                         f" != consumed + buffered + wasted {accounted:.1f}")
    try:
        res.radio.validate(res.summary.wall_time_s)
    except AssertionError as exc:
        raise CheckError(f"{res.scenario.name}: radio timeline: {exc}") from exc
    try:
        return json.dumps(res.summary.to_json_dict(), allow_nan=False,
                          sort_keys=True)
    except ValueError as exc:
        raise CheckError(f"{res.scenario.name}: summary: {exc}") from exc


class Checker:
    """What a pass calls the program through; counts and digests results.

    All of its own work runs in excluded spans, so it is not timed as
    program time.
    """

    def __init__(self, tracer: Tracer, sink):
        self.tracer = tracer
        self.sink = sink               # where the CLI's own output goes
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.begin_pass()

    def begin_pass(self) -> None:
        self.digest = hashlib.sha256()
        self.sim_s = 0.0

    def span(self, name: str):
        return self.tracer.span(name)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def _checked(self, run_session):
        def checked(sc):
            self.attempted += 1
            try:
                res = run_session(sc)
            except Exception as exc:
                self._fail(f"{sc.name}: {type(exc).__name__}: {exc}")
                raise
            with self.span(EXCLUDED):
                try:
                    summary = check_session(res)
                except CheckError as exc:
                    self._fail(str(exc))
                else:
                    self.digest.update(summary.encode())
                    self.sim_s += res.summary.wall_time_s
            return res
        return checked

    def checking(self):
        """Context in which every run_session the benchmark reaches is checked."""
        return patched([(owner, "run_session", self._checked(owner.run_session))
                        for owner in (session, cli, analysis)])

    def cli(self, argv: list[str]) -> None:
        """Run `streamsim <argv>` in-process; a non-zero exit is a failure."""
        failed_before = self.failed
        with self.span("cli.main"):
            try:
                with contextlib.redirect_stdout(self.sink), \
                        contextlib.redirect_stderr(self.sink):
                    rc = cli.main(argv)
            except Exception as exc:
                rc = f"{type(exc).__name__}: {exc}"
        if rc != 0 and self.failed == failed_before:
            self.attempted += 1
            self._fail(f"streamsim {' '.join(argv)}: exit {rc}")

    def session(self, sc):
        """Run one scenario through session.run_session."""
        try:
            return session.run_session(sc)
        except Exception:
            return None   # counted by the checking wrapper

    def digest_files(self, directory: str) -> None:
        with self.span(EXCLUDED):
            if not os.path.isdir(directory):   # the command failed early
                return
            for name in sorted(os.listdir(directory)):
                with open(os.path.join(directory, name), "rb") as fh:
                    self.digest.update(name.encode() + b"\0" + fh.read())

    def digest_artifacts(self, res) -> None:
        """Digest the rows the four artifacts of `res` would hold."""
        with self.span(EXCLUDED):
            for lines in (res.buffer.to_csv_lines(), res.dlog.to_csv_lines(),
                          [repr(row) for row in res.radio.to_csv_rows()]):
                self.digest.update("\n".join(lines).encode())
