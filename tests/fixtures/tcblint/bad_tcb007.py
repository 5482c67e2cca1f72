"""Known-bad fixture: swallowed exceptions in serving code (TCB007).

Checked as a synthetic ``serving/...`` module so the rule's path
scoping applies.
"""


def bare_except():
    try:
        risky()
    except:  # line 11: catches everything, including KeyboardInterrupt
        recover()


def silent_pass():
    try:
        risky()
    except ValueError:  # line 18: failure vanishes without a trace
        pass


def silent_docstring():
    try:
        risky()
    except (OSError, RuntimeError):  # line 25: comment-only body
        """Nothing to do here."""


def handled_is_fine():
    try:
        risky()
    except ValueError as exc:
        raise RuntimeError("wrapped") from exc


def risky():
    raise ValueError("boom")


def recover():
    return None
