"""Known-bad fixture: wall-clock reads in simulator code (TCB003).

Checked as a synthetic ``serving/...`` module so the rule's path
scoping applies.
"""

import time
from datetime import datetime
from time import perf_counter as pc


def wall_clock_now():
    return time.time()  # line 13


def measures_itself():
    return pc()  # line 17: from-import alias


def stamps_events():
    return datetime.now()  # line 21
