"""Differential oracles: the slow, obviously-correct implementations.

Production code in ``src/repro`` has exactly one implementation of the
queue, of ``DASScheduler.select`` and of each packer; what they replaced
lives here, imported only by tests.
"""
