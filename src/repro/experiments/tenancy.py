"""Noisy-neighbor sweep + smoke: tenant isolation under a quota-busting tenant.

Not a paper figure — the paper's workloads are tenant-blind — but the
tenancy plane (``docs/tenancy.md``) makes a quantitative claim worth
measuring: when a batch tenant ramps its offered load to many multiples
of its token-bucket quota, a premium tenant sharing the queue should
keep (almost) the on-time rate it gets running solo, while the cluster
as a whole keeps (almost) the aggregate served-token throughput of a
tenant-blind run — isolation without giving up concatenation
efficiency.

``tenancy_smoke`` is the CI-scale check (``make tenancy-smoke``): the
8x-quota noisy-neighbor cell over a seed matrix asserting both gates,
writing the sweep as a JSON artifact either way so CI can upload it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.experiments.serving_sweeps import make_scheduler, make_workload
from repro.experiments.tables import seed_means
from repro.serving.simulator import ServingSimulator
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.types import Request

__all__ = ["run_tenancy", "tenancy_point", "tenancy_smoke"]

_BATCH = BatchConfig(num_rows=4, row_length=100)

# Mean request length of the §6.2.1 workload — converts the batch
# tenant's token-bucket quota (tokens/s) into a request rate.
_MEAN_LEN = 20.0

# Smoke gates: premium on-time rate must stay within this fraction of
# its solo reference, and aggregate served tokens within this fraction
# of the tenant-blind baseline.
SMOKE_PREMIUM_MARGIN = 0.10
SMOKE_THROUGHPUT_MARGIN = 0.15


def _registry(quota: float) -> TenantRegistry:
    """Premium unthrottled; batch capped at ``quota`` tokens/s."""
    return TenantRegistry(
        {
            "premium": "premium",
            "batch": TenantClass(
                name="batch",
                weight=0.25,
                deadline_slack=4.0,
                rate=quota,
                burst=2.0 * quota,
            ),
        }
    )


def _mixed_requests(
    seed: int,
    *,
    premium_rate: float,
    batch_rate: float,
    horizon: float,
    registry: TenantRegistry,
) -> list[Request]:
    """Premium + batch arrival streams merged into one sorted trace."""
    prem = make_workload(premium_rate, horizon=horizon, seed=seed)
    prem = type(prem)(
        **{
            **prem.__dict__,
            "tenant_mix": (("premium", 1.0),),
            "registry": registry,
        }
    ).generate()
    bat = make_workload(batch_rate, horizon=horizon, seed=seed + 1000)
    bat = type(bat)(
        **{
            **bat.__dict__,
            "tenant_mix": (("batch", 1.0),),
            "registry": registry,
        }
    ).generate(start_id=1_000_000)
    return sorted(prem + bat, key=lambda r: (r.arrival, r.request_id))


def _premium_p99_latency(metrics, requests: Sequence[Request]) -> float:
    prem_ids = {r.request_id for r in requests if r.tenant == "premium"}
    lats = sorted(
        finish - arrival
        for rid, (arrival, finish) in metrics.finish_times.items()
        if rid in prem_ids
    )
    if not lats:
        return 0.0
    rank = max(1, math.ceil(0.99 * len(lats)))
    return lats[rank - 1]


def tenancy_point(
    seed: int,
    *,
    ramp: float = 8.0,
    premium_rate: float = 30.0,
    quota: float = 400.0,
    horizon: float = 30.0,
) -> dict:
    """One noisy-neighbor differential cell.

    Three runs at equal premium load: premium running *solo* under the
    plane (the isolation reference), the mixed trace *tenant-blind*
    (the throughput reference), and the mixed trace under the plane —
    with the batch tenant offering ``ramp``x its token-bucket quota.
    """
    registry = _registry(quota)
    batch_rate = ramp * quota / _MEAN_LEN
    mixed = _mixed_requests(
        seed,
        premium_rate=premium_rate,
        batch_rate=batch_rate,
        horizon=horizon,
        registry=registry,
    )
    solo = _mixed_requests(
        seed,
        premium_rate=premium_rate,
        batch_rate=1e-9,
        horizon=horizon,
        registry=registry,
    )
    solo = [r for r in solo if r.tenant == "premium"]
    cell: dict = {
        "seed": seed,
        "ramp": ramp,
        "premium_rate": premium_rate,
        "quota": quota,
        "batch_rate": batch_rate,
    }

    def _run(requests, plane):
        sim = ServingSimulator(
            make_scheduler("das", _BATCH),
            ConcatEngine(_BATCH),
            tenancy=plane,
        )
        m = sim.run(requests, horizon=horizon).metrics
        m.assert_conservation()
        return m

    plane = TenancyPlane(registry, seed=seed)
    m_solo = _run(solo, plane)
    led = plane.book.ledger("premium")
    cell["premium_solo"] = {
        "on_time_rate": led.on_time_rate,
        "served": led.served,
        "p99_latency": _premium_p99_latency(m_solo, solo),
    }

    m_blind = _run(mixed, None)
    cell["blind"] = {
        "served_tokens": sum(r.length for r in m_blind.served),
        "served": m_blind.num_served,
    }

    plane = TenancyPlane(registry, seed=seed)
    m_plane = _run(mixed, plane)
    prem = plane.book.ledger("premium")
    bat = plane.book.ledger("batch")
    cell["plane"] = {
        "served_tokens": sum(r.length for r in m_plane.served),
        "served": m_plane.num_served,
        "premium_on_time_rate": prem.on_time_rate,
        "premium_p99_latency": _premium_p99_latency(m_plane, mixed),
        "batch_quota_rejected": bat.quota_rejected,
        "batch_served": bat.served,
    }

    solo_rate = cell["premium_solo"]["on_time_rate"]
    cell["premium_retention"] = (
        1.0
        if solo_rate <= 0
        else cell["plane"]["premium_on_time_rate"] / solo_rate
    )
    blind_tokens = cell["blind"]["served_tokens"]
    cell["throughput_retention"] = (
        1.0
        if blind_tokens <= 0
        else cell["plane"]["served_tokens"] / blind_tokens
    )
    return cell


def run_tenancy(
    ramps: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    *,
    premium_rate: float = 30.0,
    quota: float = 400.0,
    horizon: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> dict[str, list[float]]:
    """Noisy-neighbor ramp sweep (``python -m repro ablation tenancy``).

    Seed-averaged per ramp multiple: premium on-time rate (mixed vs
    solo), aggregate served tokens (plane vs tenant-blind), and the
    batch tenant's quota rejections.
    """
    out: dict[str, list[float]] = {"batch_ramp": list(ramps)}
    out.update(
        seed_means(
            ramps,
            seeds,
            lambda ramp, seed: tenancy_point(
                seed,
                ramp=ramp,
                premium_rate=premium_rate,
                quota=quota,
                horizon=horizon,
            ),
            {
                "premium_on_time": lambda c: c["plane"]["premium_on_time_rate"],
                "premium_solo_on_time": lambda c: c["premium_solo"]["on_time_rate"],
                "premium_retention": lambda c: c["premium_retention"],
                "served_tokens_plane": lambda c: c["plane"]["served_tokens"],
                "served_tokens_blind": lambda c: c["blind"]["served_tokens"],
                "throughput_retention": lambda c: c["throughput_retention"],
                "batch_quota_rejected": lambda c: c["plane"]["batch_quota_rejected"],
            },
        )
    )
    return out


def tenancy_smoke(
    *,
    seeds: Sequence[int] = (0, 1, 2),
    ramp: float = 8.0,
    premium_rate: float = 30.0,
    quota: float = 400.0,
    horizon: float = 30.0,
    premium_margin: float = SMOKE_PREMIUM_MARGIN,
    throughput_margin: float = SMOKE_THROUGHPUT_MARGIN,
    artifact_dir: str = "benchmarks/results/tenancy_smoke",
    artifact: Optional[str] = "sweep.json",
) -> None:
    """CI noisy-neighbor smoke: isolation *and* throughput retention.

    Per seed, at ``ramp``x the batch tenant's quota: the premium
    tenant's on-time rate must stay within ``premium_margin`` of its
    solo reference, and aggregate served tokens within
    ``throughput_margin`` of the tenant-blind baseline.  Prints one
    line per seed, writes the sweep JSON into *artifact_dir* (always —
    the artifact is the record, not just the failure dump), and raises
    ``SystemExit(1)`` on any gate failure.
    """
    cells = []
    failures = []
    for seed in seeds:
        cell = tenancy_point(
            seed,
            ramp=ramp,
            premium_rate=premium_rate,
            quota=quota,
            horizon=horizon,
        )
        cells.append(cell)
        ok_premium = cell["premium_retention"] >= 1.0 - premium_margin
        ok_tokens = cell["throughput_retention"] >= 1.0 - throughput_margin
        print(
            f"tenancy smoke: seed={seed} "
            f"premium on-time {cell['premium_solo']['on_time_rate']:.2f} solo "
            f"-> {cell['plane']['premium_on_time_rate']:.2f} mixed "
            f"({cell['premium_retention']:.0%} retained) "
            f"tokens {cell['blind']['served_tokens']} blind "
            f"-> {cell['plane']['served_tokens']} plane "
            f"({cell['throughput_retention']:.0%} retained) "
            f"quota_rejected={cell['plane']['batch_quota_rejected']} "
            f"{'OK' if ok_premium and ok_tokens else 'GATE FAILED'}"
        )
        if not (ok_premium and ok_tokens):
            failures.append(seed)
    if artifact is not None:
        art = Path(artifact_dir)
        art.mkdir(parents=True, exist_ok=True)
        (art / artifact).write_text(
            json.dumps(
                {
                    "ramp": ramp,
                    "premium_margin": premium_margin,
                    "throughput_margin": throughput_margin,
                    "quota": quota,
                    "cells": cells,
                    "failures": failures,
                },
                indent=2,
            )
        )
    if failures:
        raise SystemExit(
            f"tenancy smoke: seed(s) {failures} failed the isolation/"
            f"throughput gates; sweep written to {artifact_dir}/"
        )
    print(
        f"tenancy smoke: {len(seeds)} seeds, premium kept >= "
        f"{1.0 - premium_margin:.0%} of its solo on-time rate and the "
        f"cluster kept >= {1.0 - throughput_margin:.0%} of tenant-blind "
        f"served tokens at {ramp:.0f}x quota"
    )
