"""Determinism audit: verify what the bench and chaos gates assume.

Everything in this repository — the regression gate, the pinned chaos
regression seeds, the observability no-effect claim — rests on one
property: a simulation is a pure function of its seed and
configuration.  Nothing used to *verify* that property; this module
does, as ``python -m repro audit``.

For every pinned case the audit runs the simulation **twice** (in
separate spawned worker processes at ``--jobs`` > 1, so each run gets a
fresh interpreter and a fresh string-hash seed) and diffs

* the final replica **state digests** of every site,
* the per-site **commit/abort histories** (virtual time, gid, kind),
* the **trace digest** (every protocol event the tracer records), and
* the deterministic scalar counters (commits, events processed,
  messages delivered, virtual time).

Where earlier PRs claim equivalence, the audit additionally runs the
claimed-equivalent configuration and compares digests:

* ``obs`` axis — attaching the observability layer must not change any
  outcome (PR 3's claim);
* ``profile`` axis — attaching the deterministic sim-loop profiler
  (repro.obs.profile) must not change *anything*, including event and
  message counts and the trace digest, so this axis compares the FULL
  key set rather than the protocol subset.

Every run also checks run ``a`` of each selected case against the
committed golden record (``AUDIT_golden.json`` at the repository root)
on the FULL key set — the ``golden`` axis.  The two runs of the
determinism axis can only prove that a simulation repeats itself; the
golden record proves it still does what it did when the record was
taken, so a behaviour change shows up as a diff to a committed file.
A case with no golden entry fails, and so does a golden entry with no
case.  ``python -m repro audit --record`` rewrites the record from a
passing audit.

Any divergence fails loudly: the report names the case, the digest keys
that differ, the first divergent line (from the ``--dump-dir``
artifacts), and a **minimal repro command**.

Test hook: setting ``REPRO_AUDIT_SABOTAGE=1`` in the environment
perturbs the seed of the second determinism run of every chaos case.
That makes the two runs genuinely different simulations, which the audit
must report as a divergence — the integration tests use it to prove the
auditor actually fails when determinism breaks.  Never set it outside a
test.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Digest/counter keys that every repeated run must reproduce exactly
#: ("determinism" axis).  ``trace`` and ``schedule`` exist only for
#: cases that attach a tracer (chaos); absent keys compare as absent on
#: both sides.
FULL_KEYS = ("state", "history", "aborts", "trace", "schedule",
             "commits", "txn_aborts", "virtual_time", "events_processed",
             "messages_delivered", "ok")

#: The protocol-level subset for the ``obs`` axis: observability may
#: change how many events it takes to get there, but never *where* the
#: system ends up.
PROTOCOL_KEYS = ("state", "history", "aborts", "commits", "txn_aborts",
                 "virtual_time", "ok")

SABOTAGE_ENV = "REPRO_AUDIT_SABOTAGE"

#: The committed golden record: run ``a`` of every case on FULL_KEYS.
GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "AUDIT_golden.json")

#: Which material list backs each digest key (for first-divergence
#: reporting from dump artifacts).
_MATERIAL_OF = {"state": "state", "history": "history", "aborts": "aborts",
                "trace": "trace", "schedule": "schedule"}


@dataclass(frozen=True)
class AuditCase:
    """One pinned simulation plus the equivalence axes it must satisfy.

    Every case always gets the determinism and golden axes; ``axes``
    adds ``"obs"`` and/or ``"profile"`` variants.
    """

    case_id: str
    kind: str  # "bench" | "chaos"
    params: Dict[str, Any] = field(default_factory=dict)
    axes: Tuple[str, ...] = ()


def _chaos_case(mode: str, seed: int, axes: Tuple[str, ...] = (),
                **overrides: Any) -> AuditCase:
    params = {"seed": seed, "mode": mode, "intensity": 0.5, "n_sites": 4,
              "db_size": 40, "duration": 1.5, "arrival_rate": 60.0}
    params.update(overrides)
    # Client-mode storms get their own id namespace so they never
    # collide with the open-loop case for the same (mode, seed).
    prefix = "chaos-clients" if params.get("clients") else "chaos"
    return AuditCase(case_id=f"{prefix}:{mode}:{seed}", kind="chaos",
                     params=params, axes=axes)


def _build_cases() -> Dict[str, AuditCase]:
    cases: List[AuditCase] = []
    # The pinned bench matrix (smoke scale).
    for scenario in ("throughput", "figure1", "figure2_evs", "chaos",
                     "client_failover"):
        cases.append(AuditCase(case_id=f"bench:{scenario}", kind="bench",
                               params={"scenario": scenario, "smoke": True}))
    # The pinned chaos regression seeds (tests/integration/
    # test_chaos_regressions.py) — each once exposed a real protocol bug,
    # so each must also be exactly reproducible.
    for mode, seed in (("evs", 9), ("evs", 2), ("evs", 14), ("evs", 23),
                       ("evs", 12), ("vs", 23)):
        cases.append(_chaos_case(mode, seed))
    # One storm carrying the observability-equivalence axis (PR 3's
    # claim) and the profiler-equivalence axis on top of determinism.
    cases.append(_chaos_case("vs", 7, axes=("obs", "profile"),
                             intensity=0.6))
    # Client-mode storms: the same pinned seeds driven by closed-loop
    # ClientSession fleets (repro.client) — session timers, failover
    # site picks and dedup suppression must all replay exactly.
    for mode, seed in (("evs", 2), ("vs", 23)):
        cases.append(_chaos_case(mode, seed, clients=6))
    # Endurance churn runs: the composed long-horizon schedule (rolling
    # restarts, partition storms, join/leave churn, stabilization) must
    # replay byte-for-byte too, including its availability timeline.
    for mode, seed in (("vs", 0), ("evs", 0)):
        cases.append(AuditCase(case_id=f"endurance:{mode}:{seed}",
                               kind="endurance",
                               params={"seed": seed, "mode": mode,
                                       "duration": 6.0},
                               axes=("profile",) if mode == "vs" else ()))
    # The logless reconfiguration backend (config-as-replicated-state,
    # docs/RECONFIG_BACKENDS.md): one pinned chaos storm and one
    # endurance churn run must replay byte-for-byte, like the EVS ones.
    # The variant-"b" sabotage hook (REPRO_AUDIT_SABOTAGE) perturbs the
    # seed for these kinds too, so the non-vacuity self-test covers them.
    cases.append(AuditCase(case_id="backend:logless:chaos", kind="chaos",
                           params={"seed": 9, "backend": "logless",
                                   "intensity": 0.5, "n_sites": 4,
                                   "db_size": 40, "duration": 1.5,
                                   "arrival_rate": 60.0}))
    cases.append(AuditCase(case_id="backend:logless:endurance",
                           kind="endurance",
                           params={"seed": 0, "backend": "logless",
                                   "duration": 6.0}))
    # Schedules pinned by the adversarial search (repro.search.pinned):
    # each is one exact genome whose replay — the very property the
    # search's corpus and minimal-repro artifacts rely on — must stay
    # byte-identical.  The variant-"b" sabotage hook perturbs the
    # genome's seed, so the non-vacuity self-test covers this kind too.
    for pinned_name in ("utd-flush-clobber", "shatter-corrupt-churn"):
        cases.append(AuditCase(case_id=f"schedule:{pinned_name}",
                               kind="schedule",
                               params={"pinned": pinned_name}))
    return {case.case_id: case for case in cases}


CASES: Dict[str, AuditCase] = _build_cases()


# ----------------------------------------------------------------------
# Digest collection
# ----------------------------------------------------------------------
def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _collect(cluster, tracer=None, schedule: Optional[List[str]] = None,
             ok: Optional[bool] = None,
             materials: bool = False) -> Dict[str, Any]:
    """Digest a finished run: state, histories, aborts, trace, counters.

    With ``materials=True`` the raw digested lines are included too (for
    divergence dumps and first-divergent-line reporting)."""
    state_lines = []
    for site in sorted(cluster.nodes):
        node = cluster.nodes[site]
        content = repr(node.db.store.content_digest()) if node.alive else "<down>"
        state_lines.append(f"{site} {node.status.value} {content}")
    history_lines = []
    for site in sorted(cluster.history.by_site):
        for event in cluster.history.by_site[site]:
            history_lines.append(
                f"{site} {event.time:.9f} {event.gid} {event.kind}"
            )
    abort_gids = sorted({e.gid for e in cluster.history.events
                         if e.kind == "abort"})
    commit_gids = {e.gid for e in cluster.history.events if e.kind == "commit"}
    payload: Dict[str, Any] = {
        "digests": {
            "state": _sha("\n".join(state_lines)),
            "history": _sha("\n".join(history_lines)),
            "aborts": _sha(repr(abort_gids)),
        },
        "counters": {
            "commits": len(commit_gids),
            "txn_aborts": len(abort_gids),
            "virtual_time": repr(cluster.sim.now),
            "events_processed": cluster.sim.events_processed,
            "messages_delivered": cluster.network.messages_delivered,
            "ok": ok,
        },
    }
    trace_lines: List[str] = []
    if tracer is not None:
        trace_lines = [str(event) for event in tracer.events]
        payload["digests"]["trace"] = _sha("\n".join(trace_lines))
    if schedule is not None:
        payload["digests"]["schedule"] = _sha("\n".join(schedule))
    if materials:
        payload["materials"] = {
            "state": state_lines,
            "history": history_lines,
            "aborts": [str(gid) for gid in abort_gids],
            "trace": trace_lines,
            "schedule": schedule or [],
        }
    return payload


def _flatten(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One flat {key: value} view over digests + counters, for
    comparisons against FULL_KEYS / PROTOCOL_KEYS."""
    flat: Dict[str, Any] = dict(payload.get("digests", {}))
    flat.update(payload.get("counters", {}))
    return flat


def golden_entry(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The golden record of one run: its FULL_KEYS values, flat."""
    flat = _flatten(payload)
    return {key: flat[key] for key in FULL_KEYS if key in flat}


def load_golden(path: str) -> Dict[str, Dict[str, Any]]:
    """Read a golden record; a missing file is an empty record, so every
    case then fails as having no entry."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_golden(path: str, entries: Dict[str, Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sabotaged(params: Dict[str, Any], variant: str) -> Dict[str, Any]:
    if variant == "b" and os.environ.get(SABOTAGE_ENV):
        params = dict(params)
        params["seed"] = params.get("seed", 0) + 100003
    return params


def execute_variant(case_id: str, variant: str,
                    materials: bool = False) -> Dict[str, Any]:
    """Run one (case, variant) cell and return its digest payload.

    Variants: ``a``/``b`` — two identical determinism runs (``b`` is the
    one the sabotage test hook perturbs); ``obs`` — full observability
    attached; ``profile`` — the deterministic sim-loop profiler attached.
    """
    case = CASES[case_id]
    if case.kind == "bench":
        from repro import bench

        result = bench.run_scenario(case.params["scenario"],
                                    smoke=case.params.get("smoke", True))
        cluster = result.cluster
        if cluster is None:
            return {"fleet_error": f"{case_id}: scenario returned no cluster"}
        return _collect(cluster, tracer=getattr(cluster, "tracer", None),
                        ok=result.completed, materials=materials)
    if case.kind == "chaos":
        from repro.faults.chaos import ChaosConfig, ChaosEngine

        params = _sabotaged(dict(case.params), variant)
        if variant == "obs":
            params["observe"] = True
        if variant == "profile":
            params["profile"] = True
        engine = ChaosEngine(ChaosConfig(**params))
        report = engine.run()
        schedule = [f"{time:.6f} {action} {detail}"
                    for time, action, detail in report.events]
        return _collect(engine.cluster, tracer=report.tracer,
                        schedule=schedule, ok=report.ok, materials=materials)
    if case.kind == "endurance":
        from repro.endurance import EnduranceConfig, EnduranceEngine

        params = _sabotaged(dict(case.params), variant)
        if variant == "obs":
            params["observe"] = True
        if variant == "profile":
            params["profile"] = True
        engine = EnduranceEngine(EnduranceConfig(**params))
        report = engine.run()
        schedule = [f"{time:.6f} {action} {detail}"
                    for time, action, detail in report.events]
        return _collect(engine.cluster, tracer=report.tracer,
                        schedule=schedule, ok=report.ok, materials=materials)
    if case.kind == "schedule":
        from dataclasses import replace as dc_replace

        from repro.search.executor import ScheduleExecutor
        from repro.search.pinned import PINNED

        genome = PINNED[case.params["pinned"]].genome
        params = _sabotaged({"seed": genome.seed}, variant)
        if params["seed"] != genome.seed:
            genome = dc_replace(genome, seed=params["seed"])
        executor = ScheduleExecutor(genome)
        report = executor.run()
        schedule = [f"{time:.6f} {action} {detail}"
                    for time, action, detail in report.events]
        return _collect(executor.cluster, tracer=report.tracer,
                        schedule=schedule, ok=report.ok, materials=materials)
    raise ValueError(f"unknown case kind {case.kind!r}")


# ----------------------------------------------------------------------
# Comparison and reporting
# ----------------------------------------------------------------------
@dataclass
class AuditFailure:
    case_id: str
    axis: str  # "determinism" | "obs" | "profile" | "golden" | "error" | "broken"
    detail: str
    repro: str
    diverging_keys: Tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"FAIL {self.case_id} [{self.axis}]: {self.detail}",
                 f"  repro: {self.repro}"]
        return "\n".join(lines)


@dataclass
class AuditOutcome:
    passed: List[str] = field(default_factory=list)
    failures: List[AuditFailure] = field(default_factory=list)
    #: Where ``record=True`` wrote the golden record (None: not written).
    recorded: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"PASS {case}" for case in self.passed]
        lines.extend(failure.render() for failure in self.failures)
        verdict = ("determinism audit: PASS "
                   f"({len(self.passed)} cases)" if self.ok else
                   f"determinism audit: FAIL ({len(self.failures)} "
                   f"divergence(s) across {len(self.passed) + len({f.case_id for f in self.failures})} cases)")
        lines.append(verdict)
        if self.recorded is not None:
            lines.append(f"golden record written to {self.recorded}")
        return "\n".join(lines)


def _repro_command(case_id: str) -> str:
    return f"PYTHONPATH=src python -m repro audit --case {case_id}"


def _compare(case_id: str, axis: str, keys: Sequence[str],
             flat_left: Dict[str, Any], flat_right: Dict[str, Any],
             left_name: str, right_name: str) -> Optional[AuditFailure]:
    diverging = tuple(
        key for key in keys
        if flat_left.get(key) != flat_right.get(key)
    )
    if not diverging:
        return None
    parts = []
    for key in diverging:
        parts.append(f"{key}: {left_name}={flat_left.get(key)!r} "
                     f"{right_name}={flat_right.get(key)!r}")
    return AuditFailure(
        case_id=case_id, axis=axis,
        detail=(f"runs '{left_name}' and '{right_name}' diverge on "
                f"{', '.join(diverging)}\n    " + "\n    ".join(parts)),
        repro=_repro_command(case_id),
        diverging_keys=diverging,
    )


def compare_to_golden(runs_a: Dict[str, Dict[str, Any]],
                      golden: Dict[str, Dict[str, Any]]) -> List[AuditFailure]:
    """Check run ``a`` of each case in ``runs_a`` against ``golden``.

    Like :func:`repro.bench.compare_to_baseline`, a mismatch between the
    two sets fails in both directions: a case with no golden entry, and
    a golden entry whose case no longer exists.
    """
    failures: List[AuditFailure] = []
    for case_id, payload in runs_a.items():
        entry = golden.get(case_id)
        if entry is None:
            failures.append(AuditFailure(
                case_id=case_id, axis="golden",
                detail="no golden entry for this case — record one with "
                       "`python -m repro audit --record`",
                repro=_repro_command(case_id)))
            continue
        failure = _compare(case_id, "golden", FULL_KEYS, entry,
                           _flatten(payload), "golden", "a")
        if failure:
            failures.append(failure)
    for case_id in sorted(set(golden) - set(CASES)):
        failures.append(AuditFailure(
            case_id=case_id, axis="golden",
            detail="golden entry for a case that no longer exists — "
                   "re-record with `python -m repro audit --record`",
            repro="PYTHONPATH=src python -m repro audit --record"))
    return failures


def _variants_of(case: AuditCase) -> List[str]:
    # Each equivalence axis runs the variant of the same name.
    return ["a", "b", *case.axes]


def _clip(line: str, limit: int = 160) -> str:
    return line if len(line) <= limit else line[:limit] + "…"


def _first_divergence(left: List[str], right: List[str]) -> str:
    for index, (line_a, line_b) in enumerate(zip(left, right)):
        if line_a != line_b:
            return (f"first divergence at line {index}:\n"
                    f"      a: {_clip(line_a)}\n      b: {_clip(line_b)}")
    if len(left) != len(right):
        shorter, longer, name = ((left, right, "b") if len(left) < len(right)
                                 else (right, left, "a"))
        return (f"one run is a prefix of the other; first extra line "
                f"({name}, line {len(shorter)}): "
                f"{_clip(longer[len(shorter)])}")
    return "digests differ but materials are identical (digest-input bug?)"


def _dump_name(case_id: str, variant: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", case_id)
    return f"{safe}.{variant}.json"


def check_dump_dir(dump_dir: Optional[str], force: bool = False) -> None:
    """Refuse to write into a non-empty dump directory without ``force``.

    Divergence artifacts are only meaningful as a matched pair from one
    audit run; mixing them with leftovers of an earlier run (or letting
    stale ones get committed by accident) is exactly how confusing
    "divergences" end up in review.  Called by the CLI before the audit
    starts, so the refusal is loud and immediate.
    """
    if force or dump_dir is None or not os.path.isdir(dump_dir):
        return
    leftover = [name for name in sorted(os.listdir(dump_dir))
                if not name.startswith(".")]
    if leftover:
        raise ValueError(
            f"dump dir {dump_dir!r} already contains {len(leftover)} "
            f"file(s) (e.g. {leftover[0]!r}); stale divergence artifacts "
            f"from an earlier run would be clobbered or mixed in — move "
            f"them away or pass --force"
        )


def _write_dumps(case_id: str, failure: AuditFailure,
                 variant_pair: Tuple[str, str], dump_dir: str,
                 jobs: int) -> str:
    """Re-run the two diverging variants with full materials, write both
    artifacts, and report the first divergent line of the first
    diverging material-backed digest."""
    from repro.fleet import FleetTask, run_fleet

    tasks = [
        FleetTask(key=variant, kind="audit",
                  params={"case_id": case_id, "variant": variant,
                          "materials": True})
        for variant in variant_pair
    ]
    payloads = run_fleet(tasks, jobs=min(jobs, 2))
    os.makedirs(dump_dir, exist_ok=True)
    paths = []
    for variant in variant_pair:
        path = os.path.join(dump_dir, _dump_name(case_id, variant))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payloads[variant], handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    notes = [f"dumps: {paths[0]} vs {paths[1]}"]
    left = payloads[variant_pair[0]].get("materials", {})
    right = payloads[variant_pair[1]].get("materials", {})
    for key in failure.diverging_keys:
        material = _MATERIAL_OF.get(key)
        if material and (left.get(material) or right.get(material)):
            notes.append(f"{key} — " + _first_divergence(
                left.get(material, []), right.get(material, [])))
            break
    return "\n  ".join(notes)


def run_audit(case_ids: Optional[Sequence[str]] = None, jobs: int = 1,
              dump_dir: Optional[str] = None, golden: str = GOLDEN_PATH,
              record: bool = False) -> AuditOutcome:
    """Run the audit over the given cases (default: all pinned cases).

    Each case's variant runs are dispatched as independent fleet tasks,
    so at ``jobs`` > 1 the two determinism runs land in *different*
    worker processes — a strictly stronger check than repeating in one
    interpreter.  On divergence, ``dump_dir`` receives one JSON artifact
    per diverging variant with the full digested material.

    Run ``a`` of every selected case is checked against the golden
    record at ``golden``.  With ``record=True`` that check is skipped
    and, if every other axis passes, the record is rewritten instead:
    the selected cases get fresh entries, entries of other existing
    cases are kept, and entries of cases that no longer exist are
    dropped.
    """
    from repro.fleet import FleetTask, run_fleet

    if case_ids is None:
        selected = list(CASES)
    else:
        unknown = sorted(set(case_ids) - set(CASES))
        if unknown:
            raise ValueError(
                f"unknown audit case(s) {', '.join(unknown)}; "
                f"valid choices: {', '.join(CASES)}"
            )
        selected = list(case_ids)
    tasks = [
        FleetTask(key=f"{case_id}::{variant}", kind="audit",
                  params={"case_id": case_id, "variant": variant})
        for case_id in selected
        for variant in _variants_of(CASES[case_id])
    ]
    payloads = run_fleet(tasks, jobs=jobs)
    recorded = load_golden(golden)
    golden_failures: Dict[str, List[AuditFailure]] = {}
    if not record:
        runs_a = {case_id: payloads[f"{case_id}::a"] for case_id in selected
                  if "fleet_error" not in payloads[f"{case_id}::a"]}
        for failure in compare_to_golden(runs_a, recorded):
            golden_failures.setdefault(failure.case_id, []).append(failure)
    outcome = AuditOutcome()
    for case_id in selected:
        case = CASES[case_id]
        runs = {variant: payloads[f"{case_id}::{variant}"]
                for variant in _variants_of(case)}
        crashed = [variant for variant, payload in runs.items()
                   if "fleet_error" in payload]
        if crashed:
            for variant in crashed:
                outcome.failures.append(AuditFailure(
                    case_id=case_id, axis="error",
                    detail=f"variant {variant} crashed:\n"
                           f"{runs[variant]['fleet_error']}",
                    repro=_repro_command(case_id)))
            continue
        flat = {variant: _flatten(payload) for variant, payload in runs.items()}
        failures: List[Tuple[AuditFailure, Optional[Tuple[str, str]]]] = []
        pairs = [("determinism", "b")] + [(axis, axis) for axis in case.axes]
        for axis, variant in pairs:
            # Observability may add events; the profiler must not change
            # a single one, so it is held to the full key set.
            keys = PROTOCOL_KEYS if axis == "obs" else FULL_KEYS
            failure = _compare(case_id, axis, keys, flat["a"], flat[variant],
                               "a", variant)
            if failure:
                failures.append((failure, ("a", variant)))
        failures.extend((failure, None)
                        for failure in golden_failures.pop(case_id, ()))
        # A case that "reproducibly fails" is still broken: the pinned
        # scenarios must complete and pass their invariant checks.
        if flat["a"].get("ok") is False:
            failures.append((AuditFailure(
                case_id=case_id, axis="broken",
                detail="the pinned scenario itself did not complete/pass",
                repro=_repro_command(case_id),
            ), None))
        if not failures:
            outcome.passed.append(case_id)
            continue
        for failure, pair in failures:
            if dump_dir is not None and pair is not None:
                failure.detail += "\n  " + _write_dumps(
                    case_id, failure, pair, dump_dir, jobs)
            outcome.failures.append(failure)
    # Entries with no case are not tied to a selected case.
    for stale in golden_failures.values():
        outcome.failures.extend(stale)
    if record and outcome.ok:
        entries = {case_id: entry for case_id, entry in recorded.items()
                   if case_id in CASES}
        entries.update((case_id, golden_entry(payloads[f"{case_id}::a"]))
                       for case_id in selected)
        write_golden(golden, entries)
        outcome.recorded = golden
    return outcome
