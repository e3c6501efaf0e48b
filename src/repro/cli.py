"""Command-line interface: ``python -m repro <command>``.

Commands
--------
tables            print Table 1 and Table 2
load SITE         load one corpus site over every network and stack
sweep             record the named-site grid (populates the disk cache)
campaign          run a declarative, resumable campaign over a process pool
study             Table 3 + Figures 3-6; shardable over a campaign dir
                  (``--shard I:K``), warm query server (``--serve``)
sites             list the 36 corpus sites with their characteristics
export SITE PATH  write a corpus site as HAR-flavoured JSON
lint              determinism & hot-path static analysis (simlint)

``campaign`` is the scale-out entry point: arbitrary axes (sites,
networks incl. ``--loss-sweep`` derived profiles, stacks, seeds), live
progress, a worker failure policy, and exact resume — re-running the
same spec skips every already-recorded condition. ``campaign --report``
streams the recorded summaries through the incremental accumulators and
renders a Table 1/2-style pivot (mean ± CI per cell, Welch significance
marks); with ``--campaign-dir`` it reports post-hoc on a finished
campaign directory without re-running anything.

Campaigns also scale *out*: ``campaign --join DIR`` joins an existing
campaign directory as one cooperative lease-claiming worker, from any
host that mounts it, and ``campaign --workers N`` (with or without
``--join``) runs N such workers locally under a supervisor — workers
never simulate a condition twice and each flushes a mergeable partial
aggregate (see ``repro.testbed.distributed`` and
``docs/architecture.md``). ``--report --campaign-dir DIR
--from-partials`` merges those per-worker shards instead of re-reading
every summary.

And they are chaos-hardened: the ``--workers`` supervisor splits the
CPUs among its workers, respawns crashes with capped backoff and
quarantines conditions that keep killing workers;
``--inject-faults PLAN`` arms a deterministic fault plan (crashes,
heartbeat stalls, torn manifest writes, lease storms — see
``repro.testbed.faults``); ``campaign --status DIR`` prints a one-shot
health report over a live or finished campaign directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from statistics import fmean
from typing import List, Optional, Tuple

from repro import axes
from repro.analysis.streaming import GridReport
from repro.lint.cli import add_lint_arguments
from repro.lint.cli import run as run_lint_cli
from repro.browser.engine import load_page
from repro.browser.metrics import VisualMetrics
from repro.netem.profiles import NETWORKS, network_by_name, with_loss
from repro.report import (
    md_grid,
    render_grid,
    render_table,
    render_table1,
    render_table2,
)
from repro.study.design import StudyPlan
from repro.testbed import faults
from repro.testbed.campaign import (
    Campaign,
    CampaignSpec,
    ProgressPrinter,
)
from repro.testbed.distributed import (
    LeaseConfig,
    default_worker_id,
    join_campaign,
    merge_partial_reports,
    run_worker,
)
from repro.testbed.supervisor import (
    Supervisor,
    campaign_status,
    render_status,
)
from repro.testbed.harness import Testbed
from repro.testbed.store import StaleCampaignError, SummaryStore
from repro.transport.config import STACKS
from repro.web.corpus import CORPUS_SITE_NAMES, build_corpus, build_site
from repro.web.io import save_website

#: Sites used by the quick `sweep` / `study` commands.
DEFAULT_SITES = [
    "wikipedia.org", "gov.uk", "etsy.com", "spotify.com", "apache.org",
    "wordpress.com",
]

#: Grid-defining `repro campaign` flag defaults, shared between
#: build_parser() and the --join conflict guard (a value equal to its
#: default is treated as "not explicitly requested").
CAMPAIGN_GRID_DEFAULTS = {
    "seeds": [0],
    **{axis.plural: [axis.default_token] for axis in axes.OPTIONAL_AXES},
    "runs": 5,
    "timeout": 180.0,
    "metric": "PLT",
    "name": "cli-campaign",
}


def _cmd_tables(_: argparse.Namespace) -> int:
    print(render_table1())
    print()
    print(render_table2())
    return 0


def _cmd_sites(_: argparse.Namespace) -> int:
    rows = []
    for site in build_corpus(seed=0):
        summary = site.summary()
        rows.append((summary["name"], summary["objects"],
                     f"{summary['bytes'] / 1000:.0f} kB",
                     summary["hosts"]))
    print(render_table(("site", "objects", "weight", "hosts"), rows))
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    site = build_site(args.site, seed=args.seed)
    print(f"{site.name}: {site.object_count} objects, "
          f"{site.total_bytes / 1000:.0f} kB, {site.host_count} hosts\n")
    rows = []
    for profile in NETWORKS:
        for stack in STACKS:
            result = load_page(site, profile, stack, seed=args.seed)
            m = result.metrics
            rows.append((profile.name, stack.name, f"{m.fvc:.2f}",
                         f"{m.si:.2f}", f"{m.plt:.2f}",
                         "ok" if result.completed else "timeout"))
    print(render_table(("network", "stack", "FVC", "SI", "PLT", "state"),
                       rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    testbed = Testbed(runs=args.runs, seed=args.seed)
    sites = args.sites or DEFAULT_SITES
    summaries = testbed.sweep(sites=sites)
    print(f"recorded {len(summaries)} conditions "
          f"({len(sites)} sites x 4 networks x 5 stacks), "
          f"{args.runs} runs each")
    mean_si = fmean(s.si for s in summaries)
    print(f"mean SI over the grid: {mean_si:.2f} s")
    return 0


def _parse_loss_sweep(entries: List[str]) -> List[object]:
    """Parse ``NETWORK:p1,p2,...`` entries into derived profiles."""
    profiles = []
    for entry in entries:
        try:
            network, rates = entry.split(":", 1)
            parsed = [float(rate) for rate in rates.split(",") if rate]
        except ValueError:
            raise SystemExit(
                f"bad --loss-sweep entry {entry!r}; "
                f"expected NETWORK:p1,p2,... (e.g. DSL:0.01,0.02)")
        try:
            base = network_by_name(network)
        except KeyError as error:
            raise SystemExit(f"repro campaign: error: {error.args[0]}")
        profiles.extend(with_loss(base, rate) for rate in parsed)
    return profiles


def _parse_pivot(pivot: str) -> Tuple[Tuple[str, ...], str]:
    """``axis,...,axis`` → (row axes, column axis); last axis = columns."""
    names = [axis.strip() for axis in pivot.split(",") if axis.strip()]
    if len(names) < 2:
        raise SystemExit(
            f"repro campaign: error: --pivot needs at least two axes "
            f"(rows...,columns), got {pivot!r}")
    for axis in names:
        if axis not in axes.AXIS_NAMES:
            raise SystemExit(
                f"repro campaign: error: unknown pivot axis {axis!r}; "
                f"expected one of {', '.join(axes.AXIS_NAMES)}")
    if len(set(names)) != len(names):
        raise SystemExit(
            f"repro campaign: error: --pivot axes must be distinct, "
            f"got {pivot!r}")
    return tuple(names[:-1]), names[-1]


def _make_report(args: argparse.Namespace) -> GridReport:
    rows, cols = _parse_pivot(args.pivot)
    if args.report_metric not in VisualMetrics.METRIC_NAMES:
        raise SystemExit(
            f"repro campaign: error: unknown metric "
            f"{args.report_metric!r}; expected one of "
            f"{', '.join(VisualMetrics.METRIC_NAMES)}")
    if not 0.0 < args.confidence < 1.0:
        raise SystemExit(
            f"repro campaign: error: --confidence must be strictly "
            f"between 0 and 1, got {args.confidence:g}")
    return GridReport(rows=rows, cols=cols, metric=args.report_metric,
                      confidence=args.confidence)


def _print_report(report: GridReport, fmt: str) -> None:
    if fmt == "md":
        print(md_grid(report))
    elif fmt == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(render_grid(report))


def _lease_config(args: argparse.Namespace) -> LeaseConfig:
    try:
        return LeaseConfig(ttl_s=args.lease_ttl,
                           heartbeat_s=args.lease_heartbeat,
                           poll_s=args.lease_poll)
    except ValueError as error:
        raise SystemExit(f"repro campaign: error: {error}")


def _parse_fault_plan(text: str) -> "faults.FaultPlan":
    try:
        return faults.FaultPlan.parse(text)
    except (ValueError, OSError, json.JSONDecodeError) as error:
        raise SystemExit(
            f"repro campaign: error: bad --inject-faults plan: {error}")


def _report_merged(args: argparse.Namespace, campaign: Campaign,
                   info) -> None:
    """Render the merged (possibly degraded) post-run report."""
    try:
        merged = merge_partial_reports(campaign.campaign_dir,
                                       report=_make_report(args),
                                       cache_dir=args.cache_dir)
    except (StaleCampaignError, ValueError) as error:
        # E.g. shards left by an earlier run with different report
        # flags. The recordings themselves are fine — fall back to
        # streaming every summary rather than dropping the report
        # after a possibly long run.
        print(f"warning: cannot merge worker partials ({error}); "
              f"reporting from the recorded summaries instead",
              file=sys.stderr)
        merged = _make_report(args)
        store = SummaryStore.open(campaign.campaign_dir,
                                  cache_dir=args.cache_dir)
        merged.consume(store)
    if info is sys.stdout:
        print()
    _print_report(merged, args.format)


def _run_fleet(args: argparse.Namespace, campaign: Campaign,
               lease: LeaseConfig, plan: "faults.FaultPlan",
               run_kwargs: dict, info) -> int:
    """``--workers N``: N cooperative workers under a supervisor."""
    campaign.write_spec()
    print(f"supervising {args.workers} worker(s) over "
          f"{campaign.campaign_dir}"
          + (f", faults: {plan.describe()}" if plan else ""),
          file=info)
    outcome = Supervisor(
        campaign.campaign_dir,
        workers=args.workers,
        cache_dir=args.cache_dir,
        plan=plan,
        lease=lease,
        retry_budget=args.retry_budget,
        max_respawns=args.max_respawns,
        run_kwargs=dict(run_kwargs, claim_chunk=args.claim_chunk,
                        report=_make_report(args)),
        worker_id=args.worker_id,
    ).run()
    print(outcome.describe(), file=info)
    return 0 if outcome.ok else 1


def _run_in_process(args: argparse.Namespace, campaign: Campaign,
                    lease: LeaseConfig, plan: "faults.FaultPlan",
                    run_kwargs: dict, info) -> int:
    """A plain run, or one ``--join`` worker, with live progress."""
    if plan:
        faults.install(plan, worker=os.environ.get(faults.WORKER_ENV, "*"))
    progress = None if args.quiet else ProgressPrinter(stream=info)
    if args.join is None:
        result = campaign.run(progress=progress, **run_kwargs)
    else:
        worker_id = args.worker_id if args.worker_id is not None \
            else default_worker_id()
        print(f"worker {worker_id!r} joining campaign dir "
              f"{campaign.campaign_dir} (lease ttl {lease.ttl_s:g}s)",
              file=info)
        result = run_worker(campaign, worker_id=worker_id, lease=lease,
                            report=_make_report(args), progress=progress,
                            claim_chunk=args.claim_chunk, **run_kwargs)
    rate = len(result.results) / result.duration_s \
        if result.duration_s else 0
    print(f"done in {result.duration_s:.1f}s ({rate:.1f} conditions/s): "
          + ", ".join(f"{v} {k}" for k, v in sorted(result.counts.items())),
          file=info)
    for failed in result.failed:
        last = (failed.error or "").strip().splitlines()
        print(f"FAILED {failed.condition.label}: "
              f"{last[-1] if last else 'unknown error'}", file=info)
    if result.ok and not args.report:
        mean_si = fmean(s.si for _, s in campaign.iter_summaries())
        print(f"mean SI over the grid: {mean_si:.2f} s")
    return 0 if result.ok else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.status is not None:
        # One-shot read-only health report; safe against a live run.
        status = campaign_status(args.status, ttl_s=args.lease_ttl)
        if args.format == "json":
            print(json.dumps(status, indent=2))
        else:
            print(render_status(status))
        return 0
    if args.campaign_dir is not None:
        # Post-hoc reporting: stream a finished campaign directory's
        # summaries through the accumulators — nothing is re-run.
        report = _make_report(args)
        if args.from_partials:
            try:
                merged = merge_partial_reports(
                    args.campaign_dir, report=report,
                    cache_dir=args.cache_dir,
                    check_behaviour=not args.allow_stale)
            except StaleCampaignError as error:
                raise SystemExit(
                    f"repro campaign: error: {error} (from the CLI: "
                    f"--allow-stale)")
            except ValueError as error:
                raise SystemExit(f"repro campaign: error: {error}")
            _print_report(merged, args.format)
            return 0
        try:
            store = SummaryStore.open(args.campaign_dir,
                                      cache_dir=args.cache_dir,
                                      check_behaviour=not args.allow_stale)
        except StaleCampaignError as error:
            raise SystemExit(
                f"repro campaign: error: {error} (from the CLI: "
                f"--allow-stale)")
        # recorded_count() is the manifest's claim; comparing it against
        # what iteration yields detects a wrong/pruned cache directory.
        listed = store.recorded_count()
        fed = 0
        for key, summary in store:
            report.add(key, summary)
            fed += 1
        if listed and not fed:
            print(f"repro campaign: error: manifest lists {listed} "
                  f"recorded conditions but none were found in the "
                  f"cache ({store.cache.directory}) — wrong or pruned "
                  f"--cache-dir?", file=sys.stderr)
            return 1
        if fed < listed:
            print(f"warning: {listed - fed} of {listed} recorded "
                  f"conditions missing from the cache "
                  f"({store.cache.directory}); the report covers the "
                  f"remaining {fed}", file=sys.stderr)
        _print_report(report, args.format)
        return 0
    # With a JSON report, stdout must stay machine-parseable: all
    # progress/banner lines move to stderr.
    info = sys.stderr if args.report and args.format == "json" \
        else sys.stdout
    # Reject bad execution and report flags before anything is created
    # or spawned, not after a possibly long run.
    for flag, value in (("--workers", args.workers),
                        ("--claim-chunk", args.claim_chunk)):
        if value is not None and value < 1:
            raise SystemExit(f"repro campaign: error: {flag} must be at "
                             f"least 1, got {value}")
    _make_report(args)
    lease = _lease_config(args)
    plan = _parse_fault_plan(args.inject_faults) if args.inject_faults \
        else faults.FaultPlan()
    run_kwargs = dict(processes=args.processes, batch_size=args.batch_size,
                      failure_policy=args.failure_policy)
    if args.join is not None:
        # The joined directory's spec.json is the single source of
        # truth for the grid — grid flags would silently disagree.
        # (Non-default == explicitly requested; re-passing a default
        # is indistinguishable and harmlessly identical.)
        defaults = CAMPAIGN_GRID_DEFAULTS
        for flag, conflicting in (
                ("--sites", bool(args.sites)),
                ("--networks", bool(args.networks)),
                ("--stacks", bool(args.stacks)),
                ("--loss-sweep", bool(args.loss_sweep)),
                ("--seeds", args.seeds != defaults["seeds"]),
                *((f"--{axis.plural}",
                   getattr(args, axis.plural) != defaults[axis.plural])
                  for axis in axes.OPTIONAL_AXES),
                ("--runs", args.runs != defaults["runs"]),
                ("--timeout", args.timeout != defaults["timeout"]),
                ("--metric", args.metric != defaults["metric"]),
                ("--name", args.name != defaults["name"])):
            if conflicting:
                raise SystemExit(
                    f"repro campaign: error: {flag} conflicts with "
                    f"--join; the joined directory's spec.json "
                    f"defines the grid")
        try:
            campaign = join_campaign(args.join, cache_dir=args.cache_dir)
        except (FileNotFoundError, StaleCampaignError,
                ValueError) as error:
            raise SystemExit(f"repro campaign: error: {error}")
    else:
        campaign = _new_campaign(args, info)
    run = _run_fleet if args.workers is not None else _run_in_process
    code = run(args, campaign, lease, plan, run_kwargs, info)
    if args.report:
        _report_merged(args, campaign, info)
    return code


def _new_campaign(args: argparse.Namespace, info) -> Campaign:
    """The campaign the grid flags describe, announced on ``info``."""
    try:
        networks: List[object] = [network_by_name(name)
                                  for name in (args.networks or [])]
    except KeyError as error:
        raise SystemExit(f"repro campaign: error: {error.args[0]}")
    if not networks:
        networks = list(NETWORKS)
    if args.loss_sweep:
        networks.extend(_parse_loss_sweep(args.loss_sweep))
    spec = CampaignSpec(
        sites=args.sites or DEFAULT_SITES,
        networks=networks,
        stacks=args.stacks,
        seeds=args.seeds,
        **{axis.plural: getattr(args, axis.plural)
           for axis in axes.OPTIONAL_AXES},
        runs=args.runs,
        timeout=args.timeout,
        selection_metric=args.metric,
        name=args.name,
    )
    campaign = Campaign(spec, cache_dir=args.cache_dir)
    total = len(spec.conditions())
    optional_note = "".join(
        f" x {len(values)} {axis.plural}" for axis in axes.OPTIONAL_AXES
        if len(values := getattr(spec, axis.plural)) > 1)
    print(f"campaign {spec.name!r}: {total} conditions "
          f"({len(spec.sites)} sites x {len(spec.networks)} networks x "
          f"{len(spec.stacks)} stacks x {len(spec.seeds)} seeds"
          f"{optional_note}), {args.runs} runs each", file=info)
    print(f"manifest: {campaign.manifest_path}", file=info)
    return campaign


def _parse_shard(text: str) -> Tuple[int, int]:
    try:
        index_text, _, step_text = text.partition(":")
        index, step = int(index_text), int(step_text)
    except ValueError:
        raise SystemExit(
            f"repro study: error: --shard must look like I:K, "
            f"got {text!r}")
    if step < 1 or not 0 <= index < step:
        raise SystemExit(
            f"repro study: error: --shard needs 0 <= I < K, "
            f"got {text!r}")
    return index, step


def serve_study_queries(index, in_stream, out_stream) -> int:
    """JSON-lines query loop for ``repro study --serve``.

    One request object per input line; one response object per output
    line, annotated with the measured ``latency_ms``. Blank lines are
    ignored; ``quit`` ends the loop. Returns the number of requests
    answered.
    """
    import time

    answered = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        # simlint: allow[no-wallclock] -- measured serve latency reported to the client, not simulation input
        started = time.perf_counter()
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            response = {"ok": False, "error": f"invalid JSON: {error}"}
        else:
            response = index.query(request)
        response["latency_ms"] = round(
            # simlint: allow[no-wallclock] -- measured serve latency reported to the client, not simulation input
            (time.perf_counter() - started) * 1000.0, 3)
        print(json.dumps(response), file=out_stream, flush=True)
        answered += 1
    return answered


def _study_partial(index, plan, args, shard=(0, 1)):
    from repro.study.pipeline import build_partial

    return build_partial(index, plan, seed=args.seed,
                         participants_scale=args.scale, shard=shard)


def _merged_study_partial(index, plan, args, campaign_dir):
    """Merge flushed study partials; build inline when none exist."""
    from repro.study.pipeline import StudyPartial, merge_partials
    from repro.testbed.store import STUDY_PARTIALS_DIRNAME, SummaryStore

    store = SummaryStore.open(campaign_dir, cache_dir=args.cache_dir)
    paths = store.study_partial_paths()
    if not paths:
        return _study_partial(index, plan, args)
    try:
        return merge_partials([StudyPartial.load(path)
                               for path in paths])
    except ValueError as error:
        raise SystemExit(
            f"repro study: error: cannot merge "
            f"{STUDY_PARTIALS_DIRNAME}/: {error}")


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.study.pipeline import (
        ConditionIndex,
        StudyIndex,
        build_report,
    )
    from repro.testbed.store import (
        STUDY_PARTIALS_DIRNAME,
        StaleCampaignError,
    )

    shard = _parse_shard(args.shard) if args.shard else None
    if shard is not None and not args.campaign_dir:
        raise SystemExit(
            "repro study: error: --shard writes a partial into the "
            "campaign directory; pass --campaign-dir DIR")

    if args.campaign_dir:
        try:
            index = ConditionIndex.from_campaign_dir(
                args.campaign_dir, cache_dir=args.cache_dir)
        except (StaleCampaignError, FileNotFoundError) as error:
            raise SystemExit(f"repro study: error: {error}")
        plan = index.plan()
        if args.sites:
            missing = sorted(set(args.sites) - set(plan.sites))
            if missing:
                raise SystemExit(
                    f"repro study: error: campaign has no recordings "
                    f"for sites: {', '.join(missing)}")
            plan = StudyPlan(sites=list(args.sites),
                             networks=plan.networks,
                             stacks=plan.stacks, pairs=plan.pairs)
    else:
        sites = args.sites or DEFAULT_SITES
        testbed = Testbed(runs=args.runs, seed=args.seed)
        testbed.sweep(sites=sites)
        plan = StudyPlan(sites=sites)
        index = ConditionIndex.from_testbed(testbed, plan)

    if shard is not None:
        partial = _study_partial(index, plan, args, shard=shard)
        worker = args.worker_id or f"shard-{shard[0]}-of-{shard[1]}"
        path = (Path(args.campaign_dir) / STUDY_PARTIALS_DIRNAME /
                f"{worker}.json")
        partial.write(path)
        survivors = sum(row[-1] for _, row in partial.funnels.items())
        print(f"wrote study partial {path} "
              f"(shard {shard[0]}:{shard[1]}, "
              f"{survivors} surviving sessions)")
        return 0

    if args.serve:
        if args.campaign_dir:
            partial = _merged_study_partial(index, plan, args,
                                            args.campaign_dir)
        else:
            partial = _study_partial(index, plan, args)
        study_index = StudyIndex(index, partial)
        print(f"ready: {study_index.conditions} conditions warm; "
              f"one JSON query per line "
              f"(ops: ping/condition/mos/ab; 'quit' ends)",
              flush=True)
        serve_study_queries(study_index, sys.stdin, sys.stdout)
        return 0

    if args.campaign_dir:
        partial = _merged_study_partial(index, plan, args,
                                        args.campaign_dir)
    else:
        partial = _study_partial(index, plan, args)
    print(build_report(partial, index).render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    site = build_site(args.site, seed=args.seed)
    save_website(site, args.path)
    print(f"wrote {site.name} ({site.object_count} objects) to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Perceiving QUIC (CoNEXT 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1 and 2")
    sub.add_parser("sites", help="list the 36 corpus sites")

    p_load = sub.add_parser("load", help="load one site everywhere")
    p_load.add_argument("site", choices=list(CORPUS_SITE_NAMES))
    p_load.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="record the condition grid")
    p_sweep.add_argument("--runs", type=int, default=5)
    p_sweep.add_argument("--seed", type=int, default=3)
    p_sweep.add_argument("--sites", nargs="*", default=None)

    p_campaign = sub.add_parser(
        "campaign",
        help="run a declarative, resumable campaign over a process pool")
    p_campaign.add_argument("--sites", nargs="*", default=None,
                            help="corpus sites (default: the quick six)")
    p_campaign.add_argument("--networks", nargs="*", default=None,
                            help="Table 2 network names (default: all four)")
    p_campaign.add_argument("--stacks", nargs="*", default=None,
                            help="Table 1 stack names (default: all five)")
    p_campaign.add_argument("--seeds", nargs="*", type=int,
                            default=CAMPAIGN_GRID_DEFAULTS["seeds"],
                            help="simulation seeds (extra sweep axis)")
    for axis in axes.OPTIONAL_AXES:
        p_campaign.add_argument(f"--{axis.plural}", nargs="*",
                                choices=list(axis.choices),
                                default=CAMPAIGN_GRID_DEFAULTS[axis.plural],
                                help=axis.help)
    p_campaign.add_argument("--loss-sweep", nargs="*", default=None,
                            metavar="NET:P1,P2",
                            help="derived lossy profiles, e.g. DSL:0.01,0.05")
    p_campaign.add_argument("--runs", type=int,
                            default=CAMPAIGN_GRID_DEFAULTS["runs"],
                            help="page loads recorded per condition "
                                 "(a typical run is selected; default: 5)")
    p_campaign.add_argument("--timeout", type=float,
                            default=CAMPAIGN_GRID_DEFAULTS["timeout"],
                            help="per-load simulated-time budget in "
                                 "seconds (default: 180)")
    p_campaign.add_argument("--metric",
                            default=CAMPAIGN_GRID_DEFAULTS["metric"],
                            help="typical-run selection metric")
    p_campaign.add_argument("--processes", type=int, default=None,
                            help="worker processes (default: CPUs-1; "
                                 "1 = inline)")
    p_campaign.add_argument("--batch-size", type=int, default=None,
                            help="conditions per worker task (default: "
                                 "a few batches per worker)")
    p_campaign.add_argument("--failure-policy", default="retry",
                            choices=["retry", "skip", "abort"],
                            help="what a failed condition does to the "
                                 "run: retry it a few times, record it "
                                 "and move on, or abort the campaign "
                                 "(default: retry)")
    p_campaign.add_argument("--cache-dir", default=None,
                            help="recording cache directory "
                                 "(default: $REPRO_CACHE_DIR or .repro-cache)")
    p_campaign.add_argument("--name",
                            default=CAMPAIGN_GRID_DEFAULTS["name"],
                            help="campaign name (labels the manifest dir)")
    p_campaign.add_argument("--quiet", action="store_true",
                            help="suppress per-condition progress lines")
    p_campaign.add_argument("--report", action="store_true",
                            help="render a Table 1/2-style pivot "
                                 "(mean ± CI, Welch marks) after the run")
    p_campaign.add_argument("--pivot", default="network,stack",
                            metavar="AXES",
                            help="pivot axes, rows...,columns (subset "
                                 f"of {','.join(axes.AXIS_NAMES)}; "
                                 "default: network,stack)")
    p_campaign.add_argument("--format", default="text",
                            choices=["text", "md", "json"],
                            help="report output format")
    p_campaign.add_argument("--report-metric", default="SI",
                            help="metric aggregated in the report "
                                 "(default: SI)")
    p_campaign.add_argument("--confidence", type=float, default=0.99,
                            help="CI level / Welch alpha = 1-confidence "
                                 "(default: 0.99)")
    p_campaign.add_argument("--campaign-dir", default=None,
                            help="report post-hoc on this finished "
                                 "campaign directory (no conditions are "
                                 "run; spec axes are ignored)")
    p_campaign.add_argument("--allow-stale", action="store_true",
                            help="with --campaign-dir: report on a "
                                 "directory recorded under an older "
                                 "SIM_BEHAVIOUR_VERSION instead of "
                                 "refusing (results are not comparable "
                                 "with current simulations)")
    p_campaign.add_argument("--from-partials", action="store_true",
                            help="with --campaign-dir: merge the "
                                 "workers' partials/<worker>.json "
                                 "shards (plus any uncovered summaries) "
                                 "instead of re-reading every summary; "
                                 "requires the shards' pivot config to "
                                 "match the report flags")
    p_campaign.add_argument("--join", default=None, metavar="DIR",
                            help="join an existing campaign directory "
                                 "as a cooperative lease-claiming "
                                 "worker (the grid comes from the "
                                 "directory's spec.json; run from any "
                                 "host that mounts DIR and the cache)")
    p_campaign.add_argument("--workers", type=int, default=None,
                            metavar="N",
                            help="run N cooperative workers on this "
                                 "machine (with or without --join) "
                                 "under a supervisor that splits the "
                                 "CPUs among them, respawns crashed or "
                                 "stalled ones with capped backoff and "
                                 "quarantines conditions that keep "
                                 "killing workers; each claims "
                                 "conditions through the lease protocol "
                                 "and writes its own partial aggregate "
                                 "(default: one worker in this process)")
    p_campaign.add_argument("--worker-id", default=None,
                            help="cooperative worker identity stamped "
                                 "on claims, manifest lines and partial "
                                 "files (default: <host>-<pid>)")
    p_campaign.add_argument("--lease-ttl", type=float, default=60.0,
                            metavar="SECONDS",
                            help="seconds without a heartbeat before "
                                 "another worker may reclaim a claimed "
                                 "condition (default: 60)")
    p_campaign.add_argument("--lease-heartbeat", type=float,
                            default=15.0, metavar="SECONDS",
                            help="seconds between heartbeat touches on "
                                 "held claims; must be well below "
                                 "--lease-ttl (default: 15)")
    p_campaign.add_argument("--lease-poll", type=float, default=1.0,
                            metavar="SECONDS",
                            help="seconds between polls of conditions "
                                 "other workers hold (default: 1)")
    p_campaign.add_argument("--claim-chunk", type=int, default=None,
                            metavar="N",
                            help="conditions one worker claims per "
                                 "pass; small chunks share a grid more "
                                 "evenly, large ones amortise claim "
                                 "overhead (default: two rounds of the "
                                 "worker's process pool)")
    p_campaign.add_argument("--inject-faults", default=None,
                            metavar="PLAN",
                            help="deterministic chaos plan: "
                                 "'kind:worker@index[:arg]; ...' "
                                 "entries (kinds: crash, stall, "
                                 "torn-write, storm), 'seed:N' for a "
                                 "generated plan, or a .json plan file "
                                 "(see repro.testbed.faults)")
    p_campaign.add_argument("--retry-budget", type=int, default=3,
                            metavar="K",
                            help="with --workers: worker deaths one "
                                 "condition may cause before it is "
                                 "quarantined as poisoned (default: 3)")
    p_campaign.add_argument("--max-respawns", type=int, default=8,
                            metavar="N",
                            help="with --workers: respawns allowed "
                                 "per worker slot before the "
                                 "supervisor gives up on it "
                                 "(default: 8)")
    p_campaign.add_argument("--status", default=None, metavar="DIR",
                            help="print a one-shot health report over "
                                 "a campaign directory (done/pending/"
                                 "leased/stale/poisoned counts, "
                                 "per-worker liveness, torn-line "
                                 "warnings; --format json for machine "
                                 "output) and exit")

    p_lint = sub.add_parser(
        "lint",
        help="determinism & hot-path static analysis over the source "
             "tree (simlint); exits non-zero on any unsuppressed "
             "finding")
    add_lint_arguments(p_lint)

    p_study = sub.add_parser(
        "study",
        help="run the perception studies: Table 3 funnel + Figures 3-6, "
             "shardable over a campaign directory, with a warm --serve "
             "query mode")
    p_study.add_argument("--runs", type=int, default=5,
                         help="testbed page loads per condition (ignored "
                              "with --campaign-dir; default: 5)")
    p_study.add_argument("--seed", type=int, default=3)
    p_study.add_argument("--scale", type=float, default=0.2,
                         help="participant count as a fraction of the "
                              "paper's (default: 0.2)")
    p_study.add_argument("--sites", nargs="*", default=None)
    p_study.add_argument("--campaign-dir", default=None,
                         help="aggregate over a recorded campaign "
                              "directory instead of sweeping a fresh "
                              "testbed")
    p_study.add_argument("--cache-dir", default=None,
                         help="recording cache backing --campaign-dir "
                              "(default: the campaign's own cache)")
    p_study.add_argument("--shard", default=None, metavar="I:K",
                         help="process participant blocks b with "
                              "b %% K == I only and write a mergeable "
                              "partial into CAMPAIGN_DIR/study_partials/")
    p_study.add_argument("--worker-id", default=None,
                         help="file stem for the --shard partial "
                              "(default: shard-I-of-K)")
    p_study.add_argument("--serve", action="store_true",
                         help="warm the per-condition index, then answer "
                              "JSON-lines queries from stdin")

    p_export = sub.add_parser("export", help="export a site as JSON")
    p_export.add_argument("site", choices=list(CORPUS_SITE_NAMES))
    p_export.add_argument("path")
    p_export.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    return run_lint_cli(args, prog="repro lint")


COMMANDS = {
    "tables": _cmd_tables,
    "sites": _cmd_sites,
    "load": _cmd_load,
    "sweep": _cmd_sweep,
    "campaign": _cmd_campaign,
    "study": _cmd_study,
    "export": _cmd_export,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
