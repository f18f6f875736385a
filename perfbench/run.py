"""Benchmark of the `moprc` package: colorings, verification, exact search.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload random-200 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

One run builds a workload's graphs from the public API, then makes
whole passes over them until another pass would overrun --seconds; it
always makes at least one. A pass calls rainbow_coloring and
is_rainbow_connected on each instance, repeating them until they fill
REPEAT_UNTIL_S, and then exact_rc once on exact-small. Timings are
scaled to a reference speed of the host (see speed.py). Every output
is checked against `reference.py`, which does not use `moprc.verify`.
The last line of standard output is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A full
record of the run (failures per instance, determinism digest, spans)
is written under perfbench/out/.

The instances are fixed by --corpus-seed, not by --seed: the cost of
one instance varies tenfold between random seeds, so a corpus drawn
anew for every run could not give steady figures. --seed only shuffles
the order in which a pass visits the instances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("random-200", "strips", "exact-small", "over-caps")
SETUP_REPEATS = 5
# Speed samples are taken this long before and after each set-up.
SETUP_SAMPLING_S = 0.1
# An instance's coloring and verification repeat within a pass until
# they fill this long. Calls of a few milliseconds are then timed warm,
# and over enough time that the host's speed swings, which last about a
# second, average out.
REPEAT_UNTIL_S = 1.0
# random-200 makes only three verification calls of under a second per
# pass, too little time to average out the host's speed swings; checking
# each of its colorings three times gives about six seconds.
VERIFY_REPEATS = {"random-200": 3}
# Confirms a claim on instances not used while the change was written.
HELD_OUT_CORPUS_SEED = 4


def build_instances(moprc, workload: str, c: int, wrap=lambda name, fn: fn):
    """The workload's (instance id, graph) list for corpus seed c."""
    random_graph = wrap("generators", moprc.random_mop_graph)
    lad = wrap("generators", moprc.lad)
    lad_plus = wrap("generators", moprc.lad_plus)
    if workload == "random-200":
        return [(f"random_mop(200,{s})", random_graph(200, s)) for s in range(c, c + 3)]
    if workload == "strips":
        out = []
        for d in range(10, 21):
            out.append((f"lad({d})", lad(d).graph))
            out.append((f"lad_plus({d})", lad_plus(d).graph))
        return out
    if workload == "exact-small":
        return [
            (f"random_mop({n},{s})", random_graph(n, s))
            for n in (12, 13, 14)
            for s in range(c, c + 3)
        ]
    if workload == "over-caps":
        return [
            ("lad(21)", lad(21).graph),
            ("lad_plus(21)", lad_plus(21).graph),
            ("lad(24)", lad(24).graph),
            (f"random_mop(210,{c})", random_graph(210, c)),
            (f"random_mop(220,{c})", random_graph(220, c)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _digest(colors) -> str:
    return hashlib.sha256(repr(sorted(colors.items())).encode()).hexdigest()


class Run:
    """State of one measured run: timings, counts, checks and failures."""

    def __init__(self, workload: str, reference, tracer=None):
        self.verify_repeats = VERIFY_REPEATS.get(workload, 1)
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        # (instance, op, reason) -> how often; a repeated call fails alike
        self.failures: dict[tuple[str, str, str], int] = {}
        self.wrong_output = False
        self.passes: list[dict] = []
        self.sampler = None
        self.first: dict[str, dict] = {}  # coloring per instance, from its first call
        self.first_exact: dict[str, dict] = {}
        self.shape: dict[str, tuple[int, int]] = {}

    def fail(self, instance: str, op: str, reason: str, wrong: bool) -> None:
        self.failed += 1
        key = (instance, op, reason)
        self.failures[key] = self.failures.get(key, 0) + 1
        self.wrong_output = self.wrong_output or wrong

    def timed(self, instance: str, op: str, fn, *args, **kwargs):
        """Call fn and log its timing in the pass; a raise is a failure."""
        self.attempted += 1
        start = self.sampler.mark()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a library error is a result to record
            self.fail(instance, op, type(exc).__name__ + ": " + str(exc), False)
            result = None
        end = self.sampler.mark()
        # (start, end, net) triples in a flat array of doubles, so that
        # faster code, which fits in more calls, barely moves peak memory.
        calls = self.passes[-1]["calls"].setdefault((op, instance), array("d"))
        calls.extend((start[0], end[0], end[0] - start[0] - (end[1] - start[1])))
        return result

    def diam_rad(self, instance: str, g) -> tuple[int, int]:
        if instance not in self.shape:
            self.shape[instance] = self.reference.diameter_radius(g)
        return self.shape[instance]

    def instance(self, instance: str, g, api, exact: bool) -> None:
        """Color and verify until REPEAT_UNTIL_S is filled, then run exact."""
        if self.tracer:
            self.tracer.tag = instance
        start = time.perf_counter()
        self.color_and_verify(instance, g, api)
        while time.perf_counter() - start < REPEAT_UNTIL_S:
            self.color_and_verify(instance, g, api)
        if exact:
            self.exact(instance, g, api, self.first.get(instance))

    def color_and_verify(self, instance: str, g, api) -> None:
        tally = self.passes[-1]
        coloring_out = self.timed(instance, "color", api["color"], g)
        rec = self.first.get(instance)
        if coloring_out is not None:
            colors = coloring_out[0].colors
            used = len(set(colors.values()))
            digest = _digest(colors)
            if rec is None:
                diam, rad = self.diam_rad(instance, g)
                problem = self.reference.coloring_problem(g, colors)
                rainbow = problem is None
                if rainbow and not diam <= used <= 3 * rad:
                    problem = f"{used} colors outside [diam {diam}, 3*rad {3 * rad}]"
                rec = {"digest": digest, "used": used, "diam": diam,
                       "rainbow": rainbow, "ok": problem is None}
                self.first[instance] = rec
                if problem is not None:
                    self.fail(instance, "color", problem, True)
            elif digest != rec["digest"]:
                rec["ok"] = False
                self.fail(instance, "color", "output differs from the first call", True)
            reference_ok = rec["rainbow"] if digest == rec["digest"] else None
            tally["verified"][instance] = tally["verified"].get(instance, 0) + rec["ok"]
            for _ in range(self.verify_repeats):
                res = self.timed(
                    instance, "verify", api["verify"], g, coloring_out[0],
                    max_n=g.n, max_colors=used,
                )
                if res is None:
                    continue
                tally["pairs"][instance] = tally["pairs"].get(instance, 0) + res.pairs_checked
                if reference_ok is not None and res.ok != reference_ok:
                    reason = f"verdict ok={res.ok} disagrees with reference"
                    self.fail(instance, "verify", reason, True)

    def one_pass(self, instances, api, exact: bool) -> None:
        self.passes.append({"verified": {}, "pairs": {}, "calls": {}})
        for instance, g in instances:
            self.instance(instance, g, api, exact)

    def tallies(self) -> list[dict]:
        """Per pass, counts and seconds (raw and scaled) of one visit.

        A visit calls each function once per instance: an instance's
        seconds are the median over the calls the pass repeated (robust
        to the odd call of a few milliseconds that the host preempts),
        and its counts are means, so cheap instances, which repeat most,
        do not outweigh the others.
        """
        out = []
        for p in self.passes:
            tally = {}
            for op in ("color", "verify", "exact"):
                tally[op + "_raw_s"] = tally[op + "_s"] = 0.0
            for (op, _), calls in p["calls"].items():
                triples = [calls[i:i + 3] for i in range(0, len(calls), 3)]
                tally[op + "_raw_s"] += statistics.median(net for _, _, net in triples)
                tally[op + "_s"] += statistics.median(
                    net * self.sampler.scale(start, end) for start, end, net in triples
                )
            for key, op in (("verified", "color"), ("pairs", "verify")):
                tally[key] = sum(
                    3 * count / len(p["calls"][op, instance])
                    for instance, count in p[key].items()
                )
            out.append(tally)
        return out

    def color_wall_per_visit(self) -> float:
        """Wall seconds around coloring calls, per call of each instance."""
        walls: dict[str, list[float]] = {}
        for p in self.passes:
            for (op, instance), calls in p["calls"].items():
                if op == "color":
                    walls.setdefault(instance, []).extend(
                        calls[i + 1] - calls[i] for i in range(0, len(calls), 3)
                    )
        return sum(statistics.fmean(w) for w in walls.values())

    def exact(self, instance: str, g, api, coloring_rec) -> None:
        res = self.timed(instance, "exact", api["exact"], g)
        if res is None:
            return
        cert = res.certificate.colors
        rec = {"digest": _digest(cert), "value": res.value}
        if instance in self.first_exact:
            if self.first_exact[instance] != rec:
                self.fail(instance, "exact", "output differs from the first call", True)
            return
        self.first_exact[instance] = rec
        diam, _ = self.diam_rad(instance, g)
        upper = coloring_rec["used"] if coloring_rec and coloring_rec["ok"] else g.m
        problem = self.reference.coloring_problem(g, cert)
        if problem is None and len(set(cert.values())) != res.value:
            problem = f"certificate uses {len(set(cert.values()))} colors, value {res.value}"
        if problem is None and not diam <= res.value <= upper:
            problem = f"value {res.value} outside [diam {diam}, constructed {upper}]"
        if problem is not None:
            self.fail(instance, "exact", problem, True)

    def digest(self) -> str:
        """Hash of every coloring and exact value, independent of visit order."""
        parts = sorted(f"{k} {v['digest']}" for k, v in self.first.items())
        parts += sorted(f"{k} {v['digest']} {v['value']}" for k, v in self.first_exact.items())
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def setup_probe(workload: str, corpus_seed: int) -> None:
    """Time importing moprc and building the workload's graphs, in-process."""
    with SpeedSampler() as sampler:
        time.sleep(SETUP_SAMPLING_S)
        start = sampler.mark()
        import moprc

        build_instances(moprc, workload, corpus_seed)
        end = sampler.mark()
        time.sleep(SETUP_SAMPLING_S)
    net = end[0] - start[0] - (end[1] - start[1])
    print(net * sampler.scale(start[0], end[0]))


def measure_setup(workload: str, corpus_seed: int) -> list[float]:
    """Set-up times of fresh interpreters, after one discarded warm-up."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--corpus-seed", str(corpus_seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


def measure(args, spec) -> int:
    import moprc

    import reference
    from tracer import Tracer, layer_metrics

    setup_samples = measure_setup(args.workload, args.corpus_seed)
    tracer = Tracer() if args.trace else None
    wrap = tracer.wrap if tracer else (lambda name, fn, note=None: fn)
    instances = build_instances(moprc, args.workload, args.corpus_seed, wrap)
    random.Random(args.seed).shuffle(instances)
    api = {
        "color": wrap("coloring", moprc.rainbow_coloring, lambda r: 1),
        "verify": wrap("verify.check", moprc.is_rainbow_connected, lambda r: r.pairs_checked),
        "exact": wrap("verify.exact", moprc.exact_rc, lambda r: len(r.ruled_out) + 1),
    }
    exact = args.workload == "exact-small"
    run = Run(args.workload, reference, tracer)
    if tracer:
        tracer.install()
    with SpeedSampler() as run.sampler:
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            run.one_pass(instances, api, exact)
            now = time.perf_counter()
            if now - start + (now - t) > args.seconds:
                break
    if tracer:
        tracer.uninstall()
    tallies = run.tallies()
    passes = len(tallies)

    def median_of(fn) -> float:
        return statistics.median(fn(p) for p in tallies)

    colorings_per_s = median_of(lambda p: p["verified"] / p["color_s"])
    raw_colorings_per_s = median_of(lambda p: p["verified"] / p["color_raw_s"])
    ok = [r for r in run.first.values() if r["ok"]]
    sum_diam = sum(r["diam"] for r in ok)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "colorings_per_s": colorings_per_s,
        "verify_pairs_per_s": median_of(
            lambda p: p["pairs"] / p["verify_s"] if p["verify_s"] else 0.0
        ),
        "pass_s": median_of(lambda p: p["color_s"] + p["verify_s"] + p["exact_s"]),
        "colors_per_diam": sum(r["used"] for r in ok) / sum_diam if sum_diam else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "trace": args.trace,
        "passes": passes,
        "instances": [i for i, _ in instances],
        "setup_samples_s": setup_samples,
        "pass_tallies": tallies,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_rate": run.failed / run.attempted,
        "failures": [
            {"workload": args.workload, "instance": i, "op": op, "reason": reason, "count": n}
            for (i, op, reason), n in run.failures.items()
        ],
        "digest": run.digest(),
        "end_to_end": end_to_end,
        "raw_colorings_per_s": raw_colorings_per_s,
    }
    if tracer:
        layers = layer_metrics(tracer.spans)
        layers["trace.colorings_per_s"] = colorings_per_s
        record["per_layer"] = layers
        record["coloring_time_check"] = {
            "measured_around_calls_s": run.color_wall_per_visit(),
            "spans_self_plus_children_s": sum(layers[k] for k in (
                "coloring.self_s", "metrics.ecc_s", "spine.build_ccs_s",
                "spine.realize_s", "verify.repair_s")),
        }
        chosen, kind = layers, "per_layer"
    else:
        chosen, kind = end_to_end, "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(chosen):
        raise RuntimeError(f"{kind} metrics {sorted(chosen)} do not match BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.as_records()) + "\n")

    print(f"workload {args.workload}: {len(instances)} instances, {passes} passes, "
          f"digest {record['digest']}")
    print(f"fail_rate {record['fail_rate']:.4f} ratio ({run.failed} of {run.attempted})")
    for f in record["failures"]:
        print(f"  failed {f['instance']} {f['op']} x{f['count']}: {f['reason']}")
    for name, value in chosen.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.wrong_output,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in chosen.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--corpus-seed", str(args.corpus_seed)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(f"== {workload} (exit {done.returncode})")
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=1,
                        help=f"instance corpus; {HELD_OUT_CORPUS_SEED} is the held-out one")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "moprc" / "__init__.py").is_file():
        print(f"error: no moprc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.corpus_seed)
        return 0
    if args.workload is None:
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
