"""One benchmark workload, run in its own fresh single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --work-dir DIR
                            [--seconds S] [--budget B] [--trace] [--setup-only]

Set-up is `import parhox.cli` plus seeded input generation.  Then whole
passes over the workload's items repeat while one more pass is expected to
end within S seconds (and within B); there is always at least one.  Each
item drives parhox through `parhox.cli.main([...])` with stdout captured,
times the calls into parhox, then checks the output.  The last stdout line is a JSON
summary that bench/run.py turns into metrics.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

KPAR_DIM = {"global": 112, "idempotent": 37, "partial": 37}
HOCHSCHILD_DIMS = {"Q": [5, 0, 0], "Fp": [5, 3, 3]}


class CheckFailed(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def report_digest(doc):
    """sha256 of a parhox report with its timing field removed."""
    doc = {k: v for k, v in doc.items() if k != "timing_seconds"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class Runner:
    """Runs items; `timed` wraps each stretch of calls into parhox."""

    def __init__(self, tracer=None, digests=None):
        self.tracer = tracer
        self.cli = importlib.import_module("parhox.cli")
        self.digests = _load(DIGESTS) if digests is None else digests

    def timed(self, fn):
        t0 = time.perf_counter()
        out = self.tracer.root(fn) if self.tracer else fn()
        return out, time.perf_counter() - t0

    def cli_call(self, argv):
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return self.cli.main(argv)
        code, seconds = self.timed(call)
        doc, _ = json.JSONDecoder().raw_decode(buf.getvalue())
        check(code == 0 and doc.get("ok") is True,
              f"parhox {argv[0]} exit {code}: {doc.get('error')}")
        return doc, seconds

    def run(self, item):
        """Seconds spent in parhox on one item; raises on a failed check."""
        return getattr(self, "run_" + item["kind"].replace("-", "_"))(item)

    def run_spectral(self, item):
        doc, seconds = self.cli_call(["spectral", item["path"]])
        check(report_digest(doc) == self.digests[item["name"]],
              f"{item['name']}: report differs from the committed digest")
        return seconds

    def run_hochschild(self, item):
        doc, seconds = self.cli_call(["hochschild", item["path"],
                                      "--max-n", "2"])
        res = doc["result"]
        check(res["oracle_agreement"] is True, "bar and resolution disagree")
        dims = [res["dims"][f"H{q}"] for q in range(3)]
        check(dims == HOCHSCHILD_DIMS[item["field"]],
              f"{item['name']}: dims {dims}")
        return seconds

    def run_build_kpar(self, item):
        doc, seconds = self.cli_call([
            "build-kpar", item["group"], "--sigma", item["sigma"],
            "--field", json.dumps(item["field_json"])])
        res = doc["result"]
        want = KPAR_DIM[item["twist"]]
        check(res["dim"] == want and len(res["vanished"]) == 112 - want,
              f"{item['name']}: dim {res['dim']}")
        if item["twist"] == "idempotent":
            ideal, more = self.timed(lambda: self._ideal_route(item))
            seconds += more
            check(ideal.algebra.to_json()["sc"] == res["sc"] and
                  [ideal.monomial_label(p) for p in range(ideal.dim)]
                  == res["basis"],
                  f"{item['name']}: rewrite and semigroup-ideal routes differ")
        return seconds

    @staticmethod
    def _ideal_route(item):
        # looked up at call time so a traced run sees the wrapped functions
        mods = {m: sys.modules[f"parhox.{m}"] for m in
                ("groups", "fields", "factor_sets", "partial_algebras")}
        group = mods["groups"].FiniteGroup.from_json(_load(item["group"]))
        field = mods["fields"].field_from_json(item["field_json"])
        sigma = mods["factor_sets"].PartialFactorSet.from_json(
            group, field, _load(item["sigma"]))
        return mods["partial_algebras"].build_kpar_idempotent(sigma)


def run_iterations(runner, items, seconds, budget):
    """Whole passes over items; returns (per-iteration records, attempted,
    failed)."""
    iterations = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        first_span = len(runner.tracer.spans) if runner.tracer else 0
        counts0 = dict(runner.tracer.counts) if runner.tracer else {}
        wall = {"Q": 0.0, "Fp": 0.0}
        for item in items:
            attempted += 1
            try:
                wall[item["field"]] += runner.run(item)
            except Exception as exc:     # any error fails the item, not the run
                failed += 1
                print(f"FAILED {item['name']}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
        rec = {"wall_s": wall["Q"] + wall["Fp"], "wall_q_s": wall["Q"],
               "wall_fp_s": wall["Fp"]}
        if runner.tracer:
            rec["layers"] = runner.tracer.self_times(first_span)
            rec["counts"] = {k: v - counts0.get(k, 0)
                             for k, v in runner.tracer.counts.items()}
        iterations.append(rec)
        # start another pass only if one more like this one ends in time
        now = time.perf_counter()
        if (now - start) + (now - t0) > min(seconds, budget):
            break
    return iterations, attempted, failed


def summarize(iterations):
    """Medians over iterations; layer self times merged the same way."""
    out = {k: statistics.median(it[k] for it in iterations)
           for k in ("wall_s", "wall_q_s", "wall_fp_s")}
    out["iterations"] = len(iterations)
    if "layers" in iterations[0]:
        names = sorted({n for it in iterations for n in it["layers"]})
        out["layers"] = {
            n: {"self_s": statistics.median(
                    it["layers"].get(n, [0.0, 0])[0] for it in iterations),
                "calls": iterations[0]["layers"].get(n, [0.0, 0])[1]}
            for n in names}
        out["counts"] = iterations[0]["counts"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--budget", type=float, default=150.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    importlib.import_module("parhox.cli")
    import gen
    from parhox.problems import fixture_dir
    items = gen.generate(args.workload, args.seed,
                         os.path.join(args.work_dir, "inputs"), fixture_dir())
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    iterations, attempted, failed = run_iterations(
        runner, items, args.seconds, args.budget - setup_s)
    summary = summarize(iterations)
    if tracer:
        tracer.uninstall()
        tracer.dump(os.path.join(args.work_dir, "spans.json"))
    summary.update(setup_s=setup_s, attempted=attempted, failed=failed,
                   items=len(items),
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
