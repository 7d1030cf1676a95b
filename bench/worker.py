"""One fresh interpreter of the benchmark: set up, then one pass or the micros.

Run by run.py, never by hand:

    python3 bench/worker.py '<json config>'

Each timed pass gets its own interpreter so the program's lru_caches start
empty, as they do for one `k4` invocation.  The result is one JSON object
on the last line of standard output.  ``setup_done`` is a CLOCK_MONOTONIC
reading, which the parent compares with its own reading taken just before
it started this process.

Speed probe.  On a shared host the speed of this process drifts by 15 % and
more over tens of seconds, while the ratio of the program's time to the time
of a fixed pure-Python loop stays within about 1.5 %.  So the worker times
that loop (``probe_s``, about 5 ms) three times before and after a pass, at
the start of every item, and every ``PROBE_INTERVAL`` seconds from a timer
signal.  It reports each item's time scaled to a probe of ``PROBE_REF_S``:

    ms = (wall - probe time inside the item) * PROBE_REF_S / speed

where speed is the median probe inside the item, or over the
``SPEED_SAMPLES`` probes nearest to a short item.  Set-up time is scaled
the same way by the median of three probes taken right after set-up.

The unscaled wall times are reported too (``wall_ms``, ``run_wall_s``).
"""

import json
import signal
import statistics
import sys
import time

PROBE_INTERVAL = 0.5
SPEED_SAMPLES = 9
PROBE_REF_S = 0.0055  # the probe's median on a 2-core Xeon, Python 3.11


def probe_s():
    """Time of a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for b in range(1, 3000):  # bit-serial products, like BinaryField.mul
        r, x, y = 0, 0x5A5, b
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x & 0x1000:
                x ^= 0x100B
        acc ^= r
    for _ in range(4):        # small tuples and dict traffic, like Poly
        objs = {}
        for i in range(2000):
            objs[(i, acc & i)] = (i, i + 1)
    return time.perf_counter() - t0


def _speed(samples, t0, t1):
    """Median probe over an item: every probe inside it, or if there are
    fewer than SPEED_SAMPLES of those, the SPEED_SAMPLES nearest in time."""
    inside = [d for t, d in samples if t0 <= t <= t1]
    if len(inside) < SPEED_SAMPLES:
        inside = [d for _, d in sorted(
            samples, key=lambda s: max(t0 - s[0], s[0] - t1))[:SPEED_SAMPLES]]
    return statistics.median(inside)


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(cfg, api, wl, inputs):
    import traceback
    with open(cfg["golden"]) as fh:
        golden = json.load(fh)
    tracer = None
    run_item = wl.run_item
    if cfg["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(api)
        run_item = tracer.item(run_item)

    samples = []  # (time the probe ended, its duration)

    def sample(*_):
        d = probe_s()
        samples.append((time.perf_counter(), d))

    for _ in range(3):  # so the first item has probes before it
        sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
    items, intervals = [], []
    for index, item in enumerate(inputs):
        wl.prepare_item(api, item)
        sample()
        first = len(samples)
        t0 = time.perf_counter()
        try:
            output = run_item(api, item)
        except Exception:
            error = traceback.format_exc(limit=3)
            output = None
        else:
            error = None
        t1 = time.perf_counter()
        work = t1 - t0 - sum(d for _, d in samples[first:])
        if error is None:
            error = wl.check_item(item, output, golden, cfg["seed"], index)
        items.append({"wall_ms": work * 1e3, "error": error})
        intervals.append((t0, t1))
    signal.setitimer(signal.ITIMER_REAL, 0)
    for _ in range(3):  # so the last item has probes after it
        sample()
    for it, (t0, t1) in zip(items, intervals):
        speed = _speed(samples, t0, t1)
        it["probe_ms"] = speed * 1e3
        it["ms"] = it["wall_ms"] * PROBE_REF_S / speed

    result = {"items": items,
              "run_s": sum(it["ms"] for it in items) / 1e3,
              "run_wall_s": sum(it["wall_ms"] for it in items) / 1e3,
              "peak_rss_mb": _peak_rss_mb(),
              "pass_error": wl.check_inputs(inputs, golden, cfg["size"])}
    if tracer is not None:
        # span times are wall times; put them on the scale of run_s
        scale = result["run_s"] / result["run_wall_s"]
        result["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in tracer.metrics().items()}
        tracer.dump(cfg["spans"])
    return result


def main():
    cfg = json.loads(sys.argv[1])
    if cfg["mode"] == "micro":
        import micro
        result = micro.run(cfg["seed"], cfg["size"])
    else:
        import workloads
        api = workloads.load_api()
        wl = workloads.WORKLOADS[cfg["workload"]]
        inputs = wl.make_inputs(api, cfg["seed"], cfg["size"])
        result = {"setup_done": time.monotonic(),
                  "probe_s": statistics.median(probe_s() for _ in range(3))}
        if cfg["mode"] == "pass":
            result.update(run_pass(cfg, api, wl, inputs))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
