"""Seeded input generators. The same seed yields the same job stream and the
same circuits; the program under test only ever sees these job lines and the
QASM files the probe writes.

The seed picks sampling seeds, job order and the circuits of the jobs
meant to miss the plan cache. The mix itself (circuit shapes, shot counts,
options) is fixed, and so are the recurring QV circuits: a QV circuit's
seed draws its qubit pairing, which sets how well it blocks and fuses, so
every seed asks for the same amount of work."""
import itertools
import json
import random

SMALL_QFT = (8, 10, 12, 14)
SMALL_QV = ((8, 8), (10, 6), (12, 4), (14, 3))  # (qubits, depth)
SMALL_VARIANTS = ("plain", "blocked", "f32", "fusion", "ranks4", "readout")
SMALL_FRESH_EVERY = 8  # a fresh (cache-missing) QV job per 8 deck jobs
# Jobs per cycle of small_stream: the deck plus its fresh QV jobs.
SMALL_CYCLE = len(SMALL_QFT + SMALL_QV) * len(SMALL_VARIANTS) * (
    SMALL_FRESH_EVERY + 1) // SMALL_FRESH_EVERY
READOUT = [0.02, 0.03]

# (kind, qubits, depth, shots under depolarizing, shots under damping):
# damping costs several times more per shot, so it gets fewer shots and the
# jobs stay within a few x of each other in cost.
NOISY_CIRCUITS = (("qv", 10, 6, 256, 128), ("qv", 12, 4, 256, 64),
                  ("qft", 10, 0, 256, 64), ("qft", 11, 0, 256, 64))
NOISY_CYCLE = len(NOISY_CIRCUITS) * 4  # x 2 channels x blocked or not
DEPOLARIZING = {"depolarizing": 0.005}
DAMPING = {"amplitude_damping": 0.02}

# Circuit seed of every recurring QV circuit.
QV_CIRCUIT_SEED = 1234

RUN_QUBITS = 27
RUN_SHOTS = 1024


def job_line(job):
    return json.dumps(job, separators=(",", ":"), sort_keys=True)


def without_id(job):
    return job_line({k: v for k, v in job.items() if k != "id"})


def _seed(rng):
    return rng.randrange(1, 2**31)


def _variant_options(variant):
    return {
        "plain": {},
        "blocked": {"blocked": True},
        "f32": {"precision": "f32"},
        "fusion": {"fusion": True},
        "ranks4": {"ranks": 4},
        "readout": {},
    }[variant]


def _circuit(kind, n, depth, cseed):
    return {"qft": n} if kind == "qft" else {"qv": [n, depth, cseed]}


def small_stream(seed):
    """serve_small: a deck of 48 (shape x option variant) sampled jobs that
    recurs in shuffled order, so the plan cache mostly hits, with a fresh
    QV circuit (a cache miss) after every SMALL_FRESH_EVERY deck jobs."""
    rng = random.Random(seed)
    shapes = [("qft", n, 0, 0) for n in SMALL_QFT]
    shapes += [("qv", n, d, QV_CIRCUIT_SEED) for n, d in SMALL_QV]
    deck = []
    for si, (kind, n, d, cseed) in enumerate(shapes):
        for vi, variant in enumerate(SMALL_VARIANTS):
            job = _circuit(kind, n, d, cseed)
            job["shots"] = (1024, 2048)[(si + vi) % 2]
            job["options"] = dict(_variant_options(variant), seed=_seed(rng))
            if variant == "readout":
                job["noise"] = {"readout": READOUT}
            deck.append(job)
    fresh_kinds = itertools.cycle(itertools.product(
        (8, 10), ("plain", "blocked", "fusion")))
    k = 0
    while True:
        order = list(deck)
        rng.shuffle(order)
        for i, job in enumerate(order):
            if i % SMALL_FRESH_EVERY == 0:
                n, variant = next(fresh_kinds)
                fresh = _circuit("qv", n, 4, _seed(rng))
                fresh["shots"] = 1024
                fresh["options"] = dict(_variant_options(variant),
                                        seed=_seed(rng))
                k += 1
                yield dict(fresh, id="s%d" % k)
            k += 1
            yield dict(job, id="s%d" % k)


def noisy_stream(seed):
    """serve_noisy: trajectory jobs (QV/QFT, n=10-12, 64-256 shots, under
    depolarizing or amplitude-damping noise, half of them `blocked`), a deck
    of 16 that recurs in shuffled order. Every job carries gate noise: a
    noiseless job on one of these circuits would hand its sampled-mode plan
    to the noisy jobs that follow (see leak_jobs)."""
    rng = random.Random(seed + 1)
    deck = []
    for kind, n, d, dep_shots, damp_shots in NOISY_CIRCUITS:
        circ = _circuit(kind, n, d, QV_CIRCUIT_SEED)
        for channel, shots in ((DEPOLARIZING, dep_shots),
                               (DAMPING, damp_shots)):
            for blocked in (False, True):
                job = dict(circ, shots=shots, noise=dict(channel))
                job["options"] = {"seed": _seed(rng)}
                if blocked:
                    job["options"]["blocked"] = True
                deck.append(job)
    k = 0
    while True:
        order = list(deck)
        rng.shuffle(order)
        for job in order:
            k += 1
            yield dict(job, id="n%d" % k)


def leak_jobs():
    """A noiseless QFT-10 job, then the same circuit under depolarizing
    noise. Noise is not part of svsim's plan-cache key, so on a server that
    has that defect the second job reuses the first one's sampled-mode plan
    and its noise is dropped."""
    clean = {"id": "leak-clean", "qft": 10, "shots": 64,
             "options": {"seed": 1}}
    noisy = dict(clean, id="leak-noisy", noise=dict(DEPOLARIZING))
    return clean, noisy


def companions(seed, need_trajectory, need_dist):
    """Small jobs that route the traced replay through the layers a workload
    itself bypasses (trajectory execution, the distributed compiler)."""
    rng = random.Random(seed + 2)
    jobs = []
    if need_trajectory:
        jobs.append({"id": "companion-trajectory", "qv": [10, 4, _seed(rng)],
                     "shots": 64, "options": {"seed": _seed(rng)},
                     "noise": {"depolarizing": 0.01}})
    if need_dist:
        jobs.append({"id": "companion-dist", "qft": 12, "shots": 1024,
                     "options": {"seed": _seed(rng), "ranks": 4}})
    return jobs


def run_seeds(seed):
    """Sampling seeds for successive `svsim run` launches."""
    rng = random.Random(seed + 3)
    while True:
        yield _seed(rng)
